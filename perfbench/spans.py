"""Stdlib-only span recorder with Chrome trace-event and JSON-lines export.

Spans are recorded from the benchmark's own files, around the calls it makes
into the program (see ``instrument.py``).  Each span carries a name, start,
end, the id of the span that was open when it began (its parent) and the
thread it ran on.  A disabled recorder hands out one shared no-op span, so an
untraced run pays one attribute lookup per instrumented call.

Self time is a span's duration minus the part of it that its children cover.
Children on one thread nest strictly inside their parent, so the covered part
is the sum of the children's durations.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    id: int = 0
    parent: int | None = None
    tid: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """Context manager that closes one span; ``note`` adds span arguments."""

    __slots__ = ("_stack", "span")

    def __init__(self, span: Span, stack: list):
        self.span = span
        self._stack = stack

    def note(self, **args) -> None:
        self.span.args.update(args)

    def __enter__(self) -> _OpenSpan:
        return self

    def __exit__(self, *exc) -> None:
        self.span.end = perf_counter()
        self._stack.pop()


class _NoSpan:
    __slots__ = ()

    def note(self, **args) -> None:
        pass

    def __enter__(self) -> _NoSpan:
        return self

    def __exit__(self, *exc) -> None:
        pass


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._tids: dict[int, tuple[int, str]] = {}
        self._tid_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            with self._tid_lock:
                self._tids[thread.ident] = (len(self._tids) + 1, thread.name)
        return stack

    def span(self, name: str, **args):
        """Open a span; use as ``with tracer.span("layer.op") as s: ...``."""
        if not self.enabled:
            return _NO_SPAN
        stack = self._stack()
        span = Span(
            name,
            perf_counter(),
            id=next(self._ids),
            parent=stack[-1].id if stack else None,
            tid=self._tids[threading.get_ident()][0],
            args=args,
        )
        stack.append(span)
        self.spans.append(span)
        return _OpenSpan(span, stack)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time its children cover."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return {s.id: s.duration - covered[s.id] for s in self.spans}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time (seconds)."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += selfs[s.id]
        return out

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def write(self, stem: Path, program_reported: dict) -> tuple[Path, Path]:
        """Write ``<stem>.trace.json`` (Chrome trace events, opens in
        Perfetto) and ``<stem>.spans.jsonl`` (one span per line, then one
        line of program-reported numbers that no span measured)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        events: list[dict] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": name}}
            for tid, name in self._tids.values()
        ]
        for s in self.spans:
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": s.tid,
                "args": {"id": s.id, "parent": s.parent, **s.args},
            })
        chrome = stem.with_name(stem.name + ".trace.json")
        chrome.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"program_reported": program_reported},
        }))
        lines = stem.with_name(stem.name + ".spans.jsonl")
        with lines.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start_s": s.start - origin, "end_s": s.end - origin,
                    "id": s.id, "parent": s.parent, "tid": s.tid, "args": s.args,
                }) + "\n")
            fh.write(json.dumps({"program_reported": program_reported}) + "\n")
        return chrome, lines
