"""Observers for the objects the benchmark hands to the program.

Each wrapper is a subclass of the program's own class whose public methods
call the parent method inside a span and return its result unchanged, so a
wrapped run trains bit-identically to an unwrapped one (the traced-run check
in ``workloads.py`` pins this).  Subclasses, not proxies: ``train_parallel``
deep-copies a ``NegativeSource`` it is given, and a copy keeps its class.

``Marks`` holds the two timestamps the end-to-end freshness metric needs in
every run, traced or not: when the pipeline pulled each event's task and when
the store finished publishing each version.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from time import perf_counter

from repro.embedding.kernels import EXEC_REGISTRY, ExecBackend
from repro.parallel.tasks import WalkTask
from repro.sampling.sources import SOURCE_REGISTRY, NegativeSource
from repro.store import LocalEmbeddingStore, PublishStats

from .spans import Tracer


class Marks:
    """Per-event pull and per-version publish timestamps (perf_counter)."""

    def __init__(self) -> None:
        self.pulls: dict[int, float] = {}
        self.publishes: dict[int, float] = {}
        self.publish_stats: list[PublishStats] = []
        self.first_publish = threading.Event()


def bench_store(n_nodes: int, dim: int, tracer: Tracer, marks: Marks) -> LocalEmbeddingStore:
    """A ``"local"`` store that stamps each publish and spans it when tracing."""

    class BenchStore(LocalEmbeddingStore):
        def publish(self, epoch, vectors, *, full_copy=False):
            with tracer.span("store.publish", epoch=int(epoch)) as span:
                stats = super().publish(epoch, vectors, full_copy=full_copy)
                span.note(bytes_written=stats.bytes_written,
                          full_copies=stats.full_table_copies)
            marks.publishes[int(epoch)] = perf_counter()
            marks.publish_stats.append(stats)
            marks.first_publish.set()
            return stats

    return BenchStore(n_nodes, dim)


def traced_backend(name: str, tracer: Tracer) -> ExecBackend:
    """A registry backend whose chunk, draw and train calls are spanned."""

    class TracedBackend(EXEC_REGISTRY[name]):
        def train_chunk(self, model, walks, sampler, **kwargs):
            with tracer.span("embedding.kernels.train_chunk"):
                return super().train_chunk(model, walks, sampler, **kwargs)

        def draw_negatives(self, sampler, contexts, *args, **kwargs):
            # walk length = contexts + (window - 1) positives per context
            steps = sum(c.n + c.positives.shape[1] for c in contexts)
            with tracer.span("sampling.negative.draw_negatives", steps=steps):
                return super().draw_negatives(sampler, contexts, *args, **kwargs)

        def train_prepared(self, model, contexts, negatives):
            n = sum(c.n for c in contexts)
            with tracer.span("embedding.kernels.train_prepared", contexts=n):
                return super().train_prepared(model, contexts, negatives)

    return TracedBackend()


def traced_source(name: str, tracer: Tracer) -> NegativeSource:
    """A registry negative source whose ``observe`` calls are spanned."""

    class TracedSource(SOURCE_REGISTRY[name]):
        def observe(self, chunk_frequencies, n_walks):
            with tracer.span("sampling.sources.observe") as span:
                rebuilds = super().observe(chunk_frequencies, n_walks)
                span.note(rebuilds=int(rebuilds))
            return rebuilds

    return TracedSource()


def timed_tasks(
    tasks: Iterable[WalkTask], tracer: Tracer, marks: Marks
) -> Iterator[WalkTask]:
    """Pass ``tasks`` through, stamping (and spanning) each pull."""
    it = iter(tasks)
    while True:
        t0 = perf_counter()
        with tracer.span("graph.dynamic.task_pull") as span:
            task = next(it, None)
            if task is not None:
                span.note(epoch=task.epoch)
        if task is None:
            return
        marks.pulls[task.epoch] = t0
        yield task
