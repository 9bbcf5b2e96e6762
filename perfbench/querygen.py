"""Open-loop query generator against ``repro.serving.EmbeddingService``.

One thread runs one asyncio loop that sends a seeded mix of get / score_links
/ top_k queries, each kind equally likely, on a Poisson schedule at a fixed rate, whether or not earlier
queries have finished (independent users: an open loop).  The schedule starts
when the store first becomes queryable and ends ``tail_s`` after training
returns, so queries run beside the trainer's writes and then against the
final version.  Each query's latency is measured from the moment it was due,
which charges a stall to every query queued behind it; how late the
generator itself ran is reported separately.

Every answer is checked: ``get_vector`` must equal the store's row at the
epoch the query resolved, ``score_links`` must equal the row dot products
and ``top_k`` must not return the query node.  A wrong answer or a raised
exception counts as a failed query.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.serving import EmbeddingService

from .instrument import Marks
from .spans import Tracer

#: query kinds, drawn with equal probability: no request trace exists to
#: weight them by
KINDS = ("get", "score", "topk")
#: share of node queries aimed at a hot tenth of the nodes, and k, as in
#: ``benchmarks/bench_serving.py``
HOT_SHARE = 0.8
TOP_K = 10
#: links scored per ``score_links`` call: one, the smallest request
PAIRS_PER_SCORE = 1


@dataclass
class Query:
    kind: str
    phase: str  # "train" while train_parallel runs, then "tail"
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.done - self.due


class OpenLoopQueries:
    """Seeded open-loop query mix on its own thread (see module docstring)."""

    def __init__(
        self,
        service: EmbeddingService,
        marks: Marks,
        tracer: Tracer,
        *,
        rate: float,
        seed: int,
    ):
        self.service = service
        self.store = service.store
        self.marks = marks
        self.tracer = tracer
        self.rate = float(rate)
        self.seed = seed
        self.queries: list[Query] = []
        self._training = True
        self._stop_at: float | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, name="queries", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def finish(self, tail_s: float) -> None:
        """Mark training done, serve ``tail_s`` more seconds, then join."""
        self._training = False
        self._stop_at = perf_counter() + tail_s
        self._thread.join(timeout=tail_s + 60.0)
        if self._thread.is_alive():
            raise RuntimeError("query generator did not stop")
        if self._error is not None:
            raise RuntimeError("query generator crashed") from self._error

    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # surfaced to the caller by finish()
            self._error = exc

    async def _serve(self) -> None:
        while not self.marks.first_publish.wait(0.002):
            if self._stop_at is not None:
                return
        rng = np.random.default_rng([self.seed, 0x51])
        n = self.store.n_nodes
        hot = rng.permutation(n)[: max(1, n // 10)]
        due = perf_counter()
        while True:
            due += rng.exponential(1.0 / self.rate)
            kind = KINDS[rng.integers(len(KINDS))]
            node = int(hot[rng.integers(hot.size)] if rng.random() < HOT_SHARE
                       else rng.integers(n))
            pairs = rng.integers(n, size=(PAIRS_PER_SCORE, 2))
            if self._stop_at is not None and due >= self._stop_at:
                return
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase = "train" if self._training else "tail"
            sent = perf_counter()
            with self.tracer.span(f"serving.{kind}"):
                try:
                    ok = await self._ask(kind, node, pairs)
                except Exception:
                    ok = False
            self.queries.append(Query(kind, phase, due, sent, perf_counter(), ok))

    async def _ask(self, kind: str, node: int, pairs: np.ndarray) -> bool:
        epoch = self.store.latest_epoch
        if kind == "get":
            vec = await self.service.get_vector(node, epoch=epoch)
            return bool(np.array_equal(vec, self.store.get_one(node, epoch=epoch)))
        if kind == "score":
            scores = await self.service.score_links(pairs, epoch=epoch)
            rows = self.store.get(pairs.ravel(), epoch=epoch).reshape(-1, 2, self.store.dim)
            expect = np.einsum("kd,kd->k", rows[:, 0], rows[:, 1])
            return bool(np.allclose(scores, expect, rtol=1e-9, atol=1e-12))
        hits = await self.service.top_k(node, k=TOP_K, epoch=epoch)
        ids = [i for i, _ in hits]
        return len(ids) == min(TOP_K, self.store.n_nodes - 1) and node not in ids
