"""The one-BLAS-thread-per-process policy of the training engines.

``train_parallel`` — and so every entry point that trains through it, the
static ``run_all_scenario`` included — runs under
:func:`repro.utils.blas.single_blas_thread`; pool workers pin themselves in
their initializer.  These tests pin where the policy applies, that it never
leaks out of a run, and that it changes no arithmetic at the repo's shapes.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.dynamic import run_all_scenario
from repro.embedding import WalkTrainer
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import WalkTask, train_parallel
from repro.parallel import pipeline as pipeline_mod
from repro.sampling.walks import WalkParams
from repro.utils import blas
from repro.utils.blas import blas_thread_counts, single_blas_thread

HP = Node2VecParams(r=2, l=20, w=4, ns=3)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


def _tasks(graph, seen, fail_after=None):
    """A task stream that records the BLAS counts the engine runs under
    (it is iterated in the training process) and optionally raises."""
    for i in range(3):
        if fail_after is not None and i == fail_after:
            raise RuntimeError("task stream failed")
        seen.append(blas_thread_counts())
        yield WalkTask(starts=np.arange(graph.n_nodes), epoch=i)


class TestTrainParallel:
    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_pinned_inside_restored_after(self, graph, blas_spread, n_workers):
        seen = []
        train_parallel(
            graph, dim=8, hyper=HP, n_workers=n_workers, chunk_size=16,
            negative_source="degree", tasks=_tasks(graph, seen), seed=1,
        )
        assert seen and all(c == dict.fromkeys(blas_spread, 1) for c in seen)
        assert blas_thread_counts() == blas_spread

    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_restored_after_raising_mid_run(self, graph, blas_spread, n_workers):
        seen = []
        with pytest.raises(RuntimeError, match="task stream failed"):
            train_parallel(
                graph, dim=8, hyper=HP, n_workers=n_workers, chunk_size=16,
                negative_source="degree", tasks=_tasks(graph, seen, fail_after=1),
                seed=1,
            )
        assert seen == [dict.fromkeys(blas_spread, 1)]
        assert blas_thread_counts() == blas_spread

    def test_restored_after_rejected_arguments(self, graph, blas_spread):
        with pytest.raises(ValueError):
            train_parallel(graph, dim=8, hyper=HP, epochs=0)
        assert blas_thread_counts() == blas_spread


class TestTrainOnGraph:
    """The static-graph scenario (Figures 5–7) trains under the policy too."""

    def test_pinned_inside_restored_after(self, graph, blas_spread, monkeypatch):
        seen = []
        original = WalkTrainer.train_corpus

        def recording(self, walks, sampler):
            seen.append(blas_thread_counts())
            return original(self, walks, sampler)

        monkeypatch.setattr(WalkTrainer, "train_corpus", recording)
        run_all_scenario(graph, dim=8, hyper=HP, seed=1)
        assert seen
        assert all(c == dict.fromkeys(blas_spread, 1) for c in seen)
        assert blas_thread_counts() == blas_spread

    def test_restored_after_raising(self, graph, blas_spread, monkeypatch):
        def failing(self, walks, sampler):
            raise FloatingPointError("solve blew up")

        monkeypatch.setattr(WalkTrainer, "train_corpus", failing)
        with pytest.raises(FloatingPointError):
            run_all_scenario(graph, dim=8, hyper=HP, seed=1)
        assert blas_thread_counts() == blas_spread


class TestWorkers:
    def test_forked_worker_inherits_one_thread(self, blas_spread):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("no fork start method")
        with single_blas_thread(), mp.get_context("fork").Pool(1) as pool:
            child = pool.apply(blas_thread_counts)
        assert child == dict.fromkeys(blas_spread, 1)

    def test_spawned_worker_pins_in_initializer(self, graph, blas_spread):
        initargs = (graph, WalkParams(length=8), 0, None)
        with mp.get_context("spawn").Pool(
            1, initializer=pipeline_mod._init_worker, initargs=initargs
        ) as pool:
            child = pool.apply(blas_thread_counts)
        assert child and set(child.values()) == {1}


class TestNoArithmeticChange:
    """At the repo's shapes the thread count changes no bits: the same run
    with the policy active and with it inert (discovery finds nothing, so
    BLAS keeps the fixture's multi-thread counts) is byte-equal."""

    CASES = [
        ("proposed", "blocked", {}),
        ("batch_rls", "blocked", {"defer_span": "chunk"}),
    ]

    @staticmethod
    def _run(graph, model, backend, kwargs):
        return train_parallel(
            graph, dim=16, model=model, hyper=HP, n_workers=2, chunk_size=16,
            exec_backend=backend, negative_source="degree", seed=3, **kwargs,
        ).embedding

    @pytest.mark.parametrize(("model", "backend", "kwargs"), CASES)
    def test_byte_equal_with_and_without_policy(
        self, graph, blas_spread, monkeypatch, model, backend, kwargs
    ):
        pinned = self._run(graph, model, backend, kwargs)
        monkeypatch.setattr(blas, "blas_pools", list)
        monkeypatch.setattr(blas, "_reported_none", True)  # keep the log quiet
        unpinned = self._run(graph, model, backend, kwargs)
        assert pinned.tobytes() == unpinned.tobytes()

    def test_inert_policy_keeps_multithreaded_counts(self, blas_spread, monkeypatch):
        # guard for the test above: with discovery patched out, the fixture's
        # multi-thread counts stay in force inside the policy
        pools = blas.blas_pools()
        monkeypatch.setattr(blas, "blas_pools", list)
        monkeypatch.setattr(blas, "_reported_none", True)
        with single_blas_thread():
            assert {p.path: p.get_threads() for p in pools} == blas_spread

