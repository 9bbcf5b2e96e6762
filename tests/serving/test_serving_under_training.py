"""Serving while training flips the process's BLAS thread counts.

Training runs under :func:`repro.utils.blas.single_blas_thread`, which sets
every loaded OpenBLAS to one thread on entry and back on exit — process-wide,
so a serving thread's GEMVs run while the counts change under them.  Every
answer must stay correct and nothing may raise.
"""

import asyncio
import threading

import numpy as np

from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import train_parallel
from repro.serving import EmbeddingService
from repro.store import make_store
from repro.utils.blas import single_blas_thread

N, DIM, K = 2000, 32, 10


def _expected_top_k(t, node):
    norms = np.linalg.norm(t, axis=1)
    scores = (t @ t[node]) / (norms * norms[node])
    scores[node] = -np.inf
    order = np.lexsort((np.arange(len(t)), -scores))[:K]
    return order, scores[order]


def test_queries_correct_while_training_toggles_blas(blas_spread):
    t = np.random.default_rng(0).standard_normal((N, DIM))
    nodes = [0, 17, 999, N - 1]
    pairs = np.array([[0, 1], [5, 1999], [42, 42]])
    want_scores = np.einsum("ij,ij->i", t[pairs[:, 0]], t[pairs[:, 1]])
    want_top = {n: _expected_top_k(t, n) for n in nodes}

    stop = threading.Event()
    errors: list[Exception] = []
    answered = [0]

    def serve(service):
        async def one_round():
            for n in nodes:
                vec = await service.get_vector(n)
                assert np.array_equal(vec, t[n])
                ids, sims = want_top[n]
                got = await service.top_k(n, k=K)
                assert [i for i, _ in got] == ids.tolist()
                assert np.allclose([s for _, s in got], sims, rtol=1e-12, atol=0)
            got = await service.score_links(pairs)
            assert np.allclose(got, want_scores, rtol=1e-12, atol=0)

        try:
            while not stop.is_set():
                asyncio.run(one_round())
                answered[0] += 1
        except Exception as exc:  # surfaced in the main thread
            errors.append(exc)

    graph = ring_of_cliques(4, 8, seed=0)
    hyper = Node2VecParams(r=2, l=20, w=4, ns=3)
    with make_store("local", N, DIM, n_shards=4) as store:
        store.publish(0, t)
        # no cache: every get goes to the store, every top_k runs its GEMVs
        server = threading.Thread(
            target=serve, args=(EmbeddingService(store, cache_capacity=1),)
        )
        server.start()
        try:
            for seed in range(3):
                # inline workers: forking while the server thread runs is
                # not what is under test here
                result = train_parallel(
                    graph, dim=16, hyper=hyper, exec_backend="blocked",
                    chunk_size=16, negative_source="degree", seed=seed,
                )
                assert np.isfinite(result.embedding).all()
            for _ in range(200):
                with single_blas_thread():
                    pass
        finally:
            stop.set()
            server.join(timeout=60)
    assert not server.is_alive()
    assert errors == []
    assert answered[0] > 0
