"""Training-kernel bench: the per-backend × per-model walks/s matrix.

PRs 1–3 made walk generation stream; the consumer — per-context Python
loops over tiny NumPy ops — became the pipeline's bottleneck, exactly the
PS/PL boundary the paper moves into hardware.  The kernel layer
(:mod:`repro.embedding.kernels`) batches that hot path; this bench is its
gate: for every registry model × every registry backend it times
``WalkTrainer.train_corpus`` over one pre-generated corpus and reports
walks/s plus each backend's speedup over ``"reference"``.

Timing isolates the *training* stage (walks and the sampler are built once
outside the timed region), so the numbers are the ``train_walks_per_s``
telemetry the pipeline reports, free of generation noise.  Scored by the
max walks/s of ``REPEATS`` runs (the scheduler-noise-free estimate).  A
row's runs go round-robin across its backends (reference, fused, …,
reference, fused, …), so host drift between runs lands on every backend
of the row alike instead of in their ratio.

Assertions: ``"fused"`` must hold ≥ 3× reference throughput for the
``"original"`` SGD model (the per-window Python loop the fused kernels
exist to kill), ``"blocked"`` must hold ≥ 3× reference for the paper's
``"proposed"`` OS-ELM model (the rank-k RLS block solve this backend
exists for — ``"fused"`` only managed ~1.3× because Algorithm 1 ran one
tiny matvec per context), ``"compiled"`` must hold ≥ 5× reference for
``"original"`` **when numba is installed** (without it the entry runs the
warned reference fallback — held only to the parity band, and the report
records ``numba_available`` so the committed JSON stays honest), and no
model may regress below parity-with-noise under any backend.  The
chunk-deferred ``batch_rls`` model gets a headline row of its own
(``batch_rls@chunk``, span-aware backends only): at ``defer_span="chunk"``
under ``"blocked"`` it must hold ≥ 2× the contexts/s of ``"proposed"``
under ``"blocked"`` — the rank-k span solve amortized chunk-wide.  The
``BENCH_*.json`` twin is uploaded by CI, so the walks/s trajectory — now
including OS-ELM throughput — is tracked PR over PR.

The matrix runs at l=40.  Table 2's own walk length, l=80, gets rows of its
own for ``"proposed"``: ``proposed@l80`` times ``train_corpus`` under every
backend, and ``proposed@l80 pipeline`` times the whole
``train_parallel(n_workers=2)`` run (walk workers included) under
``"reference"`` and ``"blocked"``.  Both must hold ``blocked`` ≥ 3×
reference; the pipeline gate needs ≥ 2 cores, since on one core the walk
workers and the trainer take turns.  Every row runs under
:func:`repro.utils.blas.single_blas_thread`, the policy the training
engines apply: with multi-threaded OpenBLAS the per-walk k×k solve of the
blocked kernel waited on thread wake-ups and fell below reference at l=80.
"""

import os
import time

import numpy as np

from repro.embedding import WalkTrainer, make_model
from repro.embedding.compiled import NUMBA_AVAILABLE
from repro.embedding.kernels import EXEC_BACKENDS
from repro.experiments.hyper import Node2VecParams
from repro.experiments.report import ExperimentReport
from repro.graph import amazon_photo_like
from repro.parallel import train_parallel
from repro.sampling.negative import NegativeSampler
from repro.sampling.walks import Node2VecWalker
from repro.utils.blas import single_blas_thread

MODELS = ("original", "proposed", "dataflow", "block", "batch_rls")
#: rounds per row; with two, one slowed round on a shared host could still
#: pull a reference-equivalent column below the 0.8x parity band
REPEATS = 3

#: acceptance floors: the backend that exists for a model must deliver
MIN_SPEEDUP = {
    ("original", "fused"): 3.0,
    ("proposed", "blocked"): 3.0,
}
#: the chunk-deferred headline: batch_rls at defer_span="chunk" under
#: "blocked" must deliver >= this many contexts/s per "proposed" under
#: "blocked" — the whole point of owning cross-walk spans (hundreds of
#: per-walk solves collapse into a handful of chunk-wide GEMMs)
BATCH_RLS_MIN_CONTEXTS_SPEEDUP = 2.0
if NUMBA_AVAILABLE:
    # the compiled backend's raison d'être: the reference per-window SGD
    # loop, bit-identical but JIT-compiled.  Gated only when numba is
    # importable — the fallback IS reference (parity band below applies).
    MIN_SPEEDUP[("original", "compiled")] = 5.0
#: no model may regress below parity minus noise under any backend
MIN_SPEEDUP_ANY = 0.8
#: Table 2's walk length: "proposed" under "blocked" must hold this many
#: times reference there too, in train_corpus and in the whole pipeline
L80_MIN_SPEEDUP = 3.0
L80_BACKENDS_PIPELINE = ("reference", "blocked")


def test_train_kernels(benchmark, emit_report, profile):
    scale = 0.25 if profile == "paper" else 0.06
    graph = amazon_photo_like(scale=scale, seed=0)
    hyper = Node2VecParams(r=2, l=40, w=8, ns=10)
    hyper80 = Node2VecParams(r=2, l=80, w=8, ns=10)

    walks = Node2VecWalker(graph, hyper.walk_params(), seed=1).simulate()
    walks80 = Node2VecWalker(graph, hyper80.walk_params(), seed=1).simulate()

    def best_per_backend(timers):
        """Max-walks/s result per backend of ``REPEATS`` rounds over
        ``timers = {backend: timed}``, each ``timed() -> (seconds, n_walks,
        n_contexts)``; every round runs each backend once, in turn."""
        best = {}
        for _ in range(REPEATS):
            for backend, timed in timers.items():
                train_s, n_walks, n_contexts = timed()
                wps = n_walks / train_s
                if backend not in best or wps > best[backend]["walks_per_s"]:
                    best[backend] = {
                        "walks_per_s": wps,
                        "contexts_per_s": n_contexts / train_s,
                        "train_s": train_s,
                        "n_walks": n_walks,
                        "n_contexts": n_contexts,
                    }
        return best

    def kernel_timer(model_name, backend, corpus=walks, hp=hyper, **model_kwargs):
        def timed():
            model = make_model(model_name, graph.n_nodes, 32, seed=7, **model_kwargs)
            trainer = WalkTrainer(model, window=hp.w, ns=hp.ns, exec_backend=backend)
            sampler = NegativeSampler.from_walks(corpus, graph.n_nodes, seed=2)
            t0 = time.perf_counter()
            trainer.train_corpus(corpus, sampler)
            return time.perf_counter() - t0, trainer.n_walks, trainer.n_contexts

        return timed

    def pipeline_timer(backend):
        """Wall time of the whole streaming run: walk workers + training."""

        def timed():
            t0 = time.perf_counter()
            res = train_parallel(
                graph, dim=32, model="proposed", hyper=hyper80, n_workers=2,
                exec_backend=backend, negative_source="degree", seed=7,
            )
            return time.perf_counter() - t0, res.n_walks, res.n_contexts

        return timed

    @single_blas_thread()  # the engines' policy (see module docstring)
    def run():
        report = ExperimentReport(
            name="Train kernels",
            title=(
                "execution-backend matrix: walks/s per model "
                f"({graph.n_nodes} nodes, {len(walks)} walks, l=40, dim 32; "
                "plus l=80 rows for 'proposed')"
            ),
            columns=["model"]
            + [f"{b} walks/s" for b in EXEC_BACKENDS]
            + [f"{b} ×ref" for b in EXEC_BACKENDS if b != "reference"],
        )
        rows = {}

        def add_speedup_row(name, per_backend, ref):
            """One report row: walks/s and ×ref for the measured backends,
            "-" for the rest."""
            speedups = {
                b: res["walks_per_s"] / ref["walks_per_s"]
                for b, res in per_backend.items()
            }
            report.add_row(
                name,
                *(
                    round(per_backend[b]["walks_per_s"], 1) if b in per_backend else "-"
                    for b in EXEC_BACKENDS
                ),
                *(
                    f"{speedups[b]:.2f}x" if b in per_backend else "-"
                    for b in EXEC_BACKENDS
                    if b != "reference"
                ),
            )
            rows[name] = {**per_backend, "speedup": speedups}

        for model_name in MODELS:
            per_backend = best_per_backend(
                {b: kernel_timer(model_name, b) for b in EXEC_BACKENDS}
            )
            add_speedup_row(model_name, per_backend, per_backend["reference"])
        # the chunk-deferred headline row: batch_rls at defer_span="chunk"
        # runs only under the span-aware backends (reference/compiled feed
        # one walk at a time and reject it), so it sits outside the matrix;
        # its ×ref is vs the walk-span degeneration
        per_backend = best_per_backend(
            {
                b: kernel_timer("batch_rls", b, defer_span="chunk")
                for b in ("fused", "blocked")
            }
        )
        add_speedup_row("batch_rls@chunk", per_backend, rows["batch_rls"]["reference"])
        # Table 2's walk length for the paper's model: the kernel alone,
        # then the whole pipeline it has to win inside
        per_backend = best_per_backend(
            {
                b: kernel_timer("proposed", b, corpus=walks80, hp=hyper80)
                for b in EXEC_BACKENDS
            }
        )
        add_speedup_row("proposed@l80", per_backend, per_backend["reference"])
        per_backend = best_per_backend(
            {b: pipeline_timer(b) for b in L80_BACKENDS_PIPELINE}
        )
        add_speedup_row("proposed@l80 pipeline", per_backend, per_backend["reference"])
        report.data = rows
        report.add_note(
            "walks/s inside WalkTrainer.train_corpus (train stage only; "
            "corpus and sampler built outside the timed region); max of "
            f"{REPEATS} runs each, interleaved round-robin across a row's "
            "backends; 'proposed@l80 pipeline' is the wall time "
            "of a whole train_parallel(n_workers=2) run at l=80 (walk "
            "workers included)"
        )
        report.add_note(
            "every row runs with one BLAS thread per process "
            "(repro.utils.blas.single_blas_thread), as the engines do"
        )
        report.add_note(
            "fused = bulk negative draw + batched per-walk gather/scatter "
            "(FUSED_RTOL contract); blocked = fused draws + rank-k Woodbury "
            "block solves for the OS-ELM RLS recursion, sequential gains, "
            "one bincount+GEMM scatter pass per block (BLOCKED_RTOL "
            "contract, O(mu^2*k) staleness)"
        )
        report.add_note(
            "gates: fused >= 3x reference for 'original', blocked >= 3x "
            "reference for 'proposed', compiled >= 5x reference for "
            "'original' when numba is installed, no model below 0.8x "
            "anywhere; batch_rls@chunk under blocked >= 2x the contexts/s "
            "of 'proposed' under blocked (the chunk-deferred rank-k span "
            "headline; its x-ref column is vs the model's own walk-span "
            "reference run); at l=80, blocked >= 3x reference for 'proposed' "
            "in train_corpus and, on >= 2 cores, in train_parallel"
        )
        report.add_note(
            "numba_available="
            + ("true (compiled = JIT kernels)" if NUMBA_AVAILABLE else
               "false (compiled = warned bit-identical reference fallback; "
               "5x gate waived, parity band still enforced)")
        )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(report)
    rows = report.data

    # the acceptance headlines: the per-window SGD loop must vectorize away
    # (fused), and the paper's own model must ride the rank-k block solve
    # (blocked) instead of being left interpreter-bound
    for (model_name, backend), floor in MIN_SPEEDUP.items():
        assert rows[model_name]["speedup"][backend] >= floor, (
            f"{backend} {model_name} only "
            f"{rows[model_name]['speedup'][backend]:.2f}x over reference"
        )
    # the batch_rls headline: chunk-wide spans must beat the per-walk
    # rank-k solve by a clear margin, measured in contexts/s against the
    # strongest prior OS-ELM configuration ('proposed' under 'blocked')
    chunk_cps = rows["batch_rls@chunk"]["blocked"]["contexts_per_s"]
    proposed_cps = rows["proposed"]["blocked"]["contexts_per_s"]
    assert chunk_cps >= BATCH_RLS_MIN_CONTEXTS_SPEEDUP * proposed_cps, (
        f"batch_rls@chunk/blocked {chunk_cps:.0f} contexts/s is only "
        f"{chunk_cps / proposed_cps:.2f}x proposed/blocked ({proposed_cps:.0f})"
    )
    # the chunk row trained the same corpus as everyone else
    for backend in ("fused", "blocked"):
        res = rows["batch_rls@chunk"][backend]
        assert res["n_walks"] == len(walks), backend
        assert res["n_contexts"] == rows["batch_rls"]["reference"]["n_contexts"]
    # no model regresses under any backend (parity band for the
    # already-vectorized deferred models)
    for model_name in MODELS:
        for backend in EXEC_BACKENDS:
            assert rows[model_name]["speedup"][backend] >= MIN_SPEEDUP_ANY, (
                model_name,
                backend,
            )
            res = rows[model_name][backend]
            # every backend consumed the same corpus
            assert res["n_walks"] == len(walks), (model_name, backend)
            assert res["n_contexts"] == rows[model_name]["reference"]["n_contexts"]
            # sanity: throughputs are finite and positive
            assert np.isfinite(res["walks_per_s"]) and res["walks_per_s"] > 0
            assert np.isfinite(res["contexts_per_s"]) and res["contexts_per_s"] > 0
    # Table 2's walk length: the blocked kernel keeps its lead at l=80, and
    # the lead survives the whole pipeline, walk generation included (on one
    # core the walk workers and the trainer take turns, so only >= 2 cores)
    for row, gated in (
        ("proposed@l80", True),
        ("proposed@l80 pipeline", (os.cpu_count() or 1) >= 2),
    ):
        speedup = rows[row]["speedup"]["blocked"]
        if gated:
            assert speedup >= L80_MIN_SPEEDUP, (
                f"{row}: blocked only {speedup:.2f}x over reference"
            )
        ref = rows[row]["reference"]
        for backend, res in rows[row].items():
            if backend == "speedup":
                continue
            assert res["n_walks"] == ref["n_walks"], (row, backend)
            assert res["n_contexts"] == ref["n_contexts"], (row, backend)
            assert np.isfinite(res["contexts_per_s"]) and res["contexts_per_s"] > 0
