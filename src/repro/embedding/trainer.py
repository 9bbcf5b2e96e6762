"""Training loops: walk corpus → trained embedding.

Mirrors the paper's board-level division of labor (§3.2): the host samples
random walks and negatives (PS side), the model consumes one walk at a time
(PL side).  The trainer also accumulates the op-count telemetry used by the
CPU timing models.  The end-to-end run (walks → negative sampler → trainer)
is :func:`repro.parallel.train_parallel`, the one engine for static corpora
and dynamic task streams alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.embedding.batch_rls import BatchRLSSkipGram
from repro.embedding.block import BlockOSELMSkipGram
from repro.embedding.dataflow import DataflowOSELMSkipGram
from repro.embedding.kernels import EXEC_REGISTRY, default_negative_reuse, resolve_backend
from repro.embedding.sequential import OSELMSkipGram
from repro.embedding.skipgram import SkipGramSGD
from repro.hw.opcount import OpCount
from repro.sampling.negative import NegativeSampler
from repro.utils.validation import check_in_set, check_positive

__all__ = ["TrainingResult", "WalkTrainer", "make_model"]

MODEL_REGISTRY = {
    "original": SkipGramSGD,
    "proposed": OSELMSkipGram,
    "dataflow": DataflowOSELMSkipGram,
    "block": BlockOSELMSkipGram,
    "batch_rls": BatchRLSSkipGram,
}


def make_model(
    name: str, n_nodes: int, dim: int, *, seed=None, **kwargs
) -> EmbeddingModel:
    """Instantiate a model by registry name ({models}), forwarding extra
    keyword arguments."""
    check_in_set("model", name, tuple(MODEL_REGISTRY))
    return MODEL_REGISTRY[name](n_nodes, dim, seed=seed, **kwargs)


@dataclass
class TrainingResult:
    """Outcome of a training run.

    ``telemetry`` carries the per-stage
    :class:`repro.parallel.PipelineTelemetry` of the
    :func:`repro.parallel.train_parallel` run that produced the result;
    it is ``None`` when the result comes straight from
    :meth:`WalkTrainer.result` with no telemetry passed.

    ``store`` is the live :class:`repro.store.base.EmbeddingStore` the run
    published epoch versions into (``None`` when no ``store=`` was
    requested).  The caller owns it — serve from it, then ``close()`` it.
    """

    model: EmbeddingModel
    embedding: np.ndarray
    n_walks: int
    n_contexts: int
    ops: OpCount
    hyper: "object" = None
    telemetry: "object" = None
    store: "object" = None

    def __repr__(self) -> str:
        return (
            f"TrainingResult(model={type(self.model).__name__}, "
            f"n_walks={self.n_walks}, n_contexts={self.n_contexts})"
        )


class WalkTrainer:
    """Feeds walks into a model with the paper's negative-sampling policies.

    Parameters
    ----------
    model:
        any :class:`EmbeddingModel`.
    window:
        sliding-window size w (Table 2: 8).
    ns:
        negatives per window (Table 2: 10).
    negative_reuse:
        ``"per_context"`` (the CPU Algorithm 1 policy) or ``"per_walk"``
        (the FPGA policy, one batch per walk [18]).  Defaults depend on the
        model: dataflow → per_walk, others → per_context.
    exec_backend:
        chunk-execution backend for :meth:`train_corpus` — an
        :data:`repro.embedding.kernels.EXEC_REGISTRY` name
        (``"reference"`` | ``"fused"`` | ``"blocked"`` | ``"compiled"``) or an
        :class:`~repro.embedding.kernels.ExecBackend` instance (e.g. a
        ``BlockedKernel(block_contexts=8)`` with sub-walk blocks).  ``None``
        (default) uses the model's own :attr:`~EmbeddingModel.exec_backend`
        preference; an explicit *registry name* also sets that preference,
        so a checkpoint taken after training records the backend that
        actually trained the model (a registry-named *instance* records its
        name too, though construction knobs stay per-run; custom
        unregistered instances train the run but are not recorded — their
        names mean nothing to the registry or a checkpoint loader).
    """

    def __init__(
        self,
        model: EmbeddingModel,
        *,
        window: int = 8,
        ns: int = 10,
        negative_reuse: str | None = None,
        exec_backend: str | None = None,
    ):
        check_positive("window", window, integer=True)
        if window < 2:
            raise ValueError("window must be >= 2")
        check_positive("ns", ns, integer=True)
        self.model = model
        self.window = int(window)
        self.ns = int(ns)
        if negative_reuse is None:
            negative_reuse = default_negative_reuse(model)
        check_in_set("negative_reuse", negative_reuse, ("per_walk", "per_context"))
        self.negative_reuse = negative_reuse
        self.backend = resolve_backend(
            model.exec_backend if exec_backend is None else exec_backend
        )
        self.exec_backend = self.backend.name
        if exec_backend is not None and self.backend.name in EXEC_REGISTRY:
            # record the run's backend as the model preference (checkpoints
            # carry it) — but only for registry names: a custom ExecBackend
            # instance has no name the registry (or a checkpoint loader)
            # could resolve, so it must not poison the model's preference
            model.exec_backend = self.backend.name
        self.n_walks = 0
        self.n_contexts = 0
        self.ops = OpCount()

    def train_walk(self, walk: np.ndarray, sampler: NegativeSampler) -> int:
        """Partition one walk and train; returns the context count.

        A one-walk chunk through the configured :attr:`backend` — under
        ``"reference"`` this is bit-identical to the historical inline loop
        (per-walk draws), and under ``"fused"`` the walk runs through the
        same fused kernel ``train_corpus`` would use, so walk-by-walk
        drivers (the dynamic baselines, incremental deployments) train with
        the semantics the trainer — and any checkpoint — records.
        """
        return self.train_corpus((walk,), sampler)

    def train_corpus(self, walks, sampler: NegativeSampler) -> int:
        """Train on any iterable of walks — a full buffered corpus, one
        pipeline chunk, or a lazy stream; returns the contexts trained.

        The chunk is executed by the trainer's :attr:`backend`
        (:mod:`repro.embedding.kernels`): ``"reference"`` reproduces the
        historical per-walk loop bit-identically; ``"fused"`` runs the
        vectorized chunk kernels (bulk negative draw + batched
        gather/scatter updates, documented tolerance); ``"blocked"`` adds
        the rank-k RLS block solves for the OS-ELM family on top of the
        fused draws.  The trainer keeps no per-corpus state, so callers may
        invoke this once per streamed chunk; under ``"reference"`` the
        result is bit-identical to one call over the concatenation
        (per-walk draws), while ``"fused"``/``"blocked"`` draw each call's
        negatives in one bulk pass, so their negative stream — like
        :class:`~repro.sampling.sources.DecayedSource`'s fold schedule — is
        pinned to the chunking it was trained with.
        """
        stats = self.backend.train_chunk(
            self.model,
            walks,
            sampler,
            window=self.window,
            ns=self.ns,
            negative_reuse=self.negative_reuse,
        )
        self.n_walks += stats.n_walks
        self.n_contexts += stats.n_contexts
        self.ops = self.ops + stats.ops
        return stats.n_contexts

    def result(self, hyper=None, telemetry=None, store=None) -> TrainingResult:
        return TrainingResult(
            model=self.model,
            embedding=self.model.embedding,
            n_walks=self.n_walks,
            n_contexts=self.n_contexts,
            ops=self.ops,
            hyper=hyper,
            telemetry=telemetry,
            store=store,
        )


# Render the registry names into make_model's docs so they can never drift
# from the validated set.
if make_model.__doc__:  # pragma: no branch - absent only under python -OO
    make_model.__doc__ = make_model.__doc__.replace(
        "{models}", " | ".join(f"``{name!r}``" for name in MODEL_REGISTRY)
    )
