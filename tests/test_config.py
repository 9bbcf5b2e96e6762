"""PipelineConfig: the frozen knob bundle and its precedence contract
(kwarg > config field > entry-point default; conflicting duplicates warn)."""

import warnings

import numpy as np
import pytest

from repro import PipelineConfig, train_embedding
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import train_parallel

HP = Node2VecParams(r=1, l=10, w=4, ns=2)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(3, 6, seed=0)


class TestDataclass:
    def test_frozen(self):
        cfg = PipelineConfig(n_workers=2)
        with pytest.raises(AttributeError):
            cfg.n_workers = 3

    def test_defaults_are_all_none(self):
        cfg = PipelineConfig()
        assert all(
            getattr(cfg, name) is None
            for name in (
                "n_workers", "transport", "chunk_size", "prefetch",
                "exec_backend", "negative_source", "negative_power",
                "snapshot_rebase_every",
            )
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            PipelineConfig(n_workers=-1)
        with pytest.raises(ValueError, match="prefetch"):
            PipelineConfig(prefetch=-2)
        with pytest.raises(ValueError, match="snapshot_rebase_every"):
            PipelineConfig(snapshot_rebase_every=0)
        assert PipelineConfig(snapshot_rebase_every=1).snapshot_rebase_every == 1
        assert isinstance(PipelineConfig(negative_power=1).negative_power, float)

    def test_hashable_and_reusable(self):
        a = PipelineConfig(transport="pickle", chunk_size=16)
        b = PipelineConfig(transport="pickle", chunk_size=16)
        assert a == b
        assert hash(a) == hash(b)


class TestMerged:
    def test_kwarg_wins_over_config(self):
        cfg = PipelineConfig(n_workers=4, transport="shm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # equal/absent values stay silent
            knobs = cfg.merged(n_workers=None, transport="shm")
        assert knobs["n_workers"] == 4
        assert knobs["transport"] == "shm"

    def test_conflicting_duplicate_warns_and_kwarg_wins(self):
        cfg = PipelineConfig(transport="shm")
        with pytest.warns(DeprecationWarning, match="transport"):
            knobs = cfg.merged(transport="pickle")
        assert knobs["transport"] == "pickle"

    def test_unset_everywhere_stays_none(self):
        assert PipelineConfig().merged()["chunk_size"] is None


class TestEndToEndPrecedence:
    def test_config_bit_identical_to_kwargs(self, graph):
        cfg = PipelineConfig(
            n_workers=0, transport="pickle", chunk_size=16,
            negative_source="degree", negative_power=0.5,
        )
        via_config = train_parallel(graph, dim=8, hyper=HP, seed=1, config=cfg)
        via_kwargs = train_parallel(
            graph, dim=8, hyper=HP, seed=1,
            n_workers=0, transport="pickle", chunk_size=16,
            negative_source="degree", negative_power=0.5,
        )
        assert np.array_equal(via_config.embedding, via_kwargs.embedding)
        # n_workers=0 runs inline; the knob still arrived at the pipeline
        assert via_config.telemetry.transport == via_kwargs.telemetry.transport

    def test_kwarg_overrides_config_in_pipeline(self, graph):
        cfg = PipelineConfig(negative_source="degree", transport="pickle")
        with pytest.warns(DeprecationWarning, match="negative_source"):
            res = train_parallel(
                graph, dim=8, hyper=HP, seed=1, config=cfg, negative_source="corpus"
            )
        baseline = train_parallel(
            graph, dim=8, hyper=HP, seed=1, negative_source="corpus", transport="pickle"
        )
        assert np.array_equal(res.embedding, baseline.embedding)

    def test_config_routes_train_embedding_to_pipeline(self, graph):
        res = train_embedding(
            graph, dim=8, hyper=HP, seed=2, config=PipelineConfig(n_workers=0)
        )
        assert res.telemetry is not None  # the pipelined path ran

    def test_sequential_config_knobs_apply_without_pipelining(self, graph):
        cfg = PipelineConfig(negative_power=0.5)
        res = train_embedding(graph, dim=8, hyper=HP, seed=2, config=cfg)
        explicit = train_embedding(graph, dim=8, hyper=HP, seed=2, negative_power=0.5)
        assert np.array_equal(res.embedding, explicit.embedding)

    def test_conflict_warns_exactly_once(self, graph):
        cfg = PipelineConfig(transport="pickle")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            train_embedding(
                graph, dim=8, hyper=HP, seed=2, config=cfg, transport="shm"
            )
        dupes = [w for w in caught if issubclass(w.category, DeprecationWarning)]
        assert len(dupes) == 1
