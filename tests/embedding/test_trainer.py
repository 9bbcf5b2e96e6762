"""Tests for repro.embedding.trainer (training loops + registry)."""

import numpy as np
import pytest

from repro import train_embedding
from repro.embedding import (
    MODEL_REGISTRY,
    DataflowOSELMSkipGram,
    OSELMSkipGram,
    SkipGramSGD,
    WalkTrainer,
    make_model,
)
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.sampling import NegativeSampler


class TestMakeModel:
    def test_registry_names(self):
        assert isinstance(make_model("original", 10, 4, seed=0), SkipGramSGD)
        assert isinstance(make_model("proposed", 10, 4, seed=0), OSELMSkipGram)
        assert isinstance(make_model("dataflow", 10, 4, seed=0), DataflowOSELMSkipGram)

    def test_dataflow_is_subclass_but_distinct(self):
        m = make_model("proposed", 10, 4, seed=0)
        assert not isinstance(m, DataflowOSELMSkipGram)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_model("transformer", 10, 4)

    def test_kwargs_forwarded(self):
        m = make_model("proposed", 10, 4, seed=0, mu=0.123)
        assert m.mu == 0.123

    def test_docstring_names_every_registry_model(self):
        assert all(repr(name) in make_model.__doc__ for name in MODEL_REGISTRY)
        assert "{models}" not in make_model.__doc__


class TestWalkTrainer:
    def test_default_reuse_policies(self):
        assert WalkTrainer(make_model("original", 10, 4, seed=0)).negative_reuse == "per_context"
        assert WalkTrainer(make_model("proposed", 10, 4, seed=0)).negative_reuse == "per_context"
        assert WalkTrainer(make_model("dataflow", 10, 4, seed=0)).negative_reuse == "per_walk"

    def test_short_walk_skipped(self):
        trainer = WalkTrainer(make_model("proposed", 10, 4, seed=0), window=5, ns=2)
        sampler = NegativeSampler(np.ones(10), seed=0)
        n = trainer.train_walk(np.array([0, 1]), sampler)
        assert n == 0
        assert trainer.n_walks == 0

    def test_counts_accumulate(self):
        trainer = WalkTrainer(make_model("proposed", 20, 4, seed=0), window=3, ns=2)
        sampler = NegativeSampler(np.ones(20), seed=0)
        trainer.train_walk(np.arange(10), sampler)
        trainer.train_walk(np.arange(8), sampler)
        assert trainer.n_walks == 2
        assert trainer.n_contexts == 8 + 6
        assert trainer.ops.walk == 2

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WalkTrainer(make_model("proposed", 10, 4, seed=0), window=1)

    def test_result_snapshot(self):
        trainer = WalkTrainer(make_model("proposed", 20, 4, seed=0), window=3, ns=2)
        sampler = NegativeSampler(np.ones(20), seed=0)
        trainer.train_walk(np.arange(10), sampler)
        res = trainer.result()
        assert res.embedding.shape == (20, 4)
        assert res.n_walks == 1


class TestTrainOnGraph:
    """End-to-end static training through :func:`repro.train_embedding`."""

    @pytest.fixture()
    def graph(self):
        return ring_of_cliques(4, 6, seed=0)

    def test_end_to_end_each_model(self, graph):
        hp = Node2VecParams(r=2, l=12, w=4, ns=3)
        for name in ("original", "proposed", "dataflow"):
            res = train_embedding(graph, dim=8, model=name, hyper=hp, seed=0)
            assert res.embedding.shape == (graph.n_nodes, 8)
            assert res.n_walks == 2 * graph.n_nodes
            assert np.isfinite(res.embedding).all()

    def test_deterministic(self, graph):
        hp = Node2VecParams(r=1, l=10, w=4, ns=2)
        a = train_embedding(graph, dim=8, model="proposed", hyper=hp, seed=7)
        b = train_embedding(graph, dim=8, model="proposed", hyper=hp, seed=7)
        assert np.array_equal(a.embedding, b.embedding)

    def test_seed_matters(self, graph):
        hp = Node2VecParams(r=1, l=10, w=4, ns=2)
        a = train_embedding(graph, dim=8, model="proposed", hyper=hp, seed=1)
        b = train_embedding(graph, dim=8, model="proposed", hyper=hp, seed=2)
        assert not np.array_equal(a.embedding, b.embedding)

    def test_prebuilt_model_accepted(self, graph):
        hp = Node2VecParams(r=1, l=10, w=4, ns=2)
        model = OSELMSkipGram(graph.n_nodes, 8, mu=0.05, seed=0)
        res = train_embedding(graph, model=model, hyper=hp, seed=0)
        assert res.model is model

    def test_prebuilt_model_rejects_kwargs(self, graph):
        model = OSELMSkipGram(graph.n_nodes, 8, seed=0)
        with pytest.raises(ValueError):
            train_embedding(graph, model=model, mu=0.5, seed=0)

    def test_epochs_multiply_walks(self, graph):
        hp = Node2VecParams(r=1, l=10, w=4, ns=2)
        res = train_embedding(graph, dim=8, model="proposed", hyper=hp, epochs=2, seed=0)
        assert res.n_walks == 2 * graph.n_nodes

    def test_invalid_epochs(self, graph):
        with pytest.raises(ValueError):
            train_embedding(graph, epochs=0, seed=0)

    def test_quick_api(self, graph):
        from repro import quick_embedding

        emb = quick_embedding(graph, dim=4, seed=0)
        assert emb.shape == (graph.n_nodes, 4)
