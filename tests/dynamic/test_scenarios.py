"""Tests for repro.dynamic.scenarios (the 'all'/'seq' protocols, §4.3.2)."""

import numpy as np
import pytest

from repro import train_dynamic, train_embedding
from repro.dynamic import run_all_scenario, run_seq_scenario
from repro.embedding import OSELMSkipGram
from repro.evaluation import evaluate_embedding
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques

HP = Node2VecParams(r=2, l=16, w=4, ns=3)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(5, 8, seed=0)


class TestAllScenario:
    def test_runs_each_model(self, graph):
        for model in ("original", "proposed", "dataflow"):
            res = run_all_scenario(graph, model=model, dim=8, hyper=HP, seed=0)
            assert res.scenario == "all"
            assert res.embedding.shape == (graph.n_nodes, 8)
            assert res.n_walks == HP.r * graph.n_nodes
            assert np.isfinite(res.embedding).all()

    def test_deterministic(self, graph):
        a = run_all_scenario(graph, model="proposed", dim=8, hyper=HP, seed=3)
        b = run_all_scenario(graph, model="proposed", dim=8, hyper=HP, seed=3)
        assert np.array_equal(a.embedding, b.embedding)

    def test_same_engine_as_train_embedding(self, graph):
        """"all" is one train_parallel run: the same bits as the public
        entry point, with the pipeline telemetry attached."""
        res = run_all_scenario(graph, model="proposed", dim=8, hyper=HP, seed=3)
        ref = train_embedding(graph, model="proposed", dim=8, hyper=HP, seed=3)
        assert np.array_equal(res.embedding, ref.embedding)
        assert res.n_contexts == ref.n_contexts
        assert res.extras["telemetry"] is not None

    def test_prebuilt_model(self, graph):
        mdl = OSELMSkipGram(graph.n_nodes, 8, mu=0.05, seed=0)
        res = run_all_scenario(graph, model=mdl, hyper=HP, seed=0)
        assert res.model is mdl

    def test_model_kwargs_with_prebuilt_rejected(self, graph):
        mdl = OSELMSkipGram(graph.n_nodes, 8, seed=0)
        with pytest.raises(ValueError):
            run_all_scenario(graph, model=mdl, hyper=HP, seed=0, model_kwargs={"mu": 1})

    def test_learns_communities(self, graph):
        res = run_all_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            model_kwargs={"mu": 0.05},
        )
        scores = evaluate_embedding(res.embedding, graph.node_labels, seed=0)
        assert scores.micro_f1 > 0.5


class TestSeqScenario:
    def test_runs(self, graph):
        res = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0, walks_per_endpoint=1
        )
        assert res.scenario == "seq"
        assert res.n_events > 0
        assert res.n_walks > 0

    def test_final_graph_is_full(self, graph):
        """Even truncated replays must end on the complete graph."""
        res = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            max_events=2, walks_per_endpoint=1,
        )
        assert res.extras["final_graph"] == graph

    def test_initial_graph_is_forest(self, graph):
        res = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0, walks_per_endpoint=1
        )
        ncc = 1  # ring of cliques is connected
        assert res.extras["initial_edges"] == graph.n_nodes - ncc

    def test_max_events_truncates(self, graph):
        full = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0, walks_per_endpoint=1
        )
        short = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            max_events=3, walks_per_endpoint=1,
        )
        assert short.n_events == 3
        assert short.n_events < full.n_events
        assert short.n_walks < full.n_walks

    @pytest.mark.parametrize("max_events", [0, -1])
    @pytest.mark.parametrize("entry", [run_seq_scenario, train_dynamic])
    def test_non_positive_max_events_rejected(self, graph, entry, max_events):
        """max_events=0 would replay nothing yet report every edge replayed,
        and a negative value would drop edges from the final graph."""
        with pytest.raises(ValueError, match="max_events"):
            entry(graph, dim=8, hyper=HP, seed=0, max_events=max_events)

    def test_batching_reduces_events(self, graph):
        a = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            edges_per_event=1, walks_per_endpoint=1,
        )
        b = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            edges_per_event=5, walks_per_endpoint=1,
        )
        assert b.n_events < a.n_events

    def test_walks_per_endpoint_multiplies(self, graph):
        a = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            walks_per_endpoint=1, max_events=4,
        )
        b = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            walks_per_endpoint=3, max_events=4,
        )
        # 3x the walk starts (walks can truncate, counts needn't be exact 3x)
        assert b.n_walks > 2 * a.n_walks

    def test_initial_training_adds_walks(self, graph):
        a = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            initial_training=False, walks_per_endpoint=1, max_events=3,
        )
        b = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            initial_training=True, walks_per_endpoint=1, max_events=3,
        )
        assert b.n_walks >= a.n_walks + HP.r * graph.n_nodes - 5

    def test_deterministic(self, graph):
        a = run_seq_scenario(graph, model="original", dim=8, hyper=HP, seed=7,
                             walks_per_endpoint=1, max_events=5)
        b = run_seq_scenario(graph, model="original", dim=8, hyper=HP, seed=7,
                             walks_per_endpoint=1, max_events=5)
        assert np.array_equal(a.embedding, b.embedding)

    def test_invalid_args(self, graph):
        with pytest.raises((ValueError, TypeError)):
            run_seq_scenario(graph, hyper=HP, edges_per_event=0)
        with pytest.raises((ValueError, TypeError)):
            run_seq_scenario(graph, hyper=HP, walks_per_endpoint=0)
