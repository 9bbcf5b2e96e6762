"""Related-work dynamic-embedding baselines (paper §2.2).

**dynnode2vec** (Mahdavi et al. [5]) — the closest prior work: the graph is
observed as a sequence of snapshots; at each snapshot the skip-gram model is
*warm-started* from the previous embedding and trained only on walks from
"evolving" nodes (nodes whose edge set changed).  It shares the paper's goal
(no full retraining) but keeps the SGD/backpropagation update — exactly the
update §2.2 blames for catastrophic forgetting.

Implemented here so the Figure 6 comparison can be extended with the
baseline the paper discusses but does not run.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.scenarios import ScenarioResult
from repro.embedding.trainer import WalkTrainer, make_model
from repro.graph.components import forest_split
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, edge_stream
from repro.sampling.negative import NegativeSampler, walk_frequencies
from repro.sampling.walks import Node2VecWalker
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["run_dynnode2vec_scenario"]


def run_dynnode2vec_scenario(
    graph: CSRGraph,
    *,
    dim: int = 32,
    hyper=None,
    seed=None,
    n_snapshots: int = 10,
    model_kwargs: dict | None = None,
) -> ScenarioResult:
    """dynnode2vec over the same edge-replay stream as the "seq" scenario.

    The removed edges are divided into ``n_snapshots`` equal batches; after
    each batch lands, walks start from every *evolving* node (any endpoint
    of the batch) and the warm SGD skip-gram trains on them — the
    dynnode2vec protocol mapped onto the paper's evaluation setup.
    """
    from repro.experiments.hyper import Node2VecParams

    check_positive("n_snapshots", n_snapshots, integer=True)
    hp = hyper or Node2VecParams()
    rng = as_generator(seed)
    model = make_model(
        "original", graph.n_nodes, dim, seed=rng.integers(2**63), **(model_kwargs or {})
    )
    trainer = WalkTrainer(model, window=hp.w, ns=hp.ns)

    split = forest_split(graph, seed=rng.integers(2**63))
    dyn = DynamicGraph(graph.n_nodes, initial=split.initial)

    # initial snapshot: full corpus on the starting graph (dynnode2vec
    # trains its first snapshot like static node2vec)
    walker = Node2VecWalker(dyn.snapshot(), hp.walk_params(), seed=rng.integers(2**63))
    walks = walker.simulate()
    freqs = 1.0 + walk_frequencies(walks, graph.n_nodes)
    sampler = NegativeSampler(freqs, seed=rng.integers(2**63))
    trainer.train_corpus(walks, sampler)

    batch = max(1, int(np.ceil(split.removed_edges.shape[0] / n_snapshots)))
    n_events = 0
    for event in edge_stream(split.removed_edges, edges_per_event=batch):
        dyn.add_edges(event.edges)
        snapshot = dyn.snapshot()
        walker = Node2VecWalker(
            snapshot, hp.walk_params(), seed=int(rng.integers(2**63))
        )
        evolving = np.unique(event.edges)
        starts = np.tile(evolving, hp.r)  # r walks per evolving node
        walks = walker.walks_from(starts)
        freqs += walk_frequencies(walks, graph.n_nodes)
        sampler = NegativeSampler(freqs, seed=int(rng.integers(2**63)))
        for walk in walks:
            trainer.train_walk(walk, sampler)
        n_events += 1

    return ScenarioResult(
        embedding=model.embedding,
        model=model,
        n_walks=trainer.n_walks,
        n_contexts=trainer.n_contexts,
        n_events=n_events,
        scenario="dynnode2vec",
        extras={"n_snapshots": n_events, "final_graph": dyn.snapshot()},
    )
