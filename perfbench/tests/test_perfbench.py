"""The benchmark's own tests: tiny runs, the file format, the replay pin.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.spans import Tracer
from perfbench.spec import load_spec, validate_spec
from perfbench.workloads import DIM, N_WORKERS, SIZES, WORKLOADS, replay_inputs, run

ROOT = Path(__file__).resolve().parents[2]
SPEC = load_spec(ROOT / "BENCHMARK.json")


def _names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_spec_lists_every_workload():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s["per_layer"].append({"name": "bad name", "unit": "s", "better": "lower"}),
        lambda s: s["end_to_end"].append(
            {"name": "x+y", "unit": "s", "better": "lower", "bound": 0.1}
        ),
        lambda s: s["end_to_end"].extend(
            {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1} for i in range(16)
        ),
        lambda s: s["per_layer"].extend(
            {"name": f"layer.m{i}", "unit": "s", "better": "lower"} for i in range(128)
        ),
        lambda s: s["end_to_end"][1].update(bound=0.3),
    ],
    ids=["space", "plus", "e2e>16", "layer>128", "bound"],
)
def test_spec_validation_rejects(mutate):
    assert validate_spec(SPEC) == []
    bad = copy.deepcopy(SPEC)
    mutate(bad)
    assert validate_spec(bad)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_untraced_run(workload):
    out = run(workload, seed=3, seconds=0.2, trace=False, size="tiny")
    assert out["correct"], out["failures"]
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == _names("end_to_end")
    for name, value in out["metrics"].items():
        assert math.isfinite(value) and value > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run(workload, tmp_path):
    out = run(workload, seed=3, seconds=0.2, trace=True, size="tiny")
    assert out["correct"], out["failures"]
    assert set(out["metrics"]) == _names("per_layer")
    m = out["metrics"]
    assert m["embedding.kernels.train_s"] > 0 and m["store.full_copies"] == 0
    dynamic = WORKLOADS[workload].dynamic
    assert (m["graph.dynamic.intake_s"] > 0) == dynamic
    assert m["store.publishes"] == (SIZES["tiny"].events if dynamic else 1)

    chrome, lines = out["reps"][1].tracer.write(tmp_path / "t", {"n_chunks": 1})
    events = json.loads(chrome.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {"parallel.train_parallel", "embedding.kernels.train_prepared"} <= {
        e["name"] for e in spans
    }
    rows = [json.loads(line) for line in lines.read_text().splitlines()]
    assert len(rows) == len(spans) + 1 and "program_reported" in rows[-1]


def test_self_time_subtracts_children():
    tr = Tracer(True)
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("c"):
            pass
    (a,), (b,), (c,) = tr.named("a"), tr.named("b"), tr.named("c")
    assert b.parent == a.id and c.parent == a.id
    assert tr.self_times()[a.id] == pytest.approx(a.duration - b.duration - c.duration)
    assert Tracer(False).span("x").__enter__() is not None and Tracer(False).spans == []


def test_replay_trains_like_train_dynamic():
    """The benchmark builds the "seq" replay from the public pieces; it must
    stay bit-identical to ``train_dynamic`` with the same seed."""
    from repro.api import train_dynamic
    from repro.graph import cora_like
    from repro.parallel import train_parallel

    size = SIZES["tiny"]
    graph = cora_like(scale=size.scale, seed=5)
    base, tasks, train_seed, n_events = replay_inputs(graph, 11, size.events, size.hyper.r)
    ours = train_parallel(base, dim=DIM, model="proposed", hyper=size.hyper,
                          n_workers=N_WORKERS, negative_source="decayed",
                          tasks=tasks, seed=train_seed)
    ref = train_dynamic(graph, dim=DIM, model="proposed", hyper=size.hyper,
                        max_events=size.events, n_workers=N_WORKERS,
                        negative_source="decayed", seed=11)
    assert n_events == ref.n_events == size.events
    assert np.array_equal(ours.embedding, ref.embedding)
    assert ours.n_contexts == ref.n_contexts


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-oselm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_result_last(trace, monkeypatch, capsys):
    from perfbench import run as cli
    from perfbench import workloads

    monkeypatch.setitem(workloads.SIZES, "table2", SIZES["tiny"])
    code = cli.main(["--workload", "dynamic-serve", "--seed", "2", "--seconds", "0.2",
                     "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
