"""End-to-end benchmark of the streaming node2vec trainer with serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static-oselm --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric and writes the spans to
``.perfbench/<workload>-seed<seed>.trace.json`` (Chrome trace events, opens in
Perfetto) and ``.spans.jsonl``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a correctness check failed and 2 when the program's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    from perfbench.spec import load_spec
    from perfbench.workloads import PROGRAM_REPORTED, WORKLOADS, program_reported, run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec(ROOT / "BENCHMARK.json")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))

    if set(out["metrics"]) != {m["name"] for m in declared}:
        missing = {m["name"] for m in declared} ^ set(out["metrics"])
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {
        m["name"]: {"value": float(out["metrics"][m["name"]]), "unit": m["unit"]}
        for m in declared
    }
    for name, m in metrics.items():
        label = "  (program-reported)" if name in PROGRAM_REPORTED else ""
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']}{label}")
    notes = out["notes"]
    print(f"reps {notes['reps']} over {notes['trials']} trials, "
          f"set-ups timed {notes['setup_samples']}, "
          f"freshness samples {notes['freshness_samples']}")
    if notes["micro_f1_per_trial"]:
        print(f"micro_f1 per trial: {notes['micro_f1_per_trial']}")
    for phase, counts in notes["queries"].items():
        print(f"queries [{phase}]: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    if args.trace:
        stem = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
        traced = out["reps"][1]
        for path in traced.tracer.write(stem, program_reported(traced)):
            print(f"trace written: {path.relative_to(ROOT)}")
    for failure in out["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": out["correct"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0 if out["correct"] else 1


def stop_children() -> None:
    """Stop and wait for every process the run started: pool workers left by
    an error, and the ``multiprocessing`` resource tracker, which the
    program's shared-memory segments start and which would otherwise outlive
    this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # closes the tracker's pipe, so it ends, then waits for it
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    # replace the script's own directory so its modules cannot shadow others
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
