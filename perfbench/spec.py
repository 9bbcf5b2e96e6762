"""Load ``BENCHMARK.json`` and check the metric lists the runs report."""

from __future__ import annotations

import json
import re
from pathlib import Path

METRIC = re.compile(r"[A-Za-z0-9_.-]+")
LIMITS = {"end_to_end": 16, "per_layer": 128}


def validate_spec(spec: dict) -> list[str]:
    """Every way the metric lists of ``spec`` are malformed (empty if none):
    names outside ``[A-Za-z0-9_.-]+``, more than 16 end-to-end or 128
    per-layer metrics, or an end-to-end bound outside (0, 0.25]."""
    errors = []
    for section, most in LIMITS.items():
        metrics = spec[section]
        if not 1 <= len(metrics) <= most:
            errors.append(f"{section} has {len(metrics)} metrics, allowed 1..{most}")
        for m in metrics:
            if not METRIC.fullmatch(m["name"]):
                errors.append(f"bad metric name {m['name']!r} in {section}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")
    return errors


def load_spec(path: Path) -> dict:
    spec = json.loads(path.read_text())
    errors = validate_spec(spec)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return spec
