"""The result line: every declared metric, with its unit, and nothing else.

``BENCHMARK.json`` is the single list of metric names and units. A run
must supply a finite number for every metric of its section
(``end_to_end`` untraced, ``per_layer`` traced); a missing or unknown
name is a bug in the benchmark and fails the run instead of printing.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

from .env import BENCHMARK_JSON


def declared(section: str) -> Dict[str, str]:
    """metric name → unit for ``section`` of BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def per_layer_defaults() -> Dict[str, float]:
    """Every per-layer metric at 0.0: the value of a layer the workload
    does not exercise (see README.md for which workload drives which)."""
    return dict.fromkeys(declared("per_layer"), 0.0)


def workload_names() -> List[str]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)["workloads"]]


def result_line(
    values: Dict[str, float],
    traced: bool,
    attempted: int,
    failed: int,
    correct: bool,
) -> str:
    units = declared("per_layer" if traced else "end_to_end")
    missing = sorted(set(units) - set(values))
    unknown = sorted(set(values) - set(units))
    if missing or unknown:
        raise ValueError(
            f"metrics do not match BENCHMARK.json: missing {missing}, "
            f"undeclared {unknown}"
        )
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
