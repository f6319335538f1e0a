"""The benchmark's metric definitions, shared by ``run.py`` and ``compare.py``.

``BENCHMARK.json`` at the repository root holds the workloads and every
metric reported on all four of them.  The metrics below exist on some
workloads only, so they live here, with the same fields.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

# ``bound`` is a share of the parent's median, as in BENCHMARK.json;
# ``bound_abs`` is an absolute change, for metrics that are fractions.
WORKLOAD_METRICS = {
    "tuples_per_s": {
        "unit": "tuples/s", "better": "higher", "bound": 0.25,
        "workloads": ["catalog-csv", "catalog-columnar"],
    },
    "ops_per_s": {
        "unit": "1/s", "better": "higher", "bound": 0.25,
        "workloads": ["serve-hot"],
    },
    "op_p99_ms": {
        "unit": "ms", "better": "lower", "bound": 0.4,
        "workloads": ["serve-hot", "serve-live"],
    },
    "write_p50_ms": {
        "unit": "ms", "better": "lower", "bound": 0.35,
        "workloads": ["serve-live"],
    },
    "slo_frac": {
        "unit": "fraction", "better": "higher", "bound_abs": 0.08,
        "workloads": ["serve-live"],
    },
    "error_frac": {
        "unit": "fraction", "better": "lower", "bound_abs": 0.0,
        "workloads": WORKLOADS,
    },
}


def metric_unit(name: str) -> str:
    for table in (END_TO_END, PER_LAYER, WORKLOAD_METRICS):
        if name in table:
            return table[name]["unit"]
    raise KeyError(name)
