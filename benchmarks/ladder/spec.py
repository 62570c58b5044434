"""The ladder's metric and workload names, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place that names
the workloads, the metrics, their units and the regression bounds; this
module only loads it, so the benchmark cannot print a name or a unit the
contract does not know.
"""

from __future__ import annotations

import json
from pathlib import Path

LADDER_DIR = Path(__file__).resolve().parent
ROOT = LADDER_DIR.parents[1]
#: scratch space (temp stores); inside the checkout and gitignored
WORK_DIR = LADDER_DIR / ".work"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS: int = BENCH["run_seconds"]
WORKLOAD_NAMES: tuple[str, ...] = tuple(w["name"] for w in BENCH["workloads"])
END_TO_END: dict[str, dict] = {m["name"]: m for m in BENCH["end_to_end"]}
PER_LAYER: dict[str, dict] = {m["name"]: m for m in BENCH["per_layer"]}
METRICS: dict[str, dict] = {**END_TO_END, **PER_LAYER}

#: Bounds of the user-visible metrics that ``end_to_end`` cannot hold,
#: because the contract wants every end-to-end metric on every workload
#: and never zero: the hit latencies exist on ``service-mix`` only, and
#: ``failed_frac`` is 0 on a clean run (its bound is absolute).
EXTRA_BOUNDS = {"hit_p50_ms": 0.10, "hit_p95_ms": 0.15, "failed_frac": 0.0}


def bound(name: str) -> float | None:
    """Share of the base median by which ``name`` may worsen, if gated."""
    if name in END_TO_END:
        return END_TO_END[name]["bound"]
    return EXTRA_BOUNDS.get(name)
