"""The benchmark's declared surface, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the checkout root is the single place where the
workloads, the metrics, their units, directions and regression bounds
are written down; the ledger reads it rather than repeating it. Two
end-to-end metrics of the ledger are not in that file because the
contract wants metrics that are never 0 and these must always be 0:
``overload_pct`` and ``failed_ops_share`` travel in the result line's
``correct`` / ``failed`` / ``attempted`` fields instead.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .env import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS: Dict[str, str] = {entry["name"]: entry["why"] for entry in DECLARED["workloads"]}
RUN_SECONDS: int = DECLARED["run_seconds"]

#: Must-be-zero metrics: any rise is a regression, whatever the noise.
ZERO_METRICS: List[dict] = [
    {"name": "overload_pct", "unit": "%", "better": "lower", "bound": 0.0},
    {"name": "failed_ops_share", "unit": "share", "better": "lower", "bound": 0.0},
]
END_TO_END: Dict[str, dict] = {
    entry["name"]: entry for entry in DECLARED["end_to_end"] + ZERO_METRICS
}
PER_LAYER: Dict[str, dict] = {entry["name"]: entry for entry in DECLARED["per_layer"]}

_EVERYWHERE = {"setup_s", "latency_cost_p90_ms", "overload_pct", "peak_rss_mb", "failed_ops_share"}
#: The cells each workload exists to measure. The contract makes every
#: workload report every metric; the other cells come from the same
#: definitions on incidental samples (the base plans a churn workload
#: builds in set-up; a cold plan read as one giant batch) and are secondary.
PRIMARY: Dict[str, set] = {
    "plan_cold_1e5": _EVERYWHERE | {"plan_s"},
    "churn_single_1e4": _EVERYWHERE | {"apply_p50_ms", "apply_p99_ms", "events_per_s"},
    "serve_open_1e4": _EVERYWHERE | {"event_latency_p50_ms", "event_latency_p99_ms"},
    "serve_flood_1e4": _EVERYWHERE | {"apply_p50_ms", "events_per_s"},
}


def contract_names(trace: bool) -> List[str]:
    """The metric names the result line must carry for this kind of run."""
    return [entry["name"] for entry in DECLARED["per_layer" if trace else "end_to_end"]]
