"""Generated inputs: everything the program receives comes from ``--seed``.

Roles, capacities, data rates and the join pairing are
``synthetic_opp_workload(n, seed)`` verbatim. Node coordinates are then
re-drawn on a *reference geography* — ten fixed cluster centres with the
sink at the first — because the library generator also draws the centres
and the sink from the seed, and where the sink lands moves the 90P
latency by ±20 % and the plan time by ±6 % from one seed to the next.
With the geography fixed, instances of different seeds are samples of
one distribution (90P spread ≈1 %), so a run on a new seed is comparable
with the committed baseline; which node sits where, hosts what and joins
with whom still changes with every seed.

Churn comes from ``churn_event_stream(topology, plan, seed + 16)`` minus
events on the sink's host: drifting or resizing that one node re-places
every replica (seconds, against milliseconds for any other event) — that
is a re-plan, which ``plan_cold_1e5`` measures, and one such event in a
stream would decide the throughput of the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

GEOGRAPHY_SEED = 13
CLUSTERS = 10
CLUSTER_STD = 5.0
X_RANGE = (0.0, 100.0)
Y_RANGE = (-50.0, 50.0)
CHURN_SEED_OFFSET = 16


@dataclass
class Inputs:
    """One generated problem instance and its latency model."""

    workload: object
    latency: object
    seed: int

    @property
    def topology(self):
        return self.workload.topology

    @property
    def sink_id(self) -> str:
        return self.workload.sink_id


def reference_centres() -> np.ndarray:
    """The fixed cluster centres (drawn like the library draws them)."""
    rng = np.random.default_rng(GEOGRAPHY_SEED)
    return np.column_stack(
        [rng.uniform(*X_RANGE, size=CLUSTERS), rng.uniform(*Y_RANGE, size=CLUSTERS)]
    )


def generate(n: int, seed: int) -> Inputs:
    """The instance of ``n`` nodes for ``seed`` on the reference geography."""
    from repro.topology.latency import CoordinateLatencyModel
    from repro.workloads.synthetic import synthetic_opp_workload

    workload = synthetic_opp_workload(n, seed=seed)
    topology = workload.topology
    ids = topology.node_ids
    centres = reference_centres()
    rng = np.random.default_rng([seed, n])
    positions = centres[rng.integers(0, CLUSTERS, size=n)] + rng.normal(
        0.0, CLUSTER_STD, size=(n, 2)
    )
    positions[:, 0] = np.clip(positions[:, 0], *X_RANGE)
    positions[:, 1] = np.clip(positions[:, 1], *Y_RANGE)
    positions[ids.index(workload.sink_id)] = centres[0]
    for node_id, position in zip(ids, positions):
        topology.set_position(node_id, position)
    latency = CoordinateLatencyModel(*topology.positions_array())
    return Inputs(workload=workload, latency=latency, seed=seed)


def churn_events(inputs: Inputs, count: int) -> List[object]:
    """The first ``count`` churn events of the seed's stream, sink host spared."""
    from repro.topology.dynamics import churn_event_stream

    stream: Iterator[object] = churn_event_stream(
        inputs.topology, inputs.workload.plan, seed=inputs.seed + CHURN_SEED_OFFSET
    )
    events: List[object] = []
    while len(events) < count:
        event = next(stream)
        if event.node_id != inputs.sink_id:
            events.append(event)
    return events


def churn_lines(inputs: Inputs, count: int) -> List[str]:
    """The same events as pre-encoded JSONL lines (the daemon's wire format)."""
    from repro.topology.event_codec import encode_event_line

    return [encode_event_line(event) for event in churn_events(inputs, count)]
