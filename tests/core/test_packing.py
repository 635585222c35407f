"""The Phase III packing engine: shared cursor cache and grid walk."""

import numpy as np
import pytest

from repro.core.assignment import place_replica
from repro.core.config import NovaConfig
from repro.core.cost_space import AvailabilityLedger, CostSpace
from repro.core.packing import PackingEngine
from repro.query.expansion import JoinPairReplica


def make_replica(index, left_node, right_node, sink_node, rate=10.0):
    return JoinPairReplica(
        replica_id=f"r{index}",
        join_id="join",
        left_source=f"L{index}",
        right_source=f"R{index}",
        left_node=left_node,
        right_node=right_node,
        sink_id="sink_op",
        sink_node=sink_node,
        left_rate=rate,
        right_rate=rate,
    )


def cluster_scenario(seed=0, clusters=4, nodes_per_cluster=40, replicas_per_cluster=8):
    """Widely separated clusters: cross-cluster interaction is impossible.

    Each replica's virtual position sits inside its own cluster, every
    candidate ring eventually reaches other clusters only at distances no
    placement will ever prefer, and capacities are generous.
    """
    rng = np.random.default_rng(seed)
    centers = [np.array([50_000.0 * i, 20_000.0 * (i % 2)]) for i in range(clusters)]
    coords = {}
    jobs = []
    for c, center in enumerate(centers):
        ids = []
        for i in range(nodes_per_cluster):
            node_id = f"c{c}n{i}"
            coords[node_id] = center + rng.normal(scale=3.0, size=2)
            ids.append(node_id)
        for r in range(replicas_per_cluster):
            replica = make_replica(f"{c}_{r}", ids[0], ids[1], ids[2], rate=5.0 + r)
            position = center + rng.normal(scale=2.0, size=2)
            jobs.append((replica, position))
    rng.shuffle(jobs)
    capacities = {node_id: 200.0 for node_id in coords}
    return coords, capacities, jobs


def run_engine(coords, capacities, jobs, **config_overrides):
    config = NovaConfig(seed=1, **config_overrides)
    cost_space = CostSpace(coords, config)
    available = AvailabilityLedger(cost_space, backing=dict(capacities))
    engine = PackingEngine(cost_space, config)
    outcomes = engine.pack(jobs, available)
    return engine, available, outcomes


def placement_signature(outcomes):
    return [
        (sub.sub_id, sub.node_id, round(sub.charged_capacity, 9))
        for outcome in outcomes
        for sub in outcome.subs
    ]


class TestPack:
    def test_outcomes_keep_job_order(self):
        coords, capacities, jobs = cluster_scenario(seed=3)
        _, _, outcomes = run_engine(coords, capacities, jobs)
        assert [o.subs[0].replica_id for o in outcomes] == [
            replica.replica_id for replica, _ in jobs
        ]


class TestSharedCursorCache:
    def test_rings_shared_across_replicas(self):
        coords, capacities, jobs = cluster_scenario(seed=2, clusters=1)
        engine, _, _ = run_engine(coords, capacities, jobs, packing_bucket_grid=4)
        stats = engine.stats
        assert stats.cursor_cache_hits > 0
        assert stats.cursor_cache_misses >= 1
        # One tight cluster: far fewer rings than (replica, demand) pairs.
        assert engine.cached_rings < len(jobs)

    def test_bucket_grid_does_not_change_placements(self):
        coords, capacities, jobs = cluster_scenario(seed=11)
        reference = None
        for grid in (8, 32, 128):
            _, _, outcomes = run_engine(
                coords, capacities, jobs, packing_bucket_grid=grid
            )
            signature = placement_signature(outcomes)
            if reference is None:
                reference = signature
            else:
                # The cache is a pure performance structure: the engine
                # always places on the provably nearest qualifying host,
                # so bucketing granularity must be placement-invariant.
                assert signature == reference

    def test_capacity_increase_invalidates_cache(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(10)}
        coords["near"] = np.array([0.0, 0.45])
        cost_space = CostSpace(coords, config)
        capacities = {node_id: 100.0 for node_id in coords}
        capacities["near"] = 0.0  # saturated: excluded from the first ring
        available = AvailabilityLedger(cost_space, backing=capacities)
        engine = PackingEngine(cost_space, config)
        position = np.array([0.0, 0.5])
        first = engine.place_replica(make_replica(0, "n5", "n6", "n7"), position, available)
        assert "near" not in {sub.node_id for sub in first.subs}
        assert engine.cached_rings > 0
        # Capacity returns (an undeploy): the epoch bump must flush the
        # rings, and the next replica must see the revived nearest node.
        available["near"] = 500.0
        second = engine.place_replica(make_replica(1, "n5", "n6", "n7"), position, available)
        assert engine.stats.knn_queries >= 2
        assert {sub.node_id for sub in second.subs} == {"near"}

    def test_remove_node_invalidates_cache(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(12)}
        cost_space = CostSpace(coords, config)
        available = AvailabilityLedger(
            cost_space, backing={node_id: 50.0 for node_id in coords}
        )
        engine = PackingEngine(cost_space, config)
        position = np.array([0.0, 0.1])
        first = engine.place_replica(make_replica(0, "n8", "n9", "n10"), position, available)
        host = first.subs[0].node_id
        rings_before = engine.cached_rings
        assert rings_before > 0
        available.pop(host, None)
        cost_space.remove_node(host)
        second = engine.place_replica(make_replica(1, "n8", "n9", "n10"), position, available)
        assert host not in {sub.node_id for sub in second.subs}

    def test_decreases_do_not_invalidate(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(12)}
        cost_space = CostSpace(coords, config)
        available = AvailabilityLedger(
            cost_space, backing={node_id: 50.0 for node_id in coords}
        )
        engine = PackingEngine(cost_space, config)
        position = np.array([0.0, 0.1])
        engine.place_replica(make_replica(0, "n8", "n9", "n10"), position, available)
        epoch = cost_space.mutation_epoch
        misses = engine.stats.cursor_cache_misses
        engine.place_replica(make_replica(1, "n8", "n9", "n10"), position, available)
        assert cost_space.mutation_epoch == epoch
        assert engine.stats.cursor_cache_misses == misses  # pure cache hits
        assert engine.stats.cursor_cache_hits > 0


class TestWrapperCompatibility:
    def test_place_replica_matches_engine(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i % 5), float(i // 5)]) for i in range(25)}
        replica = make_replica(0, "n1", "n2", "n3", rate=12.0)
        position = np.array([1.0, 1.0])

        cost_space = CostSpace(coords, config)
        backing = {node_id: 60.0 for node_id in coords}
        wrapper_outcome = place_replica(
            replica, position, cost_space, dict(backing), config
        )

        cost_space2 = CostSpace(coords, config)
        engine = PackingEngine(cost_space2, config)
        engine_outcome = engine.place_replica(replica, position, dict(backing))

        assert [(s.sub_id, s.node_id) for s in wrapper_outcome.subs] == [
            (s.sub_id, s.node_id) for s in engine_outcome.subs
        ]
        assert wrapper_outcome.overload_accepted == engine_outcome.overload_accepted

    def test_spread_fallback_still_flags_overload(self):
        config = NovaConfig(seed=1)
        coords = {f"n{i}": np.array([float(i), 0.0]) for i in range(4)}
        cost_space = CostSpace(coords, config)
        available = {node_id: 1.0 for node_id in coords}
        replica = make_replica(0, "n0", "n1", "n2", rate=50.0)
        outcome = place_replica(
            replica, np.array([0.0, 0.0]), cost_space, available, config
        )
        assert outcome.overload_accepted
        assert outcome.subs
