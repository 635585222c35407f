"""Deployment of placements onto the simulator."""

import json

import pytest

from repro.common.errors import SimulationError
from repro.baselines.sink_based import SinkBasedPlacement
from repro.core.config import NovaConfig
from repro.core.optimizer import Nova
from repro.spe.deployment import Deployment, SimulationConfig, parse_partition_indices
from repro.workloads.debs import debs_workload


@pytest.fixture(scope="module")
def workload():
    return debs_workload(rate_hz=40.0, seed=2)


@pytest.fixture(scope="module")
def nova_placement(workload):
    session = Nova(NovaConfig(seed=2, sigma=1.0)).optimize(
        workload.topology, workload.plan, workload.matrix, latency=workload.latency
    )
    return session.placement


class TestParsePartitionIndices:
    def test_roundtrip(self):
        assert parse_partition_indices("join[axb]/3x7") == (3, 7)

    def test_malformed(self):
        with pytest.raises(SimulationError):
            parse_partition_indices("garbage")
        with pytest.raises(SimulationError):
            parse_partition_indices("x/1-2")


class TestSimulationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_s": 0.0},
            {"duration_s": 0.0},
            {"allowed_lateness_s": -1.0},
            {"stress_factors": {"n": 0.0}},
            {"stress_factors": {"n": 1.5}},
            {"capacity_scale": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(SimulationError):
            SimulationConfig(**kwargs)


class TestDeploymentStructure:
    def test_merged_join_instances(self, workload, nova_placement):
        config = SimulationConfig(window_s=0.05, duration_s=1.0, seed=0)
        deployment = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        )
        # One merged RuntimeJoin per (replica, node).
        expected = {(s.replica_id, s.node_id) for s in nova_placement.sub_replicas}
        assert set(deployment.joins) == expected

    def test_sources_and_sinks_wired(self, workload, nova_placement):
        config = SimulationConfig(window_s=0.05, duration_s=1.0, seed=0)
        deployment = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        )
        assert len(deployment.sources) == len(workload.plan.sources())
        assert len(deployment.sinks) == 1
        for source in deployment.sources.values():
            assert source.routes  # every source feeds at least one replica

    def test_stress_reduces_capacity(self, workload, nova_placement):
        config = SimulationConfig(
            window_s=0.05, duration_s=1.0, seed=0,
            stress_factors={"source0": 0.5},
        )
        deployment = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        )
        nominal = workload.topology.node("source0").capacity
        assert deployment.nodes["source0"].capacity == pytest.approx(nominal * 0.5)

    def test_unknown_node_in_placement_rejected(self, workload):
        from repro.core.placement import Placement, SubReplicaPlacement

        placement = Placement()
        placement.extend(
            [
                SubReplicaPlacement(
                    sub_id="r/0x0", replica_id="r", join_id="climate_join",
                    node_id="ghost", left_source="pressure_region0",
                    right_source="humidity_region0", left_node="source0",
                    right_node="source1", sink_node="sink",
                    left_rate=1.0, right_rate=1.0,
                )
            ]
        )
        config = SimulationConfig(window_s=0.05, duration_s=1.0)
        with pytest.raises(SimulationError):
            Deployment(
                workload.topology, workload.plan, placement,
                workload.latency.latency, config,
            )


class TestRun:
    def test_report_fields(self, workload, nova_placement):
        config = SimulationConfig(window_s=0.05, duration_s=3.0, seed=1)
        report = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        ).run()
        assert report.results_delivered > 0
        assert report.tuples_emitted > 0
        assert report.network_transfers > 0
        assert report.latency.mean > 0
        assert report.throughput_per_s == pytest.approx(
            report.results_delivered / 3.0
        )
        assert set(report.node_processed) == set(workload.topology.node_ids)

    def test_latency_trend_and_cumulative(self, workload, nova_placement):
        config = SimulationConfig(window_s=0.05, duration_s=3.0, seed=1)
        report = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        ).run()
        trend = report.latency_trend(buckets=5)
        assert trend and all(lat > 0 for _, lat in trend)
        cumulative = report.cumulative_delivery(buckets=5)
        counts = [count for _, count in cumulative]
        assert counts == sorted(counts)
        assert counts[-1] == report.results_delivered

    def test_deterministic_given_seed(self, workload, nova_placement):
        config = SimulationConfig(window_s=0.05, duration_s=2.0, seed=7)
        first = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        ).run()
        second = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        ).run()
        assert first.results_delivered == second.results_delivered
        assert first.latency.mean == pytest.approx(second.latency.mean)

    def test_overloaded_sink_placement_underdelivers(self, workload, nova_placement):
        config = SimulationConfig(window_s=0.05, duration_s=3.0, seed=1)
        sink_placement = SinkBasedPlacement().place(
            workload.topology, workload.plan, workload.matrix
        )
        sink_report = Deployment(
            workload.topology, workload.plan, sink_placement,
            workload.latency.latency, config,
        ).run()
        nova_report = Deployment(
            workload.topology, workload.plan, nova_placement,
            workload.latency.latency, config,
        ).run()
        assert nova_report.results_delivered > sink_report.results_delivered


class TestFromArtifacts:
    def test_delta_stream_deploys_like_live_placement(self):
        """An archived base placement + PlanDelta stream wires the same
        runtime objects as deploying the live post-churn placement."""
        from repro.evaluation.latency import matrix_distance
        from repro.topology.dynamics import DataRateChangeEvent, RemoveNodeEvent
        from repro.topology.latency import DenseLatencyMatrix
        from repro.workloads.synthetic import synthetic_opp_workload

        workload2 = synthetic_opp_workload(80, seed=9)
        latency = DenseLatencyMatrix.from_topology(workload2.topology)
        session = Nova(NovaConfig(seed=9)).optimize(
            workload2.topology, workload2.plan, workload2.matrix, latency=latency
        )
        base = session.placement.copy()
        pinned = set(session.placement.pinned.values())
        host = next(
            sub.node_id
            for sub in session.placement.sub_replicas
            if sub.node_id not in pinned
        )
        source = session.plan.sources()[1].op_id
        deltas = [
            session.apply([RemoveNodeEvent(host)]),
            session.apply([DataRateChangeEvent(source, 120.0)]),
        ]

        config = SimulationConfig(duration_s=0.2, seed=9)
        distance = matrix_distance(latency)
        replayed = Deployment.from_artifacts(
            session.topology, session.plan, base, deltas, distance, config=config
        )
        live = Deployment(
            session.topology, session.plan, session.placement, distance,
            config=config,
        )
        assert set(replayed.joins) == set(live.joins)
        assert {
            (key, frozenset(join.cells)) for key, join in replayed.joins.items()
        } == {
            (key, frozenset(join.cells)) for key, join in live.joins.items()
        }
        # The base placement itself must be untouched by the fold.
        assert any(sub.node_id == host for sub in base.sub_replicas)

    def test_parent_format_delta_archive_deploys(self):
        """Deltas archived before parallel packing was removed (their
        timings carry the dropped counters) still load and deploy."""
        from repro.core.serialization import (
            plan_delta_from_dict,
            plan_delta_to_dict,
        )
        from repro.evaluation.latency import matrix_distance
        from repro.topology.dynamics import DataRateChangeEvent
        from repro.topology.latency import DenseLatencyMatrix
        from repro.workloads.synthetic import synthetic_opp_workload
        from tests.core.test_serialization import PARENT_FORMAT_TIMINGS

        workload2 = synthetic_opp_workload(80, seed=9)
        latency = DenseLatencyMatrix.from_topology(workload2.topology)
        session = Nova(NovaConfig(seed=9)).optimize(
            workload2.topology, workload2.plan, workload2.matrix, latency=latency
        )
        base = session.placement.copy()
        source = session.plan.sources()[1].op_id
        archived = plan_delta_to_dict(session.apply([DataRateChangeEvent(source, 120.0)]))
        archived["timings"] = dict(PARENT_FORMAT_TIMINGS)

        config = SimulationConfig(duration_s=0.2, seed=9)
        distance = matrix_distance(latency)
        replayed = Deployment.from_artifacts(
            session.topology,
            session.plan,
            base,
            [plan_delta_from_dict(json.loads(json.dumps(archived)))],
            distance,
            config=config,
        )
        live = Deployment(
            session.topology, session.plan, session.placement, distance,
            config=config,
        )
        assert {
            (key, frozenset(join.cells)) for key, join in replayed.joins.items()
        } == {
            (key, frozenset(join.cells)) for key, join in live.joins.items()
        }
