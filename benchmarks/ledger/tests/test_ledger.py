"""Self-tests of the ledger, driven at ``--scale smoke`` (n=300, seconds).

Run from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q
"""

import copy
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(LEDGER_DIR.parent))

from ledger import compare, env  # noqa: E402

env.pin()
env.use_source_tree()

from ledger import contract, inputs, layers, stats, workloads  # noqa: E402
from ledger.spans import Span, SpanRecorder, covered  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def ledger(*args, cwd=env.ROOT, directory=LEDGER_DIR):
    return subprocess.run(
        [sys.executable, str(directory), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One whole ledger at smoke scale: the result set and the span files."""
    scratch = tmp_path_factory.mktemp("ledger")
    done = ledger("--scale", "smoke", "--out", scratch / "set.json", "--spans", scratch / "spans")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((scratch / "set.json").read_text()), scratch / "spans", done.stdout


# ----------------------------------------------------------------------
# the declared surface
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract_limits():
    declared = contract.DECLARED
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16 and 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25 and entry["better"] in ("lower", "higher")
    for entry in declared["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    assert all(UNIT.fullmatch(e["unit"]) for e in declared["end_to_end"] + declared["per_layer"])
    setup = contract.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])
    assert tuple(contract.WORKLOADS) == tuple(workloads.RUNNERS)


def test_every_declared_metric_is_emitted_for_exactly_its_workloads(smoke):
    result, _, printed = smoke
    assert result["comparable"] is False and result["scale"] == "smoke"
    assert set(result["workloads"]) == set(contract.WORKLOADS)
    for workload, entry in result["workloads"].items():
        assert set(entry["end_to_end"]) == contract.PRIMARY[workload]
        assert set(entry["end_to_end"]) | set(entry["secondary"]) == set(contract.END_TO_END)
        assert set(entry["per_layer"]) == set(contract.PER_LAYER)
        for name, cell in {**entry["end_to_end"], **entry["secondary"], **entry["per_layer"]}.items():
            assert NAME.fullmatch(name)
            assert isinstance(cell["value"], (int, float)), (workload, name)
            assert f"{name} " in printed and cell["unit"]
        assert entry["failed"] == 0 and entry["failures"] == []
        assert entry["end_to_end"]["overload_pct"]["value"] == 0
        assert entry["end_to_end"]["failed_ops_share"]["value"] == 0
        assert "trace.overhead_pct" in entry["per_layer"]
        # every timing comes with its sample count
        assert all(cell["samples"] >= 1 for cell in entry["end_to_end"].values())
    host = result["host"]
    assert {"nproc", "platform", "python", "numpy", "scipy", "commit"} <= set(host)
    assert result["config"] == {"seed": 13, "packing_workers": 1, "execution_backend": "serial"}


def test_layers_that_do_no_work_read_zero_and_the_parts_add_up(smoke):
    result, _, _ = smoke
    plan = result["workloads"]["plan_cold_1e5"]["per_layer"]
    assert all(plan[name]["value"] == 0 for name in plan if name.startswith(("changeset.", "serve.", "journal.")))
    stages = sum(
        plan[name]["value"]
        for name in ("cost_space.build_s", "query.resolve_s", "median.solve_s", "packing.pack_s", "planner.stage_self_s")
    )
    (traced_plan_s,) = result["workloads"]["plan_cold_1e5"]["traced_repeats"]["traced_plan_s"]
    assert stages == pytest.approx(traced_plan_s, rel=0.02)
    churn = result["workloads"]["churn_single_1e4"]["per_layer"]
    assert all(churn[name]["value"] == 0 for name in churn if name.startswith("serve."))
    assert churn["changeset.batches"]["value"] == result["workloads"]["churn_single_1e4"]["sizing"]["churn_events"]
    for workload in ("serve_open_1e4", "serve_flood_1e4"):
        layer = result["workloads"][workload]["per_layer"]
        parts = sum(
            layer[name]["value"]
            for name in ("serve.session_apply_s", "serve.apply_self_s", "serve.archive_s", "serve.monitor_s")
        )
        assert parts == pytest.approx(layer["serve.apply_s"]["value"], rel=0.05)
        assert layer["serve.dead_lettered"]["value"] == 0 and layer["serve.shed"]["value"] == 0
    flood = result["workloads"]["serve_flood_1e4"]["per_layer"]
    assert flood["serve.window_events_mean"]["value"] == 64


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_exactly_the_contract_keys(trace):
    done = ledger("--workload", "churn_single_1e4", "--scale", "smoke", "--seed", 14, "--seconds", 1, "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == contract.contract_names(bool(trace))
    for cell in line["metrics"].values():
        assert set(cell) == {"value", "unit"} and isinstance(cell["value"], (int, float))
    if not trace:
        assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the files under ``paths``: no result, non-zero."""
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER_DIR, tmp_path / "benchmarks" / "ledger", ignore=shutil.ignore_patterns("__pycache__"))
    done = ledger(
        "--workload", "churn_single_1e4", "--seed", 1, "--seconds", 1, "--trace", 0,
        cwd=tmp_path, directory=tmp_path / "benchmarks" / "ledger",
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{") and "correct" not in done.stdout


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_span_arithmetic_on_a_known_tree():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.span("outer"):
        clock.now = 1.0
        with recorder.span("inner"):
            clock.now = 3.0
            with recorder.span("inner"):  # same name nested: counted once
                clock.now = 4.0
        clock.now = 5.0
        with recorder.span("leaf"):
            clock.now = 6.0
        clock.now = 10.0
    assert recorder.total("outer") == 10.0
    assert recorder.total("inner") == 3.0 and recorder.count("inner") == 2
    assert recorder.total("leaf", parent="outer") == 1.0 and recorder.total("leaf", parent="inner") == 0.0
    assert recorder.self_time("outer") == 10.0 - 3.0 - 1.0
    assert {span.op for span in recorder.spans} == {0}
    with recorder.span("next"):
        pass
    assert recorder.spans[-1].op == len(recorder.spans) - 1 and recorder.spans[-1].parent == -1


def test_children_never_exceed_their_parent_in_a_real_trace(smoke):
    _, span_dir, _ = smoke
    for workload in contract.WORKLOADS:
        rows = [json.loads(line) for line in (span_dir / f"{workload}.spans.jsonl").read_text().splitlines()]
        assert rows, workload
        by_id = {row["id"]: row for row in rows}
        children = {}
        for row in rows:
            assert row["end"] >= row["start"]
            if row["parent"] >= 0:
                parent = by_id[row["parent"]]
                assert parent["thread"] == row["thread"] and parent["op"] == row["op"]
                assert parent["start"] <= row["start"] and row["end"] <= parent["end"]
                children.setdefault(row["parent"], []).append(row)
        for parent_id, kids in children.items():
            span = by_id[parent_id]
            busy = sum(kid["end"] - kid["start"] for kid in kids)
            assert busy <= (span["end"] - span["start"]) * (1 + 1e-9)  # self time >= 0


def test_covered_merges_overlapping_intervals():
    spans = [Span("x", 0, 2, -1, 0, 0), Span("x", 1, 3, -1, 0, 0), Span("x", 5, 6, -1, 0, 0)]
    assert covered(spans) == 4.0


def test_wrappers_are_fully_removed_after_a_traced_run():
    points = layers.trace_points(layers.SERVE_GROUPS + ("planner",))
    assert all(not attr.startswith("_") for _, attr, *_ in points)
    before = {(owner, attr): owner.__dict__.get(attr) for owner, attr, *_ in points}
    outcome = workloads.run("serve_flood_1e4", seed=13, seconds=1, scale="smoke", trace=True)
    assert outcome.failed == 0 and outcome.spans
    assert {(owner, attr): owner.__dict__.get(attr) for owner, attr, *_ in points} == before


def test_wrappers_are_removed_when_the_traced_code_raises():
    class Target:
        def work(self):
            raise RuntimeError("boom")

    original = Target.__dict__["work"]
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError):
        with recorder.installed([(Target, "work", "target.work")]):
            assert Target.__dict__["work"] is not original
            Target().work()
    assert Target.__dict__["work"] is original
    assert recorder.count("target.work") == 1 and recorder.spans[0].end >= recorder.spans[0].start
    with pytest.raises(ValueError):
        recorder.install(Target, "_hidden", "nope")


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------
def test_open_loop_generator_reports_lag_instead_of_slowing():
    clock = FakeClock()
    slept = []

    def sleep(seconds):
        slept.append((clock.now, seconds))
        clock.sleep(seconds)

    feed = workloads.ScheduledLines([f"line{i}" for i in range(10)], rate=10.0, clock=clock, sleep=sleep)
    for index, _ in enumerate(feed):
        if index == 2:
            clock.now += 0.45  # the sink blocks for 4.5 schedule slots
    assert feed.due == pytest.approx([i / 10.0 for i in range(10)])  # schedule never stretched
    assert feed.lag_s[:3] == pytest.approx([0, 0, 0])
    assert feed.lag_s[3] == pytest.approx(0.35) and feed.lag_s[6] == pytest.approx(0.05)
    assert feed.lag_s[7:] == pytest.approx([0, 0, 0])  # caught up, back on schedule
    assert not any(0.2 < at < 0.65 for at, _ in slept)  # no sleeping while behind


def test_closed_loop_generator_is_due_when_the_sink_accepts():
    clock = FakeClock()
    feed = workloads.ScheduledLines(["a", "b", "c"], rate=None, clock=clock, sleep=clock.sleep)
    for _ in feed:
        clock.now += 1.0
    assert feed.due == [0.0, 1.0, 2.0] and feed.lag_s == [0.0, 0.0, 0.0]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def test_inputs_depend_on_the_seed_and_only_on_it():
    first, again, other = inputs.generate(300, 13), inputs.generate(300, 13), inputs.generate(300, 14)
    ids, positions = first.topology.positions_array()
    assert (positions == again.topology.positions_array()[1]).all()
    assert not (positions == other.topology.positions_array()[1]).all()
    assert (positions[ids.index(first.sink_id)] == inputs.reference_centres()[0]).all()
    assert (other.topology.position(other.sink_id) == inputs.reference_centres()[0]).all()
    events = inputs.churn_events(first, 200)
    assert len(events) == 200 and all(event.node_id != first.sink_id for event in events)
    assert [repr(e) for e in events] == [repr(e) for e in inputs.churn_events(again, 200)]
    assert inputs.churn_lines(again, 5) == inputs.churn_lines(first, 5)


def test_environment_is_pinned_for_the_run_and_its_children(monkeypatch):
    import os

    for name in env.DROPPED_VARS + ("OMP_NUM_THREADS",):
        monkeypatch.setenv(name, "4")
    env.pin()
    assert not any(name in os.environ for name in env.DROPPED_VARS)
    assert all(os.environ[name] == "1" for name in env.THREAD_VARS)
    config = env.pinned_config(7)
    assert (config.seed, config.packing_workers, config.execution_backend) == (7, 1, "serial")


# ----------------------------------------------------------------------
# statistics and --compare
# ----------------------------------------------------------------------
def test_percentile_and_spread_match_the_reference_definitions():
    import numpy

    sample = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
    for q in (0, 50, 90, 99, 100):
        assert stats.percentile(sample, q) == pytest.approx(float(numpy.percentile(sample, q)))
    quartiles = statistics.quantiles(sample, n=4)
    assert stats.spread(sample) == pytest.approx((quartiles[2] - quartiles[0]) / statistics.median(sample))
    assert stats.spread([4.0]) is None and stats.spread([4.0, 5.0]) == pytest.approx(1 / 4.5)


def test_compare_passes_an_identical_pair_and_flags_a_regression(smoke, tmp_path, capsys):
    result, _, _ = smoke
    base, same, slow = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    base.write_text(json.dumps(result))
    same.write_text(json.dumps(result))
    assert compare.main([base, same]) == 0
    assert "0 regressed, 0 unresolved" in capsys.readouterr().out

    worse = copy.deepcopy(result)
    quality = worse["workloads"]["plan_cold_1e5"]["end_to_end"]["latency_cost_p90_ms"]
    quality["runs"] = [value * 1.2 for value in quality["runs"]]  # 20 % worse, bound 8 %
    rate = worse["workloads"]["serve_flood_1e4"]["end_to_end"]["events_per_s"]
    rate["runs"] = [value / 1.4 for value in rate["runs"]]  # higher is better
    plan = worse["workloads"]["plan_cold_1e5"]["end_to_end"]["plan_s"]
    plan["runs"] = [value * 1.1 for value in plan["runs"]]  # inside its bound
    slow.write_text(json.dumps(worse))
    assert compare.main([base, slow]) == 1
    table = capsys.readouterr().out
    assert "2 regressed" in table
    assert re.search(r"plan_cold_1e5\s+latency_cost_p90_ms .* 1\.200 .* regressed", table)
    assert re.search(r"serve_flood_1e4\s+events_per_s .* 0\.714 .* regressed", table)
    assert re.search(r"plan_cold_1e5\s+plan_s .* 1\.100 .* ok", table)
    # the two A/A sets may also travel in one file
    both = tmp_path / "both.json"
    both.write_text(json.dumps({"sets": [result, result]}))
    assert compare.main([both]) == 0
    assert compare.main([base]) == 2


def test_compare_verdicts():
    judge = compare.judge
    assert judge([10, 10, 10, 10], [10.5, 10.5, 10.5, 10.5], "lower", 0.10)[0] == "ok"
    assert judge([10, 10, 10, 10], [12, 12, 12, 12], "lower", 0.10)[0] == "regressed"
    assert judge([100] * 4, [80] * 4, "higher", 0.10)[0] == "regressed"
    assert judge([100] * 4, [130] * 4, "higher", 0.10)[0] == "ok"
    noisy = [8, 10, 12, 14]
    assert judge(noisy, [9, 11, 13, 15], "lower", 0.10)[0] == "unresolved"
    assert judge(noisy, [4, 5, 6, 7], "lower", 0.10)[0] == "ok"  # every run better
    assert judge([0], [0], "lower", 0.0)[0] == "ok"
    assert judge([0], [0.01], "lower", 0.0)[0] == "regressed"
