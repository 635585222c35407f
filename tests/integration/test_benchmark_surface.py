"""Tripwire for the names ``benchmarks/ledger`` calls into.

The ledger (the repo's benchmark, registered in ``BENCHMARK.json``) is
frozen: it pins a ``NovaConfig``, wraps public methods to time layers,
and reads ``PhaseTimings`` counters by name. Removing or renaming any
of those breaks the benchmark run, so this fast test fails first.
"""

import sys
from dataclasses import fields
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from ledger import env, layers  # noqa: E402

from repro.core.config import NovaConfig  # noqa: E402
from repro.core.optimizer import NovaSession, PhaseTimings  # noqa: E402


def test_pinned_config_constructs_and_parallel_settings_are_refused():
    config = env.pinned_config(7)
    assert (config.seed, config.packing_workers, config.execution_backend) == (
        7,
        1,
        "serial",
    )
    with pytest.raises(ValueError):
        NovaConfig(packing_workers=2)
    with pytest.raises(ValueError):
        NovaConfig(execution_backend="process")


def test_every_trace_point_is_a_public_callable():
    points = layers.trace_points(("planner", "packing", "changeset", "serve"))
    assert points
    for owner, attr, *_ in points:
        assert not attr.startswith("_"), (owner.__name__, attr)
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
    assert callable(NovaSession.close)


def test_every_counter_the_ledger_reads_is_a_timings_field():
    names = {spec.name for spec in fields(PhaseTimings)}
    missing = set(layers.SUMMED_FIELDS + layers.PER_BATCH_FIELDS) - names
    assert not missing, sorted(missing)
