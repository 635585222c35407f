"""The four workloads: what runs, how it is timed, what is checked.

One workload runs per process. An *untraced* run measures the end-to-end
metrics (three set-ups, repeats, medians of repeats); a *traced* run
makes one untraced reference pass and one pass under the span recorder
and reports the per-layer metrics — the two are never mixed.

Load comes from this process alone: the caller's thread, plus the serve
source thread that feeds the real ``ServeLoop`` its lines.
"""

from __future__ import annotations

import gc
import io
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import checks, env
from .inputs import Inputs, churn_events, churn_lines, generate
from .layers import (
    CHURN_GROUPS,
    PLAN_GROUPS,
    SERVE_GROUPS,
    Counters,
    layer_metrics,
    stage_hooks,
    trace_points,
)
from .spans import SpanRecorder, span
from .stats import percentile

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Invariants ``checks.verify`` tests per call (operations attempted).
CHECKS_PER_VERIFY = 6
#: The latency limit of the open-loop workload (``event_latency_p99_ms``).
OPEN_LATENCY_LIMIT_MS = 500.0
#: An open loop is only open if its generator keeps its own schedule.
GENERATOR_LAG_LIMIT_MS = 50.0

#: The offered rate of the open loop, events/s (≈25 % of capacity here).
OPEN_RATE = 50.0
OPEN_SETTINGS = {"window_ms": 50.0, "max_batch": 64, "queue_size": 256}
FLOOD_SETTINGS = {"window_ms": 600_000.0, "max_batch": 64, "queue_size": 256}
STATUS_INTERVAL_S = 5.0


@dataclass
class Sizing:
    """How much work ``--seconds`` buys at a scale; never n, windows or rate."""

    scale: str
    plan_n: int
    base_n: int
    plan_repeats: int
    churn_events: int
    open_events: int
    flood_windows: int

    @classmethod
    def of(cls, seconds: int, scale: str) -> "Sizing":
        smoke = scale == "smoke"
        return cls(
            scale=scale,
            plan_n=300 if smoke else 100_000,
            base_n=300 if smoke else 10_000,
            # One cold plan at 1e5 takes ≈30 s here: --seconds 90 buys the
            # three repeats a hand-run ledger wants, the contract's 20 one.
            plan_repeats=max(1, seconds // 30),
            # ≈180 single applies/s and ≈3.5 flood windows/s here, three
            # repeats each: both fill about three quarters of --seconds.
            churn_events=45 * seconds,
            open_events=int(OPEN_RATE * seconds),
            flood_windows=max(4, round(0.8 * seconds)),
        )


@dataclass
class Outcome:
    """What one workload run produced."""

    workload: str
    #: end-to-end metric → (value, samples behind it); untraced runs only.
    end_to_end: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    #: per-layer metric → value (None: counter gone); traced runs only.
    per_layer: Dict[str, Optional[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    fingerprints: List[str] = field(default_factory=list)
    #: Counts that must repeat exactly between two runs of one commit.
    counts: Dict[str, object] = field(default_factory=dict)
    repeats: Dict[str, List[float]] = field(default_factory=dict)
    spans: List[Dict[str, object]] = field(default_factory=list)

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.failures.append(f"{self.workload}: {message}")

    def verify(self, session) -> None:
        self.attempted += CHECKS_PER_VERIFY
        for failure in checks.verify(session):
            self.fail(failure)

    def same_fingerprint(self) -> None:
        self.attempted += 1
        if len(set(self.fingerprints)) > 1:
            self.fail("placement fingerprints differ across repeats")

    def finish(self, session, setup_s: Sequence[float]) -> None:
        """The metrics every workload reports, taken at the very end."""
        self.end_to_end["setup_s"] = (median(setup_s), len(setup_s))
        self.counts["source_rows_negative"] = len(checks.negative_rows(session, source_hosts=True))
        self.end_to_end["overload_pct"] = (checks.overload_pct(session), 1)
        self.end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            1,
        )


# ----------------------------------------------------------------------
# shared passes
# ----------------------------------------------------------------------
def cold_plan(inputs: Inputs, recorder: Optional[SpanRecorder] = None):
    """One cold ``repro.plan``; returns ``(PlanResult, seconds)``."""
    import repro

    config = env.pinned_config(inputs.seed)
    pipeline = None
    if recorder is not None:
        pipeline = stage_hooks(recorder, repro.PlacementPipeline(config))
    gc.collect()  # every plan starts from the same collector state
    started = time.perf_counter()
    result = repro.plan(
        inputs.workload, "nova", config=config, latency=inputs.latency, pipeline=pipeline
    )
    return result, time.perf_counter() - started


@dataclass
class Base:
    """One set-up of a churn/serve workload: the planned session, its events."""

    session: object
    events: list
    setup_s: float
    plan_s: float


def set_up_base(
    n: int,
    seed: int,
    events: int,
    encoded: bool,
    recorder: Optional[SpanRecorder] = None,
) -> Base:
    """Generate inputs, plan them cold, draw the churn — all of it set-up."""
    started = time.perf_counter()
    with span(recorder, "topology.generate"):
        inputs = generate(n, seed)
        drawn = (churn_lines if encoded else churn_events)(inputs, events)
    result, plan_s = cold_plan(inputs)
    return Base(result.session, drawn, time.perf_counter() - started, plan_s)


@dataclass
class ChurnPass:
    latencies_ms: List[float]
    wall_s: float
    raised: int

    @property
    def events_per_s(self) -> float:
        return len(self.latencies_ms) / self.wall_s


def churn_pass(
    session, events: Sequence[object], on_delta: Optional[Callable[[object], None]] = None
) -> ChurnPass:
    """Closed loop, one caller: ``session.apply([event])`` back to back."""
    latencies: List[float] = []
    raised = 0
    clock = time.perf_counter
    gc.collect()  # every pass starts from the same collector state
    started = clock()
    for event in events:
        before = clock()
        try:
            delta = session.apply([event])
        except Exception:  # a raised apply is a failed operation, not a crash
            raised += 1
            continue
        latencies.append(1000.0 * (clock() - before))
        if on_delta is not None:
            on_delta(delta)
    return ChurnPass(latencies, clock() - started, raised)


class ScheduledLines:
    """Feeds lines to the daemon on a fixed schedule (or flat out).

    Open loop (``rate`` given): line *i* is due at ``start + i / rate``
    whatever the daemon does. When the sink blocks, the generator does not
    stretch the schedule — it falls behind, sends the backlog without
    sleeping, and reports how late each line left (``lag_s``). Closed
    loop (``rate`` None): each line is due the moment the previous one
    was accepted, so the block-policy queue paces the producer.
    """

    def __init__(
        self,
        lines: Sequence[str],
        rate: Optional[float] = None,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.lines = lines
        self.rate = rate
        self.clock = clock
        self.sleep = sleep
        self.due: List[float] = []
        self.lag_s: List[float] = []

    def __iter__(self) -> Iterator[str]:
        started = self.clock()
        for index, line in enumerate(self.lines):
            now = self.clock()
            due = now if self.rate is None else started + index / self.rate
            if now < due:
                self.sleep(due - now)
                now = self.clock()
            self.due.append(due)
            self.lag_s.append(now - due)
            yield line


@dataclass
class ServePass:
    event_latency_ms: List[float]
    window_apply_ms: List[float]
    wall_s: float
    sent: int
    applied: int
    lost: int
    lag_ms: List[float]
    entries: List[dict]
    stats: object
    archive_bytes: int
    backlog: int

    @property
    def events_per_s(self) -> float:
        return self.applied / self.wall_s


def serve_pass(
    session, lines: Sequence[str], settings: Dict[str, float], rate: Optional[float]
) -> ServePass:
    """Drive the real ``ServeLoop`` over ``lines``; observe it from outside."""
    from repro.serve import (
        DeadLetterArchive,
        DeltaArchive,
        IterableSource,
        ServeLoop,
        ServeSettings,
    )

    class StampingArchive(DeltaArchive):
        """Notes when each window's record became durable, and its size."""

        def __init__(self, path: Path) -> None:
            super().__init__(path)
            self.stamps: List[Tuple[float, int]] = []

        def record(self, window, events, delta, elapsed_s, retry=False):
            entry = super().record(window, events, delta, elapsed_s, retry=retry)
            self.stamps.append((time.perf_counter(), len(events)))
            return entry

    with env.scratch_dir() as scratch:
        archive = StampingArchive(scratch / "deltas.jsonl")
        dead = DeadLetterArchive(scratch / "dead.jsonl")
        feed = ScheduledLines(lines, rate)
        loop = ServeLoop(
            session,
            [IterableSource(feed)],
            ServeSettings(
                overflow="block",
                exit_on_eof=True,
                status_interval_s=STATUS_INTERVAL_S,
                **settings,
            ),
            dead_letters=dead,
            deltas=archive,
            status_file=scratch / "status.json",
            status_stream=io.StringIO(),
        )
        gc.collect()  # every pass starts from the same collector state
        loop.run()
        archive_bytes = archive.path.stat().st_size

    # FIFO under the block policy: the k-th line sent is the k-th event
    # archived (asserted by the caller: applied == sent, nothing lost).
    latencies: List[float] = []
    sent = len(feed.due)
    for at, count in archive.stamps:
        for due in feed.due[len(latencies) : len(latencies) + count]:
            latencies.append(1000.0 * (at - due))
    stats = loop.stats
    finished = archive.stamps[-1][0] if archive.stamps else time.perf_counter()
    return ServePass(
        event_latency_ms=latencies,
        window_apply_ms=[1000.0 * entry["elapsed_s"] for entry in archive.entries],
        wall_s=finished - feed.due[0],
        sent=sent,
        applied=stats.events_applied,
        lost=len(dead) + stats.events_shed + stats.events_rejected,
        lag_ms=[1000.0 * lag for lag in feed.lag_s],
        entries=archive.entries,
        stats=stats,
        archive_bytes=archive_bytes,
        backlog=loop.queue.depth,
    )


def account_serve(outcome: Outcome, served: ServePass) -> None:
    """Count the pass's events; anything not applied and archived failed."""
    outcome.attempted += served.sent
    missing = served.sent - len(served.event_latency_ms)
    if missing or served.lost or served.backlog or served.applied != served.sent:
        outcome.fail(
            f"sent {served.sent}, applied {served.applied}, archived "
            f"{len(served.event_latency_ms)}, dead-lettered/shed/rejected {served.lost}, "
            f"backlog {served.backlog}",
            operations=max(1, missing, served.lost),
        )


def serve_extras(served: ServePass, lines: Sequence[str]) -> Dict[str, float]:
    """Serving metrics that spans cannot see (stats, decode pass, lag)."""
    from repro.topology.event_codec import decode_event_line

    started = time.perf_counter()
    for line in lines:
        decode_event_line(line)
    decode_s = time.perf_counter() - started
    stats = served.stats
    windows = getattr(stats, "windows_applied", 0)
    return {
        "serve.decode_us_per_event": 1e6 * decode_s / len(lines),
        "serve.windows": windows,
        "serve.window_events_mean": served.applied / windows if windows else 0.0,
        "serve.archive_bytes": served.archive_bytes,
        "serve.retries": getattr(stats, "window_retries", None),
        "serve.dead_lettered": getattr(stats, "events_dead_lettered", None),
        "serve.shed": getattr(stats, "events_shed", None),
        "serve.coalesced_away": getattr(stats, "events_coalesced_away", None),
        "serve.generator_lag_p99_ms": percentile(served.lag_ms, 99),
    }


def overhead_pct(traced: float, untraced: float) -> float:
    """Tracing overhead: traced ÷ untraced − 1, in percent."""
    return 100.0 * (traced / untraced - 1.0)


def close_traced(
    outcome: Outcome,
    recorder: SpanRecorder,
    counters: Counters,
    overhead: float,
    serve: Optional[Dict[str, float]] = None,
) -> Outcome:
    outcome.per_layer = layer_metrics(recorder, counters, serve)
    outcome.per_layer["trace.overhead_pct"] = overhead
    outcome.spans = recorder.to_rows()
    outcome.counts.update(
        {
            name: outcome.per_layer[name]
            for name in (
                "query.replicas",
                "median.solved",
                "packing.cells",
                "journal.copied_subs_max",
                "journal.copied_subs_mean",
            )
        }
    )
    return outcome


# ----------------------------------------------------------------------
# plan_cold_1e5
# ----------------------------------------------------------------------
def plan_cold(size: Sizing, seed: int, recorder: Optional[SpanRecorder]) -> Outcome:
    """Cold ``repro.plan`` at n=1e5, from scratch."""
    outcome = Outcome("plan_cold_1e5")
    if recorder is not None:
        return plan_cold_traced(size, seed, recorder, outcome)

    setup_s: List[float] = []
    for _ in range(SETUPS):
        inputs = None  # 1e5 nodes: let go of the last instance first
        started = time.perf_counter()
        inputs = generate(size.plan_n, seed)
        setup_s.append(time.perf_counter() - started)

    plan_s: List[float] = []
    result = None
    for _ in range(size.plan_repeats):
        result = None  # ≈400 MB: let go of the last plan before the next
        outcome.attempted += 1
        result, seconds = cold_plan(inputs)
        plan_s.append(seconds)
        outcome.fingerprints.append(checks.placement_fingerprint(result.placement))
    outcome.same_fingerprint()
    session = result.session
    seconds, repeats = median(plan_s), len(plan_s)
    outcome.repeats["plan_s"] = plan_s
    outcome.counts["sub_replicas"] = session.placement.replica_count()
    # A cold plan is the degenerate batch: one apply that places every
    # replica. The contract wants every metric from every workload, so the
    # batch cells read the plan itself — no second measurement, no noise
    # of their own.
    outcome.end_to_end.update(
        {
            "plan_s": (seconds, repeats),
            "apply_p50_ms": (1000.0 * seconds, repeats),
            "apply_p99_ms": (1000.0 * seconds, repeats),
            "event_latency_p50_ms": (1000.0 * seconds, repeats),
            "event_latency_p99_ms": (1000.0 * seconds, repeats),
            "events_per_s": (len(result.resolved.replicas) / seconds, repeats),
            "latency_cost_p90_ms": (checks.latency_cost_p90_ms(session), 1),
        }
    )
    outcome.verify(session)
    outcome.finish(session, setup_s)
    return outcome


def plan_cold_traced(
    size: Sizing, seed: int, recorder: SpanRecorder, outcome: Outcome
) -> Outcome:
    with span(recorder, "topology.generate"):
        inputs = generate(size.plan_n, seed)
    result, untraced_s = cold_plan(inputs)
    result.session.close()
    del result
    gc.collect()

    with recorder.installed(trace_points(PLAN_GROUPS)):
        outcome.attempted += 1
        result, traced_s = cold_plan(inputs, recorder)
    counters = Counters()
    counters.add(result.timings)
    counters.resolved_replicas = len(result.resolved.replicas)
    outcome.verify(result.session)
    outcome.repeats["traced_plan_s"] = [traced_s]
    outcome.fingerprints.append(checks.placement_fingerprint(result.placement))
    # The trace is only worth reading if the stages account for the plan.
    outcome.attempted += 1
    staged = sum(recorder.total(f"stage.{name}") for name in ("cost_space", "resolve", "virtual", "physical"))
    if abs(staged - traced_s) > 0.02 * traced_s:
        outcome.fail(f"stage spans sum to {staged:.3f} s of a {traced_s:.3f} s plan")
    return close_traced(outcome, recorder, counters, overhead_pct(traced_s, untraced_s))


# ----------------------------------------------------------------------
# churn_single_1e4
# ----------------------------------------------------------------------
def paired(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Per-operation median across repeats of the *same* operations.

    Repeats of a deterministic workload apply identical operations to
    identical sessions, so operation *i* costs the same each time and
    differs only by what the machine did meanwhile; the median across
    repeats removes a burst that hit one repeat, which matters most for
    the tail percentiles. Falls back to pooling if an operation raised.
    """
    if len({len(values) for values in repeats}) != 1:
        return [value for values in repeats for value in values]
    return [median(column) for column in zip(*repeats)]


def loop_metrics(
    outcome: Outcome,
    applies_ms: Sequence[Sequence[float]],
    events_ms: Sequence[Sequence[float]],
    rates: Sequence[float],
) -> None:
    """Percentiles of the paired apply and event latencies, median rate."""
    applies, events = paired(applies_ms), paired(events_ms)
    apply_samples = sum(len(values) for values in applies_ms)
    event_samples = sum(len(values) for values in events_ms)
    outcome.repeats["events_per_s"] = list(rates)
    outcome.repeats["apply_p50_ms"] = [percentile(values, 50) for values in applies_ms]
    outcome.end_to_end.update(
        {
            "apply_p50_ms": (percentile(applies, 50), apply_samples),
            "apply_p99_ms": (percentile(applies, 99), apply_samples),
            "events_per_s": (median(rates), event_samples),
            "event_latency_p50_ms": (percentile(events, 50), event_samples),
            "event_latency_p99_ms": (percentile(events, 99), event_samples),
        }
    )


def churn_single(size: Sizing, seed: int, recorder: Optional[SpanRecorder]) -> Outcome:
    """Closed loop, one caller: consecutive single-event applies at n=1e4."""
    outcome = Outcome("churn_single_1e4")
    if recorder is not None:
        return churn_single_traced(size, seed, recorder, outcome)

    passes = []
    for base in fresh_bases(outcome, size.base_n, seed, size.churn_events, encoded=False):
        done = churn_pass(base.session, base.events)
        passes.append(done)
        outcome.attempted += len(base.events)
        if done.raised:
            outcome.fail(f"{done.raised} applies raised", done.raised)
        outcome.fingerprints.append(checks.placement_fingerprint(base.session.placement))
        outcome.verify(base.session)
    outcome.same_fingerprint()
    # One caller: an event is due when submitted, so its latency is its apply's.
    latencies = [done.latencies_ms for done in passes]
    loop_metrics(outcome, latencies, latencies, [done.events_per_s for done in passes])
    return outcome


def fresh_bases(
    outcome: Outcome, n: int, seed: int, events: int, encoded: bool
) -> Iterator[Base]:
    """``SETUPS`` freshly planned sessions, one alive at a time.

    The caller measures on each base it is handed (or only on the last);
    when the last one comes back, plan time, quality and the metrics
    common to every workload are taken from it. Holding all three
    sessions at once would triple the heap the cyclic collector walks —
    an 80 ms pause in the middle of a pass that no user of one session
    would ever see.
    """
    plan_s: List[float] = []
    setup_s: List[float] = []
    for _ in range(SETUPS):
        base = set_up_base(n, seed, events, encoded)
        plan_s.append(base.plan_s)
        setup_s.append(base.setup_s)
        session = base.session
        yield base
        del base
    outcome.end_to_end["plan_s"] = (median(plan_s), len(plan_s))
    outcome.repeats["plan_s"] = plan_s
    outcome.end_to_end["latency_cost_p90_ms"] = (checks.latency_cost_p90_ms(session), 1)
    outcome.counts["sub_replicas"] = session.placement.replica_count()
    outcome.finish(session, setup_s)


def churn_single_traced(
    size: Sizing, seed: int, recorder: SpanRecorder, outcome: Outcome
) -> Outcome:
    reference = set_up_base(size.base_n, seed, size.churn_events, encoded=False)
    untraced = churn_pass(reference.session, reference.events)
    del reference  # one live session, as in the untraced runs
    base = set_up_base(size.base_n, seed, size.churn_events, encoded=False, recorder=recorder)
    counters = Counters()
    with recorder.installed(trace_points(CHURN_GROUPS)):
        traced = churn_pass(base.session, base.events, on_delta=counters.add_delta)
    outcome.attempted += len(base.events)
    if traced.raised:
        outcome.fail(f"{traced.raised} applies raised", traced.raised)
    outcome.verify(base.session)
    outcome.fingerprints.append(checks.placement_fingerprint(base.session.placement))
    overhead = overhead_pct(sum(traced.latencies_ms), sum(untraced.latencies_ms))
    return close_traced(outcome, recorder, counters, overhead)


# ----------------------------------------------------------------------
# serve_open_1e4 / serve_flood_1e4
# ----------------------------------------------------------------------
def served_metrics(outcome: Outcome, passes: Sequence[ServePass]) -> None:
    loop_metrics(
        outcome,
        [done.window_apply_ms for done in passes],
        [done.event_latency_ms for done in passes],
        [done.events_per_s for done in passes],
    )


def serve_open(size: Sizing, seed: int, recorder: Optional[SpanRecorder]) -> Outcome:
    """Open loop: 50 events/s on a fixed schedule into the real daemon."""
    outcome = Outcome("serve_open_1e4")
    if recorder is not None:
        return serve_traced(
            outcome, size, seed, recorder, size.open_events, OPEN_SETTINGS, OPEN_RATE,
            compared=lambda done: percentile(done.event_latency_ms, 50),
        )

    bases = fresh_bases(outcome, size.base_n, seed, size.open_events, encoded=True)
    for index, base in enumerate(bases):
        if index < SETUPS - 1:
            continue  # a timed set-up only; the schedule runs once, on the last
        served = serve_pass(base.session, base.events, OPEN_SETTINGS, OPEN_RATE)
        account_serve(outcome, served)
        served_metrics(outcome, [served])
        outcome.attempted += 2
        p99 = outcome.end_to_end["event_latency_p99_ms"][0]
        if p99 > OPEN_LATENCY_LIMIT_MS:
            outcome.fail(
                f"event_latency_p99_ms {p99:.1f} over the "
                f"{OPEN_LATENCY_LIMIT_MS} ms limit"
            )
        lag = percentile(served.lag_ms, 99)
        outcome.repeats["generator_lag_p99_ms"] = [lag]
        if lag >= GENERATOR_LAG_LIMIT_MS:
            outcome.fail(f"generator ran {lag:.1f} ms late at p99")
        outcome.verify(base.session)
    return outcome


def serve_flood(size: Sizing, seed: int, recorder: Optional[SpanRecorder]) -> Outcome:
    """Saturating closed loop: lines as fast as the block-policy queue admits."""
    outcome = Outcome("serve_flood_1e4")
    lines = size.flood_windows * FLOOD_SETTINGS["max_batch"]
    if recorder is not None:
        return serve_traced(
            outcome, size, seed, recorder, lines, FLOOD_SETTINGS, None,
            compared=lambda done: done.wall_s,
        )

    passes = []
    for base in fresh_bases(outcome, size.base_n, seed, lines, encoded=True):
        served = serve_pass(base.session, base.events, FLOOD_SETTINGS, None)
        account_serve(outcome, served)
        passes.append(served)
        outcome.fingerprints.append(checks.placement_fingerprint(base.session.placement))
        outcome.verify(base.session)
    outcome.same_fingerprint()
    served_metrics(outcome, passes)
    return outcome


def serve_traced(
    outcome: Outcome,
    size: Sizing,
    seed: int,
    recorder: SpanRecorder,
    lines: int,
    settings: Dict[str, float],
    rate: Optional[float],
    compared: Callable[[ServePass], float],
) -> Outcome:
    reference = set_up_base(size.base_n, seed, lines, encoded=True)
    untraced = serve_pass(reference.session, reference.events, settings, rate)
    del reference  # one live session, as in the untraced runs
    base = set_up_base(size.base_n, seed, lines, encoded=True, recorder=recorder)
    with recorder.installed(trace_points(SERVE_GROUPS)):
        traced = serve_pass(base.session, base.events, settings, rate)
    account_serve(outcome, traced)
    counters = Counters()
    for entry in traced.entries:
        counters.add_delta(entry["delta"])
    outcome.verify(base.session)
    outcome.fingerprints.append(checks.placement_fingerprint(base.session.placement))
    return close_traced(
        outcome,
        recorder,
        counters,
        overhead_pct(compared(traced), compared(untraced)),
        serve_extras(traced, base.events),
    )


RUNNERS: Dict[str, Callable[[Sizing, int, Optional[SpanRecorder]], Outcome]] = {
    "plan_cold_1e5": plan_cold,
    "churn_single_1e4": churn_single,
    "serve_open_1e4": serve_open,
    "serve_flood_1e4": serve_flood,
}


def run(workload: str, seed: int, seconds: int, scale: str, trace: bool) -> Outcome:
    """Run one workload in this process."""
    recorder = SpanRecorder() if trace else None
    outcome = RUNNERS[workload](Sizing.of(seconds, scale), seed, recorder)
    if not trace:
        outcome.end_to_end["failed_ops_share"] = (
            outcome.failed / max(1, outcome.attempted),
            outcome.attempted,
        )
    return outcome
