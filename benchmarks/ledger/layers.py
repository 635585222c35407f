"""Where each layer is timed, and how spans and counters become metrics.

Layer names are the repo's module names. Every trace point is a public
method of a public class; counters are read from public result objects
(``PlanResult.timings``, ``PlanDelta.timings``, the archived delta dicts,
``ServeLoop.stats``) and read defensively — a counter a later PR removes
is reported as ``None`` instead of breaking the benchmark.

Span names (one per trace point; see ``trace_points``):

* ``topology.generate`` — the benchmark's own input generation
* ``stage.<name>`` — ``PlacementPipeline`` before/after hooks (plan only)
* ``ncs.embed`` — ``VivaldiEmbedding.embed``
* ``median.solve`` — ``NovaSession.solve_virtual``
* ``packing.pack`` — ``NovaSession.pack_replicas``
* ``packing.index_query`` — ``CostSpace.knn`` / ``within`` / ``within_rows``
* ``placement.extend`` — ``Placement.extend``
* ``changeset.apply`` — ``NovaSession.apply``
* ``changeset.validate`` / ``changeset.coalesce`` — ``ChangeSet.validate`` /
  ``ChangeSet.coalesced``
* ``changeset.mutate`` — ``CostSpace.add_node`` / ``remove_node`` /
  ``update_node`` / ``set_available``, ``NovaSession.undeploy_replica``
* ``changeset.place`` — ``NovaSession.place_replicas``
* ``serve.loop`` — ``ServeLoop.run``; ``serve.put`` / ``serve.get`` —
  ``IngressQueue.put`` / ``get``; ``serve.apply`` — ``WindowApplier.apply``;
  ``serve.monitor`` — ``OverloadMonitor.apply_delta``; ``serve.archive`` —
  ``DeltaArchive.record``; ``serve.status`` — ``StatusPlane.maybe_emit``
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .spans import SpanRecorder
from .stats import percentile

PLAN_GROUPS = ("planner", "packing")
CHURN_GROUPS = ("packing", "changeset")
SERVE_GROUPS = ("packing", "changeset", "serve")

#: Counter fields summed over plans / batches (``PhaseTimings`` names).
SUMMED_FIELDS = (
    "replicas_placed",
    "medians_solved",
    "cells_placed",
    "cursor_cache_hits",
    "cursor_cache_misses",
)
#: Counter fields kept per batch (mean and max are reported).
PER_BATCH_FIELDS = ("journal_nodes_touched", "copied_subs")
#: Serving metrics that come from the loop's stats and the benchmark's own
#: generator instead of spans (see ``workloads.serve_extras``).
SERVE_ONLY = (
    "serve.decode_us_per_event",
    "serve.windows",
    "serve.window_events_mean",
    "serve.archive_bytes",
    "serve.retries",
    "serve.dead_lettered",
    "serve.shed",
    "serve.coalesced_away",
    "serve.generator_lag_p99_ms",
)


def trace_points(groups: Sequence[str]) -> List[tuple]:
    """The ``(owner, attr, span name[, tag])`` wrappers of the given layers."""
    from repro.core.changeset import ChangeSet
    from repro.core.cost_space import CostSpace
    from repro.core.optimizer import NovaSession
    from repro.core.placement import Placement
    from repro.evaluation.overload import OverloadMonitor
    from repro.ncs.vivaldi import VivaldiEmbedding
    from repro.serve import (
        DeltaArchive,
        IngressQueue,
        ServeLoop,
        StatusPlane,
        WindowApplier,
    )

    points = {
        "planner": [(VivaldiEmbedding, "embed", "ncs.embed")],
        "packing": [
            (NovaSession, "solve_virtual", "median.solve"),
            (NovaSession, "pack_replicas", "packing.pack"),
            (CostSpace, "knn", "packing.index_query"),
            (CostSpace, "within", "packing.index_query"),
            (CostSpace, "within_rows", "packing.index_query"),
            (Placement, "extend", "placement.extend"),
        ],
        "changeset": [
            (NovaSession, "apply", "changeset.apply"),
            (ChangeSet, "validate", "changeset.validate"),
            (ChangeSet, "coalesced", "changeset.coalesce"),
            (CostSpace, "add_node", "changeset.mutate"),
            (CostSpace, "remove_node", "changeset.mutate"),
            (CostSpace, "update_node", "changeset.mutate"),
            (CostSpace, "set_available", "changeset.mutate"),
            (NovaSession, "undeploy_replica", "changeset.mutate"),
            (NovaSession, "place_replicas", "changeset.place"),
        ],
        "serve": [
            (ServeLoop, "run", "serve.loop"),
            # FIFO under the block policy: the k-th put is the k-th
            # non-empty get, so queue wait needs no event identity.
            (IngressQueue, "put", "serve.put", lambda queue, args, ok: queue.depth),
            (IngressQueue, "get", "serve.get", lambda queue, args, event: event is not None),
            (WindowApplier, "apply", "serve.apply"),
            (OverloadMonitor, "apply_delta", "serve.monitor"),
            (DeltaArchive, "record", "serve.archive"),
            (StatusPlane, "maybe_emit", "serve.status"),
        ],
    }
    return [point for group in groups for point in points[group]]


def stage_hooks(recorder: SpanRecorder, pipeline):
    """Open a ``stage.<name>`` span around every pipeline stage."""
    open_spans: List[int] = []
    pipeline.before_stage(
        lambda stage, context: open_spans.append(recorder.begin(f"stage.{stage}"))
    )
    pipeline.after_stage(lambda report, context: recorder.end(open_spans.pop()))
    return pipeline


def read_field(source: object, name: str) -> Optional[float]:
    """``source.name`` or ``source[name]``; None when the field is gone."""
    if source is None:
        return None
    if isinstance(source, dict):
        return source.get(name)
    return getattr(source, name, None)


class Counters:
    """Work counts read from public result objects, one ``add`` per batch."""

    def __init__(self) -> None:
        self.summed: Dict[str, Optional[float]] = {name: 0 for name in SUMMED_FIELDS}
        self.per_batch: Dict[str, Optional[List[float]]] = {
            name: [] for name in PER_BATCH_FIELDS
        }
        self.events_staged = 0
        self.events_applied = 0
        self.replicas_replaced = 0
        self.resolved_replicas = 0

    def add(self, timings: object, staged: int = 0, applied: int = 0, replaced: int = 0) -> None:
        for name in SUMMED_FIELDS:
            value = read_field(timings, name)
            if value is None or self.summed[name] is None:
                self.summed[name] = None
            else:
                self.summed[name] += value
        for name in PER_BATCH_FIELDS:
            value = read_field(timings, name)
            if value is None or self.per_batch[name] is None:
                self.per_batch[name] = None
            else:
                self.per_batch[name].append(value)
        self.events_staged += staged
        self.events_applied += applied
        self.replicas_replaced += replaced

    def add_delta(self, delta: object) -> None:
        """One ``PlanDelta`` or its archived dict form."""
        self.add(
            read_field(delta, "timings"),
            staged=read_field(delta, "events_staged") or 0,
            applied=read_field(delta, "events_applied") or 0,
            replaced=len(read_field(delta, "replicas_replaced") or ()),
        )


def ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    counters: Counters,
    serve: Optional[Dict[str, float]] = None,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass (0 where a layer did no work).

    ``serve`` carries what only the serving workloads know: the loop's
    public stats, the standalone decode pass, archive size, generator lag.
    """
    total, self_time, count = recorder.total, recorder.self_time, recorder.count
    summed = counters.summed
    hits, misses = summed["cursor_cache_hits"], summed["cursor_cache_misses"]
    lookups = None if hits is None or misses is None else hits + misses
    metrics: Dict[str, Optional[float]] = {
        "topology.generate_s": total("topology.generate"),
        "cost_space.build_s": total("stage.cost_space"),
        "ncs.embed_s": total("ncs.embed"),
        "cost_space.index_self_s": self_time("stage.cost_space"),
        "query.resolve_s": total("stage.resolve"),
        "query.replicas": counters.resolved_replicas,
        "planner.stage_self_s": self_time("stage.virtual") + self_time("stage.physical"),
        "median.solve_s": total("median.solve"),
        "median.solved": summed["medians_solved"],
        "median.per_s": ratio(summed["medians_solved"], total("median.solve")),
        "packing.pack_s": total("packing.pack"),
        "packing.replicas": summed["replicas_placed"],
        "packing.cells": summed["cells_placed"],
        "packing.cells_per_s": ratio(summed["cells_placed"], total("packing.pack")),
        "packing.index_query_s": total("packing.index_query"),
        "packing.index_queries": count("packing.index_query"),
        "packing.ring_hit_rate": ratio(hits, lookups),
        "packing.self_s": self_time("packing.pack"),
        "placement.extend_s": total("placement.extend"),
        "changeset.apply_s": total("changeset.apply"),
        "changeset.batches": count("changeset.apply"),
        "changeset.validate_s": total("changeset.validate"),
        "changeset.coalesce_s": total("changeset.coalesce"),
        "changeset.coalesce_ratio": ratio(counters.events_applied, counters.events_staged),
        # set_available is also the packing engine's ledger write, so only
        # calls made directly by the batch engine count as mutation.
        "changeset.mutate_s": total("changeset.mutate", parent="changeset.apply"),
        "changeset.place_s": total("changeset.place"),
        "changeset.self_s": self_time("changeset.apply"),
        "changeset.replicas_replaced": counters.replicas_replaced,
    }
    for field, label in (
        ("journal_nodes_touched", "journal.nodes_touched"),
        ("copied_subs", "journal.copied_subs"),
    ):
        values = counters.per_batch[field]
        if values is None:
            metrics[f"{label}_mean"] = metrics[f"{label}_max"] = None
        else:
            metrics[f"{label}_mean"] = sum(values) / len(values) if values else 0.0
            metrics[f"{label}_max"] = max(values, default=0)

    puts = recorder.select("serve.put")
    gets = [span for span in recorder.select("serve.get") if span.ref]
    waits = [1000.0 * (got.end - put.end) for put, got in zip(puts, gets)]
    metrics.update(
        {
            "serve.put_blocked_s": total("serve.put"),
            "serve.queue_wait_p50_ms": percentile(waits, 50) if waits else 0.0,
            "serve.queue_wait_p99_ms": percentile(waits, 99) if waits else 0.0,
            "serve.queue_depth_max": max((span.ref for span in puts), default=0),
            "serve.apply_s": total("serve.apply"),
            "serve.session_apply_s": total("changeset.apply", parent="serve.apply"),
            "serve.monitor_s": total("serve.monitor"),
            "serve.archive_s": total("serve.archive"),
            "serve.apply_self_s": self_time("serve.apply"),
            "serve.status_s": total("serve.status"),
            "serve.loop_self_s": self_time("serve.loop"),
        }
    )
    for name in SERVE_ONLY:
        metrics[name] = (serve or {}).get(name, 0.0)
    return metrics
