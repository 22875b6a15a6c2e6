"""The metrics registry: where the engine publishes what happened.

The virtual clock's event log is the ledger; this registry is a view of
it with names and labels.  The engine is its writer — when a wave or
fresh run ends it publishes the fold of the clock's new events
(:func:`repro.hardware.trace.fold`) and a few per-query facts no event
carries; the serving layer and the cluster executor add their own
series.  The layers below the engine never see it.  The three standard
instrument kinds:

* **counter** — monotonically increasing totals (kernel launches,
  transferred bytes, retries);
* **gauge** — point-in-time values (active sessions, resident bytes);
* **histogram** — distributions over fixed buckets (query makespans).

Metrics carry labels (``device``, ``query``, ``primitive``, ``model``,
...) and export three ways: :meth:`MetricsRegistry.snapshot` (plain
dict, for tests), :meth:`MetricsRegistry.to_json` and
:meth:`MetricsRegistry.prometheus_text` (the Prometheus text exposition
format).  The module imports nothing from the rest of the library.

The well-known metrics are declared in :data:`METRIC_CATALOG`; the
``docs/observability.md`` catalog table is generated from the same
declarations, so the documentation cannot drift from the code.
"""

from __future__ import annotations

import json
import re

__all__ = ["METRIC_CATALOG", "DEFAULT_BUCKETS", "MetricsRegistry"]

#: Histogram buckets (seconds) sized for simulated query makespans.
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

#: name -> (type, label names, help).  The single source of truth for
#: every metric the runtime emits; ``docs/observability.md`` renders
#: this table and a test asserts the two stay in sync.
METRIC_CATALOG: dict[str, tuple[str, tuple[str, ...], str]] = {
    "adamant_kernel_launches_total": (
        "counter", ("device", "primitive"),
        "Kernel launches issued, per device and primitive."),
    "adamant_kernel_seconds_total": (
        "counter", ("device", "primitive"),
        "Simulated kernel execution seconds, per device and primitive."),
    "adamant_transfer_bytes_total": (
        "counter", ("device", "direction"),
        "Logical bytes moved over the interconnect (h2d / d2h)."),
    "adamant_residency_hits_total": (
        "counter", ("device",),
        "Scan chunks served from the cross-query residency cache."),
    "adamant_residency_hit_bytes_total": (
        "counter", ("device",),
        "H2D bytes avoided by residency-cache hits."),
    "adamant_subplan_cache_hits_total": (
        "counter", (),
        "Pipelines served from the cross-query subplan result cache."),
    "adamant_subplan_cache_misses_total": (
        "counter", (),
        "Executed pipelines that populated the subplan result cache."),
    "adamant_subplan_cached_bytes": (
        "gauge", (),
        "Bytes held by the engine's subplan result cache."),
    "adamant_retries_total": (
        "counter", ("device", "primitive"),
        "Chunk-level kernel retries after transient device faults."),
    "adamant_recovery_actions_total": (
        "counter", ("reason",),
        "Scheduler recovery restarts, by degradation-ladder reason."),
    "adamant_retry_budget_exhausted_total": (
        "counter", ("device",),
        "Queries failed for spending their wall-clock retry budget."),
    "adamant_faults_injected_total": (
        "counter", ("device", "kind"),
        "Faults injected by the armed fault plan."),
    "adamant_queries_total": (
        "counter", ("model", "status"),
        "Queries finished, per execution model and outcome."),
    "adamant_chunks_total": (
        "counter", ("model",),
        "Scan chunks processed, per execution model."),
    "adamant_query_seconds": (
        "histogram", ("model",),
        "Per-query simulated makespan distribution."),
    "adamant_query_makespan_seconds": (
        "gauge", ("model", "query"),
        "Last observed makespan of each query."),
    "adamant_sessions_active": (
        "gauge", (),
        "Query sessions currently admitted to the engine."),
    "adamant_device_peak_bytes": (
        "gauge", ("device",),
        "Peak device memory used since the last reset."),
    "adamant_residency_resident_bytes": (
        "gauge", ("device",),
        "Bytes held by each device's residency cache."),
    "adamant_adaptive_resize_total": (
        "counter", ("direction",),
        "Dynamic chunk-size changes applied (grow / shrink)."),
    "adamant_adaptive_steals_total": (
        "counter", ("device",),
        "Split-model chunks dispatched away from the static split."),
    "adamant_adaptive_replacements_total": (
        "counter", (),
        "Pending pipelines re-placed after calibrator divergence."),
    "adamant_adaptive_overlay_factor": (
        "gauge", ("device",),
        "Observed/calibrated cost ratio per device (EWMA)."),
    "adamant_optimizer_candidates_total": (
        "counter", ("query",),
        "Plan candidates priced by the cost-based optimizer."),
    "adamant_optimizer_pruned_total": (
        "counter", ("query",),
        "Priced candidates discarded by beam pruning and ranking."),
    "adamant_optimizer_chosen_cost_seconds": (
        "gauge", ("query",),
        "Predicted cost of the optimizer's chosen plan."),
    "adamant_optimizer_observed_seconds": (
        "gauge", ("query",),
        "Observed makespan of the last optimizer-chosen execution."),
    "adamant_serving_queue_depth": (
        "gauge", ("lane",),
        "Requests waiting in each serving-layer priority lane."),
    "adamant_serving_admitted_total": (
        "counter", ("lane",),
        "Requests admitted past the serving layer's front door."),
    "adamant_serving_shed_total": (
        "counter", ("lane", "reason"),
        "Requests shed with a typed rejection, by saturated bound."),
    "adamant_serving_deadline_misses_total": (
        "counter", ("lane",),
        "Admitted requests cancelled for missing their deadline."),
    "adamant_serving_preemptions_total": (
        "counter", (),
        "Interactive requests served inside a batch pipeline's "
        "chunk-boundary preemption window."),
    "adamant_serving_degraded_total": (
        "counter", ("action",),
        "Graceful-degradation actions (chunk-halve / cache-serve) "
        "taken instead of shedding."),
    "adamant_serving_lane_latency_seconds": (
        "histogram", ("lane",),
        "Arrival-to-completion latency per serving lane."),
    "adamant_cluster_nodes": (
        "gauge", (),
        "Simulated nodes in the scale-out cluster."),
    "adamant_exchange_bytes_total": (
        "counter", ("kind",),
        "Logical bytes moved by exchange operators "
        "(broadcast / partial)."),
    "adamant_exchange_seconds_total": (
        "counter", ("kind",),
        "Simulated network seconds spent in exchanges "
        "(broadcast / gather / shuffle)."),
    "adamant_node_failovers_total": (
        "counter", ("node",),
        "Shards re-executed on a survivor after losing a node."),
}

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _fmt(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Metric:
    """One named instrument with labelled sample series."""

    def __init__(self, name: str, kind: str, labelnames: tuple[str, ...],
                 help_text: str, buckets: tuple[float, ...] = ()) -> None:
        self.name = name
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._labelset = frozenset(self.labelnames)
        self.help = help_text
        self.buckets = tuple(buckets)
        #: label values (ordered by labelnames) -> scalar, or histogram
        #: state ``[bucket counts..., sum, count]``.
        self.samples: dict[tuple[str, ...], list[float]] = {}

    def _key(self, labels: dict[str, str]) -> tuple[str, ...]:
        if labels.keys() != self._labelset:
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{sorted(self.labelnames)}, got {sorted(labels)}"
            )
        return tuple([str(labels[name]) for name in self.labelnames])

    def _series(self, labels: dict[str, str]) -> list[float]:
        key = self._key(labels)
        series = self.samples.get(key)
        if series is None:
            width = len(self.buckets) + 2 if self.kind == "histogram" else 1
            series = self.samples[key] = [0.0] * width
        return series

    def inc(self, amount: float, **labels: str) -> None:
        if self.kind != "counter":
            raise ValueError(f"{self.name!r} is a {self.kind}, not a counter")
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._series(labels)[0] += amount

    def set(self, value: float, **labels: str) -> None:
        if self.kind != "gauge":
            raise ValueError(f"{self.name!r} is a {self.kind}, not a gauge")
        self._series(labels)[0] = float(value)

    def observe(self, value: float, **labels: str) -> None:
        if self.kind != "histogram":
            raise ValueError(
                f"{self.name!r} is a {self.kind}, not a histogram")
        series = self._series(labels)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series[i] += 1
        series[-2] += value   # sum
        series[-1] += 1       # count


class MetricsRegistry:
    """Create-on-first-use registry of counters, gauges and histograms.

    The convenience methods (:meth:`inc`, :meth:`set`, :meth:`observe`)
    look the metric up in :data:`METRIC_CATALOG` — declared metrics get
    their documented type, labels and help automatically; undeclared
    names are created ad hoc from the call's keyword labels.

    A name is validated once, when its metric is first declared; after
    that a report costs one dict lookup, a kind check and a label-set
    comparison (an invalid name can never have been declared, so it is
    still rejected on every call).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    # -- convenience instrumentation -----------------------------------------

    def _declare(self, name: str, kind: str,
                 labels: dict[str, str] | tuple = ()) -> _Metric:
        """The *kind* metric called *name*: one dict lookup and a kind
        check once it is declared; first use declares it — as the
        catalog says or, for other names, with the call's *labels*."""
        metric = self._metrics.get(name)
        if metric is not None:
            if metric.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames, help_text = tuple(sorted(labels)), ""
        if name in METRIC_CATALOG:
            cat_kind, labelnames, help_text = METRIC_CATALOG[name]
            if cat_kind != kind:
                raise ValueError(
                    f"metric {name!r} is declared as a {cat_kind}")
        metric = _Metric(name, kind, labelnames, help_text,
                         DEFAULT_BUCKETS if kind == "histogram" else ())
        self._metrics[name] = metric
        return metric

    def inc(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Increment counter *name* (creating it on first use)."""
        self._declare(name, "counter", labels).inc(amount, **labels)

    def set(self, name: str, value: float, **labels: str) -> None:
        """Set gauge *name* (creating it on first use)."""
        self._declare(name, "gauge", labels).set(value, **labels)

    def observe(self, name: str, value: float, **labels: str) -> None:
        """Record *value* into histogram *name* (creating it on first
        use with :data:`DEFAULT_BUCKETS`)."""
        self._declare(name, "histogram", labels).observe(value, **labels)

    # -- publishing a fold --------------------------------------------------

    def running(self, key: tuple[str, ...]) -> float:
        """Running total of the counter series ``(name, *label values)``
        (declared label order; 0.0 before its first publish) — what a
        fold of new events (:func:`repro.hardware.trace.fold`)
        continues from."""
        metric = self._metrics.get(key[0])
        series = metric.samples.get(key[1:]) if metric is not None else None
        return series[0] if series else 0.0

    def advance(self, totals: dict[tuple[str, ...], float]) -> None:
        """Move counter series to *totals* (keyed as :meth:`running`,
        which the totals continued), creating the ones not yet seen."""
        for (name, *values), total in totals.items():
            metric = self._declare(name, "counter")
            series = metric.samples.get(tuple(values))
            if series is None:  # first publish: validate, then create
                series = metric._series(dict(zip(metric.labelnames, values)))
            series[0] = total

    # -- reading -------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge series (0.0 if never set)."""
        metric = self._metrics.get(name)
        return self.running((name, *metric._key(labels))) if metric else 0.0

    def total(self, name: str) -> float:
        """Sum of a counter/gauge over all of its label series."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0.0
        if metric.kind == "histogram":
            return sum(series[-1] for series in metric.samples.values())
        return sum(series[0] for series in metric.samples.values())

    def snapshot(self) -> dict:
        """Plain-dict view of every metric, for tests and the JSON
        exporter.  Sample order is deterministic (sorted label values)."""
        out: dict = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            samples = []
            for key in sorted(metric.samples):
                labels = dict(zip(metric.labelnames, key))
                series = metric.samples[key]
                if metric.kind == "histogram":
                    samples.append({
                        "labels": labels,
                        "buckets": {
                            _fmt(bound): series[i]
                            for i, bound in enumerate(metric.buckets)
                        },
                        "sum": series[-2],
                        "count": series[-1],
                    })
                else:
                    samples.append({"labels": labels, "value": series[0]})
            out[name] = {"type": metric.kind, "help": metric.help,
                         "samples": samples}
        return out

    # -- exporters -----------------------------------------------------------

    def to_json(self) -> str:
        """Serialize :meth:`snapshot` as JSON."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def prometheus_text(self) -> str:
        """Render every metric in the Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for key in sorted(metric.samples):
                series = metric.samples[key]
                pairs = [f'{label}="{_escape(value)}"'
                         for label, value in zip(metric.labelnames, key)]
                if metric.kind == "histogram":
                    for i, bound in enumerate(metric.buckets):
                        bucket_pairs = pairs + [f'le="{bound:g}"']
                        lines.append(
                            f"{name}_bucket{{{','.join(bucket_pairs)}}} "
                            f"{_fmt(series[i])}")
                    inf_pairs = pairs + ['le="+Inf"']
                    lines.append(f"{name}_bucket{{{','.join(inf_pairs)}}} "
                                 f"{_fmt(series[-1])}")
                    suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                    lines.append(f"{name}_sum{suffix} {_fmt(series[-2])}")
                    lines.append(f"{name}_count{suffix} {_fmt(series[-1])}")
                else:
                    suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                    lines.append(f"{name}{suffix} {_fmt(series[0])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Forget every metric (fresh registry)."""
        self._metrics.clear()
