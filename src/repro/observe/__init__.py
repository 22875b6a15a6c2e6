"""Observability: EXPLAIN/ANALYZE plans and engine metrics (the PR's
documented surface; see ``docs/observability.md``).

* :func:`explain` renders what the executor *would* do with a plan —
  pipelines, placement, variants, fusion, chunking, cost estimates —
  without running it.
* ``analyze=True`` on :meth:`Engine.execute` / :meth:`AdamantExecutor.run`
  attaches a :class:`QueryProfile` (built by :func:`build_profile`)
  mapping every second of the makespan to a plan node, an overhead
  category, or idle time.
* :class:`MetricsRegistry` collects the engine's counters, gauges and
  histograms (catalog in :data:`METRIC_CATALOG`) and exports them as
  Prometheus text or JSON.
"""

from repro.observe.admission import explain_admission
from repro.observe.explain import (
    explain,
    explain_distributed,
    explain_plans,
)
from repro.observe.metrics import (
    DEFAULT_BUCKETS,
    METRIC_CATALOG,
    MetricsRegistry,
)
from repro.observe.profile import NodeProfile, QueryProfile, build_profile

__all__ = [
    "DEFAULT_BUCKETS",
    "METRIC_CATALOG",
    "MetricsRegistry",
    "NodeProfile",
    "QueryProfile",
    "build_profile",
    "explain",
    "explain_admission",
    "explain_distributed",
    "explain_plans",
]
