"""Seeded open-loop arrival workloads for the serving layer.

:func:`open_loop_workload` turns a QPS target into a deterministic
schedule of :class:`~repro.serving.ServeRequest`s over the TPC-H query
mix: exponential interarrival gaps (the classic open-loop / Poisson
shape), a seeded choice of query, tenant and lane per slot, and
admission byte estimates derived from the catalog's actual column
sizes.  The same ``(seed, qps, duration)`` triple always produces the
same stream — arrival times, graphs, everything — which is what lets
the chaos-under-overload tests compare runs byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.engine.engine import DEFAULT_CHUNK_SIZE, QueryRequest
from repro.serving.request import BATCH, INTERACTIVE, ServeRequest
from repro.storage import Catalog
from repro.tpch.queries import QUERIES

__all__ = ["QUERY_MIX", "build_query", "open_loop_workload"]

#: The serving mix, name -> query module: a spread of the repo's TPC-H
#: plans from the single-pipeline Q6 to the join-heavy Q3 and the
#: disjunctive Q19.
QUERY_MIX = {name: QUERIES[name]
             for name in ("q1", "q3", "q4", "q6", "q12", "q14", "q19")}

#: Tenants the generated requests are spread over.
TENANTS = ("tenant-a", "tenant-b")


def build_query(name: str, catalog: Catalog) -> "object":
    """A primitive graph for *name*, bound with its default literals."""
    return QUERY_MIX[name].build(catalog)


def estimate_bytes(name: str, catalog: Catalog,
                   data_scale: int = 1) -> int:
    """Admission-accounting estimate: logical bytes of every base
    column the query scans (an upper-bound proxy for its working set)."""
    refs = QUERY_MIX[name].template().scan_refs()
    return sum(catalog.column(ref).nbytes for ref in refs) * data_scale


def open_loop_workload(catalog: Catalog, *, qps: float,
                       duration_s: float, seed: int = 0,
                       interactive_fraction: float = 0.5,
                       queries: tuple[str, ...] = ("q1", "q6", "q14", "q19"),
                       interactive_deadline_s: float | None = None,
                       batch_deadline_s: float | None = None,
                       chunk_size: int = DEFAULT_CHUNK_SIZE,
                       data_scale: int = 1) -> list[ServeRequest]:
    """A deterministic open-loop request schedule.

    Args:
        qps: Mean arrival rate (requests per simulated second).
        duration_s: Length of the arrival window; the generator stops
            at the first arrival past it.
        seed: Seeds interarrival gaps and per-slot query/tenant/lane
            choices (tenants from :data:`TENANTS`).
        interactive_fraction: Probability a request rides the
            interactive lane (the rest are batch).
        interactive_deadline_s / batch_deadline_s: Relative deadlines
            stamped per lane (None = no deadline for that lane).
        queries: Names from :data:`QUERY_MIX` to draw from.

    Every request runs the ``chunked`` model.
    """
    if qps <= 0:
        raise ValueError(f"qps must be > 0, got {qps}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    unknown = [name for name in queries if name not in QUERY_MIX]
    if unknown:
        raise ValueError(f"unknown queries {unknown}; "
                         f"available: {sorted(QUERY_MIX)}")
    rng = np.random.default_rng(seed)
    estimates = {name: estimate_bytes(name, catalog, data_scale)
                 for name in queries}
    requests: list[ServeRequest] = []
    at = 0.0
    index = 0
    while True:
        at += float(rng.exponential(1.0 / qps))
        if at > duration_s:
            break
        index += 1
        name = queries[int(rng.integers(len(queries)))]
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        lane = (INTERACTIVE if rng.random() < interactive_fraction
                else BATCH)
        deadline = (interactive_deadline_s if lane == INTERACTIVE
                    else batch_deadline_s)
        requests.append(ServeRequest(
            query=QueryRequest(
                graph=build_query(name, catalog), catalog=catalog,
                model="chunked", chunk_size=chunk_size,
                data_scale=data_scale, label=name),
            tenant=tenant, lane=lane, arrival_s=at,
            deadline_s=deadline, est_bytes=estimates[name],
            request_id=f"w{index}"))
    return requests
