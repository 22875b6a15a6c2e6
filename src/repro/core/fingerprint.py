"""Canonical subplan fingerprints for cross-query result reuse.

Two queries that compute the same intermediate — say, Q3 and a warm
re-run both building the ``orders`` hash table from the same filtered
scan — should be able to share that work.  Sharing needs a *name* for
the computation that is stable across everything that does not change
its value:

* **placement and kernel variant** — the same subtree on ``gpu0`` or
  ``cpu0``, CUDA or OpenCL, produces byte-identical results (the
  equivalence suite asserts it), so device annotations and variant pins
  are excluded;
* **fusion** — a fused node's ``steps`` block encodes exactly the
  logical subgraph it collapsed, so its canonical form is *expanded*
  back to the exit step's form.  A fused probe path therefore
  fingerprints identically to the unfused chain computing the same
  value, and a cache entry written by a fused run serves an unfused one
  (and vice versa);
* **node ids and slot numbering quirks** — only the primitive names,
  kernel parameters, and the recursive shape of the inputs (scans by
  column ref, intermediates by their own canonical form) contribute.

What *does* change the value — primitive, parameters, input structure —
is hashed recursively, so the fingerprint of a node names the whole
subtree rooted at it.  Execution-time knobs (chunk size, execution
model) never appear: chunked combination is exact, so they cannot
change bytes either.

The cache key additionally carries catalog identity/version and
``data_scale`` (see :mod:`repro.engine.subplan_cache`); this module only
names the computation.
"""

from __future__ import annotations

import hashlib

from repro.core.graph import PrimitiveGraph
from repro.primitives.definitions import FUSED_PRIMITIVES

__all__ = ["subplan_fingerprint"]


def _canon_value(value: object) -> object:
    """A hashable, deterministically ordered view of a parameter value."""
    if isinstance(value, dict):
        return tuple(sorted(
            (str(key), _canon_value(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon_value(item) for item in value)
    return repr(value)


def _fused_canon(steps: list[dict], externals: tuple) -> tuple:
    """Expand a fused node's step list back to its exit step's canonical
    form, substituting the fused node's external inputs for ``("input",
    slot)`` references — the result is identical to the canonical form
    of the unfused exit node."""
    by_step: dict[str, tuple] = {}
    canon: tuple = ()
    for step in steps:
        args = tuple(
            externals[key] if kind == "input" else ("node", by_step[key])
            for kind, key in step["args"]
        )
        canon = (step["primitive"], _canon_value(step["params"]), args)
        by_step[step["id"]] = canon
    return canon


def _node_canon(graph: PrimitiveGraph, node_id: str,
                memo: dict[str, tuple]) -> tuple:
    if node_id in memo:
        return memo[node_id]
    node = graph.nodes[node_id]
    inputs = tuple(
        ("scan", edge.source.ref) if edge.is_scan
        else ("node", _node_canon(graph, edge.source, memo))
        for edge in graph.in_edges(node_id)  # ordered by input slot
    )
    if node.primitive in FUSED_PRIMITIVES:
        canon = _fused_canon(node.params.get("steps") or [], inputs)
    else:
        canon = (node.primitive, _canon_value(node.params), inputs)
    memo[node_id] = canon
    return canon


def subplan_fingerprint(graph: PrimitiveGraph, node_id: str, *,
                        _memo: dict[str, tuple] | None = None) -> str:
    """The canonical fingerprint of the subtree rooted at *node_id*.

    Deterministic across processes, placements, kernel variants, fusion
    choices, execution models and chunk sizes; different whenever the
    computed value could differ.  Pass a shared ``_memo`` dict when
    fingerprinting several nodes of one graph to reuse subtree work.
    """
    memo = _memo if _memo is not None else {}
    canon = _node_canon(graph, node_id, memo)
    return hashlib.sha1(repr(canon).encode()).hexdigest()
