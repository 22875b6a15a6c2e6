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
is hashed Merkle-style: a node's digest covers its primitive, its
canonical parameters and the *digests* of its inputs, so it names the
whole subtree rooted at it while each node is hashed once; the digests
are memoised on the graph until it is mutated.  Execution-time knobs
(chunk size, execution model) never appear: chunked combination is
exact, so they cannot change bytes either.

The cache key additionally carries catalog identity/version and
``data_scale`` (see :mod:`repro.engine.subplan_cache`); this module only
names the computation.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.graph import PrimitiveGraph
from repro.errors import GraphValidationError
from repro.primitives.definitions import FUSED_PRIMITIVES

__all__ = ["subplan_fingerprint"]

#: Parameter leaves whose ``repr`` is faithful and process-independent.
_LEAVES = (str, int, float, bool, type(None), bytes)


def _canon_value(value: object) -> object:
    """A deterministically ordered view of a parameter value whose
    ``repr`` differs whenever the value does."""
    if isinstance(value, dict):
        return tuple(sorted(
            (str(key), _canon_value(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon_value(item) for item in value)
    if isinstance(value, np.generic):
        value = value.item()  # ``np.int64(3)`` names what ``3`` names
    elif isinstance(value, np.ndarray) and not value.dtype.hasobject:
        # ``repr`` elides long arrays; the bytes do not.
        return ("ndarray", value.dtype.str, value.shape,
                hashlib.sha1(value.tobytes()).hexdigest())
    if not isinstance(value, _LEAVES):
        raise GraphValidationError(
            f"cannot fingerprint a {type(value).__name__} parameter: {value!r}")
    return value


def _digest(primitive: str, params: dict, inputs: tuple) -> str:
    """One node's digest; *inputs* are ``("scan", ref)`` or ``("node",
    digest)`` in input-slot order."""
    return hashlib.sha1(repr(
        (primitive, _canon_value(params), inputs)).encode()).hexdigest()


def _fused_digest(steps: list[dict], externals: tuple) -> str:
    """Expand a fused node's step list back to its exit step's digest,
    substituting the fused node's external inputs for ``("input",
    slot)`` references — the result is identical to the digest of the
    unfused exit node."""
    by_step: dict[str, str] = {}
    for step in steps:
        args = tuple(
            externals[key] if kind == "input" else ("node", by_step[key])
            for kind, key in step["args"])
        by_step[step["id"]] = _digest(step["primitive"], step["params"], args)
    return by_step[steps[-1]["id"]]


def _node_digest(graph: PrimitiveGraph, node_id: str,
                 memo: dict[str, str]) -> str:
    digest = memo.get(node_id)
    if digest is None:
        node = graph.nodes[node_id]
        inputs = tuple(
            ("scan", edge.source.ref) if edge.is_scan
            else ("node", _node_digest(graph, edge.source, memo))
            for edge in graph.in_edges(node_id))  # ordered by input slot
        if node.primitive in FUSED_PRIMITIVES:
            digest = _fused_digest(node.params["steps"], inputs)
        else:
            digest = _digest(node.primitive, node.params, inputs)
        memo[node_id] = digest
    return digest


def subplan_fingerprint(graph: PrimitiveGraph, node_id: str) -> str:
    """The canonical fingerprint of the subtree rooted at *node_id*.

    Deterministic across processes, placements, kernel variants, fusion
    choices, execution models and chunk sizes; different whenever the
    computed value could differ.
    """
    graph._index()  # an out-of-band ``edges.append`` drops the digests
    return _node_digest(graph, node_id, graph._digests)
