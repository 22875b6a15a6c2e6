"""Primitive definitions — the task layer's functional signatures (Table I).

A :class:`PrimitiveDefinition` fixes, for one database primitive:

* its **I/O semantics** (what edge types it consumes and produces), so any
  custom implementation adhering to the signature can be plugged in;
* whether it is a **pipeline breaker** (marked with a dagger in Table I) —
  the runtime materializes breaker results and ends the pipeline there —
  whether it is **selective** (shrinks the row domain downstream) and
  whether it **requires its full input** (is not chunk-decomposable);
* its **cost key** into the calibrated rate tables;
* an **output-size estimator** used by ``prepare_output_buffer()``.

The registry is open: :func:`register_primitive` lets plug-ins define new
primitives with GENERIC semantics (e.g. a specialized tree filter, as the
paper suggests).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import UnknownPrimitiveError
from repro.primitives.values import IOSemantic as S

__all__ = ["FUSED_PRIMITIVES", "PrimitiveDefinition", "PRIMITIVES",
           "register_primitive", "definition"]

#: The fused node kinds registered below — what the fusion pass
#: collapses regions into, and what the runtime, the fingerprints and
#: EXPLAIN recognise as fused.
FUSED_PRIMITIVES = frozenset({
    "fused_map_filter", "fused_probe_path", "fused_filter_agg",
})


@dataclass(frozen=True)
class PrimitiveDefinition:
    """Signature and runtime metadata of one primitive.

    Attributes:
        name: Registry key (lower-case, e.g. ``"hash_probe"``).
        inputs: Expected I/O semantics per input edge, in positional order.
        optional_inputs: Number of trailing inputs that may be omitted
            (e.g. HASH_AGG with COUNT needs no value column).
        output: Semantic of the produced edge value.
        pipeline_breaker: Whether the runtime must materialize the result
            and end the pipeline (Table I daggers).
        cost_key: Key into the calibrated primitive rate table.
        estimate_output_bytes: ``f(n_input_elements, params) -> bytes``
            used to pre-allocate the result buffer.
        chunk_offset_param: Name of a kernel parameter that must receive
            the chunk's base row index under chunked execution (HASH_BUILD
            needs it so per-chunk inserts carry global row ids).
        requires_full_input: The primitive is not decomposable over chunks
            (sorting); plans containing it only run when the pipeline
            processes its input in a single chunk (e.g. operator-at-a-time).
        selective: The primitive shrinks the row domain for everything
            downstream of it (gathers, probes, positional filters); the
            estimators decay cardinality once per selective node, the
            fused sweep once per selective step.
    """

    name: str
    inputs: tuple[S, ...]
    output: S
    pipeline_breaker: bool
    cost_key: str
    estimate_output_bytes: Callable[[int, dict], int]
    optional_inputs: int = 0
    chunk_offset_param: str | None = None
    requires_full_input: bool = False
    selective: bool = False

    @property
    def min_inputs(self) -> int:
        return len(self.inputs) - self.optional_inputs


PRIMITIVES: dict[str, PrimitiveDefinition] = {}


def register_primitive(defn: PrimitiveDefinition) -> None:
    """Add (or replace) a primitive definition in the registry."""
    PRIMITIVES[defn.name] = defn


def definition(name: str) -> PrimitiveDefinition:
    """Look up a primitive definition by name."""
    try:
        return PRIMITIVES[name]
    except KeyError:
        raise UnknownPrimitiveError(
            f"unknown primitive {name!r}; registered: {sorted(PRIMITIVES)}"
        ) from None


# ---------------------------------------------------------------------------
# Table I registrations
# ---------------------------------------------------------------------------

_WORD = 8  # int64 element width of intermediate NUMERIC results


def _full(n: int, params: dict) -> int:
    return n * _WORD


def _bitmap(n: int, params: dict) -> int:
    return (n + 31) // 32 * 4


def _selected(n: int, params: dict) -> int:
    # Position lists / materialized outputs: sized by the runtime's
    # selectivity estimate (default: everything qualifies).
    return int(n * float(params.get("selectivity_estimate", 1.0))) * _WORD


def _scalar(n: int, params: dict) -> int:
    return _WORD


def _groups(n: int, params: dict) -> int:
    return int(params.get("groups_estimate", max(1, n))) * 2 * _WORD


def _table(n: int, params: dict) -> int:
    payload = len(params.get("payload_names", ())) + 2
    return n * payload * _WORD


register_primitive(PrimitiveDefinition(
    name="map",
    inputs=(S.NUMERIC, S.NUMERIC),
    optional_inputs=1,
    output=S.NUMERIC,
    pipeline_breaker=False,
    cost_key="map",
    estimate_output_bytes=_full,
))

register_primitive(PrimitiveDefinition(
    name="filter_bitmap",
    inputs=(S.NUMERIC,),
    output=S.BITMAP,
    pipeline_breaker=False,
    cost_key="filter_bitmap",
    estimate_output_bytes=_bitmap,
))

register_primitive(PrimitiveDefinition(
    name="filter_position",
    inputs=(S.NUMERIC,),
    output=S.POSITION,
    pipeline_breaker=False,
    cost_key="filter_position",
    estimate_output_bytes=_selected,
    selective=True,
))

register_primitive(PrimitiveDefinition(
    name="bitmap_and",
    inputs=(S.BITMAP, S.BITMAP),
    output=S.BITMAP,
    pipeline_breaker=False,
    cost_key="map",
    estimate_output_bytes=_bitmap,
))

register_primitive(PrimitiveDefinition(
    name="bitmap_or",
    inputs=(S.BITMAP, S.BITMAP),
    output=S.BITMAP,
    pipeline_breaker=False,
    cost_key="map",
    estimate_output_bytes=_bitmap,
))

def _fused_output(n: int, params: dict) -> int:
    """Output size of a fused chain: whatever its exit step produces."""
    steps = params.get("steps") or ()
    exit_primitive = steps[-1]["primitive"] if steps else "map"
    if exit_primitive in ("filter_bitmap", "bitmap_and", "bitmap_or"):
        return _bitmap(n, params)
    if exit_primitive in ("filter_position", "join_side", "hash_probe"):
        return _selected(n, params)
    if exit_primitive == "hash_agg":
        return _groups(n, params)
    if exit_primitive == "agg_block":
        return _scalar(n, params)
    return _full(n, params)


register_primitive(PrimitiveDefinition(
    name="fused_map_filter",
    # The fusion pass wires one deduplicated edge per distinct external
    # input; semantics are checked on the original graph before fusion.
    inputs=(S.GENERIC,) * 16,
    optional_inputs=15,
    output=S.GENERIC,
    pipeline_breaker=False,
    cost_key="map",  # nominal; real charge comes from the fused steps
    estimate_output_bytes=_fused_output,
))

register_primitive(PrimitiveDefinition(
    name="fused_probe_path",
    # A probe-side join data path: FILTER/MAP steps feeding HASH_PROBE
    # plus the gathers/maps around it, evaluated without materializing
    # intermediate position lists.  Input wiring mirrors
    # fused_map_filter: one deduplicated edge per distinct external.
    inputs=(S.GENERIC,) * 16,
    optional_inputs=15,
    output=S.GENERIC,
    pipeline_breaker=False,
    cost_key="hash_probe",  # nominal; real charge comes from the fused steps
    estimate_output_bytes=_fused_output,
))

register_primitive(PrimitiveDefinition(
    name="fused_filter_agg",
    # A chain ending in an aggregation sink (HASH_AGG / AGG_BLOCK).  The
    # sink is a pipeline breaker, so the fused node is one too: the
    # runtime persists its (partial) group table per chunk and combines
    # partials exactly as it would for the unfused sink.
    inputs=(S.GENERIC,) * 16,
    optional_inputs=15,
    output=S.GENERIC,
    pipeline_breaker=True,
    cost_key="hash_agg",  # nominal; real charge comes from the fused steps
    estimate_output_bytes=_fused_output,
))

register_primitive(PrimitiveDefinition(
    name="materialize",
    inputs=(S.NUMERIC, S.BITMAP),
    output=S.NUMERIC,
    pipeline_breaker=False,
    cost_key="materialize",
    estimate_output_bytes=_selected,
    selective=True,
))

register_primitive(PrimitiveDefinition(
    name="materialize_position",
    inputs=(S.NUMERIC, S.POSITION),
    output=S.NUMERIC,
    pipeline_breaker=False,
    cost_key="materialize_position",
    estimate_output_bytes=_selected,
    selective=True,
))

register_primitive(PrimitiveDefinition(
    name="agg_block",
    inputs=(S.NUMERIC,),
    output=S.NUMERIC,
    pipeline_breaker=True,
    cost_key="agg_block",
    estimate_output_bytes=_scalar,
))

register_primitive(PrimitiveDefinition(
    name="hash_agg",
    inputs=(S.NUMERIC, S.NUMERIC),
    optional_inputs=1,  # COUNT needs no value column (Table I)
    output=S.HASH_TABLE,
    pipeline_breaker=True,
    cost_key="hash_agg",
    estimate_output_bytes=_groups,
))

register_primitive(PrimitiveDefinition(
    name="hash_build",
    inputs=(S.NUMERIC, S.NUMERIC, S.NUMERIC, S.NUMERIC),
    optional_inputs=3,  # up to three payload columns carried into the table
    output=S.HASH_TABLE,
    pipeline_breaker=True,
    cost_key="hash_build",
    estimate_output_bytes=_table,
    chunk_offset_param="base_position",
))

register_primitive(PrimitiveDefinition(
    name="hash_probe",
    inputs=(S.NUMERIC, S.HASH_TABLE),
    output=S.GENERIC,  # JoinPairs (inner) or PositionList (semi/anti)
    pipeline_breaker=False,
    cost_key="hash_probe",
    estimate_output_bytes=_selected,
    selective=True,
))

register_primitive(PrimitiveDefinition(
    name="gather_payload",
    inputs=(S.GENERIC, S.HASH_TABLE),
    output=S.NUMERIC,
    pipeline_breaker=False,
    cost_key="materialize_position",
    estimate_output_bytes=_selected,
))

register_primitive(PrimitiveDefinition(
    name="group_keys",
    inputs=(S.HASH_TABLE,),
    output=S.NUMERIC,
    pipeline_breaker=False,
    cost_key="map",
    estimate_output_bytes=_groups,
))

register_primitive(PrimitiveDefinition(
    name="group_values",
    inputs=(S.HASH_TABLE,),
    output=S.NUMERIC,
    pipeline_breaker=False,
    cost_key="map",
    estimate_output_bytes=_groups,
))

register_primitive(PrimitiveDefinition(
    name="join_side",
    inputs=(S.GENERIC,),
    output=S.POSITION,
    pipeline_breaker=False,
    cost_key="map",
    estimate_output_bytes=_selected,
))

register_primitive(PrimitiveDefinition(
    name="prefix_sum",
    inputs=(S.NUMERIC,),
    output=S.PREFIX_SUM,
    pipeline_breaker=True,
    cost_key="prefix_sum",
    estimate_output_bytes=_full,
))

register_primitive(PrimitiveDefinition(
    name="sort_agg",
    inputs=(S.NUMERIC, S.PREFIX_SUM),
    output=S.HASH_TABLE,
    pipeline_breaker=True,
    cost_key="sort_agg",
    estimate_output_bytes=_groups,
))

register_primitive(PrimitiveDefinition(
    name="sort_positions",
    inputs=(S.NUMERIC,),
    output=S.POSITION,
    pipeline_breaker=True,
    cost_key="sort_agg",  # comparison-sort class; same calibrated rate
    estimate_output_bytes=_full,
    requires_full_input=True,
))

register_primitive(PrimitiveDefinition(
    name="group_prefix",
    inputs=(S.NUMERIC,),
    output=S.PREFIX_SUM,
    pipeline_breaker=True,
    cost_key="prefix_sum",
    estimate_output_bytes=_full,
    requires_full_input=True,
))
