"""Hash primitives: HASH_BUILD, HASH_PROBE, HASH_AGG (Table I).

The paper's prototype uses a single global linear-probing table with atomic
insertion; here the table is a sorted-key layout (see
:class:`~repro.primitives.values.HashTable`) that is semantically identical
through the probe interface.  The *cost* of atomic contention is modelled in
:mod:`repro.hardware.costmodel`, not in the result computation.

Insertion is linear in the rows there, and here wherever the keys allow
it: HASH_AGG groups through :func:`~repro.primitives.values.group_index`,
which addresses dense integer keys directly and sorts only the rest;
HASH_BUILD sorts once, for the layout, and finds the runs of equal keys
with one adjacent compare.  Whether keys are dense enough is the one rule
the probe's slot directory follows too (``DIRECTORY_SPAN_PER_KEY`` in
:mod:`repro.primitives.values`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignatureError
from repro.primitives.values import (
    GroupTable,
    HashTable,
    JoinPairs,
    PositionList,
    group_index,
)

__all__ = ["hash_build", "hash_probe", "hash_agg", "merge_hash_tables",
           "join_side", "gather_payload", "group_keys", "group_values"]


def hash_build(keys: np.ndarray, *payload_columns: np.ndarray,
               payload_names: tuple[str, ...] = (),
               base_position: int = 0) -> HashTable:
    """``HASH_BUILD``: populate a hash table from build-side *keys*.

    Args:
        keys: Build-side join keys.
        payload_columns: Extra build-side columns carried into the table
            (so a probe can emit them without a second materialization
            pass); named by *payload_names*, one name per column.
        base_position: Row offset of this chunk within the full build input
            (chunked execution builds a table incrementally).
    """
    if len(payload_columns) != len(payload_names):
        raise SignatureError(
            f"{len(payload_columns)} payload columns but "
            f"{len(payload_names)} payload names"
        )
    order = np.argsort(keys, kind="stable")
    return _sorted_layout(keys, order, order.astype(np.int64) + base_position,
                          dict(zip(payload_names, payload_columns)))


def _sorted_layout(keys: np.ndarray, order: np.ndarray,
                   positions: np.ndarray,
                   payload: dict[str, np.ndarray]) -> HashTable:
    """The probe-friendly table of rows ``keys[order]``: *positions* are
    the row ids already in that order, *payload* columns are still in
    input order."""
    sorted_keys = keys[order]
    # The keys are sorted: a run of equal keys starts wherever a key
    # differs from the one before it.  NaNs sort last and are one key, the
    # way group_index groups them, although no NaN equals another.
    starts_run = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts_run[1:])
    if sorted_keys.dtype.kind == "f":
        starts_run[1:] &= ~np.isnan(sorted_keys[:-1])
    starts = np.flatnonzero(starts_run)
    offsets = np.append(starts, len(sorted_keys)).astype(np.int64)
    carried = {}
    for name, column in payload.items():
        if column.shape[0] != keys.shape[0]:
            raise SignatureError(
                f"payload {name!r} length {column.shape[0]} != keys "
                f"{keys.shape[0]}"
            )
        carried[name] = column[order]
    return HashTable(keys=sorted_keys[starts], offsets=offsets,
                     positions=positions, payload=carried)


def merge_hash_tables(*tables: HashTable) -> HashTable:
    """Union partial hash tables (per-chunk builds of one pipeline, or
    per-node builds of one cluster) in one pass.

    Every table's rows are concatenated in argument order and laid out by
    one stable sort, so rows of equal key keep table order, then their
    order within the table — exactly what folding the tables pairwise
    yields, without re-sorting the growing table once per partial.
    """
    keys = np.concatenate(
        [np.repeat(t.keys, np.diff(t.offsets)) for t in tables])
    positions = np.concatenate([t.positions for t in tables])
    missing = np.empty(0, dtype=np.int64)
    payload = {
        name: np.concatenate([t.payload.get(name, missing) for t in tables])
        for name in sorted(set().union(*(t.payload for t in tables)))
    }
    order = np.argsort(keys, kind="stable")
    return _sorted_layout(keys, order, positions[order], payload)


def hash_probe(keys: np.ndarray, table: HashTable, *,
               mode: str = "inner") -> JoinPairs | PositionList:
    """``HASH_PROBE``: find matches of probe-side *keys* in *table*.

    Args:
        mode: ``"inner"`` returns (probe, build) row pairs — the paper's
            JOINLEFT/JOINRIGHT outputs; ``"semi"`` returns only the probe
            positions with at least one match (the EXISTS of Q4);
            ``"anti"`` the probe positions with none.
    """
    if mode not in ("inner", "semi", "anti"):
        raise SignatureError(f"unknown probe mode {mode!r}")
    slot, hit = table.find_slots(np.asarray(keys))
    if mode == "semi":
        return PositionList(np.nonzero(hit)[0])
    if mode == "anti":
        return PositionList(np.nonzero(~hit)[0])

    probe_rows = np.nonzero(hit)[0]
    slot = slot[probe_rows]
    starts = table.offsets[slot]
    counts = table.offsets[slot + 1] - starts
    # Expand each matching key's run positions[start:start + count] with
    # flat array operations: output entry j of a run that begins at
    # output index b reads positions[start + (j - b)].
    begins = np.cumsum(counts) - counts
    source = np.repeat(starts - begins, counts)
    source += np.arange(len(source))
    return JoinPairs(left=np.repeat(probe_rows, counts),
                     right=table.positions[source])


def join_side(pairs: JoinPairs, *, side: str = "left") -> PositionList:
    """Extract one side of HASH_PROBE's join pairs as a position list.

    The paper's HASH_PROBE emits JOINLEFT/JOINRIGHT outputs; this adapter
    exposes either side so MATERIALIZE_POSITION can gather the joined
    columns.
    """
    if side == "left":
        return PositionList(pairs.left)
    if side == "right":
        return PositionList(pairs.right)
    raise SignatureError(f"join side must be 'left' or 'right', not {side!r}")


def gather_payload(pairs: JoinPairs, table: HashTable, *,
                   name: str) -> np.ndarray:
    """Emit the build-side payload column *name* for each join pair.

    The build positions in *pairs* are global row numbers of the build
    input; the table stores payload values in key-sorted row order with
    ``positions`` recording the original rows, so this inverts that
    permutation for exactly the matched rows.  It lets a probe-side
    pipeline consume build-side attributes (e.g. Q12 needs each joined
    order's priority) without re-materializing the build table.
    """
    try:
        column = table.payload[name]
    except KeyError:
        raise SignatureError(
            f"hash table carries no payload {name!r}; "
            f"available: {sorted(table.payload)}"
        ) from None
    slots = table.slots_of_rows(pairs.right)
    if np.any(slots < 0):
        raise SignatureError("join pairs reference rows not in the table")
    return column[slots]


def group_keys(table: GroupTable) -> np.ndarray:
    """Extract a group table's key column as a NUMERIC edge value.

    Together with :func:`group_values` this lets a later pipeline treat
    aggregation results as plain columns — filtering groups on their
    aggregates (SQL's HAVING, e.g. Q18's ``sum(l_quantity) > 300``) and
    feeding survivors into further joins.
    """
    return table.keys.astype(np.int64, copy=False)


def group_values(table: GroupTable, *, fn: str) -> np.ndarray:
    """Extract one aggregate column of a group table (aligned with
    :func:`group_keys`)."""
    try:
        return table.aggregates[fn].astype(np.int64, copy=False)
    except KeyError:
        raise SignatureError(
            f"group table has no aggregate {fn!r}; "
            f"available: {sorted(table.aggregates)}"
        ) from None


def hash_agg(group_keys: np.ndarray, values: np.ndarray | None = None, *,
             fn: str = "sum") -> GroupTable:
    """``HASH_AGG``: group-by aggregation of *values* keyed by *group_keys*.

    With ``fn="count"`` no value column is required (Table I).
    """
    if fn not in ("sum", "count", "min", "max"):
        raise SignatureError(f"unknown aggregate {fn!r}")
    if fn != "count" and values is None:
        raise SignatureError(f"aggregate {fn!r} needs a value column")
    if values is not None and values.shape != group_keys.shape:
        raise SignatureError(
            f"value column length {values.shape} != keys {group_keys.shape}"
        )
    keys, inverse = group_index(group_keys)
    if fn == "count":
        out = np.bincount(inverse, minlength=len(keys)).astype(
            np.int64, copy=False)
    else:
        vals = values.astype(np.int64, copy=False)
        if fn == "sum":
            out = np.zeros(len(keys), dtype=np.int64)
            np.add.at(out, inverse, vals)
        elif fn == "min":
            out = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
            np.minimum.at(out, inverse, vals)
        else:
            out = np.full(len(keys), np.iinfo(np.int64).min, dtype=np.int64)
            np.maximum.at(out, inverse, vals)
    return GroupTable(keys=keys, aggregates={fn: out})
