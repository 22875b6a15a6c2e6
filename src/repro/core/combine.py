"""Combining per-chunk partial results (chunked execution models).

Chunked execution runs a whole pipeline per chunk; results that outlive the
pipeline (breaker outputs and query outputs) must be combined across
chunks.  The combination rule follows the value's semantic:

* NUMERIC columns concatenate;
* AGG_BLOCK scalars merge with their aggregate function;
* bitmaps concatenate (chunk sizes are multiples of 32, so words align);
* position lists / join pairs shift by the chunk's base row and concatenate;
* group tables merge per-key (a chunked shared hash table);
* hash tables union (per-chunk inserts into the global table — build
  kernels are invoked with the chunk's ``base_position`` so row ids stay
  global); both merges take all chunks at once, so the breaker costs one
  sort over the partials, not one per chunk;
* prefix sums concatenate with the previous chunk's total carried over.

This mirrors what the paper's single *global* device-side structures do
implicitly: inserting each chunk into one shared table.  The functional
merge here is charged no extra simulated time because the per-chunk kernel
cost already covers insertion into the shared structure.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.primitives.kernels import merge_hash_tables, merge_partials
from repro.primitives.values import (
    Bitmap,
    GroupTable,
    HashTable,
    JoinPairs,
    PositionList,
    PrefixSum,
)

__all__ = ["combine_chunk_results", "ChunkPartial"]


class ChunkPartial:
    """A per-chunk partial result with its base row offset."""

    def __init__(self, value: object, base: int):
        self.value = value
        self.base = base


def combine_chunk_results(partials: list[ChunkPartial], *,
                          agg_fn: str = "sum") -> object:
    """Combine per-chunk *partials* (in chunk order) into one value.

    Args:
        partials: One entry per processed chunk.
        agg_fn: Aggregate function for scalar/grouped merges (the node's
            ``fn`` parameter).
    """
    if not partials:
        raise ExecutionError("no chunk results to combine")
    first = partials[0].value
    if len(partials) == 1 and not isinstance(first, (PositionList, JoinPairs)):
        return first

    if isinstance(first, np.ndarray):
        if all(p.value.shape == (1,) for p in partials) and len(partials) > 1:
            # Length-1 arrays from AGG_BLOCK: merge with the aggregate.
            return merge_partials([p.value for p in partials], fn=agg_fn)
        return np.concatenate([p.value for p in partials])
    if isinstance(first, Bitmap):
        return _combine_bitmaps([p.value for p in partials])
    if isinstance(first, PositionList):
        return PositionList(np.concatenate(
            [p.value.positions + p.base for p in partials]
        ))
    if isinstance(first, JoinPairs):
        # Probe positions are chunk-local; build positions are already
        # global (hash_build received base_position).
        return JoinPairs(
            left=np.concatenate([p.value.left + p.base for p in partials]),
            right=np.concatenate([p.value.right for p in partials]),
        )
    if isinstance(first, GroupTable):
        return GroupTable.merge_all([p.value for p in partials],
                                    how={agg_fn: _merge_kind(agg_fn)})
    if isinstance(first, HashTable):
        return merge_hash_tables(*[p.value for p in partials])
    if isinstance(first, PrefixSum):
        return _combine_prefix_sums([p.value for p in partials])
    raise ExecutionError(
        f"no chunk combiner for value type {type(first).__name__}"
    )


def _merge_kind(agg_fn: str) -> str:
    # COUNT partials combine by summation; the rest merge with themselves.
    return "sum" if agg_fn in ("sum", "count") else agg_fn


def _combine_bitmaps(bitmaps: list[Bitmap]) -> Bitmap:
    for bm in bitmaps[:-1]:
        if bm.length % 32 != 0:
            raise ExecutionError(
                "interior bitmap chunks must cover a multiple of 32 rows "
                f"(got {bm.length}); use a chunk size divisible by 32"
            )
    return Bitmap(
        words=np.concatenate([bm.words for bm in bitmaps]),
        length=sum(bm.length for bm in bitmaps),
    )


def _combine_prefix_sums(sums: list[PrefixSum]) -> PrefixSum:
    carried: list[np.ndarray] = []
    carry = 0
    for ps in sums:
        carried.append(ps.sums + carry)
        carry += ps.total
    return PrefixSum(np.concatenate(carried))
