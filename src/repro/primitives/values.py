"""Runtime value types flowing along primitive-graph edges.

Section III-B3 of the paper defines I/O *semantics* so that a downstream
primitive knows how to interpret an upstream result (a filter may emit a
bitmap or a position list; a hash build emits a hash table).  This module
provides the concrete carriers for those semantics:

========  =====================================
semantic  carrier
========  =====================================
NUMERIC   :class:`numpy.ndarray` (1-D)
BITMAP    :class:`Bitmap` (bit-packed words)
POSITION  :class:`PositionList`
PREFIX    :class:`PrefixSum`
HASH      :class:`HashTable` / :class:`GroupTable`
GENERIC   anything with an ``nbytes`` attribute
========  =====================================

Every carrier exposes ``nbytes`` so the device memory manager can account
for it, mirroring how the paper's runtime estimates result-buffer sizes in
``prepare_output_buffer()``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IOSemantic",
    "Bitmap",
    "PositionList",
    "PrefixSum",
    "HashTable",
    "GroupTable",
    "JoinPairs",
    "group_index",
    "value_nbytes",
    "semantic_of",
]


class IOSemantic(enum.Enum):
    """The paper's data-edge semantics (Section III-B3)."""

    NUMERIC = "numeric"
    BITMAP = "bitmap"
    POSITION = "position"
    PREFIX_SUM = "prefix_sum"
    HASH_TABLE = "hash_table"
    GENERIC = "generic"


@dataclass
class Bitmap:
    """A bit-packed selection vector over *length* input rows.

    Bits are packed little-endian into ``uint32`` words: row *i* is selected
    iff ``words[i // 32] >> (i % 32) & 1``.  Packing is what creates the
    GPU materialization penalty the paper measures (threads cooperatively
    extract bits from shared words, Section V-A).
    """

    words: np.ndarray
    length: int

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "Bitmap":
        """Pack a boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        bits = np.packbits(mask, bitorder="little")
        pad = (-len(bits)) % 4
        if pad:
            bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
        return cls(words=bits.view(np.uint32), length=int(mask.shape[0]))

    def to_mask(self) -> np.ndarray:
        """Unpack back into a boolean mask of ``length`` entries."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return bits[: self.length].astype(bool)

    def count(self) -> int:
        """Number of selected rows (population count)."""
        return int(np.bitwise_count(self.words).sum())

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bitmap)
            and self.length == other.length
            and np.array_equal(self.to_mask(), other.to_mask())
        )


@dataclass
class PositionList:
    """Indices of selected rows, in ascending order."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.positions.nbytes)


@dataclass
class PrefixSum:
    """Inclusive prefix sum (used with SORT_AGG and bitmap compaction)."""

    sums: np.ndarray

    def __post_init__(self) -> None:
        self.sums = np.asarray(self.sums, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.sums[-1]) if len(self.sums) else 0

    @property
    def nbytes(self) -> int:
        return int(self.sums.nbytes)


#: The density rule of the hash kernels (:func:`_direct_span` is its only
#: reader): integer keys are addressed directly, by ``key - lowest key``,
#: when they span at most this many entries per key plus a floor for
#: tiny inputs.  A probe asks once per table (:meth:`HashTable.find_slots`,
#: counting distinct keys); aggregation and the merge of partial group
#: tables -- chunk combine, the cluster exchange -- ask once per call
#: (:func:`group_index`, counting rows).  Every TPC-H key column
#: qualifies: primary keys are dense, and the specification's sparse
#: order keys use 8 of every 32 values.  The bound caps the array at
#: eight words per key; it is not a measured speed crossover.  All five
#: benchmark workloads run both sides of it (EXPERIMENTS.md, "Which
#: probes take the directory", "Which groupings are addressed
#: directly"): a date filter that keeps one order in ten lands just
#: beyond it, on the ``searchsorted`` / ``np.unique`` side.
DIRECTORY_SPAN_PER_KEY = 8
DIRECTORY_SPAN_FLOOR = 1024


@dataclass
class HashTable:
    """A join hash table built by HASH_BUILD (linear probing in the paper).

    Stored in a probe-friendly sorted layout: ``keys`` sorted ascending,
    ``positions[offsets[i]:offsets[i+1]]`` are the build-side row numbers
    whose key equals ``keys[i]``.  Semantically identical to the paper's
    linear-probing table; the layout difference is invisible through the
    HASH_PROBE interface.

    A table is immutable once built: construction makes ``keys``,
    ``offsets``, ``positions`` and every payload column read-only, the
    way :class:`~repro.storage.column.Column` does, because two lookup
    structures are derived from them on first use and kept for the
    table's lifetime (so a field must not be reassigned either):

    * the **slot directory** (:meth:`find_slots`): when the keys are
      integers spanning at most ``8 * num_keys + 1024`` values,
      ``directory[key - keys[0]]`` is the key's slot (or -1) -- a
      perfect-hash join, one gather per probe key where a binary search
      costs ``log2(num_keys)`` of them.  Sparse or non-integer keys keep
      the binary search over ``keys``;
    * the **row index** (:meth:`slots_of_rows`): the inverse of
      ``positions``, which payload gathers go through.

    Both are host-side acceleration of this simulator, not part of the
    modelled table: they are no constructor argument, take no part in
    comparison or ``repr`` and are **not in** :attr:`nbytes`, so the
    bytes a device allocates, transfers and is charged for -- every
    virtual figure -- do not depend on them.
    """

    keys: np.ndarray
    offsets: np.ndarray
    positions: np.ndarray
    payload: dict[str, np.ndarray] = field(default_factory=dict)
    _directory: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)
    _row_index: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for array in (self.keys, self.offsets, self.positions,
                      *self.payload.values()):
            array.setflags(write=False)

    @property
    def num_keys(self) -> int:
        return int(self.keys.shape[0])

    @property
    def nbytes(self) -> int:
        n = int(self.keys.nbytes + self.offsets.nbytes + self.positions.nbytes)
        n += sum(int(v.nbytes) for v in self.payload.values())
        return n

    def find_slots(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve probe *keys* to table slots.

        Returns ``(slot, hit)``, one entry per key: ``hit[i]`` says
        whether ``keys[i]`` is in the table and, where it is,
        ``self.keys[slot[i]] == keys[i]``.  ``slot`` is unspecified
        where ``hit`` is false.
        """
        if not self.num_keys:
            return (np.zeros(keys.shape, dtype=np.intp),
                    np.zeros(keys.shape, dtype=bool))
        if self._directory is None:
            self._directory = _build_directory(self.keys)
        directory = self._directory
        if not len(directory) or not _fits_int64(keys.dtype):
            slot = np.minimum(np.searchsorted(self.keys, keys),
                              self.num_keys - 1)
            return slot, self.keys[slot] == keys
        # As unsigned numbers, offsets of keys outside the span are all
        # beyond it -- also where the int64 subtraction wraps: a key below
        # keys[0] comes out at 2**63 - keys[0] or more, which keys[-1] -
        # keys[0] cannot reach.  All of them are mapped to the directory's
        # last entry, which is always -1.
        offset = (keys.astype(np.int64, copy=False)
                  - np.int64(self.keys[0])).view(np.uint64)
        np.minimum(offset, np.uint64(len(directory) - 1), out=offset)
        slot = directory[offset.view(np.int64)]
        return slot, slot >= 0

    def slots_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """The index into ``positions`` (and every payload column) of
        each build row number in *rows*; -1 for rows not in the table."""
        if self._row_index is None:
            size = int(self.positions.max()) + 1 if len(self.positions) else 0
            # One trailing -1 that every row outside 0..size-1 is mapped to.
            index = np.full(size + 1, -1, dtype=np.intp)
            index[self.positions] = np.arange(len(self.positions))
            self._row_index = index
        index = self._row_index
        # As unsigned numbers, negative rows lie beyond any size (the way
        # find_slots treats keys outside its directory's span).
        row = np.minimum(rows.astype(np.int64, copy=False).view(np.uint64),
                         np.uint64(len(index) - 1))
        return index[row.view(np.int64)]

    def lookup_payload(self, key: int, name: str) -> int:
        """Payload value *name* of the first build row matching *key*.

        Raises ``KeyError`` when the key is absent or the payload column
        was not carried into the table.
        """
        idx = int(np.searchsorted(self.keys, key))
        if idx >= self.num_keys or int(self.keys[idx]) != int(key):
            raise KeyError(f"key {key!r} not in hash table")
        column = self.payload[name]
        return int(column[int(self.offsets[idx])])


def _fits_int64(dtype: np.dtype) -> bool:
    """Integer dtypes whose every value converts to int64 unchanged
    (all but uint64; bool is not a key type)."""
    return dtype.kind in "iu" and np.can_cast(dtype, np.int64)


def _direct_span(lo: int, hi: int, count: int) -> int:
    """Entries of an array addressed by ``key - lo`` for *count* integer
    keys between *lo* and *hi*, or 0 when they are too sparse to get one.
    Python integers: ``hi - lo`` of keys at both ends of int64 does not
    wrap."""
    span = hi - lo + 1
    if span > DIRECTORY_SPAN_PER_KEY * count + DIRECTORY_SPAN_FLOOR:
        return 0
    return span


def _build_directory(keys: np.ndarray) -> np.ndarray:
    """``directory[key - keys[0]]`` = slot of *key*, -1 where no key is,
    plus one trailing -1 that out-of-span probes are mapped to.  Empty
    when *keys* (sorted, unique, non-empty) are too sparse, or not
    integers, to have one."""
    none = np.empty(0, dtype=np.intp)
    if not _fits_int64(keys.dtype):
        return none
    lo = int(keys[0])
    span = _direct_span(lo, int(keys[-1]), len(keys))
    if not span:
        return none
    directory = np.full(span + 1, -1, dtype=np.intp)
    directory[keys.astype(np.int64, copy=False) - lo] = np.arange(len(keys))
    return directory


def group_index(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(uniques, inverse)`` exactly as ``np.unique(keys,
    return_inverse=True)`` returns them -- the distinct keys ascending, in
    the keys' dtype, and for each key the index of its group -- without
    sorting where the keys can be addressed directly.

    1-D integer keys that pass the density rule (:func:`_direct_span`)
    are marked in an array over their span: the marked entries, in order,
    are the distinct keys, and numbering them gives every row its group
    with one gather -- the linear insert of the paper's HASH_AGG.
    Sparse, non-integer, ``uint64`` and empty keys go to ``np.unique``.
    """
    if keys.ndim == 1 and len(keys) and _fits_int64(keys.dtype):
        lo = int(keys.min())
        span = _direct_span(lo, int(keys.max()), len(keys))
        if span:
            offset = np.subtract(keys, lo, dtype=np.int64)
            present = np.zeros(span, dtype=bool)
            present[offset] = True
            occupied = np.flatnonzero(present)
            # Only entries of present keys are ever read.
            directory = np.empty(span, dtype=np.intp)
            directory[occupied] = np.arange(len(occupied))
            return (occupied + lo).astype(keys.dtype), directory[offset]
    return np.unique(keys, return_inverse=True)


@dataclass
class GroupTable:
    """Grouped aggregates produced by HASH_AGG / SORT_AGG.

    ``keys[i]`` is a group key; ``aggregates[name][i]`` its aggregate.
    """

    keys: np.ndarray
    aggregates: dict[str, np.ndarray]

    @property
    def num_groups(self) -> int:
        return int(self.keys.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes) + sum(
            int(v.nbytes) for v in self.aggregates.values()
        )

    def merge(self, other: "GroupTable", *, how: dict[str, str]) -> "GroupTable":
        """Merge two partial group tables (:meth:`merge_all` of the pair)."""
        return GroupTable.merge_all([self, other], how=how)

    @staticmethod
    def merge_all(tables: "list[GroupTable]", *,
                  how: dict[str, str]) -> "GroupTable":
        """Merge partial group tables in one pass (chunked execution
        combines the per-chunk tables of a pipeline breaker; a cluster
        combines the per-node ones).

        All keys are concatenated in table order and grouped by one
        :func:`group_index` (direct addressing where the density rule
        admits the keys, one sort where it does not; the answer is the
        same); each aggregate is then reduced by one unbuffered
        ``ufunc.at``, which applies the values of a key in concatenation
        order — the same sequence of operations a left fold over pairwise
        merges performs, so the result is bit-identical to it.

        Args:
            how: aggregate name -> "sum" | "min" | "max" (count merges as
                sum).
        """
        keys, inverse = group_index(
            np.concatenate([table.keys for table in tables]))
        merged: dict[str, np.ndarray] = {}
        for name in tables[0].aggregates:
            stacked = np.concatenate(
                [table.aggregates[name] for table in tables])
            kind = how.get(name, "sum")
            if kind == "sum":
                out = np.zeros(len(keys), dtype=stacked.dtype)
                np.add.at(out, inverse, stacked)
            elif kind == "min":
                out = np.full(len(keys), np.iinfo(stacked.dtype).max,
                              dtype=stacked.dtype)
                np.minimum.at(out, inverse, stacked)
            elif kind == "max":
                out = np.full(len(keys), np.iinfo(stacked.dtype).min,
                              dtype=stacked.dtype)
                np.maximum.at(out, inverse, stacked)
            else:
                raise ValueError(f"unknown merge kind {kind!r} for {name!r}")
            merged[name] = out
        return GroupTable(keys=keys, aggregates=merged)


@dataclass
class JoinPairs:
    """Matching (left, right) row positions returned by HASH_PROBE."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        if self.left.shape != self.right.shape:
            raise ValueError("join sides must pair up 1:1")

    def __len__(self) -> int:
        return int(self.left.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self.left.nbytes + self.right.nbytes)


def value_nbytes(value: object) -> int:
    """Memory footprint of any edge value (for device accounting)."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (int, float)):
        return 8
    nbytes = getattr(value, "nbytes", None)
    if nbytes is None:
        raise TypeError(f"cannot size value of type {type(value).__name__}")
    return int(nbytes)


def semantic_of(value: object) -> IOSemantic:
    """Infer the I/O semantic carried by *value*."""
    if isinstance(value, np.ndarray):
        return IOSemantic.NUMERIC
    if isinstance(value, Bitmap):
        return IOSemantic.BITMAP
    if isinstance(value, PositionList):
        return IOSemantic.POSITION
    if isinstance(value, PrefixSum):
        return IOSemantic.PREFIX_SUM
    if isinstance(value, (HashTable, GroupTable)):
        return IOSemantic.HASH_TABLE
    return IOSemantic.GENERIC
