"""Logical query plans — the optimizer-facing representation.

ADAMANT consumes "a query plan (generated from any existing optimizer)
translated into a primitive graph" (Section III).  This module is the
library's stand-in for that optimizer output, and every TPC-H query
module declares its plan in it: a small algebra that
:mod:`repro.planner.translate` compiles into primitive graphs.  It covers
the workload's plan shapes — conjunctive selections with disjunctions
inside, derived columns with constants, scalar, grouped and sort-based
aggregation, HAVING over a grouped aggregate, hash (semi-)joins whose
build-side payload is read after the join, hash tables kept as outputs —
and rejects anything else with :class:`~repro.errors.PlanError`.

Operators that emit primitives take optional node ids (``id``, ``ids``
by column, ...), ``hints`` for the materializations they emit (``{}``
for none) and ``cost_params``; absent, the translator picks fresh ids
and a sampled or 0.5 ``selectivity_estimate``.  A predicate or derived
column whose literals are bound later by node id
(:meth:`~repro.core.graph.PrimitiveGraph.bind`) carries none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError

__all__ = [
    "Predicate",
    "AnyOf",
    "Derived",
    "AggregateSpec",
    "LogicalPlan",
    "Scan",
    "Select",
    "Derive",
    "Rename",
    "Sort",
    "ScalarAggregate",
    "GroupAggregate",
    "HashJoin",
    "SemiJoin",
    "HashBuild",
]


@dataclass(frozen=True)
class Predicate:
    """A filter on one column: comparator+value, an inclusive range, or
    neither when its node *id* binds them later."""

    column: str
    cmp: str | None = None
    value: object = None
    lo: object = None
    hi: object = None
    id: str | None = None

    def __post_init__(self) -> None:
        if self.cmp is None and self.lo is None and self.hi is None \
                and self.id is None:
            raise PlanError(f"predicate on {self.column!r} needs cmp+value, "
                            "lo/hi or a node id to bind them by")
        if self.cmp is not None and self.value is None:
            raise PlanError(
                f"predicate on {self.column!r}: comparator {self.cmp!r} "
                "needs a value"
            )

    @property
    def terms(self) -> list[Predicate]:
        return [self]

    def kernel_params(self) -> dict:
        if self.cmp is not None:
            return {"cmp": self.cmp, "value": self.value}
        if self.lo is None and self.hi is None:
            return {}
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class AnyOf:
    """A disjunction of predicates (BITMAP_OR nodes *ids*)."""

    terms: list[Predicate]
    ids: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.terms) < 2:
            raise PlanError("AnyOf needs at least two predicates")


@dataclass(frozen=True)
class Derived:
    """A derived column ``name = op(left[, right])``, with an optional
    map constant; an *op* of None is bound later by node *id*."""

    name: str
    op: str | None
    left: str
    right: str | None = None
    const: object = None
    id: str | None = None

    def __post_init__(self) -> None:
        if self.op is None and self.id is None:
            raise PlanError(f"derived column {self.name!r} needs an op or "
                            "a node id to bind it by")

    def kernel_params(self) -> dict:
        params = {} if self.op is None else {"op": self.op}
        return params if self.const is None else {**params,
                                                  "const": self.const}


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate: ``name = fn(column)``; *name* is its node id."""

    name: str
    fn: str
    column: str | None = None  # None only for COUNT

    def __post_init__(self) -> None:
        if self.fn != "count" and self.column is None:
            raise PlanError(f"aggregate {self.name!r}: {self.fn} needs a column")


def _check_names(aggregates: list[AggregateSpec]) -> None:
    names = [a.name for a in aggregates]
    if not names or len(set(names)) != len(names):
        raise PlanError(f"need distinct aggregate names, got {names}")


def _check_payload(payload: list[str]) -> None:
    if len(payload) > 3:
        raise PlanError("hash_build carries at most three payload columns")


class LogicalPlan:
    """Base class for logical operators."""

    def children(self) -> list["LogicalPlan"]:
        return [self.child] if hasattr(self, "child") else []


@dataclass
class Scan(LogicalPlan):
    """Read a base table (columns are inferred by the translator)."""

    table: str


@dataclass
class Select(LogicalPlan):
    """Conjunctive filter (BITMAP_AND nodes *and_ids*), then a
    MATERIALIZE of each column needed above (*ids* by column)."""

    child: LogicalPlan
    predicates: list[Predicate | AnyOf]
    ids: dict[str, str] = field(default_factory=dict)
    and_ids: list[str] = field(default_factory=list)
    hints: dict | None = None

    def __post_init__(self) -> None:
        if not self.predicates:
            raise PlanError("Select needs at least one predicate")


@dataclass
class Derive(LogicalPlan):
    """Add derived columns; each may read the ones listed before it."""

    child: LogicalPlan
    columns: list[Derived]


@dataclass
class Rename(LogicalPlan):
    """Expose child columns under new names (``{new: old}``)."""

    child: LogicalPlan
    columns: dict[str, str]


@dataclass
class Sort(LogicalPlan):
    """Stable sort by *key*: SORT_POSITIONS (node *id*), then a
    MATERIALIZE_POSITION of each column needed above (*ids*)."""

    child: LogicalPlan
    key: str
    id: str | None = None
    ids: dict[str, str] = field(default_factory=dict)


@dataclass
class ScalarAggregate(LogicalPlan):
    """Whole-input reductions, one AGG_BLOCK output per aggregate (every
    one, COUNT too, reads a column)."""

    child: LogicalPlan
    aggregates: list[AggregateSpec]

    def __post_init__(self) -> None:
        _check_names(self.aggregates)
        if any(spec.column is None for spec in self.aggregates):
            raise PlanError("a scalar aggregate needs a column")


@dataclass
class GroupAggregate(LogicalPlan):
    """GROUP BY *keys* with one or more aggregates.

    Two key columns combine into one numeric key (``key1 *
    second_key_domain + key2``, a MAP with id *key_id*), so
    *second_key_domain* — the number of distinct values of the second key
    — is required then.  With *sort* the child is sorted by the one key
    (:class:`Sort`): GROUP_PREFIX (id *key_id*) and SORT_AGG aggregate it,
    and the sorted keys follow the aggregates as an output (SORT_AGG
    numbers groups densely).  Below the root, the key and aggregates are
    columns (GROUP_KEYS / GROUP_VALUES, *ids*) a :class:`Select` filters
    — SQL's HAVING — and *output* keeps the aggregates as outputs.
    """

    child: LogicalPlan
    keys: list[str]
    aggregates: list[AggregateSpec] = field(default_factory=list)
    second_key_domain: int | None = None
    sort: bool = False
    key_id: str | None = None
    ids: dict[str, str] = field(default_factory=dict)
    cost_params: dict = field(default_factory=dict)
    output: bool = False

    def __post_init__(self) -> None:
        if not 1 <= len(self.keys) <= 2:
            raise PlanError(
                f"GroupAggregate supports 1 or 2 key columns, got "
                f"{len(self.keys)}"
            )
        if len(self.keys) == 2 and not self.second_key_domain:
            raise PlanError(
                "GroupAggregate with two keys needs second_key_domain"
            )
        _check_names(self.aggregates)
        if self.sort:
            node = self.child
            while isinstance(node, Derive):
                node = node.child
            if not (isinstance(node, Sort) and self.keys == [node.key]):
                raise PlanError("a sort-based GroupAggregate needs its input "
                                "sorted by its one key")
            if any(spec.column is None for spec in self.aggregates):
                raise PlanError("a sort aggregate needs a column")


@dataclass
class HashJoin(LogicalPlan):
    """Inner hash join; *payload* build columns ride in the hash table
    and are read after the join (GATHER_PAYLOAD).  Node ids: *build_id*,
    *probe_id*, *side_id* (JOIN_SIDE) and *ids* of the gathers by column;
    *output* keeps the hash table as an output."""

    probe: LogicalPlan
    build: LogicalPlan
    probe_key: str
    build_key: str
    payload: list[str] = field(default_factory=list)
    build_id: str | None = None
    probe_id: str | None = None
    side_id: str | None = None
    ids: dict[str, str] = field(default_factory=dict)
    hints: dict | None = None
    output: bool = False

    def __post_init__(self) -> None:
        _check_payload(self.payload)

    def children(self) -> list[LogicalPlan]:
        return [self.probe, self.build]


@dataclass
class SemiJoin(LogicalPlan):
    """EXISTS: keep probe rows whose key appears on the build side
    (node ids as for :class:`HashJoin`)."""

    probe: LogicalPlan
    build: LogicalPlan
    probe_key: str
    build_key: str
    build_id: str | None = None
    probe_id: str | None = None
    ids: dict[str, str] = field(default_factory=dict)
    hints: dict | None = None

    def children(self) -> list[LogicalPlan]:
        return [self.probe, self.build]


@dataclass
class HashBuild(LogicalPlan):
    """A plan root: the child's rows hash-built on *key* with *payload*
    (node *id*), the table itself the output."""

    child: LogicalPlan
    key: str
    payload: list[str]
    id: str | None = None

    def __post_init__(self) -> None:
        _check_payload(self.payload)
