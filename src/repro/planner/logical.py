"""Logical query plans — the optimizer-facing representation.

ADAMANT consumes "a query plan (generated from any existing optimizer)
translated into a primitive graph" (Section III).  This module is the
library's stand-in for that optimizer output: a small algebra of logical
operators that :mod:`repro.planner.translate` compiles into primitive
graphs.  It deliberately covers the plan shapes of the paper's workload —
selective scans, derived columns, scalar and grouped aggregation, hash
(semi-)joins — and rejects anything else with :class:`~repro.errors.PlanError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError

__all__ = [
    "Predicate",
    "Derived",
    "AggregateSpec",
    "LogicalPlan",
    "Scan",
    "Select",
    "Derive",
    "ScalarAggregate",
    "GroupAggregate",
    "HashJoin",
    "SemiJoin",
]


@dataclass(frozen=True)
class Predicate:
    """A filter on one column: comparator+value or an inclusive range."""

    column: str
    cmp: str | None = None
    value: object = None
    lo: object = None
    hi: object = None

    def __post_init__(self) -> None:
        if self.cmp is None and self.lo is None and self.hi is None:
            raise PlanError(
                f"predicate on {self.column!r} needs cmp+value or lo/hi"
            )
        if self.cmp is not None and self.value is None:
            raise PlanError(
                f"predicate on {self.column!r}: comparator {self.cmp!r} "
                "needs a value"
            )

    def kernel_params(self) -> dict:
        if self.cmp is not None:
            return {"cmp": self.cmp, "value": self.value}
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class Derived:
    """A derived column: ``name = op(left[, right])``."""

    name: str
    op: str
    left: str
    right: str | None = None


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate of a GROUP BY: ``name = fn(column)``."""

    name: str
    fn: str
    column: str | None = None  # None only for COUNT

    def __post_init__(self) -> None:
        if self.fn != "count" and self.column is None:
            raise PlanError(f"aggregate {self.name!r}: {self.fn} needs a column")


class LogicalPlan:
    """Base class for logical operators."""

    def children(self) -> list["LogicalPlan"]:
        return []


@dataclass
class Scan(LogicalPlan):
    """Read a base table (columns are inferred by the translator)."""

    table: str


@dataclass
class Select(LogicalPlan):
    """Conjunctive filter over the child's rows."""

    child: LogicalPlan
    predicates: list[Predicate]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise PlanError("Select needs at least one predicate")

    def children(self) -> list[LogicalPlan]:
        return [self.child]


@dataclass
class Derive(LogicalPlan):
    """Add derived columns to the child's output."""

    child: LogicalPlan
    columns: list[Derived]

    def children(self) -> list[LogicalPlan]:
        return [self.child]


@dataclass
class ScalarAggregate(LogicalPlan):
    """Whole-input reduction: ``fn(column)`` -> one value."""

    child: LogicalPlan
    fn: str
    column: str

    def children(self) -> list[LogicalPlan]:
        return [self.child]


@dataclass
class GroupAggregate(LogicalPlan):
    """GROUP BY *keys* with one or more aggregates.

    With two key columns the translator combines them into one numeric key
    (``key1 * second_key_domain + key2``), so *second_key_domain* — the
    number of distinct values of the second key — is required then.
    """

    child: LogicalPlan
    keys: list[str]
    aggregates: list[AggregateSpec] = field(default_factory=list)
    second_key_domain: int | None = None

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
        if not self.aggregates:
            raise PlanError("GroupAggregate needs at least one aggregate")
        names = [a.name for a in self.aggregates]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate aggregate names: {names}")

    def children(self) -> list[LogicalPlan]:
        return [self.child]


@dataclass
class HashJoin(LogicalPlan):
    """Inner hash join; *build* side may carry payload columns through."""

    probe: LogicalPlan
    build: LogicalPlan
    probe_key: str
    build_key: str
    payload: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.payload) > 3:
            raise PlanError("hash_build carries at most three payload columns")

    def children(self) -> list[LogicalPlan]:
        return [self.probe, self.build]


@dataclass
class SemiJoin(LogicalPlan):
    """EXISTS: keep probe rows whose key appears on the build side."""

    probe: LogicalPlan
    build: LogicalPlan
    probe_key: str
    build_key: str

    def children(self) -> list[LogicalPlan]:
        return [self.probe, self.build]
