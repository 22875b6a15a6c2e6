"""Small-sample statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics

__all__ = ["PERCENTILE_LADDER", "first_fact_difference", "median",
           "percentile", "quartiles", "relative_range", "top_percentile"]

#: Percentiles the benchmark is willing to name, ascending.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(values, n=4)``
    gives them (the rule the acceptance check uses); a single value is
    its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def relative_range(values) -> float:
    """Largest minus smallest value as a share of the median: the spread
    of a handful of rounds (0 for one value or a zero median)."""
    values = list(values)
    mid = median(values)
    return (max(values) - min(values)) / abs(mid) if mid else 0.0


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile *p* among *n* samples (rounded first:
    99.9 % of 10 000 must be 9990, not 9990.000000000002)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile *p* (0 < p <= 100) of *values*."""
    ordered = sorted(values)
    return float(ordered[_rank(p, len(ordered)) - 1])


def top_percentile(n: int) -> float | None:
    """The highest percentile of :data:`PERCENTILE_LADDER` that still has
    at least ten of *n* samples beyond it; None below twenty samples."""
    best = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def first_fact_difference(expected: dict, got: dict) -> str | None:
    """The first item and fact on which two ``{item: {fact: value}}``
    tables disagree (None when they are bit-identical)."""
    for item in sorted(set(expected) | set(got)):
        left, right = expected.get(item, {}), got.get(item, {})
        for key in sorted(set(left) | set(right)):
            if left.get(key) != right.get(key):
                return (f"item {item} fact {key}: "
                        f"{left.get(key)!r} != {right.get(key)!r}")
    return None
