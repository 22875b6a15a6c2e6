"""Sample-based statistics for output-buffer estimation.

``prepare_output_buffer`` sizes result space from planner hints
(Section III-C); without statistics the translator would have to guess.
This module estimates predicate selectivities by evaluating them over a
deterministic row sample, which the translator folds into the
``selectivity_estimate`` hints of its MATERIALIZE nodes — tighter buffers
without risking correctness (buffers grow on overflow).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanError
from repro.planner.logical import Predicate
from repro.primitives.kernels.filter import COMPARATORS
from repro.storage import Catalog

__all__ = ["estimate_selectivity", "conjunction_selectivity", "SAMPLE_ROWS"]

SAMPLE_ROWS = 1024
_SEED = 0x5EED


def _sample(values: np.ndarray) -> np.ndarray:
    if values.shape[0] <= SAMPLE_ROWS:
        return values
    rng = np.random.Generator(np.random.PCG64(_SEED))
    index = rng.choice(values.shape[0], size=SAMPLE_ROWS, replace=False)
    return values[index]


def estimate_selectivity(catalog: Catalog, table: str,
                         predicate: Predicate) -> float:
    """Estimated fraction of *table*'s rows satisfying *predicate*, on
    a seeded sample of :data:`SAMPLE_ROWS` rows.

    Clamped away from exactly 0 so downstream buffer estimates never
    allocate nothing for a predicate the sample happened to miss.
    """
    try:
        column = catalog.column(f"{table}.{predicate.column}")
    except Exception as error:
        raise PlanError(
            f"cannot sample {table}.{predicate.column}: {error}"
        ) from error
    sample = _sample(column.values)
    if sample.shape[0] == 0:
        return 1.0
    if predicate.cmp is not None:
        mask = COMPARATORS[predicate.cmp](sample, predicate.value)
    else:
        mask = np.ones(sample.shape, dtype=bool)
        if predicate.lo is not None:
            mask &= sample >= predicate.lo
        if predicate.hi is not None:
            mask &= sample <= predicate.hi
    fraction = float(mask.mean())
    return min(1.0, max(fraction, 1.0 / sample.shape[0]))


def conjunction_selectivity(catalog: Catalog, table: str,
                            predicates: list[Predicate]) -> float:
    """Selectivity of a predicate conjunction, assuming independence
    (the textbook estimator; correlated columns under-estimate, which the
    runtime tolerates by growing buffers)."""
    selectivity = 1.0
    for predicate in predicates:
        selectivity *= estimate_selectivity(catalog, table, predicate)
    return max(selectivity, 1e-4)
