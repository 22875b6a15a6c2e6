"""Tables: ordered collections of equal-length columns."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import CatalogError, StorageError
from repro.storage.column import Column

__all__ = ["Table"]


@dataclass
class Table:
    """A named table of equal-length columns.

    Column order is preserved (it defines the default projection order) and
    names must be unique.
    """

    name: str
    columns: list[Column] = field(default_factory=list)

    def __post_init__(self) -> None:
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise StorageError(
                f"table {self.name!r} has ragged columns: lengths {lengths}"
            )
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise StorageError(f"table {self.name!r} has duplicate columns")
        self._by_name = {c.name: c for c in self.columns}

    # -- shape -----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __len__(self) -> int:
        return self.num_rows

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def nbytes(self) -> int:
        """Total payload size of all columns."""
        return sum(c.nbytes for c in self.columns)

    # -- access -----------------------------------------------------------------

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def project(self, names: list[str]) -> "Table":
        """A new table holding only *names*, in the given order."""
        return Table(self.name, [self.column(n) for n in names])

    def with_column(self, column: Column) -> "Table":
        """A new table with *column* appended."""
        return Table(self.name, [*self.columns, column])

    def row(self, index: int) -> dict[str, object]:
        """One row as a name->value dict (testing convenience)."""
        if not 0 <= index < self.num_rows:
            raise StorageError(
                f"row {index} out of range for table {self.name!r} "
                f"({self.num_rows} rows)"
            )
        return {c.name: c.values[index] for c in self.columns}

    def select(self, rows: np.ndarray | slice) -> "Table":
        """A new table with only the rows *rows* picks: a boolean mask
        (the rows are copied) or a ``slice`` (every column is a
        read-only zero-copy view of this table's).  Columns keep their
        type; a dictionary column shares its decode dictionary with the
        source (columns are immutable)."""
        return Table(
            self.name,
            [replace(c, values=c.values[rows]) for c in self.columns],
        )
