"""Key-range partitioning of TPC-H catalogs across simulated nodes.

Every partitionable table is split on its *partition key* into
``num_nodes`` contiguous key ranges that together form a **disjoint
exact cover** of the table: each row lands on exactly one node, no row
is dropped, no row is duplicated (a Hypothesis property in
``tests/test_cluster.py`` asserts this for every table and node count).

The fact chain is **co-partitioned**: ``orders`` is split on
``o_orderkey`` and ``lineitem`` on ``l_orderkey`` *with the same range
boundaries*, so every lineitem lives on the node that owns its order.
That makes orderkey-keyed joins and aggregations (Q3's revenue
aggregate, Q18's HAVING, Q12's semi-join) node-locally exact — only
final partials cross the network.  Tiny dimension tables (``nation``,
``region``) are replicated outright; the remaining tables partition on
their primary keys and are re-broadcast at execution time when a plan
scans them (see :mod:`repro.cluster.exchange`).

Key ranges preserve row order (the generator emits keys in
non-decreasing order), so concatenating the shards of a table in node
order reassembles it byte-identically — the property broadcast
reassembly and the single-node equivalence tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ClusterConfigError
from repro.storage import Catalog, Table

__all__ = [
    "CO_PARTITIONED_TABLES",
    "PARTITION_KEYS",
    "REPLICATED_TABLES",
    "KeyRange",
    "PartitionScheme",
    "make_scheme",
    "partition_catalog",
    "partition_table",
    "reassemble_table",
]

#: table -> the column its key ranges are computed over.
PARTITION_KEYS: dict[str, str] = {
    "customer": "c_custkey",
    "lineitem": "l_orderkey",
    "orders": "o_orderkey",
    "part": "p_partkey",
    "partsupp": "ps_partkey",
    "supplier": "s_suppkey",
}

#: Tables sharing one set of range boundaries (the orderkey domain), so
#: orderkey-keyed joins never cross nodes.
CO_PARTITIONED_TABLES = ("orders", "lineitem")

#: Tiny dimension tables replicated to every node instead of split.
REPLICATED_TABLES = ("nation", "region")


@dataclass(frozen=True)
class KeyRange:
    """A half-open key interval ``[lo, hi)`` owned by one node."""

    lo: int
    hi: int

    def __contains__(self, key: int) -> bool:
        return self.lo <= key < self.hi

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo}, {self.hi})"


@dataclass
class PartitionScheme:
    """The full placement decision for one catalog.

    Attributes:
        num_nodes: Number of shards every partitioned table splits into.
        ranges: ``table -> [KeyRange per node]``; co-partitioned tables
            share identical boundary lists.  Tables without ranges are
            replicated (:data:`REPLICATED_TABLES`) or broadcast.
    """

    num_nodes: int
    ranges: dict[str, list[KeyRange]] = field(default_factory=dict)

    def node_for_key(self, table: str, key: int) -> int:
        """The shard index owning *key* of *table* (tests/EXPLAIN)."""
        for index, key_range in enumerate(self.ranges[table]):
            if key in key_range:
                return index
        raise ClusterConfigError(
            f"key {key} of table {table!r} falls outside every range")


def _split_domain(lo: int, hi: int, num_nodes: int) -> list[KeyRange]:
    """Split ``[lo, hi)`` into *num_nodes* contiguous half-open ranges."""
    edges = [lo + (hi - lo) * i // num_nodes for i in range(num_nodes)]
    edges.append(hi)
    return [KeyRange(edges[i], edges[i + 1]) for i in range(num_nodes)]


def make_scheme(catalog: Catalog, num_nodes: int) -> PartitionScheme:
    """Compute key-range boundaries for every partitionable table.

    The orders/lineitem pair shares the orderkey domain's boundaries
    (taken from whichever of the two is present); every other table
    splits its own primary-key domain evenly.
    """
    if num_nodes < 1:
        raise ClusterConfigError(
            f"num_nodes must be >= 1, got {num_nodes}")
    scheme = PartitionScheme(num_nodes=num_nodes)

    def domain(table: str) -> tuple[int, int]:
        keys = catalog.table(table).column(PARTITION_KEYS[table]).values
        if keys.shape[0] == 0:
            return (0, 0)
        return (int(keys.min()), int(keys.max()) + 1)

    order_source = next(
        (t for t in CO_PARTITIONED_TABLES if t in catalog), None)
    if order_source is not None:
        shared = _split_domain(*domain(order_source), num_nodes)
        for table in CO_PARTITIONED_TABLES:
            if table in catalog:
                scheme.ranges[table] = shared
    for table, _key in sorted(PARTITION_KEYS.items()):
        if table in scheme.ranges or table not in catalog:
            continue
        scheme.ranges[table] = _split_domain(*domain(table), num_nodes)
    return scheme


def partition_table(table: Table, key: str,
                    ranges: list[KeyRange]) -> list[Table]:
    """Split *table* into one shard per key range (order-preserving).

    When the *key* column is in non-decreasing order -- every generated
    table's is, and reassembly depends on it -- each range is one
    contiguous run of rows, found by binary search, and the shard's
    columns are zero-copy read-only views of the table's.  Rows in any
    other order are selected by mask, which copies them.
    """
    values = table.column(key).values
    if np.all(values[:-1] <= values[1:]):
        starts = np.searchsorted(values, [r.lo for r in ranges])
        stops = np.searchsorted(values, [r.hi for r in ranges])
        return [table.select(slice(start, stop))
                for start, stop in zip(starts, stops)]
    return [table.select((values >= r.lo) & (values < r.hi))
            for r in ranges]


def partition_catalog(catalog: Catalog, num_nodes: int, *,
                      scheme: PartitionScheme | None = None
                      ) -> list[Catalog]:
    """Shard *catalog* into one catalog per node.

    Partitioned tables are range-split per the scheme; replicated
    tables are shared by reference (columns are immutable).  Returns
    ``num_nodes`` catalogs whose union is exactly the input.
    """
    if scheme is None:
        scheme = make_scheme(catalog, num_nodes)
    elif scheme.num_nodes != num_nodes:
        raise ClusterConfigError(
            f"scheme is for {scheme.num_nodes} nodes, asked for "
            f"{num_nodes}")
    shards = [Catalog() for _ in range(num_nodes)]
    for name in sorted(catalog.tables):
        table = catalog.table(name)
        if name in scheme.ranges:
            parts = partition_table(
                table, PARTITION_KEYS[name], scheme.ranges[name])
            for shard, part in zip(shards, parts):
                shard.add(part)
        else:
            for shard in shards:
                shard.add(table)
    return shards


def reassemble_table(parts: list[Table]) -> Table:
    """Concatenate shards of one table back together, in node order.

    Because key ranges are contiguous and the generator emits keys in
    non-decreasing row order, this is byte-identical to the unsharded
    table — what BROADCAST exchanges ship to every node.
    """
    if not parts:
        raise ClusterConfigError("cannot reassemble zero shards")
    columns = [
        replace(column, values=np.concatenate(
            [part.columns[i].values for part in parts]))
        for i, column in enumerate(parts[0].columns)]
    return Table(parts[0].name, columns)
