"""Deterministic in-memory TPC-H data generator.

A pure-numpy replacement for ``dbgen``: same schema, same cardinality rules
and the value distributions the evaluated queries (Q1, Q3, Q4, Q6) depend
on — uniform order dates over 1992-01-01..1998-08-02, ship/commit/receipt
dates derived from the order date, 1–7 lineitems per order, five market
segments, five order priorities, discounts 0–10%, quantities 1–50.

Everything is generated from a seeded PCG64 stream, so the same
``(scale_factor, seed)`` always yields byte-identical data.  Fractional
scale factors are supported (``scale_factor=0.001`` gives ~6k lineitems),
which keeps the functional tests laptop-sized while the *size accounting*
for larger-than-memory experiments uses :mod:`repro.tpch.schema`
analytically.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import WorkloadError
from repro.storage import Catalog, Column, DictionaryColumn, Table, date_to_int

__all__ = [
    "generate",
    "generate_partitioned",
    "MKT_SEGMENTS",
    "ORDER_PRIORITIES",
    "SHIP_MODES",
    "DATE_MIN",
    "DATE_MAX",
]

MKT_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
ORDER_STATUS = ["F", "O", "P"]
RETURN_FLAGS = ["A", "N", "R"]
NATION_NAMES = [f"NATION_{i:02d}" for i in range(25)]
REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
PART_BRANDS = [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)]
PART_TYPES = [f"{a} {b}" for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO") for b in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")]
PART_CONTAINERS = [f"{a} {b}" for a in ("SM", "LG", "MED", "JUMBO", "WRAP") for b in ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")]

DATE_MIN = date_to_int("1992-01-01")
DATE_MAX = date_to_int("1998-08-02")

# The O/F linestatus boundary: lines shipped after mid-1995 are still "O".
_LINESTATUS_CUTOFF = date_to_int("1995-06-17")


def _rng(seed: int, table: str) -> np.random.Generator:
    """Independent, reproducible stream per (seed, table)."""
    return np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence([seed, zlib.crc32(table.encode())])
        )
    )


def _dict_column(name: str, codes: np.ndarray, values: list[str]
                 ) -> DictionaryColumn:
    """Dictionary column from pre-drawn codes over the *sorted* value list."""
    ordered = sorted(values)
    return DictionaryColumn(
        name=name, values=codes.astype(np.int32), dictionary=ordered
    )


def generate(scale_factor: float = 0.01, *, seed: int = 42,
             tables: list[str] | None = None) -> Catalog:
    """Generate a TPC-H :class:`~repro.storage.Catalog`.

    Args:
        scale_factor: TPC-H SF; fractional values scale every table down
            proportionally (dimension tables keep at least one row).
        seed: Master seed; every (seed, SF) pair is fully deterministic.
        tables: Subset of table names to generate (default: all eight).
    """
    if scale_factor <= 0:
        raise WorkloadError(f"scale_factor must be positive, got {scale_factor}")
    wanted = set(tables) if tables is not None else {
        "region", "nation", "supplier", "customer", "part", "partsupp",
        "orders", "lineitem",
    }
    unknown = wanted - {
        "region", "nation", "supplier", "customer", "part", "partsupp",
        "orders", "lineitem",
    }
    if unknown:
        raise WorkloadError(f"unknown TPC-H tables requested: {sorted(unknown)}")

    catalog = Catalog()
    sf = scale_factor

    def rows(per_sf: float) -> int:
        return max(1, int(round(per_sf * sf)))

    if "region" in wanted:
        catalog.add(_gen_region())
    if "nation" in wanted:
        catalog.add(_gen_nation())
    if "supplier" in wanted:
        catalog.add(_gen_supplier(rows(10_000), _rng(seed, "supplier")))
    if "customer" in wanted:
        catalog.add(_gen_customer(rows(150_000), _rng(seed, "customer")))
    if "part" in wanted:
        catalog.add(_gen_part(rows(200_000), _rng(seed, "part")))
    if "partsupp" in wanted:
        catalog.add(_gen_partsupp(rows(200_000), _rng(seed, "partsupp")))

    needs_orders = wanted & {"orders", "lineitem"}
    if needs_orders:
        orders, lineitem = _gen_orders_and_lineitem(
            rows(1_500_000), rows(150_000), _rng(seed, "orders"),
            _rng(seed, "lineitem"),
            n_parts=rows(200_000), n_suppliers=rows(10_000),
        )
        if "orders" in wanted:
            catalog.add(orders)
        if "lineitem" in wanted:
            catalog.add(lineitem)
    return catalog


def generate_partitioned(scale_factor: float = 0.01, nodes: int = 2, *,
                         seed: int = 42):
    """Generate a TPC-H catalog already sharded across *nodes*.

    Convenience front door for scale-out experiments: generates the
    same byte-identical catalog :func:`generate` would (same
    ``(scale_factor, seed)`` stream), then key-range partitions it with
    :func:`repro.cluster.partition.partition_catalog` — orders/lineitem
    co-partitioned on orderkey, dimensions replicated.

    Returns ``(shards, scheme)``: one :class:`~repro.storage.Catalog`
    per node plus the :class:`~repro.cluster.PartitionScheme` that
    placed them (reusable for routing and EXPLAIN).
    """
    # Imported lazily: repro.cluster sits above the workload layer and
    # importing it at module scope would cycle through the executor.
    from repro.cluster.partition import make_scheme, partition_catalog

    catalog = generate(scale_factor, seed=seed)
    scheme = make_scheme(catalog, nodes)
    shards = partition_catalog(catalog, nodes, scheme=scheme)
    return shards, scheme


# ---------------------------------------------------------------------------
# Per-table generators
# ---------------------------------------------------------------------------


def _gen_region() -> Table:
    return Table("region", [
        Column("r_regionkey", np.arange(5, dtype=np.int32)),
        DictionaryColumn.from_strings("r_name", REGION_NAMES),
    ])


def _gen_nation() -> Table:
    return Table("nation", [
        Column("n_nationkey", np.arange(25, dtype=np.int32)),
        Column("n_regionkey", (np.arange(25) % 5).astype(np.int32)),
        DictionaryColumn.from_strings("n_name", NATION_NAMES),
    ])


def _gen_supplier(n: int, rng: np.random.Generator) -> Table:
    return Table("supplier", [
        Column("s_suppkey", np.arange(1, n + 1, dtype=np.int64)),
        Column("s_nationkey", rng.integers(0, 25, n).astype(np.int32)),
        Column("s_acctbal", rng.integers(-99999, 999999, n).astype(np.int64)),
    ])


def _gen_customer(n: int, rng: np.random.Generator) -> Table:
    return Table("customer", [
        Column("c_custkey", np.arange(1, n + 1, dtype=np.int64)),
        Column("c_nationkey", rng.integers(0, 25, n).astype(np.int32)),
        _dict_column("c_mktsegment", rng.integers(0, len(MKT_SEGMENTS), n),
                     MKT_SEGMENTS),
        Column("c_acctbal", rng.integers(-99999, 999999, n).astype(np.int64)),
    ])


def _gen_part(n: int, rng: np.random.Generator) -> Table:
    return Table("part", [
        Column("p_partkey", np.arange(1, n + 1, dtype=np.int64)),
        _dict_column("p_brand", rng.integers(0, len(PART_BRANDS), n),
                     PART_BRANDS),
        _dict_column("p_type", rng.integers(0, len(PART_TYPES), n),
                     PART_TYPES),
        Column("p_size", rng.integers(1, 51, n).astype(np.int32)),
        _dict_column("p_container", rng.integers(0, len(PART_CONTAINERS), n),
                     PART_CONTAINERS),
        Column("p_retailprice", rng.integers(90000, 210000, n).astype(np.int64)),
    ])


def _gen_partsupp(n_parts: int, rng: np.random.Generator) -> Table:
    # Four suppliers per part, as in the specification.
    partkeys = np.repeat(np.arange(1, n_parts + 1, dtype=np.int64), 4)
    n = len(partkeys)
    return Table("partsupp", [
        Column("ps_partkey", partkeys),
        Column("ps_suppkey", rng.integers(1, max(2, n_parts // 20), n)
               .astype(np.int64)),
        Column("ps_availqty", rng.integers(1, 10000, n).astype(np.int32)),
        Column("ps_supplycost", rng.integers(100, 100000, n).astype(np.int64)),
    ])


def _gen_orders_and_lineitem(
    n_orders: int, n_customers: int,
    rng_o: np.random.Generator, rng_l: np.random.Generator,
    *, n_parts: int, n_suppliers: int,
) -> tuple[Table, Table]:
    orderkey = np.arange(1, n_orders + 1, dtype=np.int64)
    custkey = rng_o.integers(1, n_customers + 1, n_orders).astype(np.int64)
    orderdate = rng_o.integers(DATE_MIN, DATE_MAX - 121, n_orders
                               ).astype(np.int32)
    totalprice = rng_o.integers(100000, 50000000, n_orders).astype(np.int64)
    orders = Table("orders", [
        Column("o_orderkey", orderkey),
        Column("o_custkey", custkey),
        _dict_column("o_orderstatus",
                     rng_o.integers(0, len(ORDER_STATUS), n_orders),
                     ORDER_STATUS),
        Column("o_totalprice", totalprice),
        Column("o_orderdate", orderdate),
        _dict_column("o_orderpriority",
                     rng_o.integers(0, len(ORDER_PRIORITIES), n_orders),
                     ORDER_PRIORITIES),
        Column("o_shippriority", np.zeros(n_orders, dtype=np.int32)),
    ])

    # 1..7 lineitems per order (spec), expanded with repeat().
    per_order = rng_l.integers(1, 8, n_orders)
    l_orderkey = np.repeat(orderkey, per_order)
    l_orderdate = np.repeat(orderdate, per_order)
    n = len(l_orderkey)
    quantity = rng_l.integers(1, 51, n).astype(np.int32)
    extendedprice = rng_l.integers(90000, 10500000, n).astype(np.int64)
    discount = rng_l.integers(0, 11, n).astype(np.int32)  # hundredths
    tax = rng_l.integers(0, 9, n).astype(np.int32)
    shipdate = (l_orderdate + rng_l.integers(1, 122, n)).astype(np.int32)
    commitdate = (l_orderdate + rng_l.integers(30, 91, n)).astype(np.int32)
    receiptdate = (shipdate + rng_l.integers(1, 31, n)).astype(np.int32)
    linestatus_codes = (shipdate <= _LINESTATUS_CUTOFF).astype(np.int32)
    # dictionary sorted(["F", "O"]) => F=0, O=1; shipped long ago => F.
    returnflag = rng_l.integers(0, len(RETURN_FLAGS), n)

    # 1..k within each order: the row's position minus its order's first.
    linenumber = (np.arange(n)
                  - np.repeat(np.cumsum(per_order) - per_order, per_order)
                  + 1).astype(np.int32)

    lineitem = Table("lineitem", [
        Column("l_orderkey", l_orderkey),
        Column("l_partkey",
               rng_l.integers(1, n_parts + 1, n).astype(np.int64)),
        Column("l_suppkey",
               rng_l.integers(1, n_suppliers + 1, n).astype(np.int64)),
        Column("l_linenumber", linenumber),
        Column("l_quantity", quantity),
        Column("l_extendedprice", extendedprice),
        Column("l_discount", discount),
        Column("l_tax", tax),
        _dict_column("l_returnflag", returnflag, RETURN_FLAGS),
        DictionaryColumn(
            "l_linestatus", (1 - linestatus_codes).astype(np.int32),
            dictionary=["F", "O"],
        ),
        Column("l_shipdate", shipdate),
        Column("l_commitdate", commitdate),
        Column("l_receiptdate", receiptdate),
        _dict_column("l_shipmode", rng_l.integers(0, len(SHIP_MODES), n),
                     SHIP_MODES),
    ])
    return orders, lineitem
