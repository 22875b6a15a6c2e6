"""Pure-numpy reference implementations of the evaluated TPC-H queries.

These are the correctness oracles: every execution model x driver
combination must produce results identical to the functions here.  They
follow the TPC-H query definitions with the repo's integer encodings
(money in cents, discounts/tax in hundredths, dates as epoch days), so
revenue aggregates like ``extendedprice * (1 - discount)`` become
``extendedprice * (100 - discount)`` in units of 10^-2 cents.

The default predicate constants are the specification's validation
parameters (Q3 BUILDING / 1995-03-15, Q4 1993-Q3, Q6 1994 / 5..7% / <24).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage import Catalog, DictionaryColumn, date_to_int

__all__ = ["q1", "q3", "q4", "q5", "q6", "q10", "q12", "q14", "q18", "q19",
           "Q3Row", "Q4Row", "Q5Row", "Q10Row", "Q12Row", "Q18Row",
           "matches"]


def matches(answer, expected) -> bool:
    """The oracle verdict: floats to 1e-9, everything else exactly."""
    if isinstance(answer, float):
        return abs(answer - expected) < 1e-9
    return answer == expected


def _dict_code(catalog: Catalog, ref: str, value: str) -> int:
    column = catalog.column(ref)
    assert isinstance(column, DictionaryColumn), ref
    return column.code_for(value)


# ---------------------------------------------------------------------------
# Q1 — pricing summary report (heavy grouped aggregation)
# ---------------------------------------------------------------------------


def q1(catalog: Catalog, *, delta_days: int = 90) -> dict[tuple[str, str], dict]:
    """TPC-H Q1: grouped aggregates over lineitem before a shipdate cutoff.

    Returns ``{(returnflag, linestatus): aggregates}`` with keys
    ``sum_qty, sum_base_price, sum_disc_price, sum_charge, count``.
    """
    li = catalog.table("lineitem")
    cutoff = date_to_int("1998-12-01") - delta_days
    mask = li.column("l_shipdate").values <= cutoff

    rf = li.column("l_returnflag")
    ls = li.column("l_linestatus")
    assert isinstance(rf, DictionaryColumn) and isinstance(ls, DictionaryColumn)

    qty = li.column("l_quantity").values[mask].astype(np.int64)
    price = li.column("l_extendedprice").values[mask].astype(np.int64)
    disc = li.column("l_discount").values[mask].astype(np.int64)
    tax = li.column("l_tax").values[mask].astype(np.int64)
    rf_codes = rf.values[mask]
    ls_codes = ls.values[mask]

    group = rf_codes.astype(np.int64) * len(ls.dictionary) + ls_codes
    out: dict[tuple[str, str], dict] = {}
    for g in np.unique(group):
        sel = group == g
        rname = rf.dictionary[int(g) // len(ls.dictionary)]
        lname = ls.dictionary[int(g) % len(ls.dictionary)]
        disc_price = price[sel] * (100 - disc[sel])
        out[(rname, lname)] = {
            "sum_qty": int(qty[sel].sum()),
            "sum_base_price": int(price[sel].sum()),
            "sum_disc_price": int(disc_price.sum()),
            "sum_charge": int((disc_price * (100 + tax[sel])).sum()),
            "count": int(sel.sum()),
        }
    return out


# ---------------------------------------------------------------------------
# Q3 — shipping priority (two hash joins + grouped aggregation + top-k)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Q3Row:
    orderkey: int
    revenue: int
    orderdate: int
    shippriority: int


def q3(catalog: Catalog, *, segment: str = "BUILDING",
       date: str = "1995-03-15", limit: int = 10) -> list[Q3Row]:
    """TPC-H Q3: unshipped-order revenue, top-*limit* by revenue."""
    cutoff = date_to_int(date)
    cust = catalog.table("customer")
    orders = catalog.table("orders")
    li = catalog.table("lineitem")

    seg_code = _dict_code(catalog, "customer.c_mktsegment", segment)
    building = cust.column("c_custkey").values[
        cust.column("c_mktsegment").values == seg_code
    ]

    o_mask = (orders.column("o_orderdate").values < cutoff) & np.isin(
        orders.column("o_custkey").values, building
    )
    o_key = orders.column("o_orderkey").values[o_mask]
    o_date = orders.column("o_orderdate").values[o_mask]
    o_prio = orders.column("o_shippriority").values[o_mask]
    date_of = dict(zip(o_key.tolist(), o_date.tolist()))
    prio_of = dict(zip(o_key.tolist(), o_prio.tolist()))

    l_mask = (li.column("l_shipdate").values > cutoff) & np.isin(
        li.column("l_orderkey").values, o_key
    )
    l_key = li.column("l_orderkey").values[l_mask]
    revenue = (
        li.column("l_extendedprice").values[l_mask].astype(np.int64)
        * (100 - li.column("l_discount").values[l_mask].astype(np.int64))
    )

    keys, inverse = np.unique(l_key, return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, inverse, revenue)

    rows = [
        Q3Row(int(k), int(s), int(date_of[int(k)]), int(prio_of[int(k)]))
        for k, s in zip(keys, sums)
    ]
    rows.sort(key=lambda r: (-r.revenue, r.orderdate, r.orderkey))
    return rows[:limit]


# ---------------------------------------------------------------------------
# Q4 — order priority checking (semi-join + grouped count)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Q4Row:
    orderpriority: str
    order_count: int


def q4(catalog: Catalog, *, date: str = "1993-07-01") -> list[Q4Row]:
    """TPC-H Q4: count late orders per priority in one quarter."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 3))
    orders = catalog.table("orders")
    li = catalog.table("lineitem")

    late = li.column("l_commitdate").values < li.column("l_receiptdate").values
    late_orders = np.unique(li.column("l_orderkey").values[late])

    odate = orders.column("o_orderdate").values
    o_mask = (odate >= start) & (odate < end) & np.isin(
        orders.column("o_orderkey").values, late_orders
    )
    prio = orders.column("o_orderpriority")
    assert isinstance(prio, DictionaryColumn)
    codes = prio.values[o_mask]
    out = []
    for code in np.unique(codes):
        out.append(Q4Row(prio.dictionary[int(code)], int((codes == code).sum())))
    out.sort(key=lambda r: r.orderpriority)
    return out


def _add_months(date: str, months: int) -> str:
    year, month, day = map(int, date.split("-"))
    month += months
    year += (month - 1) // 12
    month = (month - 1) % 12 + 1
    return f"{year:04d}-{month:02d}-{day:02d}"


# ---------------------------------------------------------------------------
# Q5 — local supplier volume (five-way join + grouped revenue)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Q5Row:
    nation: str
    revenue: int


def q5(catalog: Catalog, *, region: str = "ASIA",
       date: str = "1994-01-01") -> list[Q5Row]:
    """TPC-H Q5: revenue per nation where customer and supplier share the
    nation, orders in one year, suppliers/customers in *region*.

    Returns rows sorted by revenue descending (the query's ORDER BY).
    """
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 12))

    nation = catalog.table("nation")
    region_col = catalog.column("region.r_name")
    assert isinstance(region_col, DictionaryColumn)
    region_key = int(
        catalog.column("region.r_regionkey").values[
            region_col.values == region_col.code_for(region)
        ][0]
    )
    nation_names = catalog.column("nation.n_name")
    assert isinstance(nation_names, DictionaryColumn)
    asian_nations = nation.column("n_nationkey").values[
        nation.column("n_regionkey").values == region_key
    ]

    cust = catalog.table("customer")
    cust_nation = dict(zip(cust.column("c_custkey").values.tolist(),
                           cust.column("c_nationkey").values.tolist()))
    orders = catalog.table("orders")
    odate = orders.column("o_orderdate").values
    o_mask = (odate >= start) & (odate < end)
    order_nation = {}
    for okey, ckey in zip(orders.column("o_orderkey").values[o_mask].tolist(),
                          orders.column("o_custkey").values[o_mask].tolist()):
        ck_nation = cust_nation[ckey]
        if ck_nation in set(asian_nations.tolist()):
            order_nation[okey] = ck_nation

    supp = catalog.table("supplier")
    supp_nation = dict(zip(supp.column("s_suppkey").values.tolist(),
                           supp.column("s_nationkey").values.tolist()))

    li = catalog.table("lineitem")
    revenue_by_nation: dict[int, int] = {}
    keys = li.column("l_orderkey").values
    skeys = li.column("l_suppkey").values
    price = li.column("l_extendedprice").values.astype(np.int64)
    disc = li.column("l_discount").values.astype(np.int64)
    for i in range(len(li)):
        okey = int(keys[i])
        if okey not in order_nation:
            continue
        nation_key = order_nation[okey]
        if supp_nation.get(int(skeys[i])) != nation_key:
            continue
        revenue_by_nation[nation_key] = (
            revenue_by_nation.get(nation_key, 0)
            + int(price[i]) * (100 - int(disc[i]))
        )
    rows = [
        Q5Row(nation_names.dictionary[
            int(nation.column("n_name").values[
                nation.column("n_nationkey").values == key][0])],
            revenue)
        for key, revenue in revenue_by_nation.items()
    ]
    rows.sort(key=lambda r: (-r.revenue, r.nation))
    return rows


# ---------------------------------------------------------------------------
# Q10 — returned item reporting (revenue per customer, top-k)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Q10Row:
    custkey: int
    revenue: int
    acctbal: int
    nation: str


def q10(catalog: Catalog, *, date: str = "1993-10-01",
        limit: int = 20) -> list[Q10Row]:
    """TPC-H Q10: lost revenue per customer from returned items in one
    quarter, top-*limit* by revenue."""
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 3))
    orders = catalog.table("orders")
    odate = orders.column("o_orderdate").values
    o_mask = (odate >= start) & (odate < end)
    cust_of = dict(zip(orders.column("o_orderkey").values[o_mask].tolist(),
                       orders.column("o_custkey").values[o_mask].tolist()))

    li = catalog.table("lineitem")
    returnflag = li.column("l_returnflag")
    assert isinstance(returnflag, DictionaryColumn)
    returned = returnflag.values == returnflag.code_for("R")
    keys = li.column("l_orderkey").values[returned]
    price = li.column("l_extendedprice").values[returned].astype(np.int64)
    disc = li.column("l_discount").values[returned].astype(np.int64)

    revenue_by_customer: dict[int, int] = {}
    for key, p, d in zip(keys.tolist(), price.tolist(), disc.tolist()):
        customer = cust_of.get(key)
        if customer is None:
            continue
        revenue_by_customer[customer] = (
            revenue_by_customer.get(customer, 0) + p * (100 - d))

    cust = catalog.table("customer")
    acctbal_of = dict(zip(cust.column("c_custkey").values.tolist(),
                          cust.column("c_acctbal").values.tolist()))
    nationkey_of = dict(zip(cust.column("c_custkey").values.tolist(),
                            cust.column("c_nationkey").values.tolist()))
    nation = catalog.table("nation")
    names = catalog.column("nation.n_name")
    assert isinstance(names, DictionaryColumn)
    name_of = {
        int(k): names.dictionary[int(code)]
        for k, code in zip(nation.column("n_nationkey").values,
                           names.values)
    }
    rows = [
        Q10Row(custkey=int(c), revenue=int(r),
               acctbal=int(acctbal_of[c]),
               nation=name_of[int(nationkey_of[c])])
        for c, r in revenue_by_customer.items()
    ]
    rows.sort(key=lambda r: (-r.revenue, r.custkey))
    return rows[:limit]


# ---------------------------------------------------------------------------
# Q12 — shipping modes and order priority (join + conditional counts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Q12Row:
    shipmode: str
    high_line_count: int
    low_line_count: int


def q12(catalog: Catalog, *, modes: tuple[str, str] = ("MAIL", "SHIP"),
        date: str = "1994-01-01") -> list[Q12Row]:
    """TPC-H Q12: late lines per ship mode, split by order priority class."""
    li = catalog.table("lineitem")
    orders = catalog.table("orders")
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 12))

    shipmode = li.column("l_shipmode")
    assert isinstance(shipmode, DictionaryColumn)
    mode_codes = [shipmode.code_for(m) for m in modes]

    receipt = li.column("l_receiptdate").values
    mask = (
        np.isin(shipmode.values, mode_codes)
        & (li.column("l_commitdate").values < receipt)
        & (li.column("l_shipdate").values < li.column("l_commitdate").values)
        & (receipt >= start) & (receipt < end)
    )

    prio = orders.column("o_orderpriority")
    assert isinstance(prio, DictionaryColumn)
    high_codes = {prio.dictionary.index(p)
                  for p in ("1-URGENT", "2-HIGH") if p in prio.dictionary}
    prio_of = dict(zip(orders.column("o_orderkey").values.tolist(),
                       prio.values.tolist()))

    counts: dict[int, list[int]] = {}
    keys = li.column("l_orderkey").values[mask]
    codes = shipmode.values[mask]
    for key, code in zip(keys.tolist(), codes.tolist()):
        bucket = counts.setdefault(code, [0, 0])
        if prio_of[key] in high_codes:
            bucket[0] += 1
        else:
            bucket[1] += 1
    rows = [
        Q12Row(shipmode.dictionary[code], high, low)
        for code, (high, low) in counts.items()
    ]
    rows.sort(key=lambda r: r.shipmode)
    return rows


# ---------------------------------------------------------------------------
# Q14 — promotion effect (join + conditional revenue share)
# ---------------------------------------------------------------------------


def q14(catalog: Catalog, *, date: str = "1995-09-01") -> float:
    """TPC-H Q14: percentage of revenue from PROMO parts in one month.

    Returns ``100 * promo_revenue / total_revenue`` (0.0 on an empty
    month); revenue is ``extendedprice * (100 - discount)`` in the repo's
    integer encoding.
    """
    li = catalog.table("lineitem")
    part = catalog.table("part")
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 1))
    ship = li.column("l_shipdate").values
    mask = (ship >= start) & (ship < end)

    ptype = part.column("p_type")
    assert isinstance(ptype, DictionaryColumn)
    promo_parts = set(
        part.column("p_partkey").values[
            np.fromiter((t.startswith("PROMO") for t in ptype.decode()),
                        dtype=bool, count=len(part))
        ].tolist()
    )
    partkeys = li.column("l_partkey").values[mask]
    # Inner join with part: only lines whose part exists contribute.
    exists = np.isin(partkeys,
                     part.column("p_partkey").values)
    revenue = (
        li.column("l_extendedprice").values[mask].astype(np.int64)
        * (100 - li.column("l_discount").values[mask].astype(np.int64))
    )[exists]
    joined_parts = partkeys[exists]
    total = int(revenue.sum())
    if total == 0:
        return 0.0
    promo_mask = np.fromiter((int(k) in promo_parts for k in joined_parts),
                             dtype=bool, count=len(joined_parts))
    promo = int(revenue[promo_mask].sum())
    return 100.0 * promo / total


# ---------------------------------------------------------------------------
# Q19 — discounted revenue (disjunction of conjunctive clauses)
# ---------------------------------------------------------------------------

#: The three clauses of Q19, adapted to the generated dictionaries:
#: (brand, container prefix, quantity lo, quantity hi, size hi).
Q19_CLAUSES = (
    ("Brand#12", "SM", 1, 11, 5),
    ("Brand#23", "MED", 10, 20, 10),
    ("Brand#34", "LG", 20, 30, 15),
)


def q19(catalog: Catalog) -> int:
    """TPC-H Q19: revenue from lineitems whose part matches any of three
    (brand, container class, quantity band, size band) clauses.

    Ship-mode and instruction predicates of the official query are
    constant-true under the generated dictionaries and omitted.  Returns
    revenue in the repo's integer encoding.
    """
    li = catalog.table("lineitem")
    part = catalog.table("part")
    brand = part.column("p_brand")
    container = part.column("p_container")
    assert isinstance(brand, DictionaryColumn)
    assert isinstance(container, DictionaryColumn)

    partkey_of = part.column("p_partkey").values
    size = part.column("p_size").values
    brand_codes = brand.values
    container_names = np.array(container.dictionary)[container.values]

    part_clause_masks = []
    for brand_name, prefix, _, _, size_hi in Q19_CLAUSES:
        mask = (
            (brand_codes == brand.code_for(brand_name))
            & np.char.startswith(container_names.astype(str), prefix)
            & (size >= 1) & (size <= size_hi)
        )
        part_clause_masks.append(mask)

    # part key -> clause bitset
    clause_of: dict[int, int] = {}
    for index, mask in enumerate(part_clause_masks):
        for key in partkey_of[mask].tolist():
            clause_of[key] = clause_of.get(key, 0) | (1 << index)

    qty = li.column("l_quantity").values
    keys = li.column("l_partkey").values
    price = li.column("l_extendedprice").values.astype(np.int64)
    disc = li.column("l_discount").values.astype(np.int64)
    revenue = 0
    for i in range(len(li)):
        bits = clause_of.get(int(keys[i]))
        if not bits:
            continue
        for index, (_, _, lo, hi, _) in enumerate(Q19_CLAUSES):
            if bits & (1 << index) and lo <= qty[i] <= hi:
                revenue += int(price[i]) * (100 - int(disc[i]))
                break
    return revenue


# ---------------------------------------------------------------------------
# Q18 — large volume customers (HAVING over a grouped aggregate)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Q18Row:
    custkey: int
    orderkey: int
    orderdate: int
    totalprice: int
    sum_qty: int


def q18(catalog: Catalog, *, quantity: int = 300,
        limit: int = 100) -> list[Q18Row]:
    """TPC-H Q18: orders whose total quantity exceeds *quantity*.

    The generated schema has no ``c_name``; rows carry the customer key
    instead (the join to customer is still exercised through
    ``o_custkey``).  Sorted by total price descending, then order date.
    """
    li = catalog.table("lineitem")
    keys, inverse = np.unique(li.column("l_orderkey").values,
                              return_inverse=True)
    sums = np.zeros(len(keys), dtype=np.int64)
    np.add.at(sums, inverse, li.column("l_quantity").values.astype(np.int64))
    big = keys[sums > quantity]
    qty_of = dict(zip(keys.tolist(), sums.tolist()))

    orders = catalog.table("orders")
    mask = np.isin(orders.column("o_orderkey").values, big)
    rows = [
        Q18Row(
            custkey=int(ckey), orderkey=int(okey), orderdate=int(odate),
            totalprice=int(price), sum_qty=int(qty_of[int(okey)]),
        )
        for okey, ckey, odate, price in zip(
            orders.column("o_orderkey").values[mask],
            orders.column("o_custkey").values[mask],
            orders.column("o_orderdate").values[mask],
            orders.column("o_totalprice").values[mask],
        )
    ]
    rows.sort(key=lambda r: (-r.totalprice, r.orderdate, r.orderkey))
    return rows[:limit]


# ---------------------------------------------------------------------------
# Q6 — forecasting revenue change (selective scan + reduction)
# ---------------------------------------------------------------------------


def q6(catalog: Catalog, *, date: str = "1994-01-01",
       discount: int = 6, quantity: int = 24) -> int:
    """TPC-H Q6: revenue from discounted small-quantity lines in one year.

    ``discount`` is the central discount in hundredths; the predicate is
    ``discount-1 <= l_discount <= discount+1`` per the specification.
    Returns revenue in units of 10^-2 cents.
    """
    li = catalog.table("lineitem")
    start = date_to_int(date)
    end = date_to_int(_add_months(date, 12))
    ship = li.column("l_shipdate").values
    disc = li.column("l_discount").values
    qty = li.column("l_quantity").values
    mask = (
        (ship >= start) & (ship < end)
        & (disc >= discount - 1) & (disc <= discount + 1)
        & (qty < quantity)
    )
    price = li.column("l_extendedprice").values[mask].astype(np.int64)
    return int((price * disc[mask].astype(np.int64)).sum())
