"""Primitive-graph plans for TPC-H queries.

Q1/Q3/Q4/Q6 are the paper's evaluated queries; Q5, Q10, Q12, Q14, Q18
and Q19 extend the workload (five-way joins, IN-lists, payload gathers,
HAVING, conditional aggregation), and ``q1_sorted`` is the
SORT_AGG-based alternative plan.  Every module declares its plan once,
as a logical plan (``PLAN``, :mod:`repro.planner.logical`), and
``template()`` is :func:`~repro.planner.translate.translate` of it,
translated once and read-only: the plan's structure without its
literals, with the node ids ``build`` binds them by.  Every module
exposes ``build(catalog, **params) -> PrimitiveGraph`` and
``finalize(result, catalog)`` returning the same shape as the oracle of
the same name in :mod:`repro.tpch.reference`.  Only some builders read
the catalog (to translate literals into dictionary codes); the others
take it too and default it to None, so callers need not know which.
``build`` binds its literals into ``template()``, so every call returns
a fresh graph that shares only what structure alone decides
(:meth:`~repro.core.graph.PrimitiveGraph.bind`).
"""

from repro.tpch.queries import (q1, q1_sorted, q3, q4, q5, q6, q10,
                                q12, q14, q18, q19)

__all__ = ["QUERIES", "q1", "q1_sorted", "q3", "q4", "q5", "q6", "q10",
           "q12", "q14", "q18", "q19"]

#: The TPC-H queries by name.  ``QUERIES[name].build(catalog)`` is the
#: plan and ``getattr(repro.tpch.reference, name)(catalog)`` its oracle.
QUERIES = {"q1": q1, "q3": q3, "q4": q4, "q5": q5, "q6": q6,
           "q10": q10, "q12": q12, "q14": q14, "q18": q18, "q19": q19}
