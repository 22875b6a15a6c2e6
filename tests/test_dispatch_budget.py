"""A deterministic budget for the per-invocation harness path.

``perf/`` measures host seconds, which a shared CI machine cannot gate
on.  This test gates on a *count* instead: the Python function calls one
primitive invocation costs on the chunk loop (chunk loop -> execute_node
-> device interface -> clock + metrics).  The count is the same on every
run of one interpreter, and it fails the day someone puts a per-chunk
scan, lookup or validation back into the loop.
"""

import cProfile
import pstats

from repro.tpch.queries import q3
from tests.conftest import make_executor

#: Python calls per primitive invocation, Q3 ``chunked`` unfused at
#: SF 0.01 with 1024-row chunks (76 chunks, 805 invocations).  Measured
#: 151 on CPython 3.11 / numpy 2 when the hot path was indexed (286
#: before); the ceiling leaves ~10 % for interpreter and numpy drift.
CALLS_PER_INVOCATION_CEILING = 167

CHUNK_ROWS = 1024


def profiled_q3(catalog, chunk_rows):
    executor = make_executor(name="gpu0")
    # Warm-up: lazy imports and first-use registrations are not the loop.
    executor.run(q3.build(catalog), catalog, model="chunked",
                 chunk_size=chunk_rows)
    graph = q3.build(catalog)
    profile = cProfile.Profile()
    profile.enable()
    result = executor.run(graph, catalog, model="chunked",
                          chunk_size=chunk_rows)
    profile.disable()
    return graph, result.stats, pstats.Stats(profile)


def is_scan_calls_from_graph_queries(stats: pstats.Stats) -> int:
    """``DataEdge.is_scan`` evaluations made by graph.py / pipelines.py
    code — what a scanning ``in_edges`` / ``out_edges`` multiplies."""
    total = 0
    for (_, _, name), (_, _, _, _, callers) in stats.stats.items():
        if name != "is_scan":
            continue
        for (filename, _, _), (calls, *_) in callers.items():
            if filename.endswith(("core/graph.py", "core/pipelines.py")):
                total += calls
    return total


def test_calls_per_invocation_within_budget(small_catalog):
    _, stats, profile = profiled_q3(small_catalog, CHUNK_ROWS)
    assert stats.chunks_processed > 50
    per_invocation = profile.total_calls / stats.kernel_invocations
    assert per_invocation <= CALLS_PER_INVOCATION_CEILING, (
        f"{per_invocation:.1f} Python calls per primitive invocation "
        f"(ceiling {CALLS_PER_INVOCATION_CEILING}): something "
        "chunk-invariant is being recomputed inside the chunk loop")


def test_graph_queries_do_not_scan_per_invocation(small_catalog):
    graph, few, profile_few = profiled_q3(small_catalog, 4 * CHUNK_ROWS)
    _, many, profile_many = profiled_q3(small_catalog, CHUNK_ROWS)
    assert many.kernel_invocations > 3 * few.kernel_invocations
    scans_few = is_scan_calls_from_graph_queries(profile_few)
    scans_many = is_scan_calls_from_graph_queries(profile_many)
    # Index build, validation and the pipeline split each pass over the
    # edges a fixed number of times per run (5 today) — however many
    # chunks the run then streams.
    assert 0 < scans_many <= 8 * len(graph.edges)
    assert scans_many == scans_few
