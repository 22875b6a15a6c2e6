"""The cell table of ``tools/timeline_digest.py``: every answer checked,
every compact timeline pinned bit for bit.

``tests/golden/timelines.json`` holds one digest per compact cell —
every model x 1-3 devices x static/adaptive x fused/unfused on Q1, Q3
and Q6, five engine runs (warm subplan cache, transient faults, a
failover, an OOM restart, two concurrent queries over two rounds) and
two served runs preempted at a chunk boundary.  The first digest covers
every event's stream, label, start and end (as float hex) and the
output bytes, so a change to the chunk loop that reorders two
allocations or moves one transfer by an ulp fails here, with the cell
named; the second covers the metrics registry the run leaves behind, so
a series that is booked twice, dropped, or summed in another order
fails here too.

Every cell, digested or not, must give the oracle's answer (or the
typed error the table names); the pairs cells are checked, not
digested.  Each cell is its own test, named by the cell.
"""

import functools
import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "timeline_digest.py"
GOLDEN = ROOT / "tests" / "golden" / "timelines.json"


@functools.cache
def load_tool():
    spec = importlib.util.spec_from_file_location("timeline_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def golden() -> dict[str, list]:
    return json.loads(GOLDEN.read_text())["cells"]


@functools.cache
def compact_catalog():
    return load_tool().make_catalog(False)


def test_the_golden_names_every_compact_cell_in_order():
    assert load_tool().cell_names(False) == list(golden())


@pytest.mark.parametrize("cell", load_tool().cell_names(False))
def test_timeline_matches_the_golden_digest(cell):
    got = load_tool().digest_cell(cell, compact_catalog())
    assert got == golden()[cell], (
        f"{cell} moved: [sha256, events, makespan, metrics sha256] {got} "
        f"!= golden {golden()[cell]}.  To see the first differing "
        "event or metric series, write this tree's digests and a clean "
        "checkout's with `python3 tools/timeline_digest.py --out FILE` "
        "and pass both files to `--diff`; regenerate the golden only "
        "for a change that means to move virtual time or a series.")


@pytest.fixture(scope="module")
def pairs_baselines() -> dict:
    """Baseline runs, by cell name, that the pairs cells share."""
    return {}


@pytest.mark.parametrize("cell", load_tool().pairs_cells(False))
def test_pairs_cell_gives_the_oracle_answers(cell, small_catalog,
                                             pairs_baselines):
    load_tool().check_pairs_cell(cell, small_catalog, pairs_baselines)


def test_the_pairs_sample_holds_every_allowed_pair():
    tool = load_tool()
    rows = [cell.split("/")[1:] for cell in tool.pairs_cells(False)]
    for (a, (x_axis, xs)), (b, (y_axis, ys)) in itertools.combinations(
            enumerate(tool.PAIRS.items()), 2):
        seen = {(row[a], row[b]) for row in rows}
        missing = [(x, y) for x in xs for y in ys if (x, y) not in seen
                   and tool.allowed({x_axis: x, y_axis: y})]
        assert not missing, (x_axis, y_axis, missing[:5])


def test_every_subsumed_composition_is_a_scheduled_row():
    """Each (query, model, devices, fuse, mode, setting, door, faults)
    a replaced test or CI loop ran lies in the scheduled axes and may
    run: the scheduled cross starts from these rows."""
    tool = load_tool()
    for row in tool.subsumed_rows():
        values = dict(zip(tool.SCHEDULED, row))
        assert len(row) == len(tool.SCHEDULED) and tool.allowed(values) \
            and all(value in tool.SCHEDULED[axis]
                    for axis, value in values.items()), row


def test_every_pairs_query_has_an_answer_to_check(small_catalog):
    """An empty oracle answer would let a cell drop every row."""
    tool = load_tool()
    for name in tool.SCHEDULED["query"]:
        assert tool.oracle(name, small_catalog,
                           tool.LITERALS.get(name, {})), name


def test_timeline_does_not_depend_on_the_hash_seed():
    """``hardware/clock.py``: "the same schedule of calls always yields
    the same makespan" — also across interpreters, whose string hashes
    (and so the order of any ``set[str]``) differ.  Q1 persists five
    aggregates in one pipeline; homing them in set order permuted their
    allocation events on the fan-out."""
    cell = "q1/split_chunked/gpu+ocl/static/unfused/2048x1"

    def event_list(hash_seed: str) -> str:
        done = subprocess.run(
            [sys.executable, str(TOOL), "--full", "--events", cell],
            env={**os.environ, "PYTHONHASHSEED": hash_seed,
                 "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=120, check=True)
        return done.stdout

    first = event_list("1")
    assert first.count("\n") > 1000
    assert event_list("2") == first
