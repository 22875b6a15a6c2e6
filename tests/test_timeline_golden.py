"""Every virtual timeline of a compact run matrix, pinned bit for bit.

``tests/golden/timelines.json`` holds one digest per cell — every model
x 1-3 devices x static/adaptive x fused/unfused on Q1, Q3 and Q6, five
engine runs (warm subplan cache, transient faults, a failover, an OOM
restart, two concurrent queries over two rounds) and two served runs
preempted at a chunk boundary (``tools/timeline_digest.py``).  The
first digest covers every event's stream, label, start and end (as
float hex) and the output bytes, so a change to the chunk loop that
reorders two allocations or moves one transfer by an ulp fails here,
with the cell named; the second covers the metrics registry the run
leaves behind, so a series that is booked twice, dropped, or summed in
another order fails here too.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "timeline_digest.py"
GOLDEN = ROOT / "tests" / "golden" / "timelines.json"


def load_tool():
    spec = importlib.util.spec_from_file_location("timeline_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_timelines_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())["cells"]
    got = load_tool().digest_matrix()
    assert list(got) == list(golden)
    differing = [cell for cell in got if got[cell] != golden[cell]]
    assert not differing, (
        f"{len(differing)} of {len(got)} timelines moved, first "
        f"{differing[0]}: [sha256, events, makespan, metrics sha256] "
        f"{got[differing[0]]} "
        f"!= golden {golden[differing[0]]}.  To see the first differing "
        "event or metric series, write this tree's digests and a clean "
        "checkout's with `python3 tools/timeline_digest.py --out FILE` "
        "and pass both files to `--diff`; regenerate the golden only "
        "for a change that means to move virtual time or a series.")


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
