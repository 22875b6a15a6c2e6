"""Every virtual timeline of a compact run matrix, pinned bit for bit.

``tests/golden/timelines.json`` holds one digest per cell — every model
x 1-3 devices x static/adaptive x fused/unfused on Q1, Q3 and Q6, an
engine run served from a warm subplan cache and two served runs
preempted at a chunk boundary (``tools/timeline_digest.py``).  The
digest covers every event's stream, label, start and end (as float hex)
and the output bytes, so a change to the chunk loop that reorders two
allocations or moves one transfer by an ulp fails here, with the cell
named.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "timelines.json"


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "timeline_digest", ROOT / "tools" / "timeline_digest.py")
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
        f"{differing[0]}: [sha256, events, makespan] {got[differing[0]]} "
        f"!= golden {golden[differing[0]]}.  To see the first differing "
        "event, write this tree's digests and a clean checkout's with "
        "`python3 tools/timeline_digest.py --out FILE` and pass both "
        "files to `--diff`; regenerate the golden only for a change "
        "that means to move virtual time.")
