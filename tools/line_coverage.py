#!/usr/bin/env python
"""Which lines of ``src/repro`` a test run reaches: a stdlib line tracer.

::

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

Runs pytest in this process (tier-1, ``-x -q``, when no argument is
given) under a ``sys.settrace`` hook that records every line executed in
a file under ``src/repro``.  Then it prints, per module, the lines
reached of its executable ones (the line numbers of its compiled code
objects) and the ranges left unreached, and last the total.  Code run in
a subprocess is not seen.  It is the offline stand-in for ``pytest
--cov``; tracing makes the run about three times slower.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from *path* (not
    the line 0 a module's code opens on)."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    return lines


def record(run: Callable[[], object], tree: Path
           ) -> tuple[dict[str, set[int]], object]:
    """(absolute file path -> lines executed, for every file under
    *tree*; what *run* returned) of one call of *run*."""
    prefix = str(tree.resolve()) + os.sep
    reached: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.abspath(name).startswith(prefix)
        if not inside[name]:
            return None
        lines = reached[os.path.abspath(name)]
        lines.add(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return dict(reached), result


def ranges(lines: set[int]) -> str:
    """``"3-5, 9"`` for ``{3, 4, 5, 9}``."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in spans)


def report(reached: dict[str, set[int]], tree: Path) -> list[str]:
    """One row per module under *tree* (lines reached / executable and
    the unreached ranges), then the total."""
    rows = []
    total_hit = total = 0
    for path in sorted(tree.rglob("*.py")):
        lines = executable_lines(path)
        hit = reached.get(str(path.resolve()), set()) & lines
        total_hit += len(hit)
        total += len(lines)
        rows.append(f"{path.relative_to(tree.parent)} "
                    f"{len(hit)}/{len(lines)}  {ranges(lines - hit)}")
    share = 100.0 * total_hit / total if total else 0.0
    rows.append(f"total {total_hit}/{total} lines reached ({share:.1f} %)")
    return rows


def main(argv: list[str] | None = None) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    args = sys.argv[1:] if argv is None else argv
    reached, code = record(lambda: pytest.main(args or ["-x", "-q"]),
                           ROOT / "src" / "repro")
    for row in report(reached, ROOT / "src" / "repro"):
        print(row)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
