#!/usr/bin/env python
"""Profile one pass of a ``perf/`` benchmark workload.

::

    python3 tools/profile_workload.py kernel_large_scan [--seed N] [--smoke]
        [--cumulative | --share FN [FN ...]]

Sets the workload up exactly as the benchmark does, runs one warm-up
pass (lazy imports, first-use registrations), then runs every item's
timed call once more under ``cProfile`` and prints the 25 functions with
the most *self* time (``--cumulative``: the most time including their
callees).  ``cProfile`` taxes every Python call but no native code, so
the proportions lean towards call-heavy code: use this to find
candidates, then size them with ``--share``, which runs the pass with
profiling off and only a ``perf_counter`` wrapper around each named
function (a dotted path: ``repro.core.fingerprint.subplan_fingerprint``,
``repro.core.graph.PrimitiveGraph.validate``) and prints each one's
calls, seconds and share of the pass -- and measure the change itself
with ``perf/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

TOP = 25


def pass_arguments(description: str, argv, *, options=None):
    """The command line every pass-observing tool shares (workload, seed,
    smoke), parsed; *options* adds the tool's own arguments first."""
    from perf.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's reduced items (seconds)")
    if options is not None:
        options(parser)
    return parser.parse_args(argv)


def observed_pass(args, observer) -> list[str]:
    """One pass of the workload *args* names, as the benchmark runs it:
    set-up, a warm-up pass, then every item's timed call once more
    inside ``with observer:`` -- graph building before the call and the
    oracle check after it are not observed, as they are not timed.
    Returns the oracle failures."""
    from perf.harness import run_pass
    from perf.workloads import make_workload

    workload = make_workload(args.workload, args.seed, smoke=args.smoke)
    workload.setup()
    run_pass(workload)
    failures = []
    for item in workload.items:
        state = workload.prepare(item)
        with observer:
            result = workload.call(item, state)
        failures += workload.verify(item, state, result)[1]
    for failure in failures:
        print(failure, file=sys.stderr)
    return failures


def _holders(name: str) -> list[tuple[object, str]]:
    """Every ``(holder, attribute)`` bound to the function the dotted
    path *name* names: the class a method is defined on, or each loaded
    ``repro`` module holding a module-level function (``from module
    import fn`` included, by identity)."""
    parts = name.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        *path, attr = parts[cut:]
        try:
            for step in path:
                owner = getattr(owner, step)
            function = getattr(owner, attr)
        except AttributeError as error:
            raise SystemExit(f"--share {name}: {error}") from None
        if isinstance(owner, type):
            return [(owner, attr)]
        return [(module, attr)
                for module_name, module in sorted(sys.modules.items())
                if module_name.split(".")[0] == "repro"
                and getattr(module, attr, None) is function]
    raise SystemExit(f"--share: cannot import any module of {name!r}")


class ShareTimer:
    """While entered, a ``perf_counter`` wrapper around each named
    function tallies its calls and inclusive seconds (a recursive call
    counts once, at its outermost frame); ``pass_s`` is the time
    entered."""

    def __init__(self, names: list[str]) -> None:
        for name in names:
            _holders(name)  # a mistyped path fails before the set-up
        self.pass_s = 0.0
        #: name -> [calls, seconds, frames open].
        self.tally = {name: [0, 0.0, 0] for name in names}
        self._replaced: list[tuple[object, str, object]] = []

    def _timed(self, slot: list, function):
        def wrapper(*args, **kwargs):
            slot[2] += 1
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                slot[2] -= 1
                if not slot[2]:
                    slot[0] += 1
                    slot[1] += time.perf_counter() - started
        return wrapper

    def __enter__(self) -> "ShareTimer":
        for name, slot in self.tally.items():
            for holder, attr in _holders(name):
                original = vars(holder)[attr]
                self._replaced.append((holder, attr, original))
                if isinstance(original, (staticmethod, classmethod)):
                    # Re-wrap in the descriptor found: a plain function
                    # in its place would bind ``self``.
                    timed = type(original)(
                        self._timed(slot, original.__func__))
                else:
                    timed = self._timed(slot, original)
                setattr(holder, attr, timed)
        self._entered = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.pass_s += time.perf_counter() - self._entered
        while self._replaced:
            holder, attr, original = self._replaced.pop()
            setattr(holder, attr, original)

    def report(self) -> str:
        lines = [f"one pass, profiling off: {self.pass_s:.4f} s",
                 f"{'calls':>8} {'seconds':>9} {'share':>7}  function"]
        for name, (calls, seconds, _) in sorted(
                self.tally.items(), key=lambda item: -item[1][1]):
            lines.append(f"{calls:>8} {seconds:>9.4f} "
                         f"{seconds / self.pass_s:>6.1%}  {name}")
        return "\n".join(lines)


def _options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--cumulative", action="store_true",
                       help="sort by time including callees")
    group.add_argument("--share", nargs="+", metavar="FN",
                       help="no profiler: time only these functions "
                            "(dotted paths) and print their share")


def main(argv=None) -> int:
    args = pass_arguments(__doc__.split("\n")[0], argv, options=_options)
    if args.share:
        timer = ShareTimer(args.share)
        failures = observed_pass(args, timer)
        print(timer.report())
    else:
        profile = cProfile.Profile()
        failures = observed_pass(args, profile)
        pstats.Stats(profile).sort_stats(
            "cumulative" if args.cumulative else "tottime").print_stats(TOP)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
