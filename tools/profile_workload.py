#!/usr/bin/env python
"""Profile one pass of a ``perf/`` benchmark workload.

::

    python3 tools/profile_workload.py kernel_large_scan [--seed N] [--smoke]

Sets the workload up exactly as the benchmark does, runs one warm-up
pass (lazy imports, first-use registrations), then runs every item's
timed call once more under ``cProfile`` and prints the 25 functions with
the most *self* time.  ``cProfile`` taxes every Python call but no
native code, so the proportions lean towards call-heavy code: use this
to find candidates, then measure with ``perf/run.py``, which times with
profiling off.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

TOP = 25


def observed_pass(description: str, argv, observer):
    """One pass of the workload the command line names, as the benchmark
    runs it: set-up, a warm-up pass, then every item's timed call once
    more inside ``with observer:`` -- graph building before the call and
    the oracle check after it are not observed, as they are not timed.
    Returns the parsed arguments and the oracle failures."""
    from perf.harness import run_pass
    from perf.workloads import WORKLOADS, make_workload

    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's reduced items (seconds)")
    args = parser.parse_args(argv)

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
    return args, failures


def main(argv=None) -> int:
    profile = cProfile.Profile()
    _, failures = observed_pass(__doc__.split("\n")[0], argv, profile)
    pstats.Stats(profile).sort_stats("tottime").print_stats(TOP)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
