#!/usr/bin/env python
"""Count which side of the density rule the hash kernels take.

::

    python3 tools/kernel_paths.py kernel_large_scan [--seed N] [--smoke]

Runs one pass of a ``perf/`` benchmark workload the way
``tools/profile_workload.py`` does (set-up, warm-up pass, then every
item's timed call once more) with ``HashTable.find_slots`` and
``group_index`` wrapped, and prints per path the calls made and the keys
resolved: probes through the slot directory or ``searchsorted``,
groupings by direct addressing or ``np.unique``.  For the sorting side
it also prints each distinct case as keys over span, which is what the
rule (``repro.primitives.values._direct_span``) compares.  EXPERIMENTS.md's
"Which probes take the directory" and "Which groupings are addressed
directly" tables are this output at seed 11.
"""

from __future__ import annotations

import sys
from collections import Counter

from profile_workload import observed_pass, pass_arguments

#: Distinct sorting-side cases listed in full before the list is cut.
CASES_SHOWN = 6


class PathCounter:
    """Wraps the two functions that choose a path while entered, and
    tallies ``[calls, keys]`` per ``(function, path)``."""

    def __init__(self) -> None:
        #: ``(function, path) -> [calls, keys]``.
        self.tally: dict[tuple[str, str], list[int]] = {}
        #: Sorting-side cases: ``(function, keys, span)`` -> occurrences;
        #: span 0 where the rule was not asked (no integer keys to span).
        self.sorted_cases: Counter = Counter()
        self.replaced: list[tuple[object, str, object]] = []

    def count(self, function: str, path: str, keys: int) -> None:
        slot = self.tally.setdefault((function, path), [0, 0])
        slot[0] += 1
        slot[1] += keys

    def __enter__(self) -> "PathCounter":
        from repro.primitives import values
        from repro.primitives.kernels import hash_ops

        find_slots = values.HashTable.find_slots
        group_index = values.group_index
        direct_span = values._direct_span
        asked: list[tuple[int, int]] = []

        def recording_direct_span(lo, hi, count):
            span = direct_span(lo, hi, count)
            asked.append((hi - lo + 1, span))
            return span

        def counting_find_slots(table, keys):
            result = find_slots(table, keys)
            if not table.num_keys:
                self.count("find_slots", "empty table", len(keys))
            elif len(table._directory) and values._fits_int64(keys.dtype):
                self.count("find_slots", "slot directory", len(keys))
            else:
                self.count("find_slots", "searchsorted", len(keys))
                span = (int(table.keys[-1]) - int(table.keys[0]) + 1
                        if values._fits_int64(table.keys.dtype) else 0)
                self.sorted_cases["find_slots", table.num_keys, span] += 1
            return result

        def counting_group_index(keys):
            asked.clear()
            result = group_index(keys)
            extent, span = asked[-1] if asked else (0, 0)
            if span:
                self.count("group_index", "direct address", len(keys))
            else:
                self.count("group_index", "np.unique", len(keys))
                self.sorted_cases["group_index", len(keys), extent] += 1
            return result

        # group_index is rebound in both modules whose globals name it.
        for holder, attr, wrapper in [
                (values.HashTable, "find_slots", counting_find_slots),
                (values, "_direct_span", recording_direct_span),
                (values, "group_index", counting_group_index),
                (hash_ops, "group_index", counting_group_index)]:
            self.replaced.append((holder, attr, vars(holder)[attr]))
            setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        while self.replaced:
            holder, attr, original = self.replaced.pop()
            setattr(holder, attr, original)

    def report(self) -> str:
        lines = []
        for function in ("find_slots", "group_index"):
            lines.append(function)
            for (name, path), (calls, keys) in sorted(self.tally.items()):
                if name == function:
                    lines.append(f"  {path:<15}{calls:>7,} calls "
                                 f"{keys:>12,} keys")
            cases = sorted((keys, span, times) for (name, keys, span), times
                           in self.sorted_cases.items() if name == function)
            spanned = [(keys, span) for keys, span, _ in cases if span]
            if spanned:
                counts, spans = zip(*spanned)
                ratios = [span / keys for keys, span in spanned]
                lines.append(
                    f"  sorting side, keys over span: {len(spanned)} "
                    f"distinct cases, {min(counts):,}-{max(counts):,} keys "
                    f"over {min(spans):,}-{max(spans):,}, ratios "
                    f"{min(ratios):.1f}-{max(ratios):.1f}")
                step = max(1, len(spanned) // CASES_SHOWN)
                lines += [f"    {keys:,} over {span:,} ({span / keys:.1f})"
                          for keys, span in spanned[::step]]
            unspanned = sum(times for keys, span, times in cases if not span)
            if unspanned:
                lines.append(f"  sorting side, nothing to span (empty or "
                             f"not integer keys): {unspanned:,} calls")
        return "\n".join(lines)


def main(argv=None) -> int:
    counter = PathCounter()
    args = pass_arguments(__doc__.split("\n")[0], argv)
    failures = observed_pass(args, counter)
    print(f"{args.workload}, seed {args.seed}"
          f"{', smoke items' if args.smoke else ''}: one pass")
    print(counter.report())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
