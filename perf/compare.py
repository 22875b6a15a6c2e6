"""Compare two full runs: ``python3 perf/compare.py A.json B.json``.

*A* is the baseline (the parent commit, or the first of two runs of the
same code), *B* the candidate; both are ``perf/results/latest.json``
files.  One row per (workload, end-to-end metric) with both sides'
median, quartiles and n over their rounds, and a verdict that applies the
metric's direction and bound from ``BENCHMARK.json``:

* ``worse`` / ``better`` -- B's median differs from A's by more than
  the bound and by more than either side's between-round spread;
* ``same`` -- it does not, and both spreads are within the bound;
* ``unresolved`` -- it does not, but a spread exceeds the bound, so a
  change of the bound's size could hide in the noise.

``failed_frac`` may not increase at all.  When both runs used the same
seed, every deterministic fact (virtual seconds, counts) must be
bit-identical; the first difference is printed.  Exits 1 on any
``worse`` or any difference between facts that should be identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perf.stats import (  # noqa: E402 - needs the path set above
    first_fact_difference,
    median,
    quartiles,
    relative_range,
)

__all__ = ["compare", "verdict"]


def verdict(a: list[float], b: list[float], *, better: str,
            bound: float) -> str:
    """Verdict for one metric from both sides' per-round values."""
    a_mid, b_mid = median(a), median(b)
    if a_mid == b_mid:
        return "same"
    # Positive when B is worse, as a share of A.
    change = (b_mid - a_mid) / abs(a_mid) if a_mid else float("inf")
    if better == "higher":
        change = -change
    noise = max(relative_range(a), relative_range(b))
    if abs(change) > max(bound, noise):
        return "worse" if change > 0 else "better"
    return "unresolved" if noise > bound else "same"


def compare(a: dict, b: dict, benchmark: dict) -> tuple[list[dict], list[str]]:
    """Rows (one per workload and metric) and identity problems."""
    rows, problems = [], []
    same_seed = a["environment"]["seed"] == b["environment"]["seed"]
    for name in a["workloads"]:
        if name not in b["workloads"]:
            problems.append(f"{name}: missing from B")
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            a_rounds = left["end_to_end"][key]["rounds"]
            b_rounds = right["end_to_end"][key]["rounds"]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "a": a_rounds, "b": b_rounds,
                "verdict": verdict(a_rounds, b_rounds,
                                   better=metric["better"],
                                   bound=metric["bound"]),
            })
        a_failed = left["failed"] / left["attempted"]
        b_failed = right["failed"] / right["attempted"]
        rows.append({
            "workload": name, "metric": "failed_frac", "unit": "ratio",
            "a": [a_failed], "b": [b_failed],
            "verdict": ("worse" if b_failed > a_failed else
                        "better" if b_failed < a_failed else "same"),
        })
        if same_seed:
            if left["schedule_digest"] != right["schedule_digest"]:
                problems.append(f"{name}: schedule digests differ at the "
                                "same seed")
            difference = first_fact_difference(left["facts"],
                                               right["facts"])
            if difference is not None:
                problems.append(f"{name}: {difference}")
    return rows, problems


def _summary(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{median(values):.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, problems = compare(a, b, benchmark)
    print(f"{'workload':<22}{'metric':<24}{'verdict':<12}"
          f"A median [q1, q3] n  ->  B median [q1, q3] n")
    for row in rows:
        print(f"{row['workload']:<22}{row['metric']:<24}"
              f"{row['verdict']:<12}{_summary(row['a'])}  ->  "
              f"{_summary(row['b'])}  {row['unit']}")
    if a["environment"]["seed"] == b["environment"]["seed"]:
        print("deterministic facts (virtual seconds, counts): "
              + ("bit-identical" if not problems else "DIFFER"))
    else:
        print("different seeds: deterministic facts not compared")
    for problem in problems:
        print(f"  {problem}")
    bad = problems or any(row["verdict"] == "worse" for row in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
