"""The two-clock benchmark runner.

Full run (prints every metric by name with its unit, verifies every
answer, writes ``perf/results/latest.json``)::

    python3 perf/run.py --seed 11 [--workload NAME] [--trace] [--smoke]

One measured run of one workload, as the benchmark driver starts it (the
last line of standard output is one JSON object)::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Either way each workload runs in fresh subprocesses -- ``ROUNDS`` of
them, each with its own set-up, warm-up pass and share of the timed
passes -- so that a slow spell of the machine lands on a minority of any
item's samples.  The metric names, units, directions and bounds are read
from ``BENCHMARK.json``; see ``perf/README.md`` for what they mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

PROCESS_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perf" / "results"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.stats import (  # noqa: E402 - needs the path set above
    first_fact_difference,
    median,
    percentile,
    relative_range,
    top_percentile,
)

#: Fresh subprocesses per workload and run.
ROUNDS = 3
#: No subprocess of the benchmark may run longer than this.
CHILD_TIMEOUT_S = 150
#: One thread everywhere: numpy's BLAS/OpenMP pools would otherwise
#: compete with the interpreter for the sandbox's two cores.
THREAD_PINNING = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Subprocesses
# ---------------------------------------------------------------------------


def run_subprocess(workload: str, seed: int, seconds: float, *,
                   trace: bool, smoke: bool) -> dict:
    """One fresh subprocess of *workload*; returns its JSON result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    # subprocess.run kills and reaps the child on timeout.
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **THREAD_PINNING},
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload}: subprocess exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def child_main(args) -> int:
    from perf.harness import run_child  # imports numpy and the program
    result = run_child(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        smoke=args.smoke, started=PROCESS_STARTED,
        trace_path=RESULTS / f"trace_{args.workload}.json")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def normalised_samples(child: dict) -> dict[str, list[float]]:
    """Per item, the speed-normalised host seconds of every pass."""
    return {item: [p["host_s"][item] * p["speed"][item]
                   for p in child["passes"]]
            for item in child["items"]}


def raw_samples(child: dict) -> dict[str, list[float]]:
    return {item: [p["host_s"][item] for p in child["passes"]]
            for item in child["items"]}


def per_pass(samples: dict[str, list[float]]) -> float:
    """Sum over items of the per-item median."""
    return sum(median(values) for values in samples.values())


def merge(sample_sets: list[dict[str, list[float]]]) -> dict[str, list]:
    merged: dict[str, list[float]] = {}
    for samples in sample_sets:
        for item, values in samples.items():
            merged.setdefault(item, []).extend(values)
    return merged


def aggregate(name: str, children: list[dict], benchmark: dict) -> dict:
    """End-to-end metrics and checks of one workload over its rounds."""
    first = children[0]
    problems: list[str] = []
    for index, child in enumerate(children):
        problems += [f"round {index + 1} {m}" for m in child["determinism"]]
        if child["schedule_digest"] != first["schedule_digest"]:
            problems.append(f"round {index + 1}: schedule digest differs "
                            "from round 1")
        difference = first_fact_difference(first["facts"], child["facts"])
        if difference is not None:
            problems.append(f"round {index + 1} against round 1: "
                            f"{difference}")
    failures = [m for child in children for m in child["failures"]]
    attempted = sum(child["attempted"] for child in children)

    normalised = merge([normalised_samples(c) for c in children])
    raw = merge([raw_samples(c) for c in children])
    rounds = [{
        "setup_s": child["setup_s"],
        "host_s_per_pass": per_pass(normalised_samples(child)),
        "host_raw_s_per_pass": per_pass(raw_samples(child)),
        "host_peak_rss_mb": child["peak_rss_mb"],
        # Exact: the guard above fails the run if rounds disagree.
        "virt_makespan_s_total": sum(
            facts.get("virt_makespan_s", 0.0)
            for facts in child["facts"].values()),
        "passes": len(child["passes"]),
    } for child in children]
    end_to_end = {}
    for metric in benchmark["end_to_end"]:
        key = metric["name"]
        per_round = [r[key] for r in rounds]
        between = relative_range(per_round)
        end_to_end[key] = {
            # Host time pools the passes of all rounds per item; the
            # other metrics are one number per round.
            "value": (per_pass(normalised) if key == "host_s_per_pass"
                      else median(per_round)),
            "unit": metric["unit"],
            "rounds": per_round, "between_round_spread": between,
            "resolved": between <= metric["bound"],
        }

    items = {}
    for item in first["items"]:
        samples = normalised[item]
        top = top_percentile(len(samples))
        items[item] = {
            "host_ms_p50": median(samples) * 1e3,
            "host_ms_top": (None if top is None else {
                "percentile": top,
                "value": percentile(samples, top) * 1e3}),
            "n": len(samples),
            "virt_makespan_s": first["facts"][item].get("virt_makespan_s"),
        }
    return {
        "workload": name,
        "schedule_digest": first["schedule_digest"],
        "rounds": rounds,
        "end_to_end": end_to_end,
        "host_raw_s_per_pass": per_pass(raw),
        "attempted": attempted,
        "failed": len(failures) + len(problems),
        "failures": failures[:20],
        "determinism": problems[:20],
        "items": items,
        "facts": first["facts"],
    }


def per_layer(traced: dict, result: dict, benchmark: dict) -> dict:
    """Every declared per-layer metric, from one traced subprocess and
    the untraced end-to-end figures of *result* (which come from the
    same subprocess when there were no separate rounds)."""
    from perf.layers import layer_metrics
    values = layer_metrics(
        traced, result["end_to_end"]["host_s_per_pass"]["value"],
        result["host_raw_s_per_pass"])
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in benchmark["per_layer"]}


# ---------------------------------------------------------------------------
# The driver's single run
# ---------------------------------------------------------------------------


def driver_main(args, benchmark: dict) -> int:
    share = args.seconds / ROUNDS
    if args.trace:
        # Per-layer numbers: one subprocess with its share of untraced
        # passes, then the traced pass.
        child = run_subprocess(args.workload, args.seed, share,
                               trace=True, smoke=False)
        result = aggregate(args.workload, [child], benchmark)
        metrics = per_layer(child, result, benchmark)
    else:
        children = [run_subprocess(args.workload, args.seed, share,
                                   trace=False, smoke=False)
                    for _ in range(ROUNDS)]
        result = aggregate(args.workload, children, benchmark)
        metrics = {key: {"value": entry["value"], "unit": entry["unit"]}
                   for key, entry in result["end_to_end"].items()}
    for message in result["failures"] + result["determinism"]:
        print(message, file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# The full run
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args) -> dict:
    import numpy  # only for its version; the parent does no numerics
    return {
        "git_commit": git_commit(),
        "seed": args.seed,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pinning": THREAD_PINNING,
        "load_average_start": os.getloadavg(),
    }


def print_report(result: dict, layers: dict | None, benchmark: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}  (schedule {result['schedule_digest']}, "
          f"{len(result['items'])} items, "
          f"{sum(r['passes'] for r in result['rounds'])} timed passes in "
          f"{len(result['rounds'])} rounds)")
    for metric in benchmark["end_to_end"]:
        entry = result["end_to_end"][metric["name"]]
        note = ("" if entry["resolved"] else
                f"  unresolved: rounds differ by "
                f"{entry['between_round_spread']:.1%} > bound "
                f"{metric['bound']:.0%}")
        print(f"  {metric['name']:<26} {entry['value']:>14.6g} "
              f"{metric['unit']:<6} between-round spread "
              f"{entry['between_round_spread']:.2%}{note}")
    print(f"  {'host_raw_s_per_pass':<26} "
          f"{result['host_raw_s_per_pass']:>14.6g} s      "
          f"(before speed normalisation)")
    print(f"  {'failed_frac':<26} "
          f"{result['failed'] / result['attempted']:>14.6g}        "
          f"({result['failed']} of {result['attempted']} operations)")
    for item, entry in result["items"].items():
        top = entry["host_ms_top"]
        tail = ("" if top is None else
                f"  p{top['percentile']:g} {top['value']:.3f} ms")
        virt = entry["virt_makespan_s"]
        print(f"    {item:<28} host p50 {entry['host_ms_p50']:>9.3f} ms"
              f"{tail}  n={entry['n']}"
              + ("" if virt is None else f"  virt {virt:.9g} s"))
    for key, entry in (layers or {}).items():
        print(f"  {key:<44} {entry['value']:>14.6g} {entry['unit']}")
    for message in result["failures"] + result["determinism"]:
        print(f"  FAILED {message}", file=sys.stderr)


def full_main(args, benchmark: dict) -> int:
    started = time.perf_counter()
    names = ([args.workload] if args.workload
             else [w["name"] for w in benchmark["workloads"]])
    env = environment(args)
    if env["load_average_start"][0] > env["nproc"]:
        print(f"warning: load average {env['load_average_start'][0]:.2f} "
              f"exceeds nproc {env['nproc']}; host times will be noisy",
              file=sys.stderr)
    if args.smoke:
        # One subprocess per workload does it all: warm-up, one timed
        # pass, the traced pass.
        children = {name: [run_subprocess(name, args.seed, 0.0, trace=True,
                                          smoke=True)] for name in names}
        traced = {name: children[name][0] for name in names}
    else:
        share = benchmark["run_seconds"] / ROUNDS
        children = {name: [] for name in names}
        # Round-robin, so that a slow spell is shared by all workloads
        # instead of landing on every round of one.
        for _ in range(ROUNDS):
            for name in names:
                children[name].append(run_subprocess(
                    name, args.seed, share, trace=False, smoke=False))
        traced = {name: run_subprocess(name, args.seed, 0.0, trace=True,
                                       smoke=False)
                  for name in names} if args.trace else {}

    report = {}
    failed = 0
    for name in names:
        result = aggregate(name, children[name], benchmark)
        layers = (per_layer(traced[name], result, benchmark)
                  if traced else None)
        if traced:
            result["per_layer"] = layers
            result["trace_table"] = traced[name]["trace"]["table"]
        print_report(result, layers, benchmark)
        failed += result["failed"]
        report[name] = result

    env["load_average_end"] = os.getloadavg()
    env["rounds"] = len(children[names[0]])
    env["passes"] = {name: [r["passes"] for r in report[name]["rounds"]]
                     for name in names}
    env["wall_s"] = time.perf_counter() - started
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "latest.json").write_text(json.dumps(
        {"environment": env, "workloads": report}, indent=1) + "\n")
    print(f"\nwrote {RESULTS / 'latest.json'} "
          f"({env['wall_s']:.1f} s wall, {failed} failures)")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="measure one workload for this long and print "
                             "one JSON result (the benchmark driver's form)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one round, one pass, reduced item lists")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is missing: {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    benchmark = load_benchmark()
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return driver_main(args, benchmark)
    return full_main(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
