#!/usr/bin/env python
"""Score how many deliberately broken versions of the hot code the tests
notice (a mutation scan, stdlib only).

A *mutant* is one small edit to one function or class named in
:data:`TARGETS`: flip a comparison (``<`` to ``>=``, ``==`` to ``!=``,
``in`` to ``not in``, ...), swap ``+`` and ``-``, shift an integer
constant by one, swap ``and`` and ``or``, drop a statement (it becomes
``pass``) or return early (a bare ``return`` before the first
statement).  Each has a stable id ``module::qualname:operator:ordinal``
— the ordinal counts that operator's sites in the function, in source
order — so a committed id names the same edit until that function's
code changes.

Each worker copies ``src/`` once into its own directory outside the
tree, writes one mutant at a time into its copy and runs the target's
test files against it (``pytest -x``, ``PYTHONPATH`` on the copy, a
fixed ``--hypothesis-seed`` and no Hypothesis example database, so one
mutant always meets the same examples).  The mutant is *killed* when a
test fails, *timed out* when the run outlives the timeout (the whole
process group is killed), and *survives* otherwise.  At most
``os.cpu_count()`` test processes run at once, each with at most
:data:`MEMORY_LIMIT` bytes of address space: a mutant that allocates
without bound fails with ``MemoryError`` (killed) instead of taking the
machine's memory.  Before any mutant, each distinct test set runs once
on the unmutated copy: it must pass, and three times its wall time plus
30 s is the timeout.  A scan stopped with SIGTERM or SIGINT kills every
test run in flight and removes its copies before it exits.

A survivor is a test that is missing, unless :data:`EQUIVALENT` says
why no test can tell it from the original; the run exits 1 on any
other survivor.

Usage::

    python3 tools/mutation_scan.py                # every target
    python3 tools/mutation_scan.py trace pinned   # some targets
    python3 tools/mutation_scan.py --list         # the ids only
    python3 tools/mutation_scan.py --out scan.json --root OTHER_CHECKOUT

``--root`` scans another checkout's ``src/`` with that checkout's tests
(how a deletion is checked: the same ``src/`` under both suites).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Target(NamedTuple):
    #: the module, relative to ``src/``
    module: str
    #: top-level functions or classes, or ``Class.method``
    scopes: tuple[str, ...]
    #: test files (relative to the root) run against every mutant, in
    #: order: the fastest and most direct first, since ``-x`` stops at
    #: the first failure
    tests: tuple[str, ...]


#: Every digest and pairs cell: what the code on the execution path
#: must keep.
GOLDEN = "tests/test_timeline_golden.py"

TARGETS: dict[str, Target] = {
    "trace": Target(
        "repro/hardware/trace.py", ("fold", "_aborted", "_Rows", "Ledger"),
        ("tests/test_clock.py", "tests/test_trace_and_zero_copy.py",
         "tests/test_observe.py", "tests/test_faults.py", GOLDEN)),
    "clock": Target(
        "repro/hardware/clock.py", ("VirtualClock.schedule",),
        ("tests/test_clock.py", "tests/test_trace_and_zero_copy.py",
         "tests/test_hot_path_differential.py", GOLDEN)),
    "pinned": Target(
        "repro/devices/pinned_lru.py", ("PinnedLRU",),
        ("tests/test_pinned_lru.py", "tests/test_subplan_cache.py",
         "tests/test_memory.py", GOLDEN)),
    "session": Target(
        "repro/engine/session.py", ("release_query",),
        ("tests/test_engine.py", "tests/test_faults.py",
         "tests/test_serving.py", "tests/test_reference_cycles.py",
         GOLDEN)),
    "chunks": Target(
        "repro/core/pipelines.py", ("chunk_count", "full_input_refusal"),
        ("tests/test_pipelines.py", "tests/test_sort_path.py",
         "tests/test_pipeline_description.py", GOLDEN)),
    "values": Target(
        "repro/primitives/values.py",
        ("HashTable", "_direct_span", "group_index"),
        ("tests/test_values.py", "tests/test_kernels.py",
         "tests/test_hot_path_differential.py", "tests/test_properties.py",
         GOLDEN)),
    "hash_ops": Target(
        "repro/primitives/kernels/hash_ops.py",
        ("hash_probe", "hash_agg", "merge_hash_tables"),
        ("tests/test_kernels.py", "tests/test_hot_path_differential.py",
         "tests/test_properties.py", GOLDEN)),
    "recovery": Target(
        "repro/engine/scheduler.py",
        ("DeviceScheduler._recover", "DeviceScheduler._recover_device_fault",
         "DeviceScheduler._recover_oom", "DeviceScheduler._restart"),
        ("tests/test_faults.py", "tests/test_robustness.py", GOLDEN)),
    "flags": Target(
        "repro/planner/compile.py", ("validate_flags",),
        ("tests/test_planner.py", "tests/test_optimizer.py",
         "tests/test_cli.py")),
    "combine": Target(
        "repro/core/combine.py", ("combine_chunk_results",),
        ("tests/test_combine.py", "tests/test_hot_path_differential.py",
         GOLDEN)),
    "graph": Target(
        "repro/core/graph.py",
        ("PrimitiveGraph.in_edges", "PrimitiveGraph.out_edges"),
        ("tests/test_graph.py", "tests/test_hot_path_differential.py",
         GOLDEN)),
    "stats": Target(
        "repro/core/context.py", ("ExecutionContext.collect_stats",),
        ("tests/test_observe.py", "tests/test_engine.py",
         "tests/test_hot_path_differential.py", GOLDEN)),
    "partition": Target(
        "repro/cluster/partition.py", ("partition_table",),
        ("tests/test_cluster.py", "tests/test_hot_path_differential.py",
         GOLDEN)),
    "split": Target(
        "repro/core/models/split.py", ("SplitChunkedModel.assign_chunks",),
        ("tests/test_split_model.py", "tests/test_hot_path_differential.py",
         GOLDEN)),
    "pricing": Target(
        "repro/planner/cost.py", ("PricingTable",),
        ("tests/test_optimizer.py", "tests/test_planner.py",
         "tests/test_golden_explain.py",
         "tests/test_hot_path_differential.py")),
}

#: mutant id -> why no test can tell it from the original.  A new
#: survivor gets a test; it comes here only with that argument.
EQUIVALENT: dict[str, str] = {
    "repro.hardware.trace::_Rows.__init__:const:1":
        "ids[:, 2:6] adds the nbytes column as a fourth id; only columns "
        "0-2 are ever read",
    "repro.hardware.trace::_Rows.completed:cmp:0":
        "the guard only skips _aborted; with no recovery marker in the "
        "rows _aborted marks nothing, so running it anyway counts the same",
    "repro.hardware.trace::_Rows.feed:const:1":
        "the empty return is reached only when no class feeds a series; "
        "Ledger.series then returns {} before it reads index or addends",
    "repro.hardware.trace::_Rows.feed:const:2":
        "as _Rows.feed:const:1",
    "repro.hardware.trace::Ledger.series:arith:0":
        "bincount's minlength only pads the result; every series id read "
        "back is in its input, so the result is long enough regardless",
    "repro.hardware.trace::Ledger.series:const:0":
        "as Ledger.series:arith:0",
    "repro.devices.pinned_lru::PinnedLRU:drop:0":
        "a bare class-body annotation; every subclass assigns STATS_KEYS",
    "repro.devices.pinned_lru::PinnedLRU._drop:return:0":
        "abstract: ResidencyCache and SubplanCache override _drop, and "
        "nothing instantiates the base class",
    "repro.devices.pinned_lru::PinnedLRU._drop:drop:0":
        "as PinnedLRU._drop:return:0",
    "repro.primitives.values::HashTable.slots_of_rows:const:0":
        "a larger row index only adds -1 slots past the last position; "
        "rows beyond it are clipped to the trailing -1 sentinel either way",
    "repro.primitives.values::HashTable.slots_of_rows:const:1":
        "as HashTable.slots_of_rows:const:0 (an empty table's index is all "
        "-1 at any length)",
    "repro.primitives.values::HashTable.slots_of_rows:const:2":
        "as HashTable.slots_of_rows:const:0",
    "repro.primitives.kernels.hash_ops::merge_hash_tables:const:0":
        "the fallback for a payload column a table lacks is never "
        "concatenated: every table one merge sees is a partial of one "
        "build, with the same payload columns",
    "repro.engine.scheduler::DeviceScheduler._recover_oom:const:1":
        "oom_stage is only ever compared with 0",
    "repro.engine.scheduler::DeviceScheduler._recover_oom:const:3":
        "evicted sums whole resident columns; the generated catalogs hold "
        "int32/int64 columns of at least 5 rows, so it is 0 or > 1",
    "repro.planner.compile::validate_flags:const:1":
        "chunk_size 1 is no multiple of the 32-row quantum, so the "
        "second clause rejects it either way",
    "repro.core.context::ExecutionContext.collect_stats:const:0":
        "the default is never used: the chunk loop, its only caller, "
        "passes chunks",
    "repro.planner.cost::PricingTable.__init__:const:0":
        "the default is never used: both callers (PlanOptimizer.search "
        "and estimate_plan_seconds) pass data_scale",
    "repro.planner.cost::PricingTable.price:drop:18":
        "SplitChunkedModel, the only model that splits chunks, has "
        "fan_out_factor 1.0",
}

OPERATORS = ("cmp", "arith", "const", "bool", "drop", "return")

_FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
         ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
         ast.NotIn: ast.In}
_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_BODIES = ("body", "orelse", "finalbody")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: The address space one test run may take: about ten times the
#: 230 MB peak of the heaviest unmutated test set (the ``chunks``
#: target's, on two cores).  A machine that needs more fails the
#: unmutated run, so the scan stops before any mutant.
MEMORY_LIMIT = 2 << 30

#: Loaded into every test run (``-p``): the memory limit, and Hypothesis
#: with no example database, so no run replays what an earlier mutant
#: failed on, and no shrinking, since a failure is all a kill needs.
_SETTINGS_PLUGIN = ("import resource\n"
                    "resource.setrlimit(resource.RLIMIT_AS, "
                    f"({MEMORY_LIMIT}, {MEMORY_LIMIT}))\n"
                    "from hypothesis import Phase, settings\n"
                    "settings.register_profile('mutation-scan', "
                    "database=None, phases=[Phase.explicit, "
                    "Phase.generate])\n"
                    "settings.load_profile('mutation-scan')\n")


def _docstring(body: list[ast.stmt]) -> bool:
    return (bool(body) and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str))


def _sites(tree: ast.Module, module: str, scopes: tuple[str, ...]):
    """``(id, scope node, edit)`` for every mutation site of *scopes* in
    *tree*, in source order; ``edit()`` applies the mutant to *tree*."""
    for scope in scopes:
        node = tree
        for part in scope.split("."):
            node = next((n for n in node.body if isinstance(n, _DEFS)
                         and n.name == part), None)
            if node is None:
                raise LookupError(f"{module}: no {scope}")
        for mutant, edit in _walk(node, f"{module}::{scope}"):
            yield mutant, node, edit


def _walk(scope: ast.AST, prefix: str):
    """The sites of one function or class body; a nested function or
    class is walked under its own qualified name."""
    ordinals: Counter = Counter()

    def site(operator, edit):
        n = ordinals[operator]
        ordinals[operator] += 1
        return f"{prefix}:{operator}:{n}", edit

    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        first = 1 if _docstring(scope.body) else 0
        yield site("return", lambda: scope.body.insert(
            first, ast.Return(value=None)))

    def visit(node):
        yield from _edits(node, site)
        for field, value in ast.iter_fields(node):
            if field in ("decorator_list", "returns", "annotation"):
                continue
            items = value if isinstance(value, list) else [value]
            for index, child in enumerate(items):
                if not isinstance(child, ast.AST):
                    continue
                if isinstance(child, _DEFS):
                    yield from _walk(child, f"{prefix}.{child.name}")
                    continue
                if (field in _BODIES and isinstance(child, ast.stmt)
                        and not isinstance(child, (ast.Pass, ast.Global,
                                                   ast.Nonlocal))
                        and not (index == 0 and _docstring(items))):
                    yield site("drop", lambda items=items, i=index:
                               items.__setitem__(i, ast.Pass()))
                yield from visit(child)

    yield from visit(scope)


def _edits(node: ast.AST, site):
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            yield site("cmp", lambda i=i, op=op:
                       node.ops.__setitem__(i, _FLIP[type(op)]()))
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and \
            type(node.op) in _SWAP:
        yield site("arith", lambda: setattr(node, "op",
                                            _SWAP[type(node.op)]()))
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield site("const", lambda: setattr(node, "value", node.value + 1))
    elif isinstance(node, ast.BoolOp):
        yield site("bool", lambda: setattr(
            node, "op", ast.Or() if isinstance(node.op, ast.And)
            else ast.And()))


def mutants(source: str, module: str, scopes: tuple[str, ...]
            ) -> list[str]:
    """The ids of every mutant of *scopes* in *source*."""
    ids = [mutant for mutant, _, _ in
           _sites(ast.parse(source), module, scopes)]
    assert len(ids) == len(set(ids)), "mutant ids must be unique"
    return ids


def mutate(source: str, module: str, scopes: tuple[str, ...],
           mutant: str) -> str:
    """*source* with *mutant* applied.  Only the function or class it
    edits is re-rendered (``ast.unparse``); every line outside it is
    kept as written."""
    for found, scope, edit in _sites(ast.parse(source), module, scopes):
        if found == mutant:
            break
    else:
        raise LookupError(mutant)
    first = min([scope.lineno] + [d.lineno for d in scope.decorator_list])
    last = scope.end_lineno
    edit()
    ast.fix_missing_locations(scope)
    indent = " " * scope.col_offset
    lines = source.splitlines(keepends=True)
    text = "".join(indent + line + "\n"
                   for line in ast.unparse(scope).splitlines())
    mutated = "".join(lines[:first - 1]) + text + "".join(lines[last:])
    compile(mutated, module, "exec")
    return mutated


def _module_name(path: str) -> str:
    return path.removesuffix(".py").replace("/", ".")


class _Groups:
    """The process groups of the test runs in flight, so that a stopped
    scan can kill them all and start no more."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.live: set[int] = set()
        self.stopped = False

    def start(self, command: list[str], **kwargs) -> subprocess.Popen | None:
        """The started run in its own process group, or None once the
        scan is stopped."""
        with self.lock:
            if self.stopped:
                return None
            proc = subprocess.Popen(command, start_new_session=True,
                                    **kwargs)
            self.live.add(proc.pid)
            return proc

    def done(self, proc: subprocess.Popen) -> None:
        with self.lock:
            self.live.discard(proc.pid)
        _reap(proc.pid)

    def stop(self) -> None:
        with self.lock:
            self.stopped = True
            for group in self.live:
                _reap(group)


class _Worker:
    """One private copy of ``src/`` and the test runs made against it."""

    def __init__(self, root: Path, home: Path, groups: _Groups) -> None:
        self.root = root
        self.groups = groups
        self.src = home / "src"
        shutil.copytree(root / "src", self.src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (home / "plugin").mkdir()
        (home / "plugin" / "_mutation_scan_settings.py").write_text(
            _SETTINGS_PLUGIN)
        # Only the Hypothesis plugin is loaded (``-p`` below): no test
        # here uses another, and loading every installed one doubles
        # the start-up of a short run.
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                        PYTEST_DISABLE_PLUGIN_AUTOLOAD="1",
                        PYTHONPATH=os.pathsep.join(
                            (str(self.src), str(home / "plugin"))))

    def run(self, tests: tuple[str, ...], timeout: float) -> tuple[str, float]:
        """``killed`` / ``survived`` / ``timeout`` (``stopped`` once the
        scan is stopped) and the wall time."""
        command = [sys.executable, "-m", "pytest", "-x", "-q",
                   "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin",
                   "-p", "_mutation_scan_settings",
                   "--hypothesis-seed=0", *tests]
        start = time.perf_counter()
        proc = self.groups.start(command, cwd=self.root, env=self.env,
                                 stdout=subprocess.DEVNULL,
                                 stderr=subprocess.DEVNULL)
        if proc is None:
            return "stopped", 0.0
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.perf_counter() - start
        finally:
            self.groups.done(proc)
        if code == 5:
            raise RuntimeError(f"no tests collected from {tests}")
        return ("survived" if code == 0 else "killed"), \
            time.perf_counter() - start


def _reap(group: int) -> None:
    """Kill whatever the test run left behind in its process group."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def scan(root: Path, targets: dict[str, Target], *,
         timeout: float | None = None,
         progress=None) -> dict[str, dict[str, str]]:
    """Per target: mutant id -> ``killed`` / ``survived`` / ``timeout``.

    *timeout* fixes every run's timeout instead of deriving it from the
    unmutated run.  *progress* is called with each finished mutant's
    ``(target, id, outcome, seconds)``.  Called from the main thread,
    SIGTERM and SIGINT stop the scan: the runs in flight are killed,
    the copies removed, and ``SystemExit(128 + signal)`` is raised.
    """
    groups = _Groups()

    def stop(signum, frame):
        groups.stop()
        raise SystemExit(128 + signum)

    handled = (signal.SIGTERM, signal.SIGINT)
    before = ({s: signal.signal(s, stop) for s in handled}
              if threading.current_thread() is threading.main_thread()
              else {})
    try:
        return _scan(root, targets, groups, timeout, progress)
    finally:
        for s, handler in before.items():
            signal.signal(s, handler)


def _scan(root: Path, targets: dict[str, Target], groups: _Groups,
          timeout: float | None, progress) -> dict[str, dict[str, str]]:
    jobs = os.cpu_count() or 1
    sources = {name: (root / "src" / t.module).read_text()
               for name, t in targets.items()}
    work = [(name, mutant) for name, t in targets.items()
            for mutant in mutants(sources[name], _module_name(t.module),
                                  t.scopes)]
    with tempfile.TemporaryDirectory(prefix="mutation-scan-") as tmp:
        idle = [_Worker(root, Path(tmp) / str(i), groups)
                for i in range(jobs)]
        lock = threading.Lock()

        def borrow():
            with lock:
                return idle.pop()

        def give_back(worker):
            with lock:
                idle.append(worker)

        limits: dict[tuple[str, ...], float] = {}

        def baseline(tests):
            worker = borrow()
            try:
                outcome, seconds = worker.run(tests, timeout or 3600)
            finally:
                give_back(worker)
            if outcome == "stopped":
                return
            if outcome != "survived":
                raise RuntimeError(f"{tests} fail on the unmutated tree")
            limits[tests] = timeout or 3 * seconds + 30

        def one(item):
            name, mutant = item
            if groups.stopped:
                return name, mutant, "stopped"
            target = targets[name]
            worker = borrow()
            path = worker.src / target.module
            try:
                path.write_text(mutate(sources[name],
                                       _module_name(target.module),
                                       target.scopes, mutant))
                outcome, seconds = worker.run(target.tests,
                                              limits[target.tests])
            finally:
                path.write_text(sources[name])
                give_back(worker)
            if progress:
                progress(name, mutant, outcome, seconds)
            return name, mutant, outcome

        with ThreadPoolExecutor(jobs) as pool:
            list(pool.map(baseline, dict.fromkeys(t.tests
                                                  for t in targets.values())))
            results: dict[str, dict[str, str]] = {n: {} for n in targets}
            for name, mutant, outcome in pool.map(one, work):
                results[name][mutant] = outcome
    return results


def report(results: dict[str, dict[str, str]],
           equivalent: dict[str, str] = EQUIVALENT) -> tuple[list[str], int]:
    """The score table's lines and the number of unexplained survivors."""
    lines = [f"{'target':10} {'mutants':>7} {'killed':>6} {'timeout':>7} "
             f"{'survived':>8} {'equiv':>5} {'score':>6}"]
    missing = []
    for name, outcomes in results.items():
        tally = Counter(outcomes.values())
        survivors = [m for m, o in outcomes.items() if o == "survived"]
        known = sum(m in equivalent for m in survivors)
        missing += [m for m in survivors if m not in equivalent]
        scored = len(outcomes) - known
        score = (tally["killed"] + tally["timeout"]) / scored if scored \
            else 1.0
        lines.append(f"{name:10} {len(outcomes):7} {tally['killed']:6} "
                     f"{tally['timeout']:7} {tally['survived']:8} "
                     f"{known:5} {score:6.1%}")
    lines += [f"survived: {m}" for m in missing]
    return lines, len(missing)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="*", choices=[[], *TARGETS],
                        help="targets to scan (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the mutant ids and exit")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ and tests/ are used")
    parser.add_argument("--out", type=Path,
                        help="write {target: {id: outcome}} as JSON")
    args = parser.parse_args(argv)
    chosen = {name: TARGETS[name] for name in args.targets or TARGETS}
    if args.list:
        for t in chosen.values():
            source = (args.root / "src" / t.module).read_text()
            print("\n".join(mutants(source, _module_name(t.module),
                                    t.scopes)))
        return 0
    start = time.perf_counter()

    def progress(name, mutant, outcome, seconds):
        print(f"{outcome:8} {seconds:6.1f}s {mutant}", file=sys.stderr,
              flush=True)

    results = scan(args.root, chosen, progress=progress)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    lines, missing = report(results)
    print("\n".join(lines))
    print(f"wall time {time.perf_counter() - start:.0f} s")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
