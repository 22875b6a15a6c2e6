"""The repo's own static checks (``tools/``), run in tier-1.

``ruff`` is not part of the offline toolchain, and "which options only
ever take their default" is not something a linter answers; both walks
are committed once under ``tools/`` and run here and in CI.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import signal
import tempfile
import threading
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: pathlib.Path, files: dict[str, str]) -> None:
    for top in ("src", "tests", "benchmarks", "perf", "tools", "examples"):
        (root / top).mkdir()
    for name, text in files.items():
        (root / name).write_text(text)


class TestUnusedImports:
    def test_repo_is_clean(self):
        assert tool("unused_imports").unused_imports(ROOT) == []

    def test_finds_what_it_should_and_no_more(self, tmp_path):
        write_tree(tmp_path, {"src/mod.py": (
            "from __future__ import annotations\n"
            "import os\n"
            "import json, sys\n"
            "from typing import TYPE_CHECKING\n"
            "from a import kept  # noqa: F401\n"
            "from b import exported, dropped\n"
            "if TYPE_CHECKING:\n"
            "    from c import Quoted, Unquoted, Idle\n"
            "__all__ = ['exported']\n"
            "def f(x: 'Quoted', y: Unquoted) -> None:\n"
            "    return json.dumps(sys.argv)\n")})
        assert tool("unused_imports").unused_imports(tmp_path) == [
            "src/mod.py:2 os", "src/mod.py:6 dropped", "src/mod.py:8 Idle"]


class TestOptionScan:
    def test_every_option_has_a_second_value_or_a_reason(self):
        assert tool("option_scan").unused_options(ROOT) == []

    def test_allow_list_holds_no_stale_entry(self):
        scan = tool("option_scan")
        found = {line.split(" ", 1)[1]
                 for line in scan.unused_options(ROOT, allowed={})}
        assert set(scan.ALLOWED) <= found

    def test_finds_what_it_should_and_no_more(self, tmp_path):
        write_tree(tmp_path, {
            "src/mod.py": (
                "from dataclasses import dataclass, field\n"
                "def run(graph, model='chunked', *, dead=1, live=2):\n"
                "    pass\n"
                "def _private(knob=1):\n"
                "    pass\n"
                "@dataclass\n"
                "class Request:\n"
                "    graph: object\n"
                "    label: str = ''\n"
                "    retries: int = 0\n"
                "    never: bool = True\n"
                "    log: list = field(default_factory=list)\n"
                "class Engine:\n"
                "    def __init__(self, *, slots=8, spare=0):\n"
                "        pass\n"
                "    def execute(self, graph, fresh=False, fuse=False):\n"
                "        pass\n"),
            "tests/test_mod.py": (
                "run(g, 'pipelined', live=3)\n"
                "request = Request(g, 'q6')\n"
                "request.retries = 2\n"
                "Engine(slots=2).execute(g, True)\n"),
        })
        assert tool("option_scan").unused_options(tmp_path, allowed={}) == [
            "src/mod.py:2 run(dead)", "src/mod.py:11 Request(never)",
            "src/mod.py:14 Engine(spare)", "src/mod.py:16 execute(fuse)"]


class TestMutationScan:
    def test_every_target_resolves_and_no_equivalent_is_stale(self):
        scan = tool("mutation_scan")
        ids = set()
        for target in scan.TARGETS.values():
            source = (ROOT / "src" / target.module).read_text()
            ids.update(scan.mutants(source, scan._module_name(target.module),
                                    target.scopes))
            assert all((ROOT / test).is_file() for test in target.tests)
        assert set(scan.EQUIVALENT) <= ids

    def test_kills_misses_and_times_out_in_a_copy(self, tmp_path):
        scan = tool("mutation_scan")
        write_tree(tmp_path, {
            "src/mod.py": (
                "def pick(flag):\n"
                "    return 1 if flag else 2\n"
                "\n\n"
                "def halve(n):\n"
                "    while n > 1:\n"
                "        n //= 2\n"
                "    return n\n"),
            "tests/test_mod.py": (
                "from mod import halve, pick\n\n\n"
                "def test_mod():\n"
                "    assert pick(True) == 1\n"
                "    assert halve(8) == 1\n"),
        })
        tree = {path: path.read_bytes()
                for path in (tmp_path / "src").rglob("*")}
        target = scan.Target("mod.py", ("pick", "halve"),
                             ("tests/test_mod.py",))
        results = scan.scan(tmp_path, {"mod": target}, timeout=2)
        outcomes = {mutant.split("::")[1]: outcome
                    for mutant, outcome in results["mod"].items()}
        assert outcomes == {
            "pick:return:0": "killed", "pick:drop:0": "killed",
            "pick:const:0": "killed", "pick:const:1": "survived",
            "halve:return:0": "killed", "halve:drop:0": "killed",
            "halve:cmp:0": "killed", "halve:const:0": "killed",
            "halve:drop:1": "timeout", "halve:const:1": "killed",
            "halve:drop:2": "killed"}
        lines, missing = scan.report(results, equivalent={})
        assert missing == 1 and lines[-1] == "survived: mod::pick:const:1"
        assert scan.report(results, equivalent={
            "mod::pick:const:1": "never asked for False"})[1] == 0
        # Every mutant went into a private copy, never the scanned tree.
        assert {path: path.read_bytes()
                for path in (tmp_path / "src").rglob("*")} == tree

    def test_sigterm_kills_the_runs_and_removes_the_copies(
            self, tmp_path, monkeypatch):
        # Only the constant's mutant blocks, once it has written its pid.
        write_tree(tmp_path, {
            "src/mod.py": "def wait():\n    return 0\n",
            "tests/test_mod.py": (
                "import os, pathlib, time\nfrom mod import wait\n\n\n"
                "def test_mod():\n"
                "    if wait():\n"
                "        pathlib.Path('pid~').write_text(str(os.getpid()))\n"
                "        os.replace('pid~', 'pid')\n"
                "        time.sleep(60)\n")})
        (tmp_path / "temp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "temp"))

        def stop(deadline=time.monotonic() + 30):
            while not (tmp_path / "pid").exists():
                if time.monotonic() > deadline:
                    return
                time.sleep(0.05)
            sent.append(time.monotonic())
            os.kill(os.getpid(), signal.SIGTERM)
        sent = []
        threading.Thread(target=stop, daemon=True).start()
        scan = tool("mutation_scan")
        with pytest.raises(SystemExit) as stopped:
            scan.scan(tmp_path, {"mod": scan.Target(
                "mod.py", ("wait",), ("tests/test_mod.py",))}, timeout=60)
        # Killed at once, not by the 60 s timeout.
        assert stopped.value.code == 128 + signal.SIGTERM
        assert time.monotonic() - sent[0] < 10
        with pytest.raises(ProcessLookupError):
            os.kill(int((tmp_path / "pid").read_text()), 0)
        assert not any((tmp_path / "temp").iterdir())


class TestShareTimer:
    def test_times_static_and_class_methods_in_their_own_kind(self):
        from repro.core.models.split import SplitChunkedModel
        from repro.devices import CudaDevice
        from repro.devices.base import SimulatedDevice
        from repro.hardware import GPU_A100, VirtualClock
        from repro.primitives.values import IOSemantic

        paths = {
            "check": "repro.devices.base.SimulatedDevice"
                     "._check_output_semantic",                  # static
            "ranked": "repro.core.models.split.SplitChunkedModel"
                      ".participants",                           # class
            "proxy": "repro.core.models.split.SplitChunkedModel"
                     ".rate_proxy",                              # static
        }
        found = (vars(SimulatedDevice)["_check_output_semantic"],
                 vars(SplitChunkedModel)["participants"])
        device = CudaDevice("gpu0", GPU_A100, VirtualClock())
        timer = tool("profile_workload").ShareTimer(list(paths.values()))
        with timer:
            # Through an instance: a plain function in the static
            # method's place would receive the device as *primitive*.
            device._check_output_semantic("map", IOSemantic.GENERIC, None)
            assert SplitChunkedModel.participants([device]) == [device]
        assert (vars(SimulatedDevice)["_check_output_semantic"],
                vars(SplitChunkedModel)["participants"]) == found
        assert {name: timer.tally[path][0]
                for name, path in paths.items()} == {
                    "check": 1, "ranked": 1, "proxy": 1}


class TestLineCoverage:
    def test_counts_what_ran_and_names_what_did_not(self, tmp_path):
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            "def pick(flag):\n"
            "    if flag:\n"
            "        return 1\n"
            "    return 2\n"
            "\n"
            "\n"
            "def never():\n"
            "    return 3\n")
        (tmp_path / "src" / "other.py").write_text("x = 1\n")
        coverage = tool("line_coverage")
        spec = importlib.util.spec_from_file_location(
            "pkg_mod", package / "mod.py")
        module = importlib.util.module_from_spec(spec)

        def run():
            spec.loader.exec_module(module)
            return module.pick(True)
        reached, result = coverage.record(run, package)
        assert result == 1
        assert set(reached) == {str((package / "mod.py").resolve())}
        assert coverage.report(reached, package) == [
            "pkg/mod.py 4/6  4, 8",
            "total 4/6 lines reached (66.7 %)"]
