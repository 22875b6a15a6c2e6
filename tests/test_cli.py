"""Tests for the ``python -m repro`` command-line interface.

``tests/golden/cli_transcript.txt`` pins the whole surface byte for
byte: for each argv in ``CASES`` the exit code, stdout, stderr and the
files it writes, then every subcommand's flags (option strings, kind,
nargs, type, default, choices).  Each case is its own test, so a
failure names the argv that drifted.  Run ``pytest --update-golden``
to rewrite it after an intentional change; the diff then shows up in
review.
"""

import argparse
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.tpch import reference

ROOT = Path(__file__).resolve().parents[1]
TRANSCRIPT = Path(__file__).parent / "golden" / "cli_transcript.txt"

#: Every subcommand, each exit code 0-4 and every refusal the CLI makes.
CASES = [
    "devices",
    "figures --filter fig3",
    "micro --primitive map --logical-n 4194304",
    "micro --primitive hash_agg --groups 1024 --logical-n 4194304",
    "validate --sf 0.002 --chunk-size 1024",
    "run --query q6 --sf 0.002 --chunk-size 1024 --model chunked",
    "run --query q6 --sf 0.002 --chunk-size 1024 --model chunked --no-fuse",
    "run --query q6 --sf 0.002 --chunk-size 1024 --model chunked --adaptive",
    "run --query q6 --sf 0.002 --chunk-size 1024 --analyze "
    "--metrics-out metrics.prom",
    "run --query q6 --sf 0.002 --chunk-size 1024 --spec a100 "
    "--metrics-out metrics.json",
    "run --query q3 --sf 0.002 --chunk-size 1024 "
    "--model four_phase_pipelined",
    "run --query q14 --sf 0.005 --chunk-size 1024 --model oaat",
    "run --query q6 --sf 0.002 --chunk-size 1024 --driver opencl-cpu",
    "run --query q6 --sf 0.002 --chunk-size 1024 --driver openmp",
    "run --query q6 --sf 0.001 --chunk-size 2048",
    "run --query q99",
    "run --model vectorwise",
    "run --query q6 --sf 0.001 --faults dev0:bogus:1",
    "run --query q3 --faults dev0:device_loss:5 --sf 0.001 "
    "--chunk-size 2048 --metrics-out faults.prom",
    "run --query q6 --driver openmp --faults dev0:device_loss:1 --sf 0.001",
    "run --query q6 --sf 0.0005 --chunk-size 512 "
    "--faults dev0:transient:0.9,seed=3 --retry-budget 1e-7",
    "run --query q3 --model auto --sf 0.002 --chunk-size 1024 --analyze",
    "run --query q6 --model auto --sf 0.002 --chunk-size 1024 "
    "--overlay-path overlay.json",
    "run --query q6 --model auto --sf 0.001 --data-scale 0",
    "run --query q6 --model chunked --sf 0.001 --data-scale 0",
    "run --query q3 --nodes 2 --sf 0.002 --chunk-size 1024 "
    "--metrics-out cluster.prom",
    "run --query q6 --driver openmp --nodes 2 "
    "--faults dev0:device_loss:1,seed=3 --sf 0.001 --chunk-size 2048",
    "run --query q6 --nodes 0",
    "run --query q6 --nodes 2 --model auto",
    "run --query q6 --sf 0.002 --nodes 2 --analyze",
    "run --query q6 --nodes 2 --retry-budget 1",
    "compare --query q6 --sf 0.002 --chunk-size 1024",
    "compare --query q6 --sf 0.01 --chunk-size 1024 --memory-limit 400000",
    "concurrent --queries q6,q4 --sf 0.002 --chunk-size 1024 --model auto",
    "concurrent --queries q6,q6 --sf 0.002 --chunk-size 1024 --analyze "
    "--metrics-out concurrent.prom",
    "concurrent --queries q3,q6 --rounds 2 "
    "--faults dev0:device_loss:20,seed=3 --sf 0.001 --chunk-size 2048",
    "concurrent --queries q3,q3,q6 --sf 0.002 --chunk-size 1024 "
    "--no-subplan-cache",
    "concurrent --queries ''",
    "concurrent --queries q3,q99",
    "serve --qps 2000 --duration 0.01 --sf 0.0005 "
    "--interactive-deadline-ms 500 --explain-admission",
    "serve --qps 20000 --duration 0.002 --sf 0.0005 --scenario overload "
    "--max-queue 3 --max-in-flight 2",
    "serve --qps 1000 --duration 0.005 --sf 0.0005 --metrics-out serve.json",
    "serve --queries ''",
    "serve --queries q99",
    "serve --scenario overload --faults dev0:transient:0.1",
    "explain q6 --sf 0.002 --chunk-size 1024",
    "explain q6 --sf 0.002 --no-fuse",
    "explain q6 --sf 0.002 --chunk-size 1024 --adaptive",
    "explain q6 --plans 3 --sf 0.002 --chunk-size 1024",
    "explain q6 --sf 0.002 --plans 0",
    "explain q3 --nodes 4 --network eth_10g --sf 0.002 --chunk-size 1024",
    "explain q3 --nodes 2 --plans 3 --sf 0.002",
    "explain q6 --sf 0.002 --nodes 0",
    "explain q6 --sf 0.002 --nodes -3",
]

#: The case run with its query's oracle replaced by a wrong answer: an
#: oracle mismatch must exit 1.
MISMATCH = "run --query q6 --sf 0.001 --chunk-size 2048"

#: Options whose value names a file the run writes.
FILE_OPTIONS = ("--metrics-out", "--overlay-path")


def _flatten(value, key=""):
    """One ``path = value`` line per JSON leaf."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _flatten(item, f"{key}.{name}" if key else name)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _flatten(item, f"{key}[{index}]")
    else:
        yield f"{key} = {json.dumps(value)}"


def _file_lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return sorted(_flatten(json.loads(text)))
    return sorted(line for line in text.splitlines() if line)


def _argparse_error(err: str) -> str:
    """Only argparse's ``error:`` line, without the ``choose from`` list
    (its quoting and the usage wrapping differ between Pythons)."""
    line = next(line for line in err.splitlines() if ": error: " in line)
    return line.split(" (choose from")[0] + "\n"


def _run_case(case, capsys, monkeypatch) -> list[str]:
    argv = shlex.split(case)
    header = f"$ repro {shlex.join(argv)}"
    with monkeypatch.context() as patch:
        if case == MISMATCH:
            patch.setattr(reference, "q6", lambda catalog: -1)
            header += "    (q6 oracle replaced by -1)"
        patch.setattr(pytest, "main", _fake_pytest_main)
        try:
            code = main(argv)
            parse_error = False
        except SystemExit as exit_:
            code, parse_error = exit_.code, True
    out, err = capsys.readouterr()
    if parse_error:
        err = _argparse_error(err)
    lines = [header, f"exit {code}"]
    lines += [f"out| {line}" for line in out.splitlines()]
    lines += [f"err| {line}" for line in err.splitlines()]
    for option in FILE_OPTIONS:
        if option in argv:
            name = argv[argv.index(option) + 1]
            lines += [f"{name}| {line}" for line in _file_lines(Path(name))]
    return lines


def _fake_pytest_main(argv):
    """``figures`` hands the benchmark suite to pytest; show the call."""
    shown = [Path(arg).relative_to(ROOT).as_posix()
             if Path(arg).is_absolute() else arg for arg in argv]
    print(f"pytest.main({shown})")
    return 0


def _parser_table() -> list[str]:
    """Each subcommand's flags: option strings, kind, type, default and
    choices (not the help wording)."""
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    lines = []
    for name, command in sub.choices.items():
        lines.append(f"[{name}]")
        rows = []
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            kind = type(action).__name__.strip("_").removesuffix("Action")
            row = (f"  {'/'.join(action.option_strings) or action.dest}"
                   f" kind={kind} nargs={action.nargs}"
                   f" type={getattr(action.type, '__name__', None)}"
                   f" default={action.default!r}")
            if action.choices is not None:
                row += f" choices={list(action.choices)}"
            rows.append(row)
        lines += sorted(rows)
    return lines


def _check_part(index: int, text: str, update_golden: bool) -> None:
    """Compare ``text`` with the transcript's part ``index``: one part
    per case, in ``CASES`` order, then the flag table, separated by a
    blank line.  With ``--update-golden`` rewrite that part instead."""
    parts = (TRANSCRIPT.read_text().split("\n\n")
             if TRANSCRIPT.exists() else [])
    if update_golden:
        if len(parts) != len(CASES) + 1:
            parts = [""] * (len(CASES) + 1)
        if parts[index] == text:
            pytest.skip("CLI transcript already up to date")
        parts[index] = text
        TRANSCRIPT.write_text("\n\n".join(parts))
        pytest.skip("CLI transcript updated (content changed)")
    assert len(parts) == len(CASES) + 1, (
        f"{TRANSCRIPT} does not hold one part per case and the flag "
        "table; run pytest --update-golden")
    assert text == parts[index], (
        "the CLI drifted from tests/golden/cli_transcript.txt; if "
        "intentional, run pytest --update-golden and commit the diff")


@pytest.mark.parametrize("index", range(len(CASES)), ids=CASES)
def test_transcript_case(index, capsys, monkeypatch, tmp_path,
                         update_golden):
    monkeypatch.chdir(tmp_path)
    lines = _run_case(CASES[index], capsys, monkeypatch)
    _check_part(index, "\n".join(lines), update_golden)


def test_transcript_flag_table(update_golden):
    _check_part(len(CASES), "\n".join(_parser_table()) + "\n",
                update_golden)


def test_closed_stdout_exits_quietly(capsys, monkeypatch):
    """A reader that stops early (``repro devices | head -1``) ends the
    CLI with the SIGPIPE status and no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["devices"])
    assert (code, capsys.readouterr().err) == (141, "")


class TestRun:
    @pytest.mark.parametrize("driver", ["opencl-gpu", "opencl-cpu", "openmp"])
    def test_other_drivers(self, capsys, driver):
        code = main(["run", "--query", "q6", "--sf", "0.002",
                     "--chunk-size", "1024", "--driver", driver])
        assert code == 0
        assert "oracle match: True" in capsys.readouterr().out
