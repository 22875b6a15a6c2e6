"""Smoke tests: every example script must run cleanly end to end."""

import pathlib
import runpy

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_discovered():
    assert len(SCRIPTS) >= 6
    assert "quickstart.py" in SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.chdir(EXAMPLES_DIR)
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()  # every example reports something
    # Any example that prints correctness checks must not print a failure.
    assert "ok=False" not in out
    assert "match: False" not in out
