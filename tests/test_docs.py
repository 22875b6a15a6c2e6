"""Documentation health: every doc snippet executes, references resolve.

The snippet walker discovers ``docs/*.md`` (plus the README) instead of
keeping a hand-maintained list, so a new document is covered the moment
it lands — and a document whose examples rot fails CI with the file
name in the test id.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Every markdown file whose ```python blocks must execute.
SNIPPET_DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

#: Documents that legitimately contain no python blocks today.  A file
#: may leave this set (by gaining a snippet) but the walker still visits
#: it, so nothing is ever silently skipped.
_NO_SNIPPETS_OK = {"api.md", "calibration.md"}

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)


def _python_blocks(path: pathlib.Path) -> list[str]:
    return _PYTHON_BLOCK.findall(path.read_text())


@pytest.fixture()
def _restore_global_registries():
    """Snapshot the process-global extension registries.

    Doc snippets demonstrate real extension (registering primitives,
    adding execution models); restoring afterwards keeps the docs run
    from leaking into unrelated tests.
    """
    from repro.core.models import MODELS
    from repro.primitives.definitions import PRIMITIVES

    models, primitives = dict(MODELS), dict(PRIMITIVES)
    try:
        yield
    finally:
        MODELS.clear()
        MODELS.update(models)
        PRIMITIVES.clear()
        PRIMITIVES.update(primitives)


class TestSnippets:
    @pytest.mark.parametrize(
        "doc", SNIPPET_DOCS, ids=lambda p: p.name)
    def test_python_blocks_execute(self, doc, tmp_path, monkeypatch,
                                   _restore_global_registries):
        """Every ```python block runs, in file order, in one shared
        namespace per document — examples cannot rot silently."""
        monkeypatch.chdir(tmp_path)  # stray file writes land here
        blocks = _python_blocks(doc)
        if not blocks:
            assert doc.name in _NO_SNIPPETS_OK, (
                f"{doc.name} gained no python blocks but is not in the "
                f"no-snippets allowlist")
            pytest.skip(f"{doc.name} has no python blocks")
        source = "\n".join(blocks).replace("/tmp/", f"{tmp_path}/")
        exec(compile(source, doc.name, "exec"), {})

    def test_tutorial_is_substantial(self):
        assert len(_python_blocks(ROOT / "docs" / "tutorial.md")) >= 8

    def test_observability_documents_every_metric(self):
        """docs/observability.md renders METRIC_CATALOG; the two must
        not drift apart."""
        from repro.observe import METRIC_CATALOG

        text = (ROOT / "docs" / "observability.md").read_text()
        for name in METRIC_CATALOG:
            assert name in text, f"observability.md omits {name}"


class TestCrossReferences:
    def test_readme_references_exist(self):
        text = (ROOT / "README.md").read_text()
        for relpath in re.findall(r"`((?:src|benchmarks|examples|docs)"
                                  r"/[\w/.-]+)`", text):
            assert (ROOT / relpath).exists(), relpath

    def test_design_mentions_every_subpackage(self):
        text = (ROOT / "DESIGN.md").read_text()
        src = ROOT / "src" / "repro"
        for package in sorted(p.name for p in src.iterdir() if p.is_dir()
                              and not p.name.startswith("__")):
            assert package in text, f"DESIGN.md does not mention {package}"

    def test_experiments_covers_every_figure_bench(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("test_fig*.py")):
            assert bench.name in text, bench.name

    def test_docs_directory_complete(self):
        docs = {p.name for p in (ROOT / "docs").glob("*.md")}
        assert {"architecture.md", "calibration.md", "extending.md",
                "observability.md", "serving.md", "sharding.md",
                "tutorial.md"} <= docs

    def test_relative_markdown_links_resolve(self):
        """Every relative ``[text](path)`` link in the top-level docs
        points at a file that exists (same check tools/check_doc_links.py
        runs in CI)."""
        import sys

        sys.path.insert(0, str(ROOT / "tools"))
        try:
            from check_doc_links import broken_links
        finally:
            sys.path.pop(0)
        assert broken_links(ROOT) == []

    def test_backticked_path_references_resolve(self):
        """Every backticked `src/...`-style path mentioned in prose
        exists (the check tools/check_doc_links.py runs)."""
        import sys

        sys.path.insert(0, str(ROOT / "tools"))
        try:
            from check_doc_links import broken_path_refs
        finally:
            sys.path.pop(0)
        assert broken_path_refs(ROOT) == []

    def test_path_checker_sees_perf_and_suffixed_paths(self, tmp_path):
        """`perf/` paths and paths with a `:N` / `::name` suffix are
        checked too (their file part)."""
        import sys

        sys.path.insert(0, str(ROOT / "tools"))
        try:
            from check_doc_links import broken_path_refs
        finally:
            sys.path.pop(0)
        for name in ("perf/run.py", "tests/test_a.py"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text("")
        (tmp_path / "NOTES.md").write_text(
            "`perf/run.py`, `perf/gone.py`, `tests/test_a.py:12`, "
            "`tests/test_a.py::TestA::test_b[x-1]`, "
            "`tests/test_gone.py::test_b`, `perf/gone.py:3`, "
            "`tests/*.py`\n")
        assert broken_path_refs(tmp_path) == [
            "NOTES.md: perf/gone.py", "NOTES.md: tests/test_gone.py",
            "NOTES.md: perf/gone.py"]
