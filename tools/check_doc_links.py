#!/usr/bin/env python
"""Check that the repo's docs reference only things that exist.

Two passes over the top-level ``*.md`` files and ``docs/*.md``:

* **links** — every relative ``[text](target)`` markdown link must
  resolve (absolute URLs and pure in-page anchors are ignored);
* **path references** — every backticked repo path
  (`` `src/...` ``, `` `docs/...` ``, `` `tests/...` ``,
  `` `benchmarks/...` ``, `` `examples/...` ``, `` `tools/...` ``,
  `` `perf/...` ``), also one followed by a line (``:N``) or a name
  (``::name``) inside the backticks, must exist relative to the repo
  root (the file part is checked), so prose never points at a
  moved or deleted file. A backticked repo path is a claim that the
  file exists, so a file that is only planned is written as a bare
  file name with its directory given separately, e.g.
  "`` `mutation_scan.py` ``, under `` `tools/` ``".

The test suite runs it through :func:`broken_links` and
:func:`broken_path_refs` (``tests/test_docs.py``).
"""

from __future__ import annotations

import pathlib
import re
import sys

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")
#: Backticked repo-relative paths in prose, e.g. `src/repro/serving/`,
#: `benchmarks/test_serving.py`, `src/repro/cli.py:482` or
#: `perf/test_perf_harness.py::test_every_target_exists`. Only
#: path-shaped spans (a known top-level directory plus at least one
#: path component) are checked; the group is the file part.
_PATH_REF = re.compile(
    r"`((?:src|docs|tests|benchmarks|examples|tools|perf)/[\w./-]*)"
    r"(?::\d+(?:-\d+)?|(?:::[\w\[\].,-]+)+)?`")


def _markdown_files(root: pathlib.Path) -> list[pathlib.Path]:
    return sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md"))


def broken_links(root: pathlib.Path) -> list[str]:
    """Return ``"file: target"`` for every relative link that does not
    resolve (empty list == healthy docs)."""
    broken: list[str] = []
    for doc in _markdown_files(root):
        for target in _LINK.findall(doc.read_text()):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (doc.parent / path).exists():
                broken.append(f"{doc.relative_to(root)}: {target}")
    return broken


def broken_path_refs(root: pathlib.Path) -> list[str]:
    """Return ``"file: path"`` for every backticked repo path that does
    not exist (empty list == healthy docs).

    Paths are resolved against the repo *root* regardless of which doc
    mentions them — that is how the docs spell them.
    """
    broken: list[str] = []
    for doc in _markdown_files(root):
        for ref in _PATH_REF.findall(doc.read_text()):
            if not (root / ref).exists():
                broken.append(f"{doc.relative_to(root)}: {ref}")
    return broken


def main() -> int:
    root = pathlib.Path(__file__).resolve().parents[1]
    failures = [(kind, entry)
                for kind, entries in (("link", broken_links(root)),
                                      ("path", broken_path_refs(root)))
                for entry in entries]
    if failures:
        for kind, entry in failures:
            print(f"broken {kind}: {entry}", file=sys.stderr)
        return 1
    print(f"doc links OK ({len(_markdown_files(root))} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
