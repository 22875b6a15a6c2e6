#!/usr/bin/env python
"""Report imports a module never uses (the offline stand-in for ruff's
F401; standard library only).

A name bound by ``import`` / ``from ... import`` at module level counts
as used when the module reads it anywhere — as a name, as the root of an
attribute chain, inside a quoted annotation — or re-exports it through
``__all__``.  ``from __future__`` imports, ``import x as x`` re-exports
and lines marked ``# noqa`` are skipped, as is every import of an
``__init__.py`` that defines no ``__all__`` (a package namespace).

Prints ``path:line name`` per finding and exits non-zero when there is
one.  Run over :data:`TREES` by CI and, via :func:`unused_imports`, by
``tests/test_tools.py``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

TREES = ("src", "tools", "benchmarks", "perf")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _unused_in(path: pathlib.Path) -> list[tuple[int, str]]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in tree.body:
        block = [node]
        if isinstance(node, (ast.If, ast.Try)):  # TYPE_CHECKING / fallbacks
            block = [n for n in ast.walk(node)
                     if isinstance(n, (ast.Import, ast.ImportFrom))]
        for stmt in block:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) \
                    or getattr(stmt, "module", None) == "__future__" \
                    or "# noqa" in lines[stmt.lineno - 1]:
                continue
            for alias in stmt.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, stmt.lineno)
    used: set[str] = set()
    exported: set[str] | None = None
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = {e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant)}
        annotations = [getattr(node, "annotation", None),
                       getattr(node, "returns", None)]
        for quoted in (q for a in annotations if a is not None
                       for q in ast.walk(a)
                       if isinstance(q, ast.Constant)
                       and isinstance(q.value, str)):
            used.update(_IDENTIFIER.findall(quoted.value))
    used |= exported or set()
    if path.name == "__init__.py" and exported is None:
        return []
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def unused_imports(root: pathlib.Path) -> list[str]:
    """``"path:line name"`` for every unused import under :data:`TREES`."""
    found = []
    for top in TREES:
        for path in sorted((root / top).rglob("*.py")):
            found += [f"{path.relative_to(root)}:{line} {name}"
                      for line, name in _unused_in(path)]
    return found


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    found = unused_imports(root)
    for line in found:
        print(line)
    print(f"{len(found)} unused import(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
