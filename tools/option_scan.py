#!/usr/bin/env python
"""Find options that only ever take their default value.

An option is a defaulted parameter of a public function or method under
``src/``, or a defaulted field of a public dataclass there.  It is *in
use* when some call in ``src``, ``tests``, ``benchmarks``, ``perf``,
``tools``, ``examples`` or a fenced Python block of the docs passes it
— by keyword to a callee of the same name (``Engine(max_concurrent=4)``,
``cache.insert(..., healthy=names)``), positionally far enough, or, for
a field, by assignment (``stats.retries = n``) or
``dataclasses.replace``.  Callees are matched by their last name only,
so the scan under-reports rather than over-reports; what it cannot see
(``**params`` callers, values threaded through ``getattr``) goes in
:data:`ALLOWED` with the reason.

Everything else is printed as ``path:line name(option)`` and fails the
run: with one value in use an option is a constant (ROADMAP item 10).
Run by CI and, via :func:`unused_options`, by ``tests/test_tools.py``.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
from collections import defaultdict

SCANNED = ("src", "tests", "benchmarks", "perf", "tools", "examples")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)

_SPLAT = "kernels receive node params as container(*values, **task.params)"

#: ``"name(option)"`` -> why the scan cannot see its callers, or why the
#: option stays although nobody sets it.  New findings are not added
#: here; they are removed or given a caller.
ALLOWED: dict[str, str] = {
    "SimulatedDevice(memory_limit)":
        "Engine.plug_device calls the driver class through a variable",
    "filter_position(lo)": _SPLAT,
    "filter_position(hi)": _SPLAT,
    "fused_filter_agg(fn)": _SPLAT,
    "retrieve_data(deps)":
        "one of the paper's ten device interfaces; the Device ABC fixes "
        "its signature",
}


def _trees(root: pathlib.Path):
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            yield path, ast.parse(path.read_text())
    for doc in sorted(root.glob("*.md")) + sorted((root / "docs").glob("*.md")):
        for block in _FENCE.findall(doc.read_text()):
            try:
                yield doc, ast.parse(block)
            except SyntaxError:
                pass  # prose-flavoured snippets


def _last_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Uses(ast.NodeVisitor):
    """Keywords and positional depth per callee name; stored attributes."""

    def __init__(self) -> None:
        self.keywords: dict[str, set[str]] = defaultdict(set)
        self.positional: dict[str, int] = defaultdict(int)
        self.stored: set[str] = set()
        #: Callees handed ``**mapping``: any option may be in it.
        self.splatted: set[str] = set()

    def visit_Call(self, node: ast.Call) -> None:
        name = _last_name(node.func)
        if name is not None:
            self.positional[name] = max(self.positional[name], len(node.args))
            for keyword in node.keywords:
                if keyword.arg is None:
                    self.splatted.add(name)
                else:
                    self.keywords[name].add(keyword.arg)
            if name == "partial" and node.args:
                inner = _last_name(node.args[0])
                if inner is not None:
                    self.keywords[inner] |= {k.arg for k in node.keywords
                                             if k.arg is not None}
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Store):
            self.stored.add(node.attr)
        self.generic_visit(node)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _options(tree: ast.Module):
    """``(callee name, option, positional index or None, line, is_field)``
    for every option a public module-level function, public class or
    public method of one defines."""

    def of_function(callee: str, fn: ast.FunctionDef, skip_self: bool):
        args = fn.args
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional):
            if index >= first_default:
                yield (callee, arg.arg, index - skip_self, arg.lineno, False)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield (callee, arg.arg, None, arg.lineno, False)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from of_function(node.name, node, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for index, item in enumerate(
                    i for i in node.body if isinstance(i, ast.AnnAssign)):
                # A container that starts empty (``default_factory``)
                # is state the object fills, not an option.
                if _is_dataclass(node) and item.value is not None \
                        and "default_factory" not in ast.unparse(item.value) \
                        and isinstance(item.target, ast.Name) \
                        and not item.target.id.startswith("_"):
                    yield (node.name, item.target.id, index, item.lineno, True)
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(_last_name(d) == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield from of_function(node.name, item, True)
                elif not item.name.startswith("_"):
                    yield from of_function(item.name, item, not static)


def unused_options(root: pathlib.Path,
                   allowed: dict[str, str] = ALLOWED) -> list[str]:
    """``"path:line name(option)"`` for every option no caller sets and
    *allowed* does not explain (empty list == no dead knobs)."""
    uses = _Uses()
    sources = []
    for path, tree in _trees(root):
        uses.visit(tree)
        if path.suffix == ".py" and (root / "src") in path.parents:
            sources.append((path, tree))
    replaced = uses.keywords["replace"]
    found = []
    for path, tree in sources:
        for callee, option, index, line, is_field in _options(tree):
            if (option in uses.keywords[callee]
                    or callee in uses.splatted
                    or (index is not None
                        and uses.positional[callee] > index)
                    or (is_field and (option in uses.stored
                                      or option in replaced))
                    or f"{callee}({option})" in allowed):
                continue
            found.append(f"{path.relative_to(root)}:{line} "
                         f"{callee}({option})")
    return found


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    found = unused_options(root)
    for line in found:
        print(line)
    print(f"{len(found)} option(s) with one value in use")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
