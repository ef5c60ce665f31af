"""Every top-level function and class of the package, and every method of
its classes, has a user: its name is referenced somewhere in src/, tests/,
scripts/ or gpbench/ outside its own definition.  A method counts as used
when some attribute of that name is read, since the scan cannot tell
which class an attribute belongs to; dunder methods are called by Python
itself and are not scanned."""
from __future__ import annotations

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(ROOT, "src", "gpmorita")
SEARCHED = ("src", "tests", "scripts", "gpbench")


def _references(tree: ast.AST):
    """(name, line) for every identifier the code uses; an import alone is
    not a use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definitions(tree: ast.Module):
    """(label, node) for every top-level function and class, and for every
    method of a top-level class other than a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_top_level_definition_is_used():
    files = [p for d in SEARCHED
             for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"), recursive=True)]
    trees = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            trees[os.path.abspath(path)] = ast.parse(fh.read(), path)
    refs: dict[str, list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        path = os.path.abspath(path)
        for label, node in _definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in own
                       for p, line in refs.get(node.name, [])):
                unused.append(f"{os.path.basename(path)}:{label}")
    assert not unused, f"never referenced: {unused}"
