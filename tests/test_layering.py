"""Two layering rules of the package, checked on its source.

Only `linalg` sees matrix entries: no other module reads or writes a
`.data` attribute, so the entry storage can change in one file.  The
independent checker `verify` imports only the shared ground (linear
algebra, modules, complex windows, algebras and the certificate types),
never a builder module such as `bimodules` or `homology`.
"""
from __future__ import annotations

import ast
import glob
import os

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src",
                       "gpmorita")
CHECKER_IMPORTS = {"__future__", "linalg", "modules", "complexes", "algebra",
                   "gpcert"}


def _tree(name: str) -> ast.AST:
    path = os.path.join(PACKAGE, name)
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def test_only_linalg_touches_matrix_entries():
    hits = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        if name == "linalg.py":
            continue
        hits += [f"{name}:{node.lineno}" for node in ast.walk(_tree(name))
                 if isinstance(node, ast.Attribute) and node.attr == "data"]
    assert not hits, f".data outside linalg: {hits}"


def test_checker_imports_only_the_shared_ground():
    imported = set()
    for node in ast.walk(_tree("verify.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported <= CHECKER_IMPORTS, sorted(imported - CHECKER_IMPORTS)
