"""Every top-level function and class of the package, and every method of
its classes, has a user: its name is referenced somewhere in src/, tests/,
scripts/ or gpbench/ outside its own definition.  A method counts as used
when some attribute of that name is read, since the scan cannot tell
which class an attribute belongs to; dunder methods are called by Python
itself and are not scanned.  And every parameter of a function of the
package, lambdas and nested functions included, is read in its body: a
parameter that nothing reads is a knob that every caller sets for
nothing.  The instance parameter of a method is exempt."""
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


def _unread_parameters(path: str):
    """(function, parameter) for each parameter that its function's body
    never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    instance_first = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                      for m in c.body if isinstance(m, ast.FunctionDef)
                      and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in m.decorator_list)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                  + [a.vararg, a.kwarg] if p is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", f"<lambda at line {fn.lineno}>")
        skip = 1 if id(fn) in instance_first else 0
        yield from ((name, p) for p in params[skip:] if p not in read)


def test_every_parameter_is_read():
    unread = [f"{os.path.basename(path)}:{fn}({p})"
              for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
              for fn, p in _unread_parameters(path)]
    assert not unread, f"parameters never read: {unread}"
