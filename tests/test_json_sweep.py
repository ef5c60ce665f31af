"""No JSON value of the wrong type is an internal error.

Each node of a problem file (to depth 4, the first element of each list)
and of a report (to depth 6) is replaced in turn by 7, "x", [1],
{"k": 1} and null, and each optional key that a certificate or its
witness lacks is added with each of those values.  `validate` must then
answer 0, 1 or 3 on the problem file and `verify-report` 0, 1 or 3 on
the report: a wrong type is an input error that names the object, or, in
a field of the report itself, a listed problem; never exit 4."""
from __future__ import annotations

import copy
import json
import os

import pytest

from gpmorita.cli import main

FIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
VALUES = (7, "x", [1], {"k": 1}, None)
OPTIONAL = {("verdict", "module"): ("window", "kernel_ident", "witness", "bound"),
            ("kind", "degree"): ("resolution", "steps", "fail_stage")}


def fx(name: str) -> str:
    return os.path.join(FIX, name)


def _paths(node, depth: int):
    """The paths of the nodes below node, to the given depth, entering the
    first element of each list."""
    if depth == 0:
        return
    if isinstance(node, dict):
        kids = list(node.items())
    elif isinstance(node, list):
        kids = [(0, node[0])] if node else []
    else:
        return
    for key, kid in kids:
        yield (key,)
        for rest in _paths(kid, depth - 1):
            yield (key,) + rest


def _insertions(node, path=()):
    """The paths of the optional keys missing from each certificate and
    witness object inside node."""
    if isinstance(node, dict):
        for required, optional in OPTIONAL.items():
            if all(k in node for k in required):
                yield from (path + (k,) for k in optional if k not in node)
        for key, kid in node.items():
            yield from _insertions(kid, path + (key,))
    elif isinstance(node, list) and node:
        yield from _insertions(node[0], path + (0,))


def _mutants(doc, depth: int, insert: bool):
    paths = list(_paths(doc, depth))
    if insert:
        paths += _insertions(doc)
    for path in paths:
        for value in VALUES:
            out = copy.deepcopy(doc)
            node = out
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield f"{'.'.join(map(str, path))} = {json.dumps(value)}", out


def _internal_errors(capsys, tmp_path, doc, depth, insert, argv_of):
    path = tmp_path / "mutant.json"
    bad = []
    for label, mutant in _mutants(doc, depth, insert):
        path.write_text(json.dumps(mutant))
        code = main(argv_of(str(path)))
        err = capsys.readouterr().err.strip()
        if code == 4:
            bad.append(f"{label}: {err}")
    return bad


@pytest.mark.parametrize("name", ["dual_numbers.json", "triangular.json"])
def test_a_wrong_type_in_a_problem_file_is_no_internal_error(capsys, tmp_path,
                                                            name):
    doc = json.load(open(fx(name)))
    bad = _internal_errors(capsys, tmp_path, doc, 4, False,
                           lambda p: ["validate", p])
    assert not bad, f"{len(bad)} mutants exit 4, first: {bad[:5]}"


@pytest.mark.parametrize("argv", [
    ["certify-gp", fx("dual_numbers.json"), "--module", "S"],
    ["check-gp", fx("triangular.json"), "--extension", "ext", "--context",
     "ctx", "--quadruple", "S2"],
    ["certify-gp", fx("triangular.json"), "--context", "ctx", "--quadruple", "S2"],
    ["check-compat", fx("dual_numbers.json"), "--bimodule", "S_bim",
     "--right-tests", "S_window"],
], ids=["certify-gp", "check-gp", "certify-gp-not-gp", "check-compat"])
def test_a_wrong_type_in_a_report_is_no_internal_error(capsys, tmp_path, argv):
    main(argv + ["--json"])
    rep = json.loads(capsys.readouterr().out)
    bad = _internal_errors(capsys, tmp_path, rep, 6, True,
                           lambda p: ["verify-report", argv[1], "--report", p])
    assert not bad, f"{len(bad)} mutants exit 4, first: {bad[:5]}"
