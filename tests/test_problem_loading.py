"""Loading a problem file at the cost of what the command reads.

`jsonio.load_problem` keeps each quadruple as the file gives it, its maps
f and g on the full k-tensor spaces, and checks it there; its balanced
tensors are built only by a command that reads f or g on them.  The
oracle of the check is the route it replaces: the old `make_quadruple`,
which factored f and g through the balanced tensors
(`test_quadruple_route_oracle.old_make_quadruple`), then the old
`validate_quadruple`, kept here verbatim, on the result.
Over every fixture quadruple and a mutant per entry of f and of g (each
entry raised by 1, which breaks a middle relation, the linearity of the
map or a square), the two give the same verdict, and `validate` the same
stderr line and exit code.  The matrices of a file are read on integer
rows when every entry is a plain JSON int; the oracle is `F.parse` per
entry.
"""
from __future__ import annotations

import json
import os

import pytest

from gpmorita import bimodules, engine
from gpmorita.cli import main
from gpmorita.fields import GF, QQ
from gpmorita.jsonio import (
    InputError, ValidationFailure, algebra_from_json, load_problem, mat_from_json,
)
from gpmorita.linalg import Mat
from gpmorita.modules import validate_module
from gpmorita.morita import (
    ContextError, make_quadruple, validate_quadruple,
)
from test_quadruple_route_oracle import old_make_quadruple, old_swap_quadruple

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURES = sorted(n for n in os.listdir(FIX) if n.endswith(".json"))


def _doc(name):
    with open(os.path.join(FIX, name)) as fh:
        return json.load(fh)


def _old_violations(q) -> list[str]:
    """`validate_quadruple` before the check moved to the k-tensor maps:
    the module laws, linearity on the balanced tensors (`intertwines`)
    and the squares, the mirror side read off `swap_quadruple`."""
    sides = list(zip((q, old_swap_quadruple(q)), (("X", "f", "B", "first"),
                                               ("Y", "g", "A", "second"))))
    out = [f"{lab[0]}: {m}" for s, lab in sides for m in validate_module(s.x)]
    if out:
        return out
    out = [f"{lab[1]} is not {lab[2]}-linear" for s, lab in sides
           if not s.f.intertwines()]
    if out:
        return out
    for s, lab in sides:
        eye_n = Mat.identity(s.x.algebra.field, s.ctx.N.dim)
        lhs = eye_n.kron(s.mx.proj @ s.f.mat) @ (s.ny.proj @ s.g.mat)
        if lhs != s.x.acts_of(s.ctx.psi.mat):
            out.append(f"{lab[3]} compatibility square fails")
    return out


def _built_route(doc):
    """The load as it was before the check on the maps: the rest of the
    file, then each quadruple built by the old `make_quadruple` and checked by the
    old `validate_quadruple`, failures raised as the load raised them."""
    prob = load_problem({k: v for k, v in doc.items() if k != "quadruples"})
    for name, obj in doc.get("quadruples", {}).items():
        ctx = prob.named("contexts", obj["context"])
        x, y = prob.named("modules", obj["x"]), prob.named("modules", obj["y"])
        f_full = mat_from_json(prob.field, obj["f_full"])
        g_full = mat_from_json(prob.field, obj["g_full"])
        try:
            q = old_make_quadruple(ctx, x, y, f_full, g_full, name=name)
        except ContextError as e:
            raise ValidationFailure(f"quadruple {name!r} invalid: {e}") from e
        bad = _old_violations(q)
        if bad:
            raise ValidationFailure(f"quadruple {name!r} invalid: {bad[0]}")


def _expected(doc) -> tuple[int, str]:
    """The exit code and stderr of `validate` on doc, by the built route."""
    try:
        _built_route(doc)
    except ValidationFailure as e:
        return 1, f"validation failed: {e}\n"
    except InputError as e:
        return 3, f"input error: {e}\n"
    return 0, ""


def _mutants(doc):
    """(label, doc) per entry of each quadruple's f_full and g_full, that
    entry raised by 1; then one with the first action matrix of the first
    quadruple's X doubled, an X that breaks the module laws."""
    for name in sorted(doc.get("quadruples", {})):
        for key in ("f_full", "g_full"):
            for i in range(len(doc["quadruples"][name][key]["entries"])):
                bad = json.loads(json.dumps(doc))
                entries = bad["quadruples"][name][key]["entries"]
                entries[i] = entries[i] + 1
                yield f"{name}.{key}[{i}]", bad
    if doc.get("quadruples"):
        name = sorted(doc["quadruples"])[0]
        bad = json.loads(json.dumps(doc))
        x = bad["modules"][bad["quadruples"][name]["x"]]
        if x["dim"]:
            x["acts"][0]["entries"] = [2 * e for e in x["acts"][0]["entries"]]
            yield f"{name}.x", bad


def test_validate_answers_as_the_built_route(tmp_path, capsys):
    seen = set()
    for fixture in FIXTURES:
        for label, doc in [("as shipped", _doc(fixture)), *_mutants(_doc(fixture))]:
            p = tmp_path / "p.json"
            p.write_text(json.dumps(doc))
            code = main(["validate", str(p)])
            got = (code, capsys.readouterr().err)
            assert got == _expected(doc), (fixture, label)
            seen.add(got[1].split(" invalid: ")[-1].strip())
    # the mutants reach every check: both relations, both linearities, both
    # squares and the module laws of X
    assert {"f does not factor through M (x)_A X",
            "g does not factor through N (x)_B Y",
            "f is not B-linear", "g is not A-linear",
            "first compatibility square fails",
            "second compatibility square fails",
            "unit does not act as identity"} <= seen


@pytest.mark.parametrize("fixture", [n for n in FIXTURES if _doc(n).get("quadruples")])
def test_the_check_on_the_maps_lists_what_validate_quadruple_lists(fixture):
    # every violation, not only the first, on the mutants whose maps
    # factor, where the built route has a quadruple to validate
    compared = 0
    for _, doc in [("as shipped", _doc(fixture)), *_mutants(_doc(fixture))]:
        try:
            prob = load_problem({k: v for k, v in doc.items() if k != "quadruples"})
        except InputError:
            continue        # the mutant X fails before any quadruple is read
        for name, obj in doc.get("quadruples", {}).items():
            args = (prob.named("contexts", obj["context"]),
                    prob.named("modules", obj["x"]), prob.named("modules", obj["y"]),
                    mat_from_json(prob.field, obj["f_full"]),
                    mat_from_json(prob.field, obj["g_full"]))
            try:
                built = old_make_quadruple(*args, name=name)
            except ContextError as e:
                assert validate_quadruple(make_quadruple(*args, name=name)) == [str(e)]
                continue
            old = _old_violations(built)
            assert validate_quadruple(make_quadruple(*args, name=name)) == old, (
                fixture, name)
            compared += 1
    assert compared


def test_no_balanced_tensor_of_a_quadruple_is_built_to_load_or_decide_it(
        count_calls):
    # neither the load of a fixture nor the criterion and the assembly on
    # one of its quadruples builds M (x)_A X or N (x)_B Y of a quadruple
    calls = count_calls(bimodules.tensor_module)
    decided = 0
    for fixture in FIXTURES:
        prob = load_problem(_doc(fixture))
        for q in prob.quadruples.values():
            for ext in prob.extensions.values():
                if ext.A is q.ctx.A:
                    rep = engine.check_conditions(ext, q.ctx, q)
                    if rep.passed:
                        engine.build_total_resolution(ext, q.ctx, q, rep)
                        decided += 1
        assert not [q.name for q in prob.quadruples.values() for m, x in calls
                    if m is q.ctx.M and x is q.x or m is q.ctx.N and x is q.y], fixture
        calls.clear()
    assert decided == 8


def _matrices(obj):
    """Every matrix object in a parsed JSON value."""
    if isinstance(obj, dict):
        if {"rows", "cols", "entries"} <= obj.keys():
            yield obj
        for v in obj.values():
            yield from _matrices(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _matrices(v)


EXTRA = [  # negative ints, ints past p, "a/b" strings and a mix of the two
    {"rows": 2, "cols": 2, "entries": [-1, 8, -15, 3]},
    {"rows": 2, "cols": 3, "entries": [0, -7, 14, 22, -1, 6]},
    {"rows": 1, "cols": 3, "entries": ["1/2", -3, "5"]},
    {"rows": 2, "cols": 1, "entries": ["-3/4", "10/3"]},
    {"rows": 0, "cols": 3, "entries": []},
    {"rows": 2, "cols": 0, "entries": []},
]


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_the_integer_read_gives_the_parsed_matrix(F):
    mats = [m for name in FIXTURES for m in _matrices(_doc(name))] + EXTRA
    for obj in mats:
        rows, cols = obj["rows"], obj["cols"]
        vals = [F.parse(x) for x in obj["entries"]]
        assert mat_from_json(F, obj) == Mat(
            F, [vals[i * cols:(i + 1) * cols] for i in range(rows)], cols), obj
    assert len(mats) > 100
    algebras = [(n, a) for name in FIXTURES
                for n, a in _doc(name).get("algebras", {}).items()]
    for name, obj in algebras:
        consts = Mat(F, [[F.parse(c) for c in cell] for row in obj["mul"]
                         for cell in row], obj["dim"])
        assert algebra_from_json(F, obj, name).consts == consts, name
    assert algebras


@pytest.mark.parametrize("entries, message", [
    ([True, 0], "cannot parse scalar True"),
    ([1, False], "cannot parse scalar False"),
    ([1, 1.0], "cannot parse scalar 1.0"),
])
def test_the_integer_read_still_refuses_what_is_no_int(entries, message):
    with pytest.raises(InputError, match=f"malformed matrix: {message}"):
        mat_from_json(QQ(), {"rows": 1, "cols": 2, "entries": entries})
