"""One instance per field and per empty matrix, and what the assembly gains.

`fields.Field` returns one instance per `FieldSpec`, so `QQ()`, `GF(p)`,
`Field(spec)` and a problem file's field are the same object and field
equality is identity.  `linalg` mints every matrix in one helper, which
hands out one shared instance per (field, rows, cols) when rows or cols
is 0; every path that can return such a matrix returns that instance,
copies and pickles included, and row reduction, rank and kernels read
it correctly.  In the triangular context M = 0, so every M (x) P^i is
zero and the tau^i of the assembly read the same instances at every
degree: `engine._sigma` runs once per distinct tuple of inputs, not once
per degree.
"""
from __future__ import annotations

import copy
import pickle

import pytest

from gpmorita import engine
from gpmorita.catalog import path_a2, triangular_context
from gpmorita.engine import build_total_resolution, check_conditions
from gpmorita.fields import GF, QQ, Field, FieldMismatch, FieldSpec
from gpmorita.jsonio import field_from_json
from gpmorita.linalg import Mat, kernel_basis, rank, row_space, rref
from gpmorita.modules import regular_module
from gpmorita.morita import t_a, t_b

FIELDS = {"Q": QQ, "GF7": lambda: GF(7)}


def test_one_field_instance_per_spec():
    assert QQ() is QQ() is Field(FieldSpec("Q")) is field_from_json("Q")
    assert GF(7) is field_from_json({"p": 7})
    assert Field(FieldSpec("Fp", 7)) is GF(7)
    # equality is identity
    assert QQ() != GF(7) and GF(7) != GF(11) and GF(7) == GF(7)
    with pytest.raises(FieldMismatch):
        Mat.identity(QQ(), 1).add(Mat.identity(GF(7), 1))


@pytest.mark.parametrize("field", FIELDS)
def test_every_path_to_an_empty_matrix_returns_the_shared_instance(field):
    F = FIELDS[field]()
    z03, z20 = Mat.zeros(F, 0, 3), Mat.zeros(F, 2, 0)
    assert z03 is Mat.zeros(F, 0, 3) and z20 is Mat.zeros(F, 2, 0)
    assert Mat.zeros(GF(11), 0, 3) != z03       # one instance per field
    a = Mat.from_ints(F, [[1, 2, 3], [4, 5, 6]])
    assert Mat.from_rows(F, [], 3) is z03
    assert Mat(F, [], 3) is z03
    assert Mat(F, [[], []], 0) is z20
    assert Mat.from_ints(F, [], 3) is z03
    assert Mat.from_ints(F, [[], []], 0) is z20
    assert z20.kron(Mat.identity(F, 1)) is z20
    assert Mat.zeros(F, 0, 1).kron(a) is z03
    assert a.block(0, 2, 1, 1) is z20
    assert a.block(1, 1, 0, 3) is Mat.zeros(F, 0, 3)
    assert Mat.hstack([Mat.zeros(F, 0, 1), Mat.zeros(F, 0, 2)]) is z03
    assert Mat.vstack([Mat.zeros(F, 1, 0), Mat.zeros(F, 1, 0)]) is z20
    assert Mat.hstack([z20, z20]) is z20
    assert z03.transpose() is Mat.zeros(F, 3, 0)
    assert z20.transpose() is Mat.zeros(F, 0, 2)
    assert z03.reshape(3, 0) is Mat.zeros(F, 3, 0)
    assert kernel_basis(Mat.identity(F, 3)) is Mat.zeros(F, 3, 0)
    assert row_space(Mat.zeros(F, 2, 3)) is z03
    assert z03.copy() is z03 and z20.copy() is z20
    assert z03 @ a.transpose() is Mat.zeros(F, 0, 2)


@pytest.mark.parametrize("field", FIELDS)
def test_copies_keep_the_one_field_and_the_shared_empties(field):
    a = path_a2(FIELDS[field]())
    z = Mat.zeros(a.field, 0, 3)
    for dup in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        b = dup(a)
        assert b.field is a.field and b.consts == a.consts
        assert dup(z) is z


@pytest.mark.parametrize("field", FIELDS)
def test_row_reduction_of_the_shared_empties(field):
    F = FIELDS[field]()
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        for _ in range(2):      # the second call reads the cached form
            z = Mat.zeros(F, rows, cols)
            r, piv = rref(z)
            assert (r.rows, r.cols, piv) == (0, cols, ())
            assert rank(z) == 0
            assert kernel_basis(z) == Mat.identity(F, cols)


def _sigma_calls(monkeypatch) -> list:
    calls = []
    sigma = engine._sigma
    monkeypatch.setattr(engine, "_sigma",
                        lambda *args: calls.append(args) or sigma(*args))
    return calls


@pytest.mark.parametrize("field", FIELDS)
def test_assembly_reads_sigma_once_per_distinct_input_tuple(field, monkeypatch):
    # M = 0, so every M (x) P^i and its differentials are the shared empty
    # matrices, and tau^i has the same inputs at every degree: one _sigma
    # call for tau and one for sigma^0, at every window
    ext, ctx = triangular_context(FIELDS[field]())
    assert ctx.M.dim == 0
    calls = _sigma_calls(monkeypatch)
    for q in (t_a(ctx, regular_module(ctx.A)), t_b(ctx, regular_module(ctx.B))):
        report = check_conditions(ext, ctx, q)
        assert report.passed
        for window in (1, 2, 3, 4):
            calls.clear()
            build_total_resolution(ext, ctx, q, report, window=window)
            assert len(calls) == 2
