from __future__ import annotations

import pytest

from gpmorita.algebra import (
    Algebra, UnsupportedField, generating_subset, ideal_closure,
    opposite_algebra, quotient_algebra, radical_basis, subalgebra,
    validate_algebra,
)
from gpmorita.catalog import (
    field_algebra, nakayama, path_a2, product_fields, truncated_poly,
    two_cycle_rad_square,
)
from gpmorita.fields import GF, QQ
from gpmorita.homology import _block_reps, gorenstein_dimension
from gpmorita.linalg import Mat, rank, row_space


def test_validate_field_algebra_ok():
    assert validate_algebra(field_algebra(QQ())) == []


def test_validate_kx2_ok():
    assert validate_algebra(truncated_poly(QQ(), 2)) == []


def _x_squared_one_plus(a: Algebra) -> Algebra:
    """k[x]/(x^3) with the product x*x = 1 + x^2: b_1 b_1 is row 1*3 + 1."""
    rows = a.consts.to_rows()
    rows[1 * 3 + 1][0] = a.field.one()
    return Algebra(a.field, 3, Mat(a.field, rows, 3), a.unit)


def test_validate_catches_nonassociative():
    F = QQ()
    # b1*b1 = b1 (so b1 is not idempotent-compatible with unit b0): force
    # (b1 b1) b1 != b1 (b1 b1) by an asymmetric table
    a = _x_squared_one_plus(truncated_poly(F, 3))   # breaks associativity
    bad = validate_algebra(a)
    assert bad and bad[0].kind == "associativity"


def test_validate_algebra_checks_each_instance_once(monkeypatch):
    a = _x_squared_one_plus(truncated_poly(QQ(), 3))
    calls = []
    matmul = Mat.matmul
    monkeypatch.setattr(Mat, "matmul",
                        lambda self, other: calls.append(1) or matmul(self, other))
    first = validate_algebra(a)
    assert first and first[0].kind == "associativity"
    made = len(calls)
    assert made
    first.clear()
    second = validate_algebra(a)
    assert len(calls) == made
    assert second and second[0].kind == "associativity"
    second.append("mutated")
    assert validate_algebra(a)[-1] != "mutated"


def test_opposite_of_commutative_is_identical():
    a = truncated_poly(QQ(), 3)
    assert opposite_algebra(a).consts == a.consts


def test_opposite_path_algebra_hand_constants():
    a = path_a2(QQ())
    op = opposite_algebra(a)
    # in the opposite algebra the arrow composes the other way around:
    # e1 *op a = a *orig e1 = 0 and a *op e2 = 0, while e2 *op a = a
    F = a.field
    assert op.consts.row(0 * 3 + 1) == [F.zero()] * 3
    assert op.consts.row(2 * 3 + 1) == a.basis_el(1)
    assert validate_algebra(op) == []


def test_opposite_is_involution():
    for a in [path_a2(QQ()), two_cycle_rad_square(GF(7)), truncated_poly(GF(5), 3)]:
        assert opposite_algebra(opposite_algebra(a)).consts == a.consts


def test_generating_subset_small():
    a = truncated_poly(QQ(), 4)
    gens = generating_subset(a)
    assert gens == [1]          # x generates k[x]/(x^4)
    b = product_fields(QQ(), 3)
    assert len(generating_subset(b)) == 2


def _catalog_algebras(F):
    from gpmorita.catalog import (
        arrow_ideal_context, glued_psi_context, triangular_context,
        two_cycle_context, wide_psi_context,
    )
    from gpmorita.morita import build_ring
    algs = [field_algebra(F), product_fields(F, 3), truncated_poly(F, 2),
            truncated_poly(F, 4), path_a2(F), two_cycle_rad_square(F),
            nakayama(F, [3, 2, 1])]
    return algs + [build_ring(c(F)[1]).ring for c in (
        triangular_context, two_cycle_context, glued_psi_context,
        arrow_ideal_context, wide_psi_context)]


def _scanned(a):
    """generating_subset of a copy of a with no opposite on record: the
    scan itself, with nothing to reuse."""
    return generating_subset(Algebra(a.field, a.dim, a.consts, a.unit))


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_an_opposite_reuses_the_generating_list(F):
    # the unital subalgebra generated by some basis elements is the same
    # subspace of A and of A^op, so the list scanned on either side is the
    # list of the other, whichever is asked first
    for first_op in (False, True):
        for a in _catalog_algebras(F):
            op = opposite_algebra(a)
            first, second = (op, a) if first_op else (a, op)
            gens = generating_subset(first)
            assert gens == _scanned(first)
            assert generating_subset(second) is gens or a.dim <= 1
            assert gens == _scanned(second), (a.name, first_op)
            assert (gens == []) == (a.dim <= 1)


def test_radical_semisimple_empty():
    r = radical_basis(product_fields(QQ(), 2))
    assert r.rows == 0


def test_radical_kx2_is_x():
    a = truncated_poly(QQ(), 2)
    r = radical_basis(a)
    assert r.rows == 1
    assert r.data[0] == [a.field.zero(), a.field.one()]


def test_radical_path_a2():
    a = path_a2(QQ())
    r = radical_basis(a)
    assert r.rows == 1
    # the arrow spans the radical and squares to zero
    assert r.data[0][1] == a.field.one()


def test_radical_quotient_is_semisimple():
    a = path_a2(QQ())
    r = radical_basis(a)
    q, _ = quotient_algebra(a, r)
    assert validate_algebra(q) == []
    assert radical_basis(q).rows == 0


def test_radical_unsupported_small_characteristic():
    with pytest.raises(UnsupportedField):
        radical_basis(path_a2(GF(2)))


@pytest.mark.parametrize("F", [QQ(), GF(7), GF(11)], ids=["Q", "GF7", "GF11"])
def test_nakayama_algebras_have_projectives_of_the_kupisch_lengths(F):
    # N(3,3) and N(2,2,2,2,2) are self-injective, N(3,3,4) is not; the
    # paths from vertex i span e_i A, of length c_i, and the projectives
    # A e_i have the same lengths in another order
    for kupisch in ([3, 3], [2, 2, 2, 2, 2], [3, 3, 4]):
        a = nakayama(F, kupisch)
        assert a.dim == sum(kupisch)
        assert a.name == f"N({','.join(map(str, kupisch))})"
        assert validate_algebra(a) == []
        if 0 < F.characteristic <= a.dim:
            # the radical by the trace form needs p > dim
            with pytest.raises(UnsupportedField):
                radical_basis(a)
            continue
        dims = sorted(rep[0].dim for rep in _block_reps(a))
        assert dims == sorted(kupisch), kupisch
        assert (gorenstein_dimension(a) == 0) == (len(set(kupisch)) == 1)


def test_radical_big_characteristic_ok():
    r = radical_basis(truncated_poly(GF(7), 2))
    assert r.rows == 1


def test_subalgebra_diagonal_of_path_a2():
    a = path_a2(QQ())
    F = a.field
    rows = Mat.from_rows(F, [[1, 0, 0], [0, 0, 1]])
    sub, incl = subalgebra(a, rows, name="diag")
    assert sub.dim == 2
    assert validate_algebra(sub) == []


def test_ideal_closure():
    a = path_a2(QQ())
    arrow = Mat.from_rows(a.field, [[0, 1, 0]])
    closed = ideal_closure(a, arrow)
    assert closed.rows == 1   # the arrow span is already a two-sided ideal
    e1 = Mat.from_rows(a.field, [[1, 0, 0]])
    assert ideal_closure(a, e1).rows == 2   # e1 generates span{e1, a}


def test_quotient_by_radical_of_two_cycle():
    a = two_cycle_rad_square(QQ())
    r = radical_basis(a)
    assert r.rows == 2
    q, proj = quotient_algebra(a, r)
    assert q.dim == 2
    assert validate_algebra(q) == []
