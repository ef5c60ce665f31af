from __future__ import annotations

import random

import pytest

from gpmorita import homology, idempotents
from gpmorita.algebra import AlgebraError, opposite_algebra
from gpmorita.bimodules import right_bimodule
from gpmorita.catalog import (
    field_algebra, path_a2, product_fields, proj_a2, random_module,
    simple_at_idempotent, simple_kx2, truncated_poly, two_cycle_rad_square,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import (
    ext_dim, global_dimension, indec_injectives, injective_dimension,
    is_projective, is_self_injective, minimal_resolution, projective_cover,
    projective_dimension, simple_modules, top_of, tor_dim,
)
from gpmorita.idempotents import (
    _check_idempotents, _poly_mul, linear_roots, primitive_idempotents,
)
from gpmorita.linalg import Mat, rank
from gpmorita.modules import (
    ModuleError, ModuleHom, direct_sum, dual_module, free_module, hom_dim,
    hom_space, is_isomorphic, regular_module, validate_module, zero_module,
)

from element_products import multiply


def test_primitive_idempotents_field():
    a = field_algebra(QQ())
    prims = primitive_idempotents(a)
    assert len(prims) == 1 and prims[0][0] == a.unit


def test_primitive_idempotents_product():
    a = product_fields(QQ(), 3)
    prims = primitive_idempotents(a)
    assert len(prims) == 3
    assert len({blk for _, blk in prims}) == 3


def test_primitive_idempotents_kx2_lift_through_radical():
    a = truncated_poly(QQ(), 2)
    prims = primitive_idempotents(a)
    assert len(prims) == 1
    assert prims[0][0] == a.unit


def test_primitive_idempotents_path_a2():
    a = path_a2(QQ())
    prims = primitive_idempotents(a)
    assert len(prims) == 2
    assert len({blk for _, blk in prims}) == 2


# over k x k, with basis e1, e2 and unit e1 + e2
@pytest.mark.parametrize("es, message", [
    ([[2, 0], [-1, 1]], "not idempotent"),
    ([[1, 1], [1, 0]], "not orthogonal"),
    ([[1, 0]], "do not sum to 1"),
], ids=["non_idempotent", "non_orthogonal", "wrong_sum"])
def test_idempotent_check_rejects_each_bad_list(es, message):
    a = product_fields(QQ(), 2)
    _check_idempotents(a, [[1, 0], [0, 1]], "basis")
    with pytest.raises(AlgebraError, match=message):
        _check_idempotents(a, es, "bad")


def test_an_idempotent_list_builds_no_projective(count_calls):
    # a searched algebra's idempotents are read without its projectives:
    # `_idempotents` finds and checks the list, and only `_block_reps`
    # builds A*e from it
    from gpmorita import modules
    a = truncated_poly(QQ(), 8)
    subs = count_calls(modules.submodule_from_rows)
    idems = homology._idempotents(a)
    assert len(idems) == 1 and idems[0][0] == a.unit
    assert subs == []
    assert len(homology._block_reps(a)) == 1 and len(subs) == 1


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_idempotent_endo_of_k2_is_a_rank_one_idempotent(F):
    # End(k^2) is the 2x2 matrix algebra, so a primitive idempotent of it
    # is a proper idempotent endomorphism of rank 1
    a = field_algebra(F)
    k2 = free_module(a, 2)
    e = idempotents._idempotent_endo(a, hom_space(k2, k2))
    assert e is not None
    assert e @ e == e and rank(e) == 1
    assert ModuleHom(k2, k2, e).intertwines()


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_idempotent_endo_of_a_simple_is_none(F):
    # End(S) = k has no proper idempotent
    s = simple_kx2(truncated_poly(F, 2))
    endos = hom_space(s, s)
    assert len(endos) == 1
    assert idempotents._idempotent_endo(s.algebra, endos) is None


def _m2(F):
    """The full 2x2 matrix algebra on the basis E11, E12, E21, E22."""
    from gpmorita.algebra import Algebra
    z = F.zero()
    consts = [[z] * 4 for _ in range(16)]

    def setp(i, j, k):
        consts[i * 4 + j][k] = F.one()

    # E(ab) * E(cd) = delta(bc) E(ad); index = 2*(a-1)+(d-1)... encode:
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    for (a_, b_), i in idx.items():
        for (c_, d_), j in idx.items():
            if b_ == c_:
                setp(i, j, idx[(a_, d_)])
    return Algebra(F, 4, Mat(F, consts, 4), [F.one(), z, z, F.one()], name="M2")


def test_primitive_idempotents_matrix_algebra():
    # full 2x2 matrices: one block, two primitive idempotents
    prims = primitive_idempotents(_m2(QQ()))
    assert len(prims) == 2
    assert all(blk == 0 for _, blk in prims)


def test_primitive_idempotents_matrix_algebra_over_gf7(count_calls):
    # a simple block of dimension 4 is split by the zero-divisor search
    probes = count_calls(idempotents._singular_candidates)
    prims = primitive_idempotents(_m2(GF(7)))
    assert len(prims) == 2
    assert all(blk == 0 for _, blk in prims)
    assert probes


# above 4096 the roots over F_p come from equal-degree splitting, not a scan
LARGE_PRIMES = pytest.mark.parametrize("p", [4099, 2**31 - 1])


@LARGE_PRIMES
def test_linear_roots_over_a_large_prime(p, count_calls):
    F = GF(p)
    splits = count_calls(idempotents._cz_roots)

    def product(*factors):
        out = [F.one()]
        for f in factors:
            out = _poly_mul(F, out, f)
        return out

    def linear(r):
        return [F.neg(F.of_int(r)), F.one()]

    roots, split = linear_roots(F, product(linear(3), linear(5), linear(2**30)))
    assert roots == sorted(F.of_int(r) for r in (3, 5, 2**30)) and split
    # x^2 + 1 has no root mod either prime (both are 3 mod 4)
    roots, split = linear_roots(F, product(linear(3), [F.one(), F.zero(), F.one()]))
    assert roots == [F.of_int(3)] and not split
    assert splits


@pytest.mark.parametrize("F", [QQ(), GF(7), GF(4099)], ids=["Q", "GF7", "GF4099"])
def test_linear_roots_of_a_polynomial_with_repeated_roots(F):
    # the distinct roots, ascending; the flag counts them against the degree
    def from_roots(*rs):
        out = [F.one()]
        for r in rs:
            out = _poly_mul(F, out, [F.neg(F.of_int(r)), F.one()])
        return out

    roots, split = linear_roots(F, from_roots(3, 3, 5))
    assert roots == [F.of_int(3), F.of_int(5)] and not split
    roots, split = linear_roots(F, from_roots(0, 0, 2))
    assert roots == [F.zero(), F.of_int(2)] and not split
    roots, split = linear_roots(F, from_roots(5, 0, 3))
    assert roots == [F.zero(), F.of_int(3), F.of_int(5)] and split


@LARGE_PRIMES
@pytest.mark.parametrize("make", [path_a2, two_cycle_rad_square],
                         ids=lambda m: m.__name__)
def test_primitive_idempotents_over_a_large_prime(p, make, count_calls):
    splits = count_calls(idempotents._cz_roots)
    a = make(GF(p))
    prims = primitive_idempotents(a)
    assert len(prims) == 2 and len({blk for _, blk in prims}) == 2
    for e, _ in prims:
        assert multiply(a, e, e) == e
    assert splits


def test_cover_of_projective_is_iso():
    a = path_a2(QQ())
    p2 = proj_a2(a)
    P, phi = projective_cover(p2)
    assert P.dim == p2.dim and phi.is_iso()
    assert is_projective(p2)


def test_cover_of_simple_over_kx2():
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    P, phi = projective_cover(s)
    assert P.dim == 2 and phi.is_surjective()
    from gpmorita.modules import kernel_of
    k, _ = kernel_of(phi)
    assert k.dim == 1


def test_cover_of_zero():
    a = path_a2(QQ())
    P, _ = projective_cover(zero_module(a))
    assert P.dim == 0


def test_resolution_of_projective_is_trivial():
    a = path_a2(QQ())
    res = minimal_resolution(proj_a2(a), 2)
    assert res.syzygies[-1].dim == 0
    assert res.terms[1].dim == 0 and res.terms[2].dim == 0


def test_periodic_resolution_over_kx2():
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    res = minimal_resolution(s, 3)
    assert [t.dim for t in res.terms] == [2, 2, 2, 2]
    assert res.syzygies[-1].dim != 0
    # exactness at interior degrees: ker d_j = im d_{j+1}
    from gpmorita.linalg import rank
    for j in range(len(res.maps)):
        m = res.maps[j].mat
        top = res.terms[j]
        assert rank(m) == res.syzygies[j].dim


def test_resolution_of_simple_over_path_a2():
    a = path_a2(QQ())
    s2 = simple_at_idempotent(a, 2, name="S2")   # top of the 2-dim projective
    res = minimal_resolution(s2, 2)
    assert [t.dim for t in res.terms[:2]] == [2, 1]
    assert res.syzygies[-1].dim == 0


def test_ext_vanishes_on_projectives():
    a = path_a2(QQ())
    p2 = proj_a2(a)
    for y in [simple_at_idempotent(a, 0), proj_a2(a), regular_module(a)]:
        assert ext_dim(p2, y, 1) == 0


def test_ext_and_tor_over_kx2():
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    assert ext_dim(s, s, 1) == 1
    assert ext_dim(s, s, 2) == 1
    # right module S over the opposite algebra (commutative, same thing)
    aop = opposite_algebra(a)
    s_op = dual_module(s, aop)
    assert tor_dim(right_bimodule(s_op), s, 1) == 1
    assert tor_dim(right_bimodule(s_op), s, 0) == 1


def test_ext_s2_s1_path_a2():
    a = path_a2(QQ())
    s1 = simple_at_idempotent(a, 0, name="S1")
    s2 = simple_at_idempotent(a, 2, name="S2")
    assert ext_dim(s2, s1, 1) == 1
    assert ext_dim(s1, s2, 1) == 0


def test_projective_and_injective_dimension():
    a = path_a2(QQ())
    s2 = simple_at_idempotent(a, 2)
    assert projective_dimension(s2, 5) == 1
    assert projective_dimension(proj_a2(a), 5) == 0
    # hereditary: injective dimensions bounded by 1
    for s in [simple_at_idempotent(a, 0), s2]:
        assert injective_dimension(s, 5) <= 1


def test_injective_dimension_infinite_over_kx2():
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    assert injective_dimension(s, 5) is None


def test_global_dimension():
    assert global_dimension(field_algebra(QQ()), 3) == 0
    assert global_dimension(path_a2(QQ()), 3) == 1
    assert global_dimension(truncated_poly(QQ(), 2), 4) is None


def test_global_dimension_is_kept_per_algebra(count_calls):
    # the simples of path_a2 are resolved by the first certify call only
    a = path_a2(QQ())
    calls = count_calls(homology.projective_dimension)
    s2 = simple_at_idempotent(a, 2, name="S2")
    for x in (s2, direct_sum([s2, s2])[0]):
        assert certify_gorenstein_projective(x).verdict == "not_gp"
    assert len(calls) == len(simple_modules(a)) == 2


@pytest.mark.parametrize("bounds", [(0, 1), (1, 0)], ids=["0-then-1", "1-then-0"])
def test_global_dimension_keeps_each_bound_apart(bounds):
    a = path_a2(QQ())
    for _ in range(2):
        for b in bounds:
            assert global_dimension(a, b) == {0: None, 1: 1}[b]


# -- each check of projective_cover still fires ---------------------------------

COVER_FIELDS = pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])


@COVER_FIELDS
def test_cover_rejects_a_non_invariant_radical(F, monkeypatch):
    # the span of the unit is not a submodule of the regular module
    a = path_a2(F)
    monkeypatch.setattr(homology, "radical_rows_of_module",
                        lambda x: Mat(F, [a.unit], a.dim))
    with pytest.raises(ModuleError, match="not invariant"):
        projective_cover(regular_module(a))


@COVER_FIELDS
def test_cover_rejects_a_top_without_lifts(F, monkeypatch):
    monkeypatch.setattr(homology, "solve_left", lambda a, b: None)
    with pytest.raises(ModuleError, match="top projection is not surjective"):
        projective_cover(regular_module(path_a2(F)))


@COVER_FIELDS
def test_cover_rejects_lifts_that_miss_the_top(F, monkeypatch):
    # the first lifted top row is replaced by zero, so the lifts no longer
    # span the top
    real = homology.solve_left
    calls = []

    def drop_first_lift(a, b):
        y = real(a, b)
        calls.append(y)
        if len(calls) == 1:
            y = Mat.vstack([Mat.zeros(F, 1, y.cols), y.block(1, y.rows, 0, y.cols)])
        return y

    monkeypatch.setattr(homology, "solve_left", drop_first_lift)
    with pytest.raises(ModuleError, match="failed to surject"):
        projective_cover(regular_module(path_a2(F)))
    assert calls


@COVER_FIELDS
def test_cover_rejects_a_non_minimal_summand_list(F, monkeypatch):
    # every indecomposable projective offered twice: P maps onto x, but
    # its kernel leaves rad P
    real = homology._block_reps
    monkeypatch.setattr(homology, "_block_reps", lambda a: real(a) * 2)
    with pytest.raises(ModuleError, match="not minimal"):
        projective_cover(simple_at_idempotent(path_a2(F), 2, name="S2"))


def test_self_injective():
    assert is_self_injective(field_algebra(QQ()))
    assert is_self_injective(truncated_poly(QQ(), 2))
    assert is_self_injective(two_cycle_rad_square(QQ()))
    assert not is_self_injective(path_a2(QQ()))


def test_injective_module_has_injdim_zero():
    a = path_a2(QQ())
    for inj in indec_injectives(a):
        assert validate_module(inj) == []
        assert injective_dimension(inj, 3) == 0


def test_simples_of_two_cycle():
    a = two_cycle_rad_square(QQ())
    simples = simple_modules(a)
    assert len(simples) == 2
    assert all(s.dim == 1 for s in simples)


def test_dual_hom_dim_symmetry_random():
    rng = random.Random(3)
    a = two_cycle_rad_square(QQ())
    aop = opposite_algebra(a)
    for _ in range(5):
        x = random_module(a, rng)
        y = random_module(a, rng)
        assert hom_dim(x, y) == hom_dim(dual_module(y, aop), dual_module(x, aop))


def test_ext_beyond_global_dimension_vanishes():
    rng = random.Random(5)
    a = path_a2(QQ())
    g = global_dimension(a, 3)
    for _ in range(4):
        x = random_module(a, rng)
        y = random_module(a, rng)
        assert ext_dim(x, y, g + 1) == 0
