from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace

import pytest

from gpmorita import morita
from gpmorita.algebra import memo, opposite_algebra, radical_basis
from gpmorita.bimodules import BalancedMap
from gpmorita.catalog import (
    field_algebra, glued_psi_context, path_a2, product_fields, proj_a2, random_hom,
    random_module, simple_at_idempotent, simple_kx2, truncated_poly,
    zero_context,
)
from gpmorita.fields import GF, QQ
from gpmorita.linalg import Mat
from gpmorita.modules import (
    FDModule, ModuleHom, cokernel_of, direct_sum, dual_module, free_module,
    hom_dim, hom_space, identity_hom, image_of, is_isomorphic, kernel_of,
    Undetermined, regular_module, restrict_along, validate_module,
    zero_hom, zero_module,
)
from gpmorita.morita import (
    ContextError, MoritaContext, build_ring, quadruple_to_module, t_a,
)


def test_regular_module_valid():
    for a in [field_algebra(QQ()), truncated_poly(QQ(), 2), path_a2(GF(7)),
              product_fields(GF(5), 2)]:
        assert validate_module(regular_module(a)) == []


def test_catalog_modules_valid():
    a = path_a2(QQ())
    assert validate_module(proj_a2(a)) == []
    assert validate_module(simple_at_idempotent(a, 0)) == []
    assert validate_module(simple_at_idempotent(a, 2)) == []
    b = truncated_poly(QQ(), 2)
    assert validate_module(simple_kx2(b)) == []


def test_hom_regular_k():
    a = field_algebra(QQ())
    x = regular_module(a)
    assert hom_dim(x, x) == 1


def test_hom_between_different_simples_is_zero():
    a = product_fields(QQ(), 2)
    s1 = simple_at_idempotent(a, 0)
    s2 = simple_at_idempotent(a, 1)
    assert hom_dim(s1, s2) == 0


def test_endos_of_regular_kx2():
    # End(A) = A for A = k[x]/(x^2): solved directly as a linear system
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    assert hom_dim(x, x) == 2
    for h in hom_space(x, x):
        assert h.intertwines()


def test_iso_self_and_dim_mismatch():
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    h = is_isomorphic(x, x)
    assert h is not None and h.is_iso()
    assert is_isomorphic(x, simple_kx2(a)) is None


def test_iso_distinct_simples_absent():
    a = product_fields(QQ(), 2)
    assert is_isomorphic(simple_at_idempotent(a, 0), simple_at_idempotent(a, 1)) is None
    b = product_fields(GF(3), 2)
    assert is_isomorphic(simple_at_idempotent(b, 0), simple_at_idempotent(b, 1)) is None


@pytest.mark.parametrize("F", [QQ(), GF(3)], ids=["Q", "GF3"])
def test_bounded_iso_search_is_never_a_false_negative(F):
    """S^4 vs P^2 over k[x]/(x^2) has a 16-dimensional hom space, past every
    decisive step, so the search must say it cannot decide; S^2 vs P has a
    2-dimensional one, small enough to prove there is no isomorphism.  The
    same search gets the same answers on the ring modules of the quadruples
    (X, 0) over a zero context."""
    a = truncated_poly(F, 2)
    s, p = simple_kx2(a), regular_module(a)

    def power(m, n):
        return direct_sum([m] * n)[0]

    with pytest.raises(Undetermined):
        is_isomorphic(power(s, 4), power(p, 2))
    assert is_isomorphic(power(s, 2), p) is None
    ctx = zero_context(a, field_algebra(F))
    mr = build_ring(ctx)

    def column(m):
        return quadruple_to_module(mr, t_a(ctx, m))

    with pytest.raises(Undetermined):
        is_isomorphic(column(power(s, 4)), column(power(p, 2)))
    assert is_isomorphic(column(power(s, 2)), column(p)) is None


def test_kernel_of_identity_and_zero():
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    k, incl = kernel_of(identity_hom(x))
    assert k.dim == 0
    k2, incl2 = kernel_of(zero_hom(x, x))
    assert k2.dim == x.dim


def test_cokernel_of_multiplication_by_x():
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    mul_x = ModuleHom(x, x, x.acts[1])   # right-composition with x-action is A-linear
    assert mul_x.intertwines()
    coker, proj = cokernel_of(mul_x)
    assert coker.dim == 1
    img, _ = image_of(mul_x)
    assert img.dim == 1
    ker, _ = kernel_of(mul_x)
    assert ker.dim + img.dim == x.dim


def test_direct_sum_and_projections():
    a = path_a2(QQ())
    s, incls, projs = direct_sum([proj_a2(a), simple_at_idempotent(a, 0)])
    assert s.dim == 3
    assert validate_module(s) == []
    for inc, prj in zip(incls, projs):
        comp = inc.then(prj)
        assert comp.mat == Mat.identity(a.field, inc.source.dim)


def test_dual_module_hom_dims_swap():
    a = path_a2(QQ())
    aop = opposite_algebra(a)
    x, y = proj_a2(a), simple_at_idempotent(a, 2)
    dx, dy = dual_module(x, aop), dual_module(y, aop)
    assert validate_module(dx) == []
    assert hom_dim(x, y) == hom_dim(dy, dx)


def test_restrict_along_projection():
    # pull the simple k-module back along k[x]/(x^2) ->> k
    a = truncated_poly(QQ(), 2)
    k = field_algebra(QQ())
    s = regular_module(k)
    proj_rows = Mat.from_rows(QQ(), [[1], [0]])   # 1 |-> 1, x |-> 0
    pulled = restrict_along(s, proj_rows, a)
    assert validate_module(pulled) == []
    assert is_isomorphic(pulled, simple_kx2(a)) is not None


def test_random_modules_are_valid_and_kernel_image_account():
    rng = random.Random(7)
    for F in [QQ(), GF(7)]:
        a = path_a2(F)
        for _ in range(8):
            x = random_module(a, rng)
            y = random_module(a, rng)
            assert validate_module(x) == []
            h = random_hom(x, y, rng)
            assert h.intertwines()
            ker, _ = kernel_of(h)
            img, _ = image_of(h)
            cok, _ = cokernel_of(h)
            assert ker.dim + img.dim == x.dim
            assert img.dim + cok.dim == y.dim


def test_free_module_and_zero():
    a = path_a2(QQ())
    f = free_module(a, 2)
    assert f.dim == 6 and validate_module(f) == []
    z = zero_module(a)
    assert hom_space(z, f) == []


def test_equality_does_not_depend_on_memos():
    # equal algebras and equal modules stay equal whatever one of them has
    # computed and kept; comparing algebras whose opposites are built must
    # not recurse through the opposite and back
    a, b = truncated_poly(QQ(), 2), truncated_poly(QQ(), 2)
    x, y = regular_module(a), regular_module(a)
    assert a == b and x == y
    validate_module(x)
    hom_space(x, x)
    radical_basis(a)
    a.lmul_mats()
    assert a == b and x == y
    opposite_algebra(a), opposite_algebra(b)
    assert a == b
    assert a != truncated_poly(QQ(), 3) and x != direct_sum([y, y])[0]


def test_a_replaced_module_is_validated_afresh():
    # a dataclasses.replace copy starts with no memo entries, so a copy with
    # corrupted actions does not read the verdict of the valid original
    x = regular_module(truncated_poly(QQ(), 3))
    assert validate_module(x) == []
    bad = replace(x, acts=[m.scale(QQ().of_int(2)) for m in x.acts])
    assert validate_module(bad) == ["unit does not act as identity",
                                    "action not multiplicative at (1,0)"]


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_an_algebra_and_a_module_with_memo_entries_pickle(F):
    # each entry is keyed by the memoized function, the object that pickle
    # finds by its name; the copies answer as the originals do
    a = path_a2(F)
    x = regular_module(a)
    n = len(hom_space(x, x))
    b = pickle.loads(pickle.dumps(a))
    assert b == a and len(hom_space(regular_module(b), regular_module(b))) == n
    y = pickle.loads(pickle.dumps(x))
    assert y == x and len(hom_space(y, y)) == n


@pytest.mark.parametrize("dup", [copy.deepcopy,
                                 lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["deepcopy", "pickle"])
def test_a_copy_keeps_only_the_memo_entries_that_can_hit(dup):
    # hom_space(x, x) is kept on x under the id of its second argument,
    # which no copy of x has; direct_summands(x) under the function alone
    x = regular_module(path_a2(QQ()))
    basis = hom_space(x, x)
    assert len(x._cache) == 2
    y = dup(x)
    assert len(y._cache) == 1
    assert [h.mat for h in hom_space(y, y)] == [h.mat for h in basis]
    assert len(y._cache) == 2


def test_memo_answers_only_its_own_arguments(count_calls):
    class Holder:
        def __init__(self):
            self._cache = {}

    calls = []

    @memo(on=1)
    def build(a, b, seed=0, bound=None):
        calls.append((a, b, seed, bound))
        return object()

    a, b = Holder(), Holder()
    out = build(a, b)
    # positional, keyword and defaulted calls share one entry
    assert build(a, b, 0) is out and build(a, b, seed=0, bound=None) is out
    assert build(b=b, a=a) is out and len(calls) == 1
    assert build(Holder(), b) is not out and len(calls) == 2
    # each seed and each bound has its own entry
    by_seed, by_bound = build(a, b, 1), build(a, b, bound=3)
    assert len({id(out), id(by_seed), id(by_bound)}) == 3 and len(calls) == 4
    assert build(a, b, seed=1) is by_seed and build(a, b, 0, 3) is by_bound
    assert build(a, b) is out and len(calls) == 4
    # an entry whose key id now belongs to another object is not a hit: the
    # entry holds the arguments it was built for
    for key, (held, _) in list(b._cache.items()):
        b._cache[key] = (tuple(Holder() for _ in held), "stale")
    assert build(a, b) not in (out, "stale") and len(calls) == 5
    # an exception is not stored: the next call runs the body again
    _, ctx = glued_psi_context(QQ())
    bad = BalancedMap(ctx.N, ctx.M, ctx.A, Mat.from_rows(QQ(), [[1, 0]], 2))
    broken = MoritaContext(ctx.A, ctx.B, ctx.M, ctx.N, ctx.phi, bad)
    checks = count_calls(morita.require_valid_context)
    for n in (1, 2):
        with pytest.raises(ContextError):
            build_ring(broken)
        assert len(checks) == n
