from __future__ import annotations

import random

import pytest

from gpmorita.algebra import opposite_algebra, radical_basis
from gpmorita.bimodules import (
    BalancedMap, Bimodule, bimodule_tensor, hom_module, outer_bimodule,
    regular_bimodule, restrict_right, right_bimodule, sub_bimodule_from_rows,
    tensor_functor_hom, tensor_module, validate_balanced_map, validate_bimodule,
    zero_balanced_map, zero_bimodule,
)
from gpmorita.catalog import (
    field_algebra, path_a2, product_fields, random_hom, random_module,
    simple_at_idempotent, simple_kx2, truncated_poly,
)
from gpmorita.fields import GF, QQ
from gpmorita.linalg import Mat, rank
from gpmorita.modules import (
    ModuleHom, hom_dim, is_isomorphic, regular_module, validate_module,
)


def test_regular_bimodule_valid():
    for a in [truncated_poly(QQ(), 2), path_a2(GF(7))]:
        assert validate_bimodule(regular_bimodule(a)) == []


def test_outer_bimodule_valid():
    a, b = path_a2(QQ()), truncated_poly(QQ(), 2)
    v = simple_at_idempotent(a, 0)
    w = regular_module(opposite_algebra(b))
    m = outer_bimodule(v, w)
    assert validate_bimodule(m) == []
    assert m.dim == 2


def test_tensor_unit_law_left():
    # A (x)_A X = X for the regular bimodule
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    t = tensor_module(regular_bimodule(a), x)
    assert t.module.dim == x.dim
    assert validate_module(t.module) == []
    assert is_isomorphic(t.module, x) is not None


def test_tensor_unit_law_right():
    a = path_a2(QQ())
    m = regular_bimodule(a)
    x = regular_module(a)
    t = tensor_module(m, x)
    assert t.module.dim == a.dim


def test_tensor_k_over_kx2_k():
    # k (x)_{k[x]/x^2} k has dimension 1: relation span has rank 1
    a = truncated_poly(QQ(), 2)
    k = field_algebra(QQ())
    # k as a (k, A)-bimodule: right action via A ->> k
    proj_rows = Mat.from_rows(QQ(), [[1], [0]])
    m = Bimodule(k, a, 1,
                 [Mat.identity(QQ(), 1)],
                 [Mat.identity(QQ(), 1), Mat.zeros(QQ(), 1, 1)], name="k")
    assert validate_bimodule(m) == []
    s = simple_kx2(a)
    t = tensor_module(m, s)
    assert t.module.dim == 1
    # oracle: explicit relation-span rank in the 1x1 tensor space
    assert rank(t.proj) == 1


def test_tensor_functor_identity_and_zero():
    a = path_a2(QQ())
    m = regular_bimodule(a)
    x = proj = regular_module(a)
    t = tensor_module(m, x)
    ih = tensor_functor_hom(t, t, ModuleHom(x, x, Mat.identity(QQ(), x.dim)))
    assert ih.mat == Mat.identity(QQ(), t.module.dim)
    zh = tensor_functor_hom(t, t, ModuleHom(x, x, Mat.zeros(QQ(), x.dim, x.dim)))
    assert zh.is_zero()


def test_tensor_right_exactness_random():
    rng = random.Random(11)
    a = path_a2(QQ())
    m = regular_bimodule(a)
    for _ in range(6):
        x = random_module(a, rng)
        y = random_module(a, rng)
        h = random_hom(x, y, rng)
        tx, ty = tensor_module(m, x), tensor_module(m, y)
        th = tensor_functor_hom(tx, ty, h)
        assert th.intertwines()
        if h.is_surjective():
            assert th.is_surjective()


def test_hom_module_unit_law():
    a = truncated_poly(QQ(), 2)
    n = regular_bimodule(a)
    x = regular_module(a)
    hm, basis = hom_module(n, x)
    assert hm.dim == x.dim
    assert validate_module(hm) == []


def test_hom_module_zero():
    a = path_a2(QQ())
    n = zero_bimodule(a, a)
    hm, basis = hom_module(n, regular_module(a))
    assert hm.dim == 0


def test_hom_module_matrix_spaces():
    # Hom_k(k^2, k^3) is 6-dimensional over (k, k)
    k = field_algebra(QQ())
    n = Bimodule(k, k, 2, [Mat.identity(QQ(), 2)], [Mat.identity(QQ(), 2)])
    x = FDModule_dim3 = None
    from gpmorita.modules import FDModule
    x = FDModule(k, 3, [Mat.identity(QQ(), 3)])
    hm, basis = hom_module(n, x)
    assert hm.dim == 6


def test_adjunction_dimension_identity_random():
    # dim Hom_B(M (x)_A X, Y) = dim Hom_A(X, Hom_B(M, Y))
    rng = random.Random(23)
    A = truncated_poly(QQ(), 2)
    B = path_a2(QQ())
    for _ in range(4):
        vb = random_module(B, rng, max_free=1, max_cuts=1)
        wa = random_module(opposite_algebra(A), rng, max_free=1, max_cuts=1)
        m = outer_bimodule(vb, wa)          # over (B, A)
        x = random_module(A, rng, max_free=1)
        y = random_module(B, rng, max_free=1)
        lhs = hom_dim(tensor_module(m, x).module, y)
        # Hom_B(M, Y) is a left A-module via (a.f)(m') = f(m'.a)
        inner, _ = hom_module(m, y)
        assert lhs == hom_dim(x, inner)


def test_balanced_map_zero_validates():
    a = truncated_poly(QQ(), 2)
    b = field_algebra(QQ())
    m = zero_bimodule(b, a)
    n = zero_bimodule(a, b)
    f = zero_balanced_map(m, n, b)
    assert validate_balanced_map(f) == []


def test_balanced_tensor_space_regular():
    a = path_a2(QQ())
    aop = opposite_algebra(a)
    u = regular_module(aop)
    x = regular_module(a)
    t = tensor_module(right_bimodule(u), x)
    assert t.module.dim == a.dim    # A (x)_A A = A


def test_natural_psi_map_on_dual_numbers():
    # over the glued context: the psi-action map on X = A sends the
    # generator of N (x) M (x) X to x . 1 = x
    from gpmorita.catalog import glued_psi_context
    from gpmorita.morita import t_a, t_b
    ext, ctx = glued_psi_context(QQ())
    x = regular_module(ctx.A)
    psi_x = t_a(ctx, x).g
    assert psi_x.intertwines()
    assert psi_x.source.dim == 1        # N (x) M (x) A collapses to one line
    # the image of psi_x is I.X = span{x}
    from gpmorita.linalg import row_space
    img = row_space(psi_x.mat)
    assert img.rows == 1 and img.data[0] == [QQ().zero(), QQ().one()]
    # phi = 0 forces the phi-side composite to vanish
    phi_y = t_b(ctx, regular_module(ctx.B)).f
    assert phi_y.is_zero()
