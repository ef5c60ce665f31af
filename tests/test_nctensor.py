from __future__ import annotations

import random

import pytest

from gpmorita.algebra import validate_algebra
from gpmorita.catalog import (
    field_algebra, full_context, glued_psi_context, product_fields,
    triangular_context, truncated_poly, two_cycle_context, zero_context,
)
from gpmorita.engine import check_conditions, zero_case_check
from gpmorita.fields import GF, QQ
from gpmorita.linalg import Mat
from gpmorita.modules import regular_module, zero_module
from gpmorita.morita import build_ring, module_to_quadruple, t_a, t_b, z_b
from gpmorita.nctensor import (
    NcTensorError, build_exact_context, build_nc_tensor, corollary_criterion,
    iso_with_morita, nc_morita_presentation,
)

from element_products import multiply


def test_exact_context_two_cycle_dims():
    _, ctx = two_cycle_context(QQ())
    rep = build_exact_context(ctx)
    assert (rep.dim_r, rep.dim_s, rep.dim_t, rep.dim_w) == (2, 3, 3, 4)
    assert rep.exact and rep.euler == 0


def test_exact_context_triangular_dims():
    _, ctx = triangular_context(QQ())
    rep = build_exact_context(ctx)
    assert (rep.dim_r, rep.dim_s, rep.dim_t, rep.dim_w) == (2, 3, 2, 3)
    assert rep.exact and rep.euler == 0


def test_exact_context_euler_various():
    for ctx in [full_context(truncated_poly(QQ(), 2)),
                full_context(product_fields(GF(7), 2)),
                glued_psi_context(QQ())[1]]:
        rep = build_exact_context(ctx)
        assert rep.exact and rep.euler == 0


def test_nc_tensor_five_dim_zero_maps():
    _, ctx = two_cycle_context(QQ())
    nc = build_nc_tensor(ctx)
    assert nc.ring.dim == 5
    assert validate_algebra(nc.ring) == []
    # the tensor block squares to zero when phi = psi = 0
    offW = nc.offs[4]
    w = nc.ring.basis_el(offW)
    assert multiply(nc.ring, w, w) == nc.ring.zero_el()


def test_nc_tensor_m_zero_is_triangular():
    _, ctx = triangular_context(QQ())
    nc = build_nc_tensor(ctx)
    # M = 0 kills the tensor block: A (+) N (+) Gamma
    assert nc.ring.dim == 3
    assert validate_algebra(nc.ring) == []


def test_nc_tensor_nonzero_maps_associative():
    rng = random.Random(3)
    for F in [QQ(), GF(5)]:
        for R in [field_algebra(F), truncated_poly(F, 2), product_fields(F, 2)]:
            for c in [F.one(), F.of_int(2)]:
                ctx = full_context(R, scale=c)
                nc = build_nc_tensor(ctx)
                assert validate_algebra(nc.ring) == []


def test_nc_tensor_unit_law_random_elements():
    _, ctx = two_cycle_context(QQ())
    nc = build_nc_tensor(ctx)
    rng = random.Random(1)
    for _ in range(5):
        el = [QQ().of_int(rng.randint(-3, 3)) for _ in range(nc.ring.dim)]
        assert multiply(nc.ring, nc.ring.unit, el) == el
        assert multiply(nc.ring, el, nc.ring.unit) == el


def test_iso_with_morita_five_dim():
    _, ctx = two_cycle_context(QQ())
    nc = build_nc_tensor(ctx)
    pres = nc_morita_presentation(nc)
    assert pres.mr2.ring.dim == 5
    bij = iso_with_morita(pres)
    assert bij == Mat.identity(QQ(), 5)


def test_iso_with_morita_degenerate_m_zero():
    _, ctx = triangular_context(QQ())
    nc = build_nc_tensor(ctx)
    pres = nc_morita_presentation(nc)
    assert iso_with_morita(pres) is not None
    assert pres.mr2.ring.dim == 3


def test_presentation_requires_zero_maps():
    ctx = full_context(field_algebra(QQ()))
    nc = build_nc_tensor(ctx)
    with pytest.raises(NcTensorError):
        nc_morita_presentation(nc)


def test_corollary_projectives_pass():
    _, ctx = two_cycle_context(QQ())
    nc = build_nc_tensor(ctx)
    pres = nc_morita_presentation(nc)
    for y in [regular_module(pres.ctx2.B)]:
        q = t_b(pres.ctx2, y, name="P")
        rep, _ = corollary_criterion(pres, q)
        assert rep.passed
    q2 = t_a(pres.ctx2, regular_module(pres.ctx2.A), name="P1")
    rep2, _ = corollary_criterion(pres, q2)
    assert rep2.passed


def test_corollary_refuses_a_quadruple_over_another_context():
    _, ctx = two_cycle_context(QQ())
    pres = nc_morita_presentation(build_nc_tensor(ctx))
    q = t_b(pres.swapped_ctx, regular_module(pres.swapped_ctx.B), name="P")
    with pytest.raises(NcTensorError, match="wrong context"):
        corollary_criterion(pres, q)


def test_corollary_failing_module():
    # (0, B-simple): N (x) Coker(f) vs Im(g) fails the first mirrored clause
    _, ctx = two_cycle_context(QQ())
    nc = build_nc_tensor(ctx)
    pres = nc_morita_presentation(nc)
    from gpmorita.homology import simple_modules
    simples = simple_modules(pres.ctx2.B)
    target = next(s for s in simples if s.dim == 1)
    q = z_b(pres.ctx2, _inflate_to_b(pres, target), name="S")
    rep, _ = corollary_criterion(pres, q)
    assert rep.overall == "fail"


def _inflate_to_b(pres, s):
    # simple_modules already produces modules over B itself
    return s


def test_corollary_with_build():
    _, ctx = two_cycle_context(QQ())
    nc = build_nc_tensor(ctx)
    pres = nc_morita_presentation(nc)
    q = t_b(pres.ctx2, regular_module(pres.ctx2.B), name="P")
    rep, asm = corollary_criterion(pres, q, build=True)
    assert rep.passed and asm is not None
    from gpmorita.complexes import is_exact, total_exactness
    assert is_exact(asm.tcx) and total_exactness(asm.tcx)


def test_verdict_transport_across_iso():
    # criterion verdicts agree whether a module is presented over the
    # Morita ring or transported from the tensor-ring presentation
    _, ctx = two_cycle_context(QQ())
    nc = build_nc_tensor(ctx)
    pres = nc_morita_presentation(nc)
    mr2 = pres.mr2
    reg = regular_module(mr2.ring)
    # transport along the identity bijection: the same action matrices read
    # as a module over the tensor ring and back
    q = module_to_quadruple(mr2, reg, name="Lambda")
    rep, _ = corollary_criterion(pres, q)
    assert rep.passed
