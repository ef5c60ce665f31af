from __future__ import annotations

import gc
import random
import weakref

import pytest

from gpmorita import complexes, gpcert
from gpmorita.catalog import (
    arrow_ideal_context, field_algebra, glued_psi_context, path_a2,
    product_fields, proj_a2, random_module, simple_at_idempotent, simple_kx2,
    triangular_context, triangular_over, truncated_poly, two_cycle_context,
    two_cycle_rad_square,
)
from gpmorita.complexes import ComplexWindow
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import _block_reps, is_projective, simple_modules
from gpmorita.linalg import Mat
from gpmorita.modules import ModuleHom, direct_sum, regular_module, zero_module
from gpmorita.morita import (
    ContextError, build_ring, h_a, h_b, quadruple_to_module,
    t_a, t_b, z_a, z_b,
)
from gpmorita.trivext import structural_maps, t_lambda
from gpmorita.verify import projective_by_splitting, verify_certificate


def test_projective_certifies_with_period_one():
    a = path_a2(QQ())
    p2 = proj_a2(a)
    cert = certify_gorenstein_projective(p2)
    assert cert.verdict == "gp" and cert.period == 1
    assert cert.reason == "split-projective"
    assert verify_certificate(cert, p2) == []


def test_certifying_keeps_nothing_of_the_module_on_the_algebra():
    # the projective summands are searched for with Hom(P, x) for each block
    # representative P, which the algebra keeps: x must not stay behind
    a = truncated_poly(QQ(), 3)
    reps = [rep[0] for rep in _block_reps(a)]
    sizes, alive = [], []
    for _ in range(5):
        x = direct_sum([simple_modules(a)[0], regular_module(a)])[0]
        assert certify_gorenstein_projective(x).verdict == "gp"
        alive.append(weakref.ref(x))
        del x
        gc.collect()
        sizes.append([len(p._cache) for p in reps])
    assert sizes == sizes[:1] * 5
    assert all(ref() is None for ref in alive)


def test_zero_module_certifies():
    a = path_a2(QQ())
    z = zero_module(a)
    cert = certify_gorenstein_projective(z)
    assert cert.verdict == "gp"
    assert verify_certificate(cert, z) == []


def test_simple_over_kx2_certifies_with_small_period():
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    cert = certify_gorenstein_projective(s)
    assert cert.verdict == "gp"
    assert cert.period is not None and cert.period <= 2
    assert verify_certificate(cert, s) == []


def test_nonprojective_simple_over_hereditary_refuted():
    a = path_a2(QQ())
    s2 = simple_at_idempotent(a, 2, name="S2")
    cert = certify_gorenstein_projective(s2)
    assert cert.verdict == "not_gp"
    assert cert.witness.kind == "non_vanishing_ext"
    assert verify_certificate(cert, s2) == []


def test_calibration_kx2_all_small_modules_gp():
    # every module of dim <= 4 over k[x]/(x^2) up to isomorphism:
    # direct sums of S (dim 1) and A (dim 2)
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    reg = regular_module(a)
    shapes = [[s], [s, s], [reg], [s, s, s], [s, reg], [s, s, s, s],
              [s, s, reg], [reg, reg]]
    for parts in shapes:
        m, _, _ = direct_sum(parts) if len(parts) > 1 else (parts[0], None, None)
        cert = certify_gorenstein_projective(m)
        assert cert.verdict == "gp", m.name
        assert cert.period is not None and cert.period <= 2
        assert verify_certificate(cert, m) == []


def test_calibration_path_a2_gp_iff_projective():
    # all modules of dim <= 4 up to isomorphism over the path algebra:
    # direct sums of S1, S2 and the projective P2
    a = path_a2(QQ())
    s1 = simple_at_idempotent(a, 0, name="S1")
    s2 = simple_at_idempotent(a, 2, name="S2")
    p2 = proj_a2(a)
    from itertools import product as iproduct
    for m1 in range(5):
        for m2 in range(5):
            for mp in range(3):
                dim = m1 + m2 + 2 * mp
                if dim == 0 or dim > 4:
                    continue
                parts = [s1] * m1 + [s2] * m2 + [p2] * mp
                m = parts[0] if len(parts) == 1 else direct_sum(parts)[0]
                cert = certify_gorenstein_projective(m, window=4)
                assert (cert.verdict == "gp") == is_projective(m), (m1, m2, mp)
                assert verify_certificate(cert, m) == []


def test_every_module_over_self_injective_two_cycle_certifies():
    rng = random.Random(17)
    a = two_cycle_rad_square(QQ())
    s1 = simple_at_idempotent(a, 0, name="S1")
    cert = certify_gorenstein_projective(s1)
    assert cert.verdict == "gp"
    assert cert.period is not None and cert.period <= 2
    assert verify_certificate(cert, s1) == []
    for _ in range(4):
        m = random_module(a, rng)
        cert = certify_gorenstein_projective(m)
        assert cert.verdict == "gp"
        assert verify_certificate(cert, m) == []


def test_self_injective_over_finite_field():
    a = truncated_poly(GF(7), 3)
    s = simple_kx2(a)
    cert = certify_gorenstein_projective(s)
    assert cert.verdict == "gp"
    assert verify_certificate(cert, s) == []


def test_semisimple_everything_projective():
    a = product_fields(QQ(), 2)
    s = simple_at_idempotent(a, 0)
    cert = certify_gorenstein_projective(s)
    assert cert.verdict == "gp" and cert.reason == "split-projective"
    assert verify_certificate(cert, s) == []


def test_verifier_rejects_forged_certificates():
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    other = regular_module(a)
    cert = certify_gorenstein_projective(s)
    assert verify_certificate(cert, other) != []
    # break the window: swap a differential for zero
    from gpmorita.modules import zero_hom
    cert2 = certify_gorenstein_projective(s)
    w = cert2.window
    w.diffs[0] = zero_hom(w.term(w.lo), w.term(w.lo + 1))
    assert verify_certificate(cert2, s) != []


def test_projective_by_splitting_matches_cover_test():
    rng = random.Random(9)
    for alg in [path_a2(QQ()), truncated_poly(QQ(), 2), two_cycle_rad_square(GF(7))]:
        for _ in range(5):
            m = random_module(alg, rng)
            assert projective_by_splitting(m) == is_projective(m)


def test_finite_gldim_certify_iff_projective_random_sweep():
    # over algebras of finite global dimension certification must agree
    # with projectivity on random modules up to dimension 6
    rng = random.Random(21)
    for alg in [path_a2(QQ()), product_fields(QQ(), 3), path_a2(GF(7))]:
        seen = 0
        while seen < 6:
            m = random_module(alg, rng, max_free=2, max_cuts=2)
            if m.dim > 6:
                continue
            cert = certify_gorenstein_projective(m, window=4)
            assert (cert.verdict == "gp") == is_projective(m)
            seen += 1


# -- windows hold by construction; verify_certificate is their check ---------

# the sweep's only not_gp modules: the ring modules of H_B(B) and Z_B(B)
# over the three contexts whose ring has finite global dimension
NOT_GP = {f"{c}:{q}:ring{plus}" for c in ("tri", "5dim", "a2glue")
          for q in ("HB", "ZB") for plus in ("", "+P")}


def _functor_images(ext, ctx):
    """The quadruple functors on the regular modules, where defined."""
    images = {"P1": lambda: t_a(ctx, regular_module(ctx.A)),
              "P2": lambda: t_b(ctx, regular_module(ctx.B)),
              "ZA": lambda: z_a(ctx, regular_module(ctx.A)),
              "ZB": lambda: z_b(ctx, regular_module(ctx.B)),
              "HA": lambda: h_a(ctx, regular_module(ctx.A)),
              "HB": lambda: h_b(ctx, regular_module(ctx.B)),
              "TL": lambda: t_lambda(ext, ctx, regular_module(ext.Lam))}
    for name, build in images.items():
        try:
            yield name, build()
        except ContextError:
            pass                    # Z_A needs I to kill A


def _sweep(F):
    """(label, module): three seeded random modules over each of five
    catalog algebras (non-projective draws first), the Lambda-corner
    modules Coker(g) and the ring modules of the functor images over the
    four catalog contexts, and each of these plus a projective."""
    rng = random.Random(5)
    out = []
    for alg in (truncated_poly(F, 2), truncated_poly(F, 3),
                two_cycle_rad_square(F), path_a2(F), product_fields(F, 2)):
        drawn = [m for m in (random_module(alg, rng, max_cuts=3) for _ in range(30))
                 if m.dim]
        picked = ([m for m in drawn if not is_projective(m)] + drawn)[:3]
        out += [(f"{alg.name}:rand{k}", m, regular_module(alg))
                for k, m in enumerate(picked)]
    for make in (triangular_context, two_cycle_context, glued_psi_context,
                 arrow_ideal_context):
        ext, ctx = make(F)
        mr = build_ring(ctx)
        p2 = quadruple_to_module(mr, t_b(ctx, regular_module(ctx.B)))
        for name, q in _functor_images(ext, ctx):
            out.append((f"{ctx.name}:{name}:Lam",
                        ext.lam_module(structural_maps(ctx, q).u),
                        regular_module(ext.Lam)))
            out.append((f"{ctx.name}:{name}:ring", quadruple_to_module(mr, q), p2))
    return ([(label, m) for label, m, _ in out]
            + [(f"{label}+P", direct_sum([m, p])[0]) for label, m, p in out])


@pytest.mark.parametrize("window", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_every_gp_certificate_of_the_sweep_passes_the_checker(F, window,
                                                              count_calls):
    combined = count_calls(gpcert._combine_with_split)
    for label, m in _sweep(F):
        cert = certify_gorenstein_projective(m, window=window)
        assert cert.verdict == ("not_gp" if label in NOT_GP else "gp"), label
        if cert.is_gp:
            assert verify_certificate(cert, m) == [], label
    assert combined


def _bumped(h):
    """h with one added to its (0, 0) entry."""
    F = h.mat.field
    rows = h.mat.to_rows()
    rows[0][0] = F.add(rows[0][0], F.one())
    return ModuleHom(h.source, h.target, Mat.from_rows(F, rows, h.mat.cols))


def test_a_broken_split_window_is_caught_by_the_checker(monkeypatch):
    real = gpcert._split_window

    def broken(x, span):
        wc, ki = real(x, span)
        return ComplexWindow(wc.lo, wc.hi, wc.terms,
                             [_bumped(wc.diff(wc.lo))] * len(wc.diffs)), ki

    monkeypatch.setattr(gpcert, "_split_window", broken)
    p2 = proj_a2(path_a2(QQ()))
    cert = certify_gorenstein_projective(p2)
    assert cert.reason == "split-projective"
    assert verify_certificate(cert, p2) != []


def test_a_broken_periodic_junction_is_caught_by_the_checker(monkeypatch):
    real = gpcert._periodic_window

    def broken(block, internal, junction, span):
        return real(block, internal, _bumped(junction), span)

    monkeypatch.setattr(gpcert, "_periodic_window", broken)
    s1 = simple_at_idempotent(two_cycle_rad_square(QQ()), 0, name="S1")
    cert = certify_gorenstein_projective(s1)
    assert cert.reason == "self-injective" and cert.period is not None
    assert verify_certificate(cert, s1) != []


def test_split_and_self_injective_windows_are_not_rechecked(count_calls):
    counts = [count_calls(fn) for fn in (complexes.total_exactness,
                                         complexes.validate_complex,
                                         complexes.is_exact)]
    p2 = proj_a2(path_a2(QQ()))
    s1 = simple_at_idempotent(two_cycle_rad_square(QQ()), 0, name="S1")
    assert certify_gorenstein_projective(p2).reason == "split-projective"
    assert certify_gorenstein_projective(s1).reason == "self-injective"
    assert [len(c) for c in counts] == [0, 0, 0]


# the two-sided window on [-w, w] reads the right-tail steps 0..w


def test_the_general_path_builds_its_two_sided_probe():
    # (k, 0, 0, 0) over T2(R) = the context (R, R, 0, R, 0, 0) with
    # R = k[x]/(x^2): a GP simple over a ring that is neither self-injective
    # nor of finite global dimension, so it takes the general path
    r = truncated_poly(GF(7), 2)
    ctx = triangular_over(r)
    x = quadruple_to_module(build_ring(ctx), z_a(ctx, simple_kx2(r)))
    cert = certify_gorenstein_projective(x, window=2, dim_budget=120)
    assert cert.verdict == "unknown"
    assert cert.reason == "dimension budget exceeded"


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_a_self_injective_module_with_no_period_in_the_bound_is_certified(F):
    # the simple over k[x]/(x^3) has period 2; with period_bound 1 the
    # certificate is the plain two-sided window
    s = simple_kx2(truncated_poly(F, 3))
    cert = certify_gorenstein_projective(s, window=2, period_bound=1)
    assert (cert.verdict, cert.reason, cert.period) == ("gp", "self-injective",
                                                        None)
    assert verify_certificate(cert, s) == []
