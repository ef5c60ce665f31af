from __future__ import annotations

import os
import random
from dataclasses import replace

import pytest

from gpmorita import complexes, engine, homology, linalg, modules, morita

from gpmorita.bimodules import (
    BalancedMap, Bimodule, regular_bimodule, tensor_functor_hom, tensor_module,
    zero_balanced_map,
)
from gpmorita.catalog import (
    arrow_ideal_context, field_algebra, full_context, glued_psi_context,
    random_module, simple_at_idempotent, simple_kx2, triangular_context,
    triangular_over, truncated_poly, two_cycle_context, wide_psi_context,
)
from gpmorita.complexes import (
    ComplexWindow, horseshoe, is_exact, one_period, total_exactness,
    twisted_diff, validate_complex, window_period,
)
from gpmorita.engine import (
    AuditReport, CompatVerdict, EngineError, audit_equivalence,
    build_total_resolution, check_compat, check_conditions,
    check_semi_weak_quadruple, identity_extension,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import simple_modules
from gpmorita.jsonio import load_problem_file
from gpmorita.linalg import Mat
from gpmorita.modules import FDModule, ModuleHom, regular_module, zero_module
from gpmorita.morita import (
    MoritaContext, build_ring, direct_sum_quadruples, make_quadruple,
    quadruple_to_module, t_a, t_b, validate_context, validate_quadruple, z_a,
    z_b,
)
from gpmorita.trivext import (
    ExtensionError, lam_bimodules, psi_tensor_block, t_lambda, trivial_extension,
)
from test_reduction_oracle import _audit_family, corner_complexes

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _p1(ctx):
    return t_a(ctx, regular_module(ctx.A), name="P1")


def _p2(ctx):
    return t_b(ctx, regular_module(ctx.B), name="P2")


def _s2(ctx):
    return z_b(ctx, regular_module(ctx.B), name="S2")


def test_triangular_criterion_verdicts():
    ext, ctx = triangular_context(QQ())
    for q, expect in [(_p1(ctx), "pass"), (_p2(ctx), "pass")]:
        rep = check_conditions(ext, ctx, q)
        assert rep.overall == expect, q.name
    rep = check_conditions(ext, ctx, _s2(ctx))
    assert rep.overall == "fail"
    assert rep.failing == ["iso_b2"]


def test_glued_criterion_on_induced_quadruple():
    ext, ctx = glued_psi_context(QQ())
    q = t_lambda(ext, ctx, regular_module(ext.Lam))
    rep = check_conditions(ext, ctx, q)
    assert rep.overall == "pass"
    rep2 = check_conditions(ext, ctx, z_b(ctx, regular_module(ctx.B)))
    assert rep2.overall == "fail"


def test_arrow_ideal_criterion():
    ext, ctx = arrow_ideal_context(QQ())
    q = t_lambda(ext, ctx, regular_module(ext.Lam))
    rep = check_conditions(ext, ctx, q)
    assert rep.overall == "pass"


def test_zero_case_check():
    _, ctx = two_cycle_context(QQ())
    p1, p2 = _p1(ctx), _p2(ctx)
    ext = identity_extension(ctx)
    assert check_conditions(ext, ctx, p1).overall == "pass"
    assert check_conditions(ext, ctx, p2).overall == "pass"
    # (X, 0, 0, 0) with M (x) X != 0 fails clause b1
    sx = z_a(ctx, regular_module(ctx.A), name="S1")
    rep = check_conditions(ext, ctx, sx)
    assert rep.overall == "fail" and "iso_b1" in rep.failing
    # (0, Y, 0, 0) with N (x) Y != 0 fails clause b2
    sy = z_b(ctx, regular_module(ctx.B), name="S2")
    rep2 = check_conditions(ext, ctx, sy)
    assert rep2.overall == "fail" and "iso_b2" in rep2.failing


def test_zero_case_requires_zero_psi():
    ext, ctx = glued_psi_context(QQ())
    with pytest.raises(ExtensionError,
                       match=r"im\(psi\) differs from the extension ideal"):
        check_conditions(identity_extension(ctx), ctx, _p2(ctx))


def test_build_total_resolution_triangular_p2():
    ext, ctx = triangular_context(QQ())
    q = _p2(ctx)
    rep = check_conditions(ext, ctx, q)
    asm = build_total_resolution(ext, ctx, q, rep, window=4)
    assert validate_complex(asm.tcx) == []
    assert is_exact(asm.tcx)
    assert total_exactness(asm.tcx)
    assert asm.kernel_iso.is_iso()
    # I = 0 and M = 0 force all the glue maps to vanish
    for i, r in asm.rho.items():
        assert r.mat.is_zero() or r.mat.rows == 0 or r.mat.cols == 0
    for i, t in asm.tau.items():
        assert t.mat.is_zero() or t.mat.rows == 0 or t.mat.cols == 0


def test_build_total_resolution_triangular_p1():
    ext, ctx = triangular_context(QQ())
    q = _p1(ctx)
    rep = check_conditions(ext, ctx, q)
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    assert is_exact(asm.tcx) and total_exactness(asm.tcx)
    assert asm.kernel_iso.is_iso()


def test_build_total_resolution_glued():
    ext, ctx = glued_psi_context(QQ())
    q = t_lambda(ext, ctx, regular_module(ext.Lam))
    rep = check_conditions(ext, ctx, q)
    assert rep.overall == "pass"
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    assert validate_complex(asm.tcx) == []
    assert is_exact(asm.tcx)
    assert total_exactness(asm.tcx)
    assert asm.kernel_iso.is_iso()
    # tau is 0x2 here and 2x2 on T_Lambda(Lambda) (+) P2
    ext, ctx, q, rep = _mutation_case("glued", QQ())
    for a in (asm, build_total_resolution(ext, ctx, q, rep, window=3)):
        _assert_z_blocks(a)


def _assert_z_blocks(asm):
    """Z^{i+1} is I (x) P^{i+1} (+) N (x) Q^{i+1}, and tau^i is the
    lower-left block of d_Z^i = [[1 (x) d_P, 0], [tau^i, 1 (x) d_Q]]."""
    assert asm.tau
    for i, tau in asm.tau.items():
        assert asm.zcx.term(i + 1).dim == tau.target.dim + asm.beta[i].target.dim
        dz = asm.zcx.diff(i).mat
        assert dz.block(dz.rows - tau.source.dim, dz.rows,
                        0, tau.target.dim) == tau.mat


def test_build_total_resolution_rejects_failing_report():
    ext, ctx = triangular_context(QQ())
    rep = check_conditions(ext, ctx, _s2(ctx))
    with pytest.raises(EngineError):
        build_total_resolution(ext, ctx, _s2(ctx), rep, window=3)


# -- tau and sigma^0 read off the T quadruples ---------------------------------
#
# No assembly of the catalog contexts has a nonzero tau (B is k or M = 0 and
# Lambda is k or k x k, so both horseshoe sequences split), so the
# assembly tests cannot see a wrong psi (x) 1 block.  This compares the
# engine's reading of tau^i = (1 (x) rho^i)(psi (x) 1) off the g of
# T_Lam(P) with psi (x) 1 descended on its own, for every rho in
# Hom(Q, M (x) P), on the contexts whose psi is nonzero.


@pytest.mark.parametrize("make, F", [
    (glued_psi_context, QQ()), (arrow_ideal_context, GF(7)),
    (wide_psi_context, GF(11))], ids=["glued_psi-Q", "arrow_ideal-GF7",
                                      "wide_psi-GF11"])
def test_tau_read_off_t_lambda_is_psi_tensor_one_descended(make, F):
    ext, ctx = make(F)
    rng = random.Random(3)
    m_lam, _ = lam_bimodules(ext, ctx)
    ps = simple_modules(ext.Lam) + [random_module(ext.Lam, rng, max_cuts=1)
                                    for _ in range(2)]
    qs = simple_modules(ctx.B) + [random_module(ctx.B, rng, max_cuts=1)]
    nonzero = 0
    for p in ps:
        tl = t_lambda(ext, ctx, p)
        mp = tensor_module(m_lam, p)
        nmp = tensor_module(ctx.N, mp.module)
        assert tl.ny is nmp
        psi_one = linalg.factor_through(nmp.proj,
                                        [psi_tensor_block(ctx, ext, p)])[0]
        for y in qs:
            nq = tensor_module(ctx.N, y)
            for rho in modules.hom_space(y, mp.module):
                tau = nq.section @ engine._sigma(tl, p, rho)
                assert tau == tensor_functor_hom(nq, nmp, rho).mat @ psi_one
                nonzero += not tau.is_zero()
    assert nonzero


# -- an assembly that a real context makes fail ---------------------------------


def _eps_context(F):
    """A = k[x]/(x^2) = k |x kx, B = k[y]/(y^2), M = k (x and y act as 0),
    N = B (right regular, x acts as 0), phi = 0 and psi(n (x) m) =
    eps(n) m x, eps(n) the coefficient of 1 in n; with the quadruple
    X = A (+) ke (x e = 0), Y = B, f(m (x) 1) = y, f(m (x) e) = 0,
    g(1) = e, g(y) = x."""
    lam = field_algebra(F, "k")
    one, zero = Mat.identity(F, 1), Mat.zeros(F, 1, 1)
    ext = trivial_extension(lam, Bimodule(lam, lam, 1, [one], [one], name="I"),
                            name="A")
    A, B = ext.A, truncated_poly(F, 2, "B")
    M = Bimodule(B, A, 1, [one, zero], [one, zero], name="M")
    N = Bimodule(A, B, 2, [Mat.identity(F, 2), Mat.zeros(F, 2, 2)],
                 regular_bimodule(B).right_acts, name="N")
    psi = BalancedMap(N, M, A, Mat.from_rows(F, [[0, 1], [0, 0]], 2))
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B), psi, name="eps")
    x = FDModule(A, 3, [Mat.identity(F, 3), Mat.from_rows(
        F, [[0, 1, 0], [0, 0, 0], [0, 0, 0]], 3)], name="A+ke")
    q = make_quadruple(
        ctx, x, regular_module(B), Mat.from_rows(F, [[0, 1], [0, 0], [0, 0]], 2),
        Mat.from_rows(F, [[0, 0, 1], [0, 1, 0], [0, 1, 0], [0, 0, 0]], 3),
        name="X")
    return ext, ctx, q


@pytest.mark.parametrize("F", [QQ(), GF(11)], ids=["Q", "GF11"])
def test_assembly_fails_where_m_is_not_weakly_compatible(F):
    # the criterion passes, but M|Lambda fails the Hom condition of weak
    # compatibility on the complete resolution of the simple B-module, and
    # the first horseshoe finds no extension of M (x) Coker(g) -> M (x) P^0
    # along eta: the construction needs weak compatibility of M
    ext, ctx, q = _eps_context(F)
    assert validate_context(ctx) == [] and validate_quadruple(q) == []
    rep = check_conditions(ext, ctx, q)
    assert rep.passed
    cert = certify_gorenstein_projective(simple_kx2(ctx.B))
    verdict = check_compat(lam_bimodules(ext, ctx)[0], left_tests=[cert.window])
    assert verdict.kind == "not_compatible" and verdict.reason == "hom_witness"
    with pytest.raises(EngineError, match="first horseshoe failed at degree 0: "
                       "no equivariant extension at degree 0"):
        build_total_resolution(ext, ctx, q, rep)


def test_check_compat_semisimple_proof_grade():
    ext, ctx = triangular_context(QQ())
    from gpmorita.bimodules import restrict_left
    n_lam = restrict_left(ctx.N, ext.incl_rows, ext.Lam)
    v = check_compat(n_lam)
    assert v.kind == "weakly_compatible" and v.proof_grade
    assert v.inj_dims == (0, 0)


def test_check_compat_field_ideal():
    ext, ctx = glued_psi_context(QQ())
    v = check_compat(ext.ideal)
    assert v.kind == "weakly_compatible" and v.proof_grade


def test_check_compat_tor_witness():
    # over k[x]/(x^2): N = the simple bimodule S has Tor_1(S, S) != 0
    # against the periodic complete resolution of S
    from gpmorita.bimodules import Bimodule
    from gpmorita.catalog import simple_kx2, truncated_poly
    from gpmorita.linalg import Mat
    F = QQ()
    a = truncated_poly(F, 2)
    eye = Mat.identity(F, 1)
    zero = Mat.zeros(F, 1, 1)
    s_bim = Bimodule(a, a, 1, [eye, zero], [eye, zero], name="S")
    s = simple_kx2(a)
    cert = certify_gorenstein_projective(s, window=3)
    v = check_compat(s_bim, right_tests=[cert.window])
    assert v.kind == "not_compatible"
    assert v.reason == "tor_witness"


def test_corner_complex_extraction_round_trip():
    # extracting P from the engine's own assembly recovers the input window
    ext, ctx = glued_psi_context(QQ())
    q = t_lambda(ext, ctx, regular_module(ext.Lam))
    rep = check_conditions(ext, ctx, q)
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    mr = build_ring(ctx)
    pcx, qcx, _ = corner_complexes(ext, ctx, mr, asm.tcx)
    assert [t.dim for t in pcx.terms] == [t.dim for t in asm.pcx.terms]
    assert [t.dim for t in qcx.terms] == [t.dim for t in asm.qcx.terms]


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_corner_complexes_read_each_term_in_its_quadruple_basis(F):
    # T_A(A) is certified by a window contractible on T_A(A) + T_A(A),
    # whose basis is (X1, Y1, X2, Y2), not the X part then the Y part
    ext, ctx = glued_psi_context(F)
    mr = build_ring(ctx)
    cert = certify_gorenstein_projective(quadruple_to_module(mr, _p1(ctx)))
    assert cert.verdict == "gp"
    pcx, qcx, _ = corner_complexes(ext, ctx, mr, cert.window)
    assert {t.dim for t in pcx.terms} == {2} and {t.dim for t in qcx.terms} == {0}
    assert is_exact(pcx) and is_exact(qcx)


def test_semi_weak_left_n_fails_where_the_ring_hom_into_z_n_fails():
    # over the two-cycle ring Lambda = A, and by the paper's reduction the
    # corner complex Hom_Lambda(P, N) is Hom over the ring into Z(N); the
    # window of P1 is contractible, so neither may fail there
    ext, ctx = two_cycle_context(QQ())
    mr = build_ring(ctx)
    zn = quadruple_to_module(mr, z_a(ctx, ctx.N.as_left_module("N")))
    family = [_p1(ctx), _p2(ctx), z_a(ctx, regular_module(ctx.A)), _s2(ctx)]
    for q in family:
        window = certify_gorenstein_projective(quadruple_to_module(mr, q)).window
        v = check_semi_weak_quadruple(ext, ctx, "left", "N", [window])
        failure = complexes.hom_exactness_failure(window, zn)
        assert v.witness == (None if failure is None
                             else {"test": 0, "degree": failure})


def test_audit_of_lambda00_decides_every_entry():
    # Lambda_(0,0), the self-injective ring of (R, R, R, R, 0, 0) over
    # R = k[x]/(x^2), whose certified windows are not ordered (X, Y)
    ctx = full_context(truncated_poly(QQ(), 2), scale=0)
    report = audit_equivalence(identity_extension(ctx), ctx,
                               _audit_family(ctx, 6), window=3)
    assert report.consistent
    assert {e.classification for e in report.entries} == {
        "consistent", "expected_divergence"}


def test_semi_weak_verdicts_of_the_wide_context_are_not_refuted():
    # Hom into Z(W) and Z(W) (x) - keep a contractible ring window exact, so
    # no sampled test may refute here
    ext, ctx = wide_psi_context(QQ())
    report = audit_equivalence(ext, ctx, _audit_family(ctx, 6), window=3)
    assert {v.kind for v in report.semi_weak_verdicts.values()} == {"pass_sampled"}


def test_semi_weak_two_cycle_refuted():
    # the two-cycle ring: Hom of the complete resolution of S1 into
    # (N, 0, 0, 0) is not exact, witnessing the failure of necessity
    ext, ctx = two_cycle_context(QQ())
    mr = build_ring(ctx)
    s1 = z_a(ctx, regular_module(ctx.A), name="S1")
    mod = quadruple_to_module(mr, s1)
    cert = certify_gorenstein_projective(mod)
    assert cert.verdict == "gp"
    v = check_semi_weak_quadruple(ext, ctx, "left", "N", [cert.window])
    assert v.refuted
    assert v.witness is not None


def test_semi_weak_zero_ideal_passes_vacuously():
    ext, ctx = triangular_context(QQ())
    v = check_semi_weak_quadruple(ext, ctx, "left", "I", [])
    assert v.kind == "pass_proof"
    v2 = check_semi_weak_quadruple(ext, ctx, "right", "I", [])
    assert v2.kind == "pass_proof"


def test_semi_weak_semisimple_passes():
    ext, ctx = triangular_context(QQ())
    for side, which in (("left", "N"), ("right", "M")):
        v = check_semi_weak_quadruple(ext, ctx, side, which, [])
        assert v.kind == "pass_proof"


def test_audit_triangular_consistent():
    ext, ctx = triangular_context(QQ())
    family = [_p1(ctx), _p2(ctx), _s2(ctx)]
    report = audit_equivalence(ext, ctx, family)
    assert report.consistent
    assert [e.classification for e in report.entries] == ["consistent"] * 3


def test_audit_two_cycle_expected_divergence():
    ext, ctx = two_cycle_context(QQ())
    s1 = z_a(ctx, regular_module(ctx.A), name="S1")
    s2 = z_b(ctx, regular_module(ctx.B), name="S2")
    report = audit_equivalence(ext, ctx, [s1, s2])
    assert report.consistent
    assert all(e.classification == "expected_divergence" for e in report.entries)
    assert any(v.refuted for v in report.semi_weak_verdicts.values())


def test_audit_empty_family():
    ext, ctx = triangular_context(QQ())
    report = audit_equivalence(ext, ctx, [])
    assert report.entries == [] and report.consistent


def test_audit_glued_consistent():
    ext, ctx = glued_psi_context(QQ())
    q = t_lambda(ext, ctx, regular_module(ext.Lam))
    report = audit_equivalence(ext, ctx, [q, _p2(ctx)])
    assert report.consistent
    for e in report.entries:
        assert e.classification in ("consistent", "undetermined", "expected_divergence")


def test_build_total_resolution_arrow_ideal():
    # Lambda = k x k and I the arrow bimodule: exercises the balanced
    # tensor coordinates of X(I) through the whole assembly
    ext, ctx = arrow_ideal_context(QQ())
    q = t_lambda(ext, ctx, regular_module(ext.Lam))
    rep = check_conditions(ext, ctx, q)
    assert rep.overall == "pass"
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    assert is_exact(asm.tcx) and total_exactness(asm.tcx)
    assert asm.kernel_iso.is_iso()
    from gpmorita.verify import projective_by_splitting
    for i in range(asm.tcx.lo, asm.tcx.hi + 1):
        assert projective_by_splitting(asm.tcx.term(i))


@pytest.mark.parametrize("n", [4, 8])
def test_assembly_over_the_triangular_ring_of_a_truncated_polynomial_ring(n):
    # (S, 0) (+) T_B(S) over T2(k[x]/(x^n)), a ring of dim 3n, over Q: the
    # criterion passes, and the assembly, which raises on any failed
    # exactness or kernel check, returns.  At n = 8 its Hom systems are
    # large enough that the cost of Q elimination shows in --durations.
    r = truncated_poly(QQ(), n)
    ctx = triangular_over(r)
    ext = identity_extension(ctx)
    s = simple_at_idempotent(r, 0)
    q = direct_sum_quadruples([z_a(ctx, s), t_b(ctx, s)])
    rep = check_conditions(ext, ctx, q)
    assert rep.overall == "pass"
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    assert asm.tcx.term(0).algebra.dim == 3 * n


# -- the one check per fact catches a wrong input or a builder bug ------------
#
# On triangular_context the ideal I is 0, so tau and alpha are empty, and
# P2 alone has a zero P window; P1 (+) P2 gives both corners nonzero
# windows.  On glued_psi_context T_Lam(Lam) (+) P2 makes every block of the
# assembly nonempty.


def _mutation_case(which, F):
    if which == "triangular":
        ext, ctx = triangular_context(F)
        q = direct_sum_quadruples([_p1(ctx), _p2(ctx)], name="P1+P2")
    else:
        ext, ctx = glued_psi_context(F)
        q = direct_sum_quadruples(
            [t_lambda(ext, ctx, regular_module(ext.Lam)), _p2(ctx)], name="T+P2")
    rep = check_conditions(ext, ctx, q)
    assert rep.passed
    return ext, ctx, q, rep


def _bump(m, r, c):
    """m with one added to its (r, c) entry."""
    F = m.field
    rows = m.to_rows()
    rows[r][c] = F.add(rows[r][c], F.one())
    return Mat.from_rows(F, rows, m.cols)


def _bumped_hom(h, r=0, c=0):
    return ModuleHom(h.source, h.target, _bump(h.mat, r, c))


FIELDS = pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
BOTH = pytest.mark.parametrize("which", ["triangular", "glued"])


@FIELDS
@BOTH
def test_assembly_rejects_a_corrupted_p_window(F, which):
    ext, ctx, q, rep = _mutation_case(which, F)
    cert = rep.coker_g_cert
    wc = cert.window
    diffs = list(wc.diffs)
    diffs[-wc.lo] = _bumped_hom(wc.diff(0))
    bad = ComplexWindow(wc.lo, wc.hi, wc.terms, diffs)
    assert validate_complex(bad) != [] or not is_exact(bad)
    rep = replace(rep, coker_g_cert=replace(cert, window=bad))
    with pytest.raises(EngineError):
        build_total_resolution(ext, ctx, q, rep, window=3)


@FIELDS
@BOTH
def test_assembly_rejects_a_corrupted_q_kernel_ident(F, which):
    ext, ctx, q, rep = _mutation_case(which, F)
    cert = rep.coker_f_cert
    ki, d0 = cert.kernel_ident, cert.window.diff(0).mat
    col = next(c for c in range(d0.rows) if not d0.block(c, c + 1, 0, d0.cols).is_zero())
    bad = _bumped_hom(ki, 0, col)
    assert not (bad.mat @ d0).is_zero()
    rep = replace(rep, coker_f_cert=replace(cert, kernel_ident=bad))
    with pytest.raises(EngineError):
        build_total_resolution(ext, ctx, q, rep, window=3)


@FIELDS
def test_assembly_rejects_a_corrupted_tau(F, monkeypatch):
    # tau is empty on triangular_context (I = 0).  d_Z is built once per
    # distinct tuple of its inputs, so a recording run finds the call whose
    # differential degree 0 of the window [-3, 3] uses
    ext, ctx, q, rep = _mutation_case("glued", F)
    made = []

    def record(dx, tau_i, dy):
        made.append(twisted_diff(dx, tau_i, dy))
        return made[-1]

    monkeypatch.setattr(engine, "twisted_diff", record)
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    k = next(k for k, d in enumerate(made) if d is asm.zcx.diff(0).mat)
    calls = []

    def corrupt(dx, tau_i, dy):
        calls.append(tau_i)
        if len(calls) == k + 1:
            tau_i = _bump(tau_i, 0, 0)
        return twisted_diff(dx, tau_i, dy)

    monkeypatch.setattr(engine, "twisted_diff", corrupt)
    with pytest.raises(EngineError):
        build_total_resolution(ext, ctx, q, rep, window=3)
    assert len(calls) > k


def _assert_f_holds_z(asm):
    """d_F^i = [[d_P^i, (alpha^i, beta^i)], [0, d_Z^i]] on P (+) Z."""
    for i in range(asm.fcx.lo, asm.fcx.hi):
        df, dz = asm.fcx.diff(i).mat, asm.zcx.diff(i).mat
        assert df.block(df.rows - dz.rows, df.rows, df.cols - dz.cols, df.cols) == dz


@FIELDS
def test_f_differential_holds_the_z_differential(F, monkeypatch):
    ext, ctx, q, rep = _mutation_case("glued", F)
    _assert_f_holds_z(build_total_resolution(ext, ctx, q, rep, window=3))
    swaps = []

    def swap_row_blocks(dx, tau_i, dy):
        d = twisted_diff(dx, tau_i, dy)
        swapped = Mat.vstack([d.block(dx.rows, d.rows, 0, d.cols),
                              d.block(0, dx.rows, 0, d.cols)])
        swaps.append(swapped != d)
        return swapped

    # a wrong d_Z either breaks the assembly or shows in F as well
    monkeypatch.setattr(engine, "twisted_diff", swap_row_blocks)
    try:
        asm = build_total_resolution(ext, ctx, q, rep, window=3)
    except EngineError:
        asm = None
    assert any(swaps)
    if asm is not None:
        _assert_f_holds_z(asm)


@FIELDS
@BOTH
def test_assembly_rejects_a_corrupted_alpha_beta_block(F, which, monkeypatch):
    # entry (0, 0) of rho^0 of the second horseshoe lies in alpha^0 on the
    # glued context and in beta^0 on the triangular one (alpha is empty)
    ext, ctx, q, rep = _mutation_case(which, F)
    calls = []

    def corrupt_second(*args, **kwargs):
        res = horseshoe(*args, **kwargs)
        calls.append(res)
        if len(calls) == 2:
            res.rho[0] = _bumped_hom(res.rho[0])
        return res

    monkeypatch.setattr(engine, "horseshoe", corrupt_second)
    with pytest.raises(EngineError):
        build_total_resolution(ext, ctx, q, rep, window=3)
    assert len(calls) == 2


# -- the one-period path still sees a fault beyond the first period -----------
#
# Every window of these cases repeats by 1, so the checks of a window that
# still repeats run on [-3, -1]; each fault below sits at degree 2 and
# breaks the repetition, and must be found by the whole-window checks.


def _corrupt_horseshoe(monkeypatch, which, degree):
    """Corrupt the lift at `degree` of the `which`-th horseshoe (1 or 2)
    after it returns: rho^degree, and the woven differential that holds it."""
    calls = []

    def corrupt(*args, **kwargs):
        res = horseshoe(*args, **kwargs)
        calls.append(res)
        if len(calls) == which:
            # rho^degree is the lower left block of [[d_X, 0], [rho, d_Y]]
            r = res.rho[degree]
            d = res.zc.diff(degree)
            res.rho[degree] = _bumped_hom(r)
            res.zc.diffs[degree - res.zc.lo] = _bumped_hom(
                d, d.mat.rows - r.mat.rows, 0)
        return res

    monkeypatch.setattr(engine, "horseshoe", corrupt)
    return calls


@FIELDS
@BOTH
def test_assembly_rejects_a_t_differential_corrupted_at_its_last_degree(
        F, which, monkeypatch):
    # rho^2 of the second horseshoe is the (alpha^2, beta^2) block of d_F^2,
    # so d_T^2 = block_diag(d_F^2, d_Y^2), at hi - 1, is wrong and only the
    # T checks read it
    ext, ctx, q, rep = _mutation_case(which, F)
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    assert one_period(asm.tcx).hi == -1
    calls = _corrupt_horseshoe(monkeypatch, 2, 2)
    with pytest.raises(EngineError, match="T window"):
        build_total_resolution(ext, ctx, q, rep, window=3)
    assert len(calls) == 2


@FIELDS
def test_assembly_rejects_a_lift_corrupted_at_degree_2(F, monkeypatch):
    # rho^2 of the first horseshoe: the Y differential at 2, and tau^2 of Z.
    # On triangular_context M (x) P is 0, so the first horseshoe's lifts
    # are empty
    ext, ctx, q, rep = _mutation_case("glued", F)
    calls = _corrupt_horseshoe(monkeypatch, 1, 2)
    with pytest.raises(EngineError):
        build_total_resolution(ext, ctx, q, rep, window=3)
    assert calls


@FIELDS
@BOTH
def test_assembly_rejects_a_p_window_corrupted_at_its_last_differential(F, which):
    # P repeats on [-3, 3] except at its last differential, d_P^2
    ext, ctx, q, rep = _mutation_case(which, F)
    cert = rep.coker_g_cert
    wc = cert.window
    diffs = list(wc.diffs)
    diffs[2 - wc.lo] = _bumped_hom(wc.diff(2))
    bad = ComplexWindow(wc.lo, wc.hi, wc.terms, diffs)
    pcx = ComplexWindow(-3, 3, bad.terms[-3 - wc.lo:4 - wc.lo],
                        bad.diffs[-3 - wc.lo:3 - wc.lo])
    assert window_period(pcx) is None
    rep = replace(rep, coker_g_cert=replace(cert, window=bad))
    with pytest.raises(EngineError):
        build_total_resolution(ext, ctx, q, rep, window=3)


def test_assembly_checks_each_fact_once(count_calls):
    # T repeats by 1 on [-3, 3], so its facts are proven on [-3, -1]: three
    # quadruples T^i, two differentials d_T^i as maps of quadruples and the
    # kernel embedding as a third; the two horseshoes validate their woven
    # windows, projectivity is proven on the terms of P and Q, and the
    # Hom(-, Gamma) step is the one check over the ring
    ext, ctx = triangular_context(QQ())
    q = _p2(ctx)
    rep = check_conditions(ext, ctx, q)
    counts = {fn.__name__: count_calls(fn)
              for fn in (complexes.total_exactness, complexes.validate_complex,
                         complexes.hom_exact_into_regular, modules.is_isomorphic,
                         morita.validate_quadruple,
                         morita.quadruple_map_violations, homology.ext_dim,
                         homology.first_nonzero_ext)}
    projective = count_calls(homology.is_projective)
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    assert one_period(asm.tcx).hi == -1
    assert {k: len(v) for k, v in counts.items()} == {
        "total_exactness": 0, "validate_complex": 2, "hom_exact_into_regular": 1,
        "is_isomorphic": 0, "validate_quadruple": 3,
        "quadruple_map_violations": 3, "ext_dim": 0, "first_nonzero_ext": 0}
    ring = build_ring(ctx).ring
    assert projective and all(m.algebra is not ring for (m,) in projective)
    assert all(c.algebra is not ring for (c,) in counts["validate_complex"])


# -- the quadruple terms reuse the tensors of the C3 checks -------------------

CATALOG = [triangular_context, two_cycle_context, glued_psi_context,
           arrow_ideal_context]


def _t_plus_p2(make, F):
    ext, ctx = make(F)
    q = direct_sum_quadruples(
        [t_lambda(ext, ctx, regular_module(ext.Lam)), _p2(ctx)], name="T+P2")
    rep = check_conditions(ext, ctx, q)
    assert rep.passed
    return ext, ctx, q, rep


@FIELDS
@pytest.mark.parametrize("make", CATALOG, ids=lambda m: m.__name__)
def test_t_window_matches_quadruples_built_fresh(F, make):
    ext, ctx, q, rep = _t_plus_p2(make, F)
    asm = build_total_resolution(ext, ctx, q, rep, window=3)
    mr = build_ring(ctx)
    for i in range(asm.tcx.lo, asm.tcx.hi + 1):
        fresh = direct_sum_quadruples([t_lambda(ext, ctx, asm.pcx.term(i)),
                                       t_b(ctx, asm.qcx.term(i))])
        kept = asm.t_quads[i - asm.tcx.lo]
        for part in ("x", "y"):
            assert getattr(kept, part).acts == getattr(fresh, part).acts
        assert kept.f.mat == fresh.f.mat and kept.g.mat == fresh.g.mat
        assert asm.tcx.term(i).acts == quadruple_to_module(mr, fresh).acts


def _repeated_systems(systems) -> int:
    """How many recorded `intertwining_system` calls repeat an earlier one:
    the same right-action list on the same module's action list.  A tensor
    product is built from exactly this system, so a repeat is a (right
    action, module) pair tensored twice, whether through one bimodule
    instance or through two that share the action (N and N|Lambda do).
    `count_calls` keeps the lists alive, so no id is reused."""
    pairs = [(id(acts), id(mod_acts)) for _, _, _, acts, mod_acts in systems]
    return len(pairs) - len(set(pairs))


@FIELDS
@pytest.mark.parametrize("make", CATALOG, ids=lambda m: m.__name__)
def test_assembly_tensors_each_pair_once(F, make, count_calls):
    # a (right action, module) pair is tensored once per assembly: the C3
    # checks, T_Lam(P^i), T_B(Q^i), tau and sigma^0 all find the tensors
    # of M|Lam, I and N in the memo of `tensor_module`, and N (x) Q^i and
    # N (x) (M (x) P^i) are built over N itself, not over N|Lam
    ext, ctx, q, rep = _t_plus_p2(make, F)
    systems = count_calls(linalg.intertwining_system)
    build_total_resolution(ext, ctx, q, rep, window=3)
    assert systems and _repeated_systems(systems) == 0


def test_audit_tensors_each_pair_once(count_calls):
    # the right-side semi-weak check reads Z(W) (x) T^i over the ring for
    # each term of a test window, and a window's period repeats its term
    # instances; the memo of `tensor_module` builds each pair once
    prob = load_problem_file(os.path.join(FIX, "two_cycle.json"))
    ext, ctx = prob.named("extensions", "ext"), prob.named("contexts", "ctx")
    family = [prob.named("quadruples", n) for n in ("S1", "S2")]
    systems = count_calls(linalg.intertwining_system)
    audit_equivalence(ext, ctx, family)
    assert systems and _repeated_systems(systems) == 0


def test_the_audit_proves_each_test_window_totally_exact_once(monkeypatch):
    """The four (side, W) semi-weak checks of an audit share the windows the
    audit certified; a window that several checks read is proven totally
    exact once, on the certificate window itself."""
    prob = load_problem_file(os.path.join(FIX, "two_cycle.json"))
    ext, ctx = prob.named("extensions", "ext"), prob.named("contexts", "ctx")
    family = [prob.named("quadruples", n) for n in ("P1", "P2", "S1", "S2")]
    passed, required, proven = [], [], []
    real_semi_weak = engine.check_semi_weak_quadruple
    real_require, real_total = engine._require_total, engine.total_exactness

    def semi_weak(*args, **kw):
        passed.append(args[4])
        return real_semi_weak(*args, **kw)

    def require_total(wc):
        required.append(wc)
        return real_require(wc)

    def total(wc):
        proven.append(wc)
        return real_total(wc)

    monkeypatch.setattr(engine, "check_semi_weak_quadruple", semi_weak)
    monkeypatch.setattr(engine, "_require_total", require_total)
    monkeypatch.setattr(engine, "total_exactness", total)
    audit_equivalence(ext, ctx, family)
    windows = {id(wc) for wc in required}
    assert len(passed) == 4
    assert windows <= {id(wc) for tests in passed for wc in tests}
    assert len(proven) == len(windows) < len(required)
