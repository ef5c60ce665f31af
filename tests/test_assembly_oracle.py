"""The one-period assembly against the per-degree one it replaced.

`horseshoe`, `_z_diff`, `build_total_resolution`, `_weave`,
`_identify_h_with_z_kernel` and `_sigma0` below are the per-degree
construction: every lift solved, every direct sum built, every check run
over the whole window, and psi (x) 1 computed for tau and sigma^0 on its
own rather than read off the T quadruples.  They are kept verbatim (only
the two function-local imports made absolute) as the oracle of
`complexes.horseshoe` and `engine.build_total_resolution`, which build
and check a literally periodic window over one period.  The two must give
equal windows, lifts, tau, alpha and beta, and kernel isomorphisms between
the same two modules (an isomorphism is not unique), over Q and GF(7), on
the catalog contexts (functor images of regular modules and seeded random
quadruples; the wide context over Q and GF(11)), on T2(k[x]/(x^n)), whose
windows have period 2 (1 at n = 2), and on the Peirce context of
T3(k[x]/(x^2)), the one with tau != 0, at windows 3 and 5; the horseshoes
alone are also compared on short exact sequences whose lifts do not
repeat at once.  The oracle's ring-level proofs (the module laws, module
maps and projectivity of T, its exactness and the isomorphism search for
its kernel) still hold on every assembly, and each corner proof that
replaced one gives its verdict on the assembly and on one-entry
corruptions of its degree-0 pieces.
"""
from __future__ import annotations

import random
import sys
from dataclasses import replace

import pytest

from gpmorita import engine
from gpmorita.catalog import (
    arrow_ideal_context, glued_psi_context, random_module, random_quadruple,
    random_submodule, simple_at_idempotent, simple_kx2, triangular_context,
    triangular_over, truncated_poly, two_cycle_context, two_cycle_rad_square,
    upper_triangular3_context, wide_psi_context,
)
from gpmorita.complexes import (
    ComplexWindow, HorseshoeError, HorseshoeResult, ShortExactSequence,
    _check_kernel_sequence, is_exact, one_period, solve_module_hom,
    tensor_window, total_exactness, twisted_diff, validate_complex,
    window_period,
)
from gpmorita.engine import (
    EngineError, ResolutionAssembly, _require, _restrict_window,
    check_conditions, identity_extension,
)
from gpmorita.bimodules import tensor_functor_hom, tensor_module
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import is_projective, projective_cover, simple_modules
from gpmorita.linalg import Mat, factor_through, rank, solve, solve_left
from gpmorita.modules import (
    ModuleHom, corestrict, direct_sum, image_of, is_isomorphic, kernel_of,
    quotient_by_rows, regular_module, spanned_submodule, validate_module,
)
from gpmorita.morita import (
    ContextError, build_ring, direct_sum_quadruples, h_a, h_b,
    module_to_quadruple, quadruple_map_violations, quadruple_to_module, t_a,
    t_b, validate_quadruple, z_a, z_b,
)
from gpmorita.trivext import (
    check_extension_matches, lam_bimodules, psi_tensor_block, t_lambda,
)


# -- the per-degree oracle -------------------------------------------------------


def horseshoe(ses: ShortExactSequence, xc: ComplexWindow, kx: ModuleHom,
              yc: ComplexWindow, ky: ModuleHom) -> HorseshoeResult:
    """Weave two exact complexes along a short exact sequence.

    kx: U -> X^0 and ky: V -> Y^0 identify the degree-0 kernels.  The
    result has Z^i = X^i (+) Y^i, differentials [[d_X, 0], [rho, d_Y]],
    and its degree-0 kernel sequence is the given one on the nose.

    Each lift rho^i is decided by solving for it, with no Ext^1 pre-check
    (vanishing Ext^1 is sufficient, not necessary); a missing lift raises
    HorseshoeError with its degree.  The sequence, both kernel
    identifications and the exactness of both inputs are checked first,
    and the woven window and its kernel sequence last.
    """
    if (xc.lo, xc.hi) != (yc.lo, yc.hi):
        raise HorseshoeError("the two windows must agree")
    if xc.lo > 0 or xc.hi < 1:
        raise HorseshoeError("window must contain [0, 1]")
    bad = ses.validate()
    if bad:
        raise HorseshoeError(f"invalid short exact sequence: {bad[0]}")
    for c, k, tag in ((xc, kx, "X"), (yc, ky, "Y")):
        if not k.is_injective():
            raise HorseshoeError(f"kernel identification into {tag}^0 not injective")
        if not (k.mat @ c.diff(0).mat).is_zero():
            raise HorseshoeError(f"kernel identification into {tag}^0 misses the kernel")
        if rank(k.mat) != c.term(0).dim - rank(c.diff(0).mat):
            raise HorseshoeError(f"kernel identification into {tag}^0 not surjective")
    if not is_exact(xc) or not is_exact(yc):
        raise HorseshoeError("input complexes must be exact on the window")
    F = xc.algebra.field
    lo, hi = xc.lo, xc.hi
    rho: dict[int, ModuleHom] = {}

    # stage 0 lifts the given sequence; later stages reuse the X-component
    # of the image of the previous differential, which makes d.d = 0 an
    # identity rather than an extra constraint.
    j0 = solve_module_hom(ses.w, xc.term(0), pre=ses.inject.mat, pre_rhs=kx.mat)
    if j0 is None:
        raise HorseshoeError("no equivariant extension at degree 0", degree=0)
    c_mat = solve(ses.surject.mat, (j0.mat @ xc.diff(0).mat).neg())
    if c_mat is None:
        raise HorseshoeError("factorization through V failed at degree 0", degree=0)
    rho0 = solve_module_hom(yc.term(0), xc.term(1), pre=ky.mat, pre_rhs=c_mat)
    if rho0 is None:
        raise HorseshoeError("no equivariant lift for rho^0", degree=0)
    rho[0] = rho0
    embed = Mat.hstack([j0.mat, ses.surject.mat @ ky.mat])
    for i in range(1, hi):
        w_i, w_incl = image_of(_z_diff(xc, yc, rho, i - 1))
        dX = xc.term(i).dim
        w = w_incl.mat
        j_mat = w.block(0, w.rows, 0, dX)
        wy_mat = w.block(0, w.rows, dX, w.cols)
        v_i_target, ky_i = kernel_of(yc.diff(i))
        v_i = solve_left(ky_i.mat, wy_mat)
        if v_i is None:
            raise HorseshoeError(f"kernel bookkeeping failed at degree {i}",
                                 degree=i)
        c_mat = solve(v_i, (j_mat @ xc.diff(i).mat).neg())
        if c_mat is None:
            raise HorseshoeError(f"factorization through V failed at degree {i}",
                                 degree=i)
        rho_i = solve_module_hom(yc.term(i), xc.term(i + 1), pre=ky_i.mat,
                                 pre_rhs=c_mat)
        if rho_i is None:
            raise HorseshoeError(f"no equivariant lift for rho^{i}", degree=i)
        rho[i] = rho_i
    for i in range(-1, lo - 1, -1):
        rhs = (yc.diff(i).mat @ rho[i + 1].mat).neg() if i + 1 in rho else None
        if rhs is None:
            rhs = Mat.zeros(F, yc.term(i).dim, xc.term(i + 1).dim)
        rho_i = solve_module_hom(yc.term(i), xc.term(i + 1),
                                 post=xc.diff(i + 1).mat, post_rhs=rhs)
        if rho_i is None:
            raise HorseshoeError(f"no equivariant lift for rho^{i}", degree=i)
        rho[i] = rho_i

    terms = []
    diffs = []
    x_incl, y_proj = [], []
    for i in range(lo, hi + 1):
        z, incls, projs = direct_sum([xc.term(i), yc.term(i)], name=f"Z^{i}")
        terms.append(z)
        x_incl.append(incls[0])
        y_proj.append(projs[1])
    for i in range(lo, hi):
        dz = twisted_diff(xc.diff(i).mat, rho[i].mat, yc.diff(i).mat)
        diffs.append(ModuleHom(terms[i - lo], terms[i - lo + 1], dz))
    zc = ComplexWindow(lo, hi, terms, diffs)
    bad = validate_complex(zc)
    if bad:
        raise HorseshoeError(f"assembled complex invalid: {bad[0]}")
    if not is_exact(zc):
        raise HorseshoeError("assembled complex is not exact")
    embed_hom = ModuleHom(ses.w, zc.term(0), embed)
    if not embed_hom.intertwines():
        raise HorseshoeError("kernel embedding is not a module map")
    _check_kernel_sequence(ses, zc, embed_hom, kx, ky, x_incl[-lo], y_proj[-lo])
    return HorseshoeResult(zc, rho, embed_hom, x_incl, y_proj)


def _z_diff(xc: ComplexWindow, yc: ComplexWindow, rho: dict, i: int) -> ModuleHom:
    z, _, _ = direct_sum([xc.term(i), yc.term(i)])
    z1, _, _ = direct_sum([xc.term(i + 1), yc.term(i + 1)])
    return ModuleHom(z, z1, twisted_diff(xc.diff(i).mat, rho[i].mat, yc.diff(i).mat))


def build_total_resolution(ext: TrivialExtension, ctx: MoritaContext,
                           q: QuadrupleModule, report: CriterionReport,
                           window: int | None = None) -> ResolutionAssembly:
    """Run the double-horseshoe construction and assemble the totally
    exact complex of projective quadruples with degree-0 kernel q.

    Each fact is proved once, at the step that uses it:
    - P and Q are totally exact windows resolving Coker(g) and Coker(f):
      the certificates of a passing report, correct by construction (see
      gpcert), and the horseshoes check that P and Q are exact;
    - M (x) P, I (x) P and N (x) Q are exact (C3): checked here, each
      failure named;
    - Y and Z are exact and resolve their sequences: the horseshoes check
      their inputs (Z's exactness, both kernel identifications) and their
      outputs (the woven window and its kernel sequence);
    - T is a complex of modules over the context ring and totally exact
      (which includes exact): checked here on the T window.  Its
      differential is block_diag(F, Y), so this covers F, and
      ring-linearity is exactly being a quadruple map;
    - ker(d_T^0) is isomorphic to q: the kernel of d_T^0 over the ring,
      matched with the ring module of q by `modules.is_isomorphic`.
    A failed horseshoe raises EngineError with its degree."""
    check_extension_matches(ext, ctx)
    _require(report.passed, "criterion report must pass before assembly")
    sm = report.structural
    F = ctx.A.field
    cert_g, cert_f = report.coker_g_cert, report.coker_f_cert
    _require(cert_g.window is not None and cert_f.window is not None,
             "certificates must carry windows")
    span = window if window is not None else min(cert_g.window.hi, cert_f.window.hi)
    _require(span >= 1, "window must contain [lo, 1]")
    pcx = _restrict_window(cert_g.window, -span, span)
    qcx = _restrict_window(cert_f.window, -span, span)
    p_ki, q_ki = cert_g.kernel_ident, cert_f.kernel_ident
    u_lam = report.coker_g_lambda

    m_lam, _ = lam_bimodules(ext, ctx)

    # weak-compatibility consequences, checked directly.  N (x)_B Q is built
    # over ctx.N, as T_B(Q^i) builds it; Z reads its terms over Lambda
    mp_cx, mp_tens = tensor_window(m_lam, pcx)
    _require(is_exact(mp_cx), "M (x) P is not exact (C3 for M fails here)")
    ip_cx, _ = tensor_window(ext.ideal, pcx)
    _require(is_exact(ip_cx), "I (x) P is not exact (C3 for I fails here)")
    nq_cx, nq_tens = tensor_window(ctx.N, qcx)
    _require(is_exact(nq_cx), "N (x) Q is not exact (C3 for N fails here)")
    nq_lam = [ext.lam_module(t) for t in nq_cx.terms]

    # first horseshoe, over B: 0 -> M (x) U -> Y -> V -> 0 against
    # M (x) P and Q
    mu_lam = tensor_module(m_lam, u_lam)
    _require(mu_lam.module.dim == sm.mu_t.module.dim
             and mu_lam.module.acts == sm.mu_t.module.acts,
             "M (x)_Lambda Coker(g) differs from M (x)_A Coker(g)")
    eta = ModuleHom(mu_lam.module, q.y, sm.eta.mat)
    kx_m = tensor_functor_hom(mu_lam, mp_tens[span], p_ki)   # M(x)U -> M(x)P^0
    hs1 = _weave("first", ShortExactSequence(eta, sm.mu_y), mp_cx,
                 ModuleHom(mu_lam.module, mp_cx.term(0), kx_m.mat), qcx, q_ki)
    ycx = hs1.zc
    rho = hs1.rho

    # Z window: I (x) P (+) N (x) Q with tau = (1 (x) rho)(psi (x) 1)
    tau = {}
    z_terms, z_diffs = [], []
    from gpmorita.modules import direct_sum
    for i in range(-span, span + 1):
        zt, _, _ = direct_sum([ip_cx.term(i), nq_lam[i + span]], name=f"Z^{i}")
        z_terms.append(zt)
    for i in range(-span, span):
        # 1_N (x) rho^i : N (x) Q^i -> N (x) (M (x) P^{i+1}), over ctx.N as
        # the g of T_Lam(P^{i+1}) builds it
        nmp = tensor_module(ctx.N, mp_cx.term(i + 1))
        one_rho = tensor_functor_hom(nq_tens[i + span], nmp, rho[i])
        psi_blk = psi_tensor_block(ctx, ext, pcx.term(i + 1))
        psi_hom_mat = factor_through(nmp.proj, [psi_blk])
        _require(psi_hom_mat is not None, "psi block does not descend")
        tau_i = one_rho.mat @ psi_hom_mat[0]
        tau[i] = ModuleHom(nq_lam[i + span], ip_cx.term(i + 1), tau_i)
        dz = twisted_diff(ip_cx.diff(i).mat, tau_i, nq_cx.diff(i).mat)
        z_diffs.append(ModuleHom(z_terms[i + span], z_terms[i + span + 1], dz))
    zcx = ComplexWindow(-span, span, z_terms, z_diffs)

    # identify ker(d_Z^0) with H = Im(g)
    h_mod, h_incl = image_of(q.g, name="Im(g)")
    kx_z = _identify_h_with_z_kernel(ctx, ext, q, hs1, zcx, pcx.term(0),
                                     qcx.term(0), h_mod, h_incl)
    # second horseshoe, over Lambda: 0 -> H -> X -> U -> 0 against Z and P
    h_lam = ext.lam_module(h_mod, name="H|Lam")
    x_lam = ext.lam_module(q.x, name="X|Lam")
    incl_lam = ModuleHom(h_lam, x_lam, h_incl.mat)
    lam_x_lam = ModuleHom(x_lam, u_lam, sm.lambda_x.mat)
    hs2 = _weave("second", ShortExactSequence(incl_lam, lam_x_lam), zcx,
                 ModuleHom(h_lam, zcx.term(0), kx_z.mat), pcx, p_ki)
    alpha, beta = {}, {}
    for i, r in hs2.rho.items():
        w_ip1 = ip_cx.term(i + 1).dim
        alpha[i] = ModuleHom(pcx.term(i), ip_cx.term(i + 1),
                             r.mat.block(0, r.mat.rows, 0, w_ip1))
        beta[i] = ModuleHom(pcx.term(i), nq_lam[i + span + 1],
                            r.mat.block(0, r.mat.rows, w_ip1, r.mat.cols))

    # assemble F = P(I) (+) N (x) Q over A and the quadruple terms; repeated
    # window terms (periodic certificates) share one quadruple instance so
    # the hom-space caches can work
    from gpmorita.morita import direct_sum_quadruples
    t_quads, f_terms, f_diffs = [], [], []
    seen: dict[tuple[int, int], QuadrupleModule] = {}
    for i in range(-span, span + 1):
        key = (id(pcx.term(i)), id(qcx.term(i)))
        if key not in seen:
            tq = t_lambda(ext, ctx, pcx.term(i), name=f"T_Lam(P^{i})")
            tb = t_b(ctx, qcx.term(i), name=f"T_B(Q^{i})")
            seen[key] = direct_sum_quadruples([tq, tb], name=f"T^{i}")
        t_quads.append(seen[key])
        f_terms.append(seen[key].x)
    for i in range(-span, span):
        # on P (+) Z, Z = I(x)P (+) N(x)Q:  [[d_P, (alpha, beta)],
        #                                    [0,   d_Z]]
        df = Mat.from_blocks(
            F, [cx.term(i).dim for cx in (pcx, zcx)],
            [cx.term(i + 1).dim for cx in (pcx, zcx)],
            [[pcx.diff(i).mat, hs2.rho[i].mat],
             [None, zcx.diff(i).mat]])
        f_diffs.append(ModuleHom(f_terms[i + span], f_terms[i + span + 1], df))
    fcx = ComplexWindow(-span, span, f_terms, f_diffs)

    # T over the context ring, with differential block_diag(F, Y)
    mr = build_ring(ctx)
    t_terms = [quadruple_to_module(mr, tq) for tq in t_quads]
    t_diffs = []
    for i in range(-span, span):
        t_diffs.append(ModuleHom(t_terms[i + span], t_terms[i + span + 1],
                                 Mat.block_diag([f_diffs[i + span].mat,
                                                 ycx.diff(i).mat])))
    tcx = ComplexWindow(-span, span, t_terms, t_diffs)
    bad = validate_complex(tcx)
    _require(bad == [], f"T window is not a complex: {bad[:1]}")
    _require(total_exactness(tcx), "T window is not totally exact")

    # ker(d_T^0) is the given quadruple
    ker_t, _ = kernel_of(t_diffs[span], name="ker(d_T^0)")
    iso = is_isomorphic(ker_t, quadruple_to_module(mr, q))
    _require(iso is not None, "ker(d_T^0) is not isomorphic to the quadruple")
    return ResolutionAssembly(pcx, qcx, rho, tau, alpha, beta, ycx, zcx, fcx,
                              tcx, t_quads, iso)


def _weave(which: str, ses: ShortExactSequence, xc: ComplexWindow,
           kx: ModuleHom, yc: ComplexWindow, ky: ModuleHom) -> HorseshoeResult:
    """A horseshoe of the assembly; its failure is an assembly failure."""
    try:
        return horseshoe(ses, xc, kx, yc, ky)
    except HorseshoeError as e:
        at = "" if e.degree is None else f" at degree {e.degree}"
        raise EngineError(f"{which} horseshoe failed{at}: {e}") from e


def _identify_h_with_z_kernel(ctx, ext, q, hs1, zcx, p0, q0,
                              h_mod, h_incl) -> ModuleHom:
    """The canonical map Im(g) -> Z^0 onto ker(d_Z^0): delta, the kernel
    embedding of Y composed with the chain map sigma^0 = [[psi (x) 1, 0],
    [0, 1]], factored through g corestricted onto Im(g).  That
    corestriction has full column rank, so the factor is the one candidate;
    the second horseshoe checks that it is injective, lands in ker(d_Z^0)
    and is onto it, which is clause (b)'s content here."""
    eye_n = Mat.identity(ctx.A.field, ctx.N.dim)
    delta = (q.ny.section @ eye_n.kron(hs1.embed.mat)
             @ _sigma0(ctx, ext, p0, q0))
    h_map = solve(corestrict(q.g, h_mod, h_incl).mat, delta)
    _require(h_map is not None, "delta does not factor through Im(g)")
    return ModuleHom(ext.lam_module(h_mod), zcx.term(0), h_map)


def _sigma0(ctx, ext, p0, q0) -> Mat:
    """sigma^0 = [[psi (x) 1, 0], [0, 1]] on the full space N (x)_k Y^0, for
    Y^0 = M (x) P^0 (+) Q^0, into Z^0 = I (x) P^0 (+) N (x) Q^0: psi (x) 1 on
    the first block of Y^0, the projection onto N (x) Q^0 on the second."""
    F = ctx.A.field
    mp_dim = tensor_module(lam_bimodules(ext, ctx)[0], p0).module.dim
    nq0 = tensor_module(ctx.N, q0)
    dy = mp_dim + q0.dim
    eye_y, eye_n = Mat.identity(F, dy), Mat.identity(F, ctx.N.dim)
    psi_part = psi_tensor_block(ctx, ext, p0)
    return Mat.hstack([eye_n.kron(eye_y.block(0, dy, 0, mp_dim)) @ psi_part,
                       eye_n.kron(eye_y.block(0, dy, mp_dim, dy)) @ nq0.proj])


# -- the comparison ----------------------------------------------------------------


def _same_module(a, b) -> bool:
    return a.algebra is b.algebra and a.dim == b.dim and a.acts == b.acts


def _same_hom(g, h) -> bool:
    return (g.mat == h.mat and _same_module(g.source, h.source)
            and _same_module(g.target, h.target))


def _same_window(a: ComplexWindow, b: ComplexWindow) -> bool:
    return ((a.lo, a.hi) == (b.lo, b.hi)
            and all(_same_module(s, t) for s, t in zip(a.terms, b.terms))
            and all(_same_hom(d, e) for d, e in zip(a.diffs, b.diffs)))


def _same_maps(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(_same_hom(a[i], b[i]) for i in a)


def _assert_same_assembly(got, want):
    """Every window, lift, tau, alpha and beta matrix for matrix; and, as
    an isomorphism is not unique, a kernel_iso that is an isomorphism of
    modules over the ring between the oracle's two modules."""
    for part in ("pcx", "qcx", "ycx", "zcx", "fcx", "tcx"):
        assert _same_window(getattr(got, part), getattr(want, part)), part
    for part in ("rho", "tau", "alpha", "beta"):
        assert _same_maps(getattr(got, part), getattr(want, part)), part
    iso, oracle = got.kernel_iso, want.kernel_iso
    assert _same_module(iso.source, oracle.source)
    assert _same_module(iso.target, oracle.target)
    assert iso.is_iso() and iso.intertwines()
    _assert_ring_level_verdicts(got)


def _assert_ring_level_verdicts(asm):
    """The ring-level proofs that the corner checks of
    `engine.build_total_resolution` replaced hold on its output: T, over
    one period, is a complex of projective modules over the ring, exact,
    and its degree-0 kernel is isomorphic to the ring module of q."""
    t = one_period(asm.tcx)
    assert validate_complex(t) == []
    assert all(is_projective(term) for term in t.terms)
    assert is_exact(t)
    assert is_isomorphic(asm.kernel_iso.source, asm.kernel_iso.target) is not None


def _bumps(m: Mat):
    """m with one added to one entry, for each entry in turn."""
    F = m.field
    for r in range(m.rows):
        for c in range(m.cols):
            rows = m.to_rows()
            rows[r][c] = F.add(rows[r][c], F.one())
            yield Mat.from_rows(F, rows, m.cols)


def _assert_corner_verdicts_match_the_ring(ext, ctx, q, asm):
    """Each corner proof of `engine.build_total_resolution` gives the
    verdict of the ring-level proof it replaced, on the assembly and on
    every one-entry corruption of its degree-0 pieces: a term T^0 whose g
    is changed (`validate_quadruple` against the module laws over the
    ring), a d_F^0 changed in any entry (a map of quadruples against a
    map of ring modules), the kernel embedding e with its X part left
    unswapped, and the projectivity of T_Lam(X) (+) T_B(Y) against that
    of X over Lambda and Y over B.  Returns how many corruptions both
    rejected."""
    mr = build_ring(ctx)
    span = -asm.tcx.lo
    t0, t1 = asm.t_quads[span], asm.t_quads[span + 1]
    r0, r1 = quadruple_to_module(mr, t0), quadruple_to_module(mr, t1)
    rejected = 0
    for g in _bumps(t0.g_full):
        bad = replace(t0, g_full=g)
        corner = validate_quadruple(bad) == []
        assert corner == (validate_module(quadruple_to_module(mr, bad)) == [])
        rejected += not corner
    dy = asm.ycx.diff(0).mat
    for df in [asm.fcx.diff(0).mat, *_bumps(asm.fcx.diff(0).mat)]:
        corner = quadruple_map_violations(t0, t1, df, dy) == []
        assert corner == ModuleHom(r0, r1, Mat.block_diag([df, dy])).intertwines()
        rejected += not corner
    # e = kernel_iso^{-1} followed by the inclusion of ker(d_T^0) into T^0,
    # block diagonal from X (+) Y to F^0 (+) Y^0, F^0 on P^0 (+) Z^0
    _, incl = kernel_of(asm.tcx.diff(0))
    e = solve(asm.kernel_iso.mat, incl.mat)
    dx, df0, p0 = q.x.dim, t0.x.dim, asm.pcx.term(0).dim
    e_x, e_y = e.block(0, dx, 0, df0), e.block(dx, e.rows, df0, e.cols)
    assert e == Mat.block_diag([e_x, e_y])
    unswapped = Mat.hstack([e_x.block(0, dx, p0, df0), e_x.block(0, dx, 0, p0)])
    q_ring = asm.kernel_iso.target
    for ex, expect in ((e_x, True), (unswapped, unswapped == e_x)):
        corner = quadruple_map_violations(q, t0, ex, e_y) == []
        ring = ModuleHom(q_ring, r0, Mat.block_diag([ex, e_y])).intertwines()
        assert corner == ring == expect
        rejected += not corner
    # the terms of P and Q, and the simples, some of them not projective
    for x in [*asm.pcx.terms, *simple_modules(ext.Lam)]:
        assert is_projective(x) == is_projective(
            quadruple_to_module(mr, t_lambda(ext, ctx, x)))
    for y in [*asm.qcx.terms, *simple_modules(ctx.B)]:
        assert is_projective(y) == is_projective(quadruple_to_module(mr, t_b(ctx, y)))
    return rejected


def _images(ext, ctx):
    """The functor images of the regular modules that criterion-assembly
    assembles, and two seeded random quadruples of dimension 1 to 3."""
    builds = [lambda: t_a(ctx, regular_module(ctx.A)),
              lambda: t_b(ctx, regular_module(ctx.B)),
              lambda: z_a(ctx, regular_module(ctx.A)),
              lambda: z_b(ctx, regular_module(ctx.B)),
              lambda: h_a(ctx, regular_module(ctx.A)),
              lambda: h_b(ctx, regular_module(ctx.B)),
              lambda: t_lambda(ext, ctx, regular_module(ext.Lam))]
    out = []
    for build in builds:
        try:
            out.append(build())
        except ContextError:
            pass            # Z_A needs I to kill the module
    rng = random.Random(7)
    while len(out) < len(builds) + 2:
        q = random_quadruple(ctx, rng, allow_sum=False)
        if 1 <= q.dim <= 3:
            out.append(q)
    return out


FIELDS = pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
WINDOWS = pytest.mark.parametrize("window", [3, 5])
CATALOG = [triangular_context, two_cycle_context, glued_psi_context,
           arrow_ideal_context]


def _assert_images_match_the_oracle(ext, ctx, window):
    assembled = 0
    for q in _images(ext, ctx):
        rep = check_conditions(ext, ctx, q)
        if not rep.passed:
            continue
        got = engine.build_total_resolution(ext, ctx, q, rep, window=window)
        _assert_same_assembly(got, build_total_resolution(ext, ctx, q, rep,
                                                          window=window))
        _assert_corner_verdicts_match_the_ring(ext, ctx, q, got)
        assembled += 1
    assert assembled


@FIELDS
@WINDOWS
@pytest.mark.parametrize("make", CATALOG, ids=lambda m: m.__name__)
def test_catalog_assemblies_match_the_per_degree_oracle(F, window, make):
    _assert_images_match_the_oracle(*make(F), window)


# the one catalog context with dim M, dim N >= 2 and psi not symmetric in
# its two factors, so the one where a swap of the factors of N (x) M in
# reading psi (x) 1 off the T quadruples would show; over GF(7) its ring of
# dimension 7 has no radical search (UnsupportedField), so GF(11) stands in
@pytest.mark.parametrize("F", [QQ(), GF(11)], ids=["Q", "GF11"])
@WINDOWS
def test_wide_psi_assemblies_match_the_per_degree_oracle(F, window):
    _assert_images_match_the_oracle(*wide_psi_context(F), window)


def _radical_sequence(F):
    """0 -> rad A -> A -> A/rad A -> 0 over k[x]/(x^2): its lifts do not
    repeat from degree 0 on, though both windows repeat by 1."""
    reg = regular_module(truncated_poly(F, 2))
    rad_rows = Mat.from_rows(F, [[0, 1]])
    _, incl = spanned_submodule(reg, rad_rows)
    _, proj = quotient_by_rows(reg, rad_rows)
    return ShortExactSequence(incl, proj)


def _random_sequences(F):
    rng = random.Random(31)
    for alg in (truncated_poly(F, 2), two_cycle_rad_square(F)):
        for _ in range(3):
            _, incl = random_submodule(random_module(alg, rng, max_free=2,
                                                     max_cuts=1), rng)
            yield ShortExactSequence(incl, quotient_by_rows(incl.target,
                                                            incl.mat)[1])


@FIELDS
@WINDOWS
def test_horseshoes_match_the_per_degree_oracle(F, window):
    from gpmorita.complexes import horseshoe as one_period_horseshoe
    for ses in [_radical_sequence(F), *_random_sequences(F)]:
        cu = certify_gorenstein_projective(ses.u, window=window)
        cv = certify_gorenstein_projective(ses.v, window=window)
        args = (ses, cu.window, cu.kernel_ident, cv.window, cv.kernel_ident)
        got, want = one_period_horseshoe(*args), horseshoe(*args)
        assert _same_window(got.zc, want.zc) and _same_maps(got.rho, want.rho)
        assert _same_hom(got.embed, want.embed)
        for part in ("x_incl", "y_proj"):
            assert all(_same_hom(g, w) for g, w in zip(getattr(got, part),
                                                       getattr(want, part)))


# the radical of T2(k[x]/(x^n)), of dimension 3n, is found over F_p only
# for p > 3n: GF(7) serves n = 2, and GF(13) the larger rings
TRUNCATED = pytest.mark.parametrize("n, F", [
    (2, QQ()), (3, QQ()), (4, QQ()), (2, GF(7)), (3, GF(13)), (4, GF(13))],
    ids=["2-Q", "3-Q", "4-Q", "2-GF7", "3-GF13", "4-GF13"])


@TRUNCATED
@WINDOWS
def test_truncated_polynomial_assemblies_match_the_oracle(n, F, window,
                                                         count_calls,
                                                         monkeypatch):
    # (S, 0) (+) T_B(S) over T2(k[x]/(x^n)): P and Q resolve S, whose
    # complete resolution alternates x and x^(n-1), so every window repeats
    # by 2 (by 1 at n = 2, where the two coincide), and the one-period path
    # reuses lifts, solving fewer than the oracle, and checks a sub-window
    r = truncated_poly(F, n)
    ctx = triangular_over(r)
    ext = identity_extension(ctx)
    s = simple_kx2(r)
    q = direct_sum_quadruples([z_a(ctx, s), t_b(ctx, s)])
    rep = check_conditions(ext, ctx, q)
    assert rep.passed
    lifts = count_calls(solve_module_hom)
    got = engine.build_total_resolution(ext, ctx, q, rep, window=window)
    oracle_lifts, solve_lift = [], solve_module_hom

    def counted(*args, **kwargs):
        oracle_lifts.append(args)
        return solve_lift(*args, **kwargs)

    monkeypatch.setattr(sys.modules[__name__], "solve_module_hom", counted)
    _assert_same_assembly(got, build_total_resolution(ext, ctx, q, rep,
                                                      window=window))
    _assert_corner_verdicts_match_the_ring(ext, ctx, q, got)
    assert len(lifts) < len(oracle_lifts)
    period = 1 if n == 2 else 2
    for part in ("pcx", "qcx", "ycx", "zcx", "fcx", "tcx"):
        assert window_period(getattr(got, part)) == period, part


# T3(k[x]/(x^2)) at e = E11 + E33, the one context here with psi != 0,
# M != 0 and B not semisimple, so the one whose horseshoes do not split.
# Omega^1 of the simple S at E33 (ring basis element 2), whose projective
# cover R E33 is the third column, of dimension 6, assembles with rho and
# tau nonzero in every degree.  Over GF(7) its ring of dimension 12 has no
# radical search (UnsupportedField), so GF(13) stands in
@pytest.mark.parametrize("F", [QQ(), GF(13)], ids=["Q", "GF13"])
@WINDOWS
def test_upper_triangular3_assembly_twists_and_matches_the_oracle(F, window):
    ext, ctx = upper_triangular3_context(F, 2)
    mr = build_ring(ctx)
    _, cover = projective_cover(simple_at_idempotent(mr.ring, 2))
    q = module_to_quadruple(mr, kernel_of(cover)[0], name="Omega1(S)")
    assert (q.x.dim, q.y.dim) == (3, 2)
    rep = check_conditions(ext, ctx, q)
    assert rep.passed
    got = engine.build_total_resolution(ext, ctx, q, rep, window=window)
    for part in ("rho", "tau"):
        maps = getattr(got, part)
        assert len(maps) == 2 * window and not any(h.is_zero() for h in maps.values()), part
    _assert_same_assembly(got, build_total_resolution(ext, ctx, q, rep,
                                                      window=window))
    assert _assert_corner_verdicts_match_the_ring(ext, ctx, q, got)
