"""The Gorenstein-projectivity criterion over one-sided-zero Morita
context rings, as executable procedures.

check_conditions evaluates clause (a) (both cokernels Gorenstein-
projective, the A-side one over the subring Lambda) and clause (b) (the
three canonical comparison maps eta, theta, m are bijective).
build_total_resolution runs the double-horseshoe construction and
assembles the totally exact complex over the context ring whose degree-0
kernel is the given quadruple.  It proves each fact once: the inputs are
the report's certificates, the horseshoes check what they weave, and the
output window and its kernel are checked at the end (see its docstring).
check_compat / check_semi_weak_quadruple evaluate the bimodule
compatibility hypotheses, separating proof-grade reasons (finite one-sided
homological dimensions) from sampled evidence; audit_equivalence
cross-tabulates criterion and certificate verdicts over a module family.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import UnsupportedField, memo, opposite_algebra
from .bimodules import Bimodule, right_bimodule, tensor_functor_hom, tensor_module
from .complexes import (
    ComplexWindow, HorseshoeError, HorseshoeResult, ShortExactSequence,
    hom_exactness_failure, horseshoe, is_exact, one_period, per_instance,
    tensor_exactness_failure, tensor_window, total_exactness, twisted_diff,
    validate_complex,
)
from .gpcert import GPCertificate, certify_gorenstein_projective
from .homology import injective_dimension, projective_dimension, tor_dim
from .linalg import Mat, rank, solve, solve_left
from .modules import (
    FDModule, ModuleHom, direct_sum, is_isomorphic, kernel_of, restrict_along,
    submodule_from_rows,
)
from .morita import (
    MoritaContext, QuadrupleModule, build_ring, direct_sum_quadruples,
    opposite_context, opposite_ring, quadruple_to_module, t_b,
    validate_quadruple, z_a,
)
from .trivext import (
    StructuralMaps, TrivialExtension, check_extension_matches, lam_bimodules,
    recognize_trivial_extension, structural_maps, t_lambda,
)


class EngineError(RuntimeError):
    pass


# -- the criterion ------------------------------------------------------------


@dataclass
class IsoClause:
    name: str
    holds: bool
    detail: str


@dataclass
class CriterionReport:
    quadruple: QuadrupleModule
    structural: StructuralMaps
    coker_g_lambda: FDModule
    coker_g_cert: GPCertificate
    coker_f_cert: GPCertificate
    iso_b1: IsoClause
    iso_b2: IsoClause
    iso_b3: IsoClause
    overall: str                 # "pass" | "fail" | "unknown"
    failing: list[str]

    @property
    def passed(self) -> bool:
        return self.overall == "pass"


def check_conditions(ext: TrivialExtension, ctx: MoritaContext,
                     q: QuadrupleModule, window: int = 6,
                     period_bound: int = 12, seed: int = 0) -> CriterionReport:
    """Evaluate the sufficiency clauses for a quadruple over the
    one-sided-zero context ring built on A = Lambda |x im(psi)."""
    check_extension_matches(ext, ctx)
    bad = validate_quadruple(q)
    if bad:
        raise EngineError(f"invalid quadruple: {bad[0]}")
    sm = structural_maps(ctx, q)
    u_lam = ext.lam_module(sm.u, name=f"Coker(g)|{ext.Lam.name}")
    cert_g = certify_gorenstein_projective(u_lam, window, period_bound, seed)
    cert_f = certify_gorenstein_projective(sm.v, window, period_bound, seed)
    b1 = IsoClause("iso_b1", sm.eta.is_injective(),
                   f"M(x)Coker(g) dim {sm.eta.source.dim} vs Im(f) rank "
                   f"{rank(q.f_full)}")
    b2 = IsoClause("iso_b2", sm.theta.is_injective(),
                   f"N(x)Coker(f) dim {sm.theta.source.dim} vs Im(g)/IX rank "
                   f"{rank(q.g_full @ sm.p_x.mat)}")
    b3 = IsoClause("iso_b3", sm.m_x.is_injective(),
                   f"I(x)Coker(g) dim {sm.m_x.source.dim} vs IX dim "
                   f"{sm.ix_rows.rows}")
    overall, failing = criterion_verdict(
        [(c.name, c.holds) for c in (b1, b2, b3)], cert_g.verdict,
        cert_f.verdict)
    return CriterionReport(q, sm, u_lam, cert_g, cert_f, b1, b2, b3,
                           overall, failing)


def criterion_verdict(clauses: list[tuple[str, bool]], verdict_g: str,
                      verdict_f: str) -> tuple[str, list[str]]:
    """(overall, failing) from the (name, holds) clauses of (b) and the
    verdicts of the two cokernel certificates: every false clause and every
    not_gp cokernel fails; otherwise an unknown certificate leaves the
    criterion unknown."""
    failing = [name for name, holds in clauses if not holds]
    for tag, verdict in (("coker_g", verdict_g), ("coker_f", verdict_f)):
        if verdict == "not_gp":
            failing.append(tag)
    if failing:
        return "fail", failing
    if "unknown" in (verdict_g, verdict_f):
        return "unknown", failing
    return "pass", failing


def zero_case_check(ctx: MoritaContext, q: QuadrupleModule, window: int = 6,
                    period_bound: int = 12, seed: int = 0) -> CriterionReport:
    """The criterion for contexts with both maps zero (I = 0, Lambda = A)."""
    if not ctx.psi_is_zero:
        raise EngineError("zero-case check needs psi = 0")
    if not ctx.phi_is_zero:
        raise EngineError("zero-case check needs phi = 0")
    ext = identity_extension(ctx)
    return check_conditions(ext, ctx, q, window, period_bound, seed)


@memo
def identity_extension(ctx: MoritaContext) -> TrivialExtension:
    F = ctx.A.field
    return recognize_trivial_extension(
        ctx.A, Mat.identity(F, ctx.A.dim), Mat.zeros(F, 0, ctx.A.dim))


# -- the total resolution ------------------------------------------------------


@dataclass
class ResolutionAssembly:
    pcx: ComplexWindow                     # over Lambda
    qcx: ComplexWindow                     # over B
    rho: dict                              # Q^i -> M (x) P^{i+1}
    tau: dict                              # N(x)Q^i -> I (x) P^{i+1}
    alpha: dict                            # P^i -> I (x) P^{i+1}
    beta: dict                             # P^i -> N (x) Q^{i+1}
    ycx: ComplexWindow                     # over B
    zcx: ComplexWindow                     # over Lambda
    fcx: ComplexWindow                     # over A
    tcx: ComplexWindow                     # over the context ring
    t_quads: list[QuadrupleModule]
    kernel_iso: ModuleHom                  # ker(d_T^0) -> q, over the ring


def _require(cond: bool, msg: str):
    if not cond:
        raise EngineError(msg)


def build_total_resolution(ext: TrivialExtension, ctx: MoritaContext,
                           q: QuadrupleModule, report: CriterionReport,
                           window: int | None = None, seed: int = 0) -> ResolutionAssembly:
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
      ring-linearity is exactly being a quadruple map.  Total exactness
      rests on the ring's left self-injective dimension d
      (`complexes.total_exactness`): a T window that repeats literally
      builds no Hom(-, Gamma) complex, any other one on its last d + 2
      terms only, and one over a ring with d past the bound whole;
    - ker(d_T^0) is isomorphic to q: the kernel of d_T^0 over the ring,
      matched with the ring module of q by `modules.is_isomorphic`.
    A failed horseshoe raises EngineError with its degree.

    The quadruples T^i = T_Lam(P^i) (+) T_B(Q^i) are built before Z, and
    psi (x) 1 is read off their g, a map of quadruples: the twist
    tau^i = (1 (x) rho^i)(psi (x) 1) of Z through the I (x) P^{i+1} block
    of the g of T_Lam(P^{i+1}), and sigma^0 = [[psi (x) 1, 0], [0, 1]],
    which sends Im(g) into Z^0, as the g of T^0 without its P^0 columns.
    Both are read on the full k-tensor spaces (`_sigma`), so no N (x) Y
    of a T^i, and no balanced tensor of q, is built.

    A periodic window is built and checked over one period.  Each check
    above but the kernel's (the C3 exactness of M (x) P, I (x) P and
    N (x) Q, the horseshoes' checks, and T's module laws, complex and
    total exactness) runs on `complexes.one_period` of its window: when
    the window repeats literally by p, every check at degree i is the
    check at i - p, so the sub-window [lo, lo + p + 1] stands for the
    whole; a window that does not repeat is checked whole.  The horseshoes
    reuse a lift whose inputs repeat.  Each distinct tuple of term
    instances gives one direct sum, T_Lam and T, and each distinct tuple
    of the terms, differential matrices and lifts a degree reads gives one
    tensored differential, tau^i with d_Z^i, d_F^i and d_T^i
    (`complexes.per_instance`), so a window whose certificates repeat
    builds and checks each distinct piece once."""
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
    degrees, diff_degrees = range(-span, span + 1), range(-span, span)
    u_lam = report.coker_g_lambda

    m_lam, _ = lam_bimodules(ext, ctx)

    # weak-compatibility consequences, checked directly.  N (x)_B Q is built
    # over ctx.N, as T_B(Q^i) builds it; Z reads its terms over Lambda
    mp_cx, mp_tens = tensor_window(m_lam, pcx)
    _require(is_exact(one_period(mp_cx)),
             "M (x) P is not exact (C3 for M fails here)")
    ip_cx, _ = tensor_window(ext.ideal, pcx)
    _require(is_exact(one_period(ip_cx)),
             "I (x) P is not exact (C3 for I fails here)")
    nq_cx, nq_tens = tensor_window(ctx.N, qcx)
    _require(is_exact(one_period(nq_cx)),
             "N (x) Q is not exact (C3 for N fails here)")
    # one restriction to Lambda per distinct N (x) Q^i instance
    nq_lam = per_instance(lambda i: ext.lam_module(nq_cx.term(i)), degrees,
                          lambda i: (nq_cx.term(i),))

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

    # the quadruples T^i = T_Lam(P^i) (+) T_B(Q^i): one T_Lam per distinct
    # P^i instance and one T^i per distinct pair, so the hom-space caches
    # of repeated window terms (periodic certificates) can work
    t_lams = per_instance(
        lambda i: t_lambda(ext, ctx, pcx.term(i), name=f"T_Lam(P^{i})"),
        degrees, lambda i: (pcx.term(i),))
    t_quads = per_instance(
        lambda i: direct_sum_quadruples(
            [t_lams[i + span], t_b(ctx, qcx.term(i), name=f"T_B(Q^{i})")],
            name=f"T^{i}"), degrees, lambda i: (pcx.term(i), qcx.term(i)))

    # Z window: I (x) P (+) N (x) Q with tau = (1 (x) rho)(psi (x) 1), psi (x) 1
    # the I (x) P^{i+1} block of the g of T_Lam(P^{i+1}), descended to
    # N (x)_B Q^i by its section; tau^i and d_Z^i once per distinct tuple of
    # their inputs
    z_terms = per_instance(
        lambda i: direct_sum([ip_cx.term(i), nq_lam[i + span]], name=f"Z^{i}")[0],
        degrees, lambda i: (ip_cx.term(i), nq_cx.term(i)))

    def tau_and_dz(i):
        tau_i = nq_tens[i + span].section @ _sigma(
            t_lams[i + span + 1], pcx.term(i + 1), rho[i])
        dz = twisted_diff(ip_cx.diff(i).mat, tau_i, nq_cx.diff(i).mat)
        return (ModuleHom(nq_lam[i + span], ip_cx.term(i + 1), tau_i),
                ModuleHom(z_terms[i + span], z_terms[i + span + 1], dz))

    tau_dz = per_instance(tau_and_dz, diff_degrees, lambda i: (
        nq_tens[i + span], t_lams[i + span + 1], rho[i].mat, ip_cx.diff(i).mat,
        nq_cx.diff(i).mat, z_terms[i + span], z_terms[i + span + 1]))
    tau = {i: t for i, (t, _) in zip(diff_degrees, tau_dz)}
    zcx = ComplexWindow(-span, span, z_terms, [dz for _, dz in tau_dz])

    # identify ker(d_Z^0) with H = Im(g)
    h_mod, h_incl = submodule_from_rows(q.x, q.g_full, name="Im(g)")
    kx_z = _identify_h_with_z_kernel(ext, q, hs1, t_quads[span], pcx.term(0),
                                     zcx, h_mod, h_incl)
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

    # F = P(I) (+) N (x) Q over A, the X side of the quadruple terms
    # on P (+) Z, Z = I(x)P (+) N(x)Q:  [[d_P, (alpha, beta)], [0, d_Z]]
    f_terms = [tq.x for tq in t_quads]
    f_diffs = per_instance(
        lambda i: ModuleHom(f_terms[i + span], f_terms[i + span + 1], Mat.from_blocks(
            F, [cx.term(i).dim for cx in (pcx, zcx)],
            [cx.term(i + 1).dim for cx in (pcx, zcx)],
            [[pcx.diff(i).mat, hs2.rho[i].mat], [None, zcx.diff(i).mat]])),
        diff_degrees, lambda i: (f_terms[i + span], f_terms[i + span + 1],
                                 pcx.diff(i).mat, hs2.rho[i].mat, zcx.diff(i).mat))
    fcx = ComplexWindow(-span, span, f_terms, f_diffs)

    # T over the context ring, with differential block_diag(F, Y)
    mr = build_ring(ctx)
    t_terms = [quadruple_to_module(mr, tq) for tq in t_quads]
    t_diffs = per_instance(
        lambda i: ModuleHom(t_terms[i + span], t_terms[i + span + 1], Mat.block_diag(
            [f_diffs[i + span].mat, ycx.diff(i).mat])),
        diff_degrees, lambda i: (t_terms[i + span], t_terms[i + span + 1],
                                 f_diffs[i + span].mat, ycx.diff(i).mat))
    tcx = ComplexWindow(-span, span, t_terms, t_diffs)
    t_checked = one_period(tcx)
    bad = validate_complex(t_checked)
    _require(bad == [], f"T window is not a complex: {bad[:1]}")
    _require(total_exactness(t_checked), "T window is not totally exact")

    # ker(d_T^0) is the given quadruple
    ker_t, _ = kernel_of(t_diffs[span], name="ker(d_T^0)")
    iso = is_isomorphic(ker_t, quadruple_to_module(mr, q), seed=seed)
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


def _restrict_window(wc: ComplexWindow, lo: int, hi: int) -> ComplexWindow:
    if lo < wc.lo or hi > wc.hi:
        raise EngineError("certificate window too small for the request")
    terms = [wc.term(i) for i in range(lo, hi + 1)]
    diffs = [wc.diff(i) for i in range(lo, hi)]
    return ComplexWindow(lo, hi, terms, diffs)


def _sigma(t: QuadrupleModule, p: FDModule, h: ModuleHom) -> Mat:
    """1_N (x) h followed by the g of t = T_Lam(P) or T_Lam(P) (+) T_B(Q)
    without its P columns, on N (x)_k of h's source: into I (x) P or
    I (x) P (+) N (x) Q, psi (x) 1 on T_Lam(P)."""
    g = t.g_full
    return (Mat.identity(g.field, t.ctx.N.dim).kron(h.mat)
            @ g.block(0, g.rows, p.dim, g.cols))


def _identify_h_with_z_kernel(ext, q, hs1, t0, p0, zcx,
                              h_mod, h_incl) -> ModuleHom:
    """The canonical map Im(g) -> Z^0 onto ker(d_Z^0): delta, the kernel
    embedding of Y composed with the chain map sigma^0 = [[psi (x) 1, 0],
    [0, 1]], factored through g corestricted onto Im(g), both on
    N (x)_k Y.  sigma^0 is the g of T^0 = T_Lam(P^0) (+) T_B(Q^0) without
    its P^0 columns: the I (x) P^0 block of T_Lam(P^0) is psi (x) 1, and
    the g of T_B(Q^0) is the projection onto N (x)_B Q^0.  The
    corestriction has full column rank, so the factor is the one
    candidate; the second horseshoe checks that it is injective, lands in
    ker(d_Z^0) and is onto it, which is clause (b)'s content here."""
    h_map = solve(solve_left(h_incl.mat, q.g_full), _sigma(t0, p0, hs1.embed))
    _require(h_map is not None, "delta does not factor through Im(g)")
    return ModuleHom(ext.lam_module(h_mod), zcx.term(0), h_map)


# -- compatibility hypotheses --------------------------------------------------


@dataclass
class CompatVerdict:
    kind: str                     # "weakly_compatible" | "not_compatible"
    reason: str                   # | "undetermined"
    proof_grade: bool
    inj_dims: tuple | None = None
    witness: dict | None = None
    tests_used: int = 0

    @property
    def refuted(self) -> bool:
        return self.kind == "not_compatible"


def check_compat(bim: Bimodule, left_tests: list[ComplexWindow] | None = None,
                 right_tests: list[ComplexWindow] | None = None,
                 bound: int = 6) -> CompatVerdict:
    """Weak compatibility of a bimodule: decision ladder.

    (1) finite injective dimension on both sides is a proof-grade reason;
    (2) a Tor_1 witness against the kernel of a supplied totally exact
    test complex refutes it; (3) all supplied tests passing the Hom- and
    tensor-exactness conditions is sampled evidence, explicitly not proof.
    """
    left_tests = left_tests or []
    right_tests = right_tests or []
    left_mod = bim.as_left_module()
    d_left = injective_dimension(left_mod, bound)
    d_right = injective_dimension(bim.as_right_module(), bound)
    if d_left is not None and d_right is not None:
        return CompatVerdict("weakly_compatible", "finite_injective_dimension",
                             True, inj_dims=(d_left, d_right))
    for k, wc in enumerate(right_tests):
        _require_total(wc)
        for i in range(wc.lo, wc.hi):
            ker, _ = kernel_of(wc.diff(i))
            if tor_dim(bim, ker, 1) != 0:
                return CompatVerdict(
                    "not_compatible", "tor_witness", True,
                    witness={"test": k, "degree": i, "tor": 1},
                    tests_used=len(left_tests) + len(right_tests))
        if tensor_exactness_failure(wc, bim) is not None:
            return CompatVerdict(
                "not_compatible", "tensor_witness", True,
                witness={"test": k, "side": "right"},
                tests_used=len(left_tests) + len(right_tests))
    for k, wc in enumerate(left_tests):
        _require_total(wc)
        deg = hom_exactness_failure(wc, left_mod)
        if deg is not None:
            return CompatVerdict(
                "not_compatible", "hom_witness", True,
                witness={"test": k, "degree": deg, "side": "left"},
                tests_used=len(left_tests) + len(right_tests))
    n = len(left_tests) + len(right_tests)
    if n:
        return CompatVerdict("weakly_compatible", "exhausted_tests", False,
                             tests_used=n)
    return CompatVerdict("undetermined", "no_proof_and_no_tests", False)


def recheck_compat_witness(bim: Bimodule, wc: ComplexWindow, reason: str,
                           witness: dict) -> bool:
    """Independently reconfirm a refutation witness from check_compat."""
    if not total_exactness(wc):
        return False
    if reason == "tor_witness":
        i = witness.get("degree")
        if type(i) is not int or not wc.lo <= i < wc.hi:
            return False
        ker, _ = kernel_of(wc.diff(i))
        return tor_dim(bim, ker, 1) != 0
    if reason == "tensor_witness":
        return tensor_exactness_failure(wc, bim) is not None
    if reason == "hom_witness":
        deg = hom_exactness_failure(wc, bim.as_left_module())
        return deg is not None and deg == witness.get("degree")
    return False


@memo
def _require_total(wc: ComplexWindow):
    """Raise unless wc is totally exact, proven on one period of it; kept
    on wc, so a test window passed to several checks is proven once."""
    if not total_exactness(one_period(wc)):
        raise EngineError("test complex is not totally exact")


# -- semi-weak compatibility of the special one-column modules -----------------


@dataclass
class SemiWeakVerdict:
    side: str                    # "left" | "right"
    which: str                   # "N" | "M" | "I"
    kind: str                    # "pass_proof" | "pass_sampled" | "refuted"
    reason: str
    witness: dict | None = None
    tests_used: int = 0

    @property
    def refuted(self) -> bool:
        return self.kind == "refuted"


def check_semi_weak_quadruple(ext: TrivialExtension, ctx: MoritaContext,
                              side: str, which: str, tests: list[ComplexWindow],
                              bound: int = 6) -> SemiWeakVerdict:
    """Semi-weak compatibility of the one-column modules Z(W) = (W, 0, 0, 0)
    (left side, W in {N, I}) or their right-module mirrors (W in {M, I}).

    The definition is decided over the context ring itself: Z(W) is built
    once, as a module over the ring (left) or over its opposite (right),
    and Hom(T, Z(W)) (left) or Z(W) (x) T (right) is checked for
    exactness on each totally exact test complex T, over one period of a
    periodic T.  The paper reduces these to Hom_Lambda(P, W) and
    W (x)_Lambda P for the Lambda-side complex P of T; the reduction is
    not used here but proved degree by degree in the tests.  Finite
    injective (left) or projective (right) dimension of Z(W) over the
    ring is a proof-grade pass; otherwise exactness on the supplied tests
    is sampled evidence, and any failure is a proof-grade refutation with
    the failing test (and, on the left, degree) as witness.
    """
    check_extension_matches(ext, ctx)
    mr = build_ring(ctx)
    m_lam, n_lam = lam_bimodules(ext, ctx)
    if which == "N":
        w_left, w_bim = n_lam.as_left_module("N|Lam"), n_lam
    elif which == "M":
        w_left, w_bim = None, m_lam
    elif which == "I":
        w_left = ext.ideal.as_left_module("I|Lam")
        w_bim = ext.ideal
    else:
        raise EngineError(f"unknown special module {which!r}")
    # the proof-grade fast path reads dimensions over the ring too
    # (dimensions of W over Lambda do not suffice: the Lambda-side complex
    # of a totally exact ring complex need not be exact).  On the right
    # side Z(W) is a quadruple over the opposite context, W a right
    # A-module through the canonical surjection
    if side == "left":
        if which == "M":
            raise EngineError("M is a right-side special module")
        zq = z_a(ctx, ext.inflate(w_left, name=f"{which}|A"))
        ring_mod = quadruple_to_module(mr, zq)
        dimension, label = injective_dimension, "injective"
    else:
        if which == "N":
            raise EngineError("N is a left-side special module")
        w = w_bim.as_right_module(f"{which}|rop")
        zq = z_a(opposite_context(ctx),
                 restrict_along(w, ext.proj_rows, opposite_algebra(ctx.A),
                                name=f"{which}|Aop"), name=f"Z({which})")
        ring_mod = quadruple_to_module(opposite_ring(mr), zq)
        dimension, label = projective_dimension, "projective"
    try:
        d = dimension(ring_mod, bound)
    except UnsupportedField:
        d = None
    if d is not None:
        return SemiWeakVerdict(side, which, "pass_proof",
                               f"finite_{label}_dimension({d})")
    for k, wc in enumerate(tests):
        _require_total(wc)
        wc = one_period(wc)
        if side == "left":
            deg = hom_exactness_failure(wc, ring_mod)
            if deg is not None:
                return SemiWeakVerdict(side, which, "refuted",
                                       "hom_complex_not_exact",
                                       witness={"test": k, "degree": deg},
                                       tests_used=k + 1)
        elif tensor_exactness_failure(wc, right_bimodule(ring_mod)) is not None:
            return SemiWeakVerdict(side, which, "refuted",
                                   "tensor_complex_not_exact",
                                   witness={"test": k}, tests_used=k + 1)
    if tests:
        return SemiWeakVerdict(side, which, "pass_sampled",
                               "exhausted_tests", tests_used=len(tests))
    return SemiWeakVerdict(side, which, "pass_sampled", "no_tests_supplied",
                           tests_used=0)


# -- the audit -----------------------------------------------------------------


@dataclass
class AuditEntry:
    name: str
    criterion: str
    failing: list[str]
    certificate: str
    classification: str           # consistent | expected_divergence
    detail: str                   # | inconsistent | undetermined


@dataclass
class AuditReport:
    entries: list[AuditEntry]
    bimodule_verdicts: dict
    semi_weak_verdicts: dict
    consistent: bool


def audit_equivalence(ext: TrivialExtension, ctx: MoritaContext,
                      family: list[QuadrupleModule], window: int = 6,
                      period_bound: int = 12, seed: int = 0) -> AuditReport:
    """Cross-table criterion verdicts against independent GP certificates.

    Divergences are classified: when a necessity hypothesis is refuted
    with a witness they are expected; when all hypotheses hold with
    proof-grade reasons they falsify the build; otherwise undetermined.
    """
    check_extension_matches(ext, ctx)
    mr = build_ring(ctx)
    m_lam, n_lam = lam_bimodules(ext, ctx)
    bim_verdicts = {
        "N": check_compat(n_lam, bound=window),
        "M": check_compat(m_lam, bound=window),
        "I": check_compat(ext.ideal, bound=window),
    }
    entries = []
    gp_windows: list[ComplexWindow] = []
    rows = []
    for q in family:
        rep = check_conditions(ext, ctx, q, window, period_bound, seed)
        mod = quadruple_to_module(mr, q)
        cert = certify_gorenstein_projective(mod, window, period_bound, seed)
        if cert.verdict == "gp" and cert.window is not None:
            gp_windows.append(cert.window)
        rows.append((q, rep, cert))
    semi_weak = {}
    for side, which in (("left", "N"), ("left", "I"), ("right", "M"),
                        ("right", "I")):
        semi_weak[f"{side}:{which}"] = check_semi_weak_quadruple(
            ext, ctx, side, which, gp_windows, bound=window)
    weak_proof = all(v.kind == "weakly_compatible" and v.proof_grade
                     for v in bim_verdicts.values())
    semi_refuted = [k for k, v in semi_weak.items() if v.refuted]
    semi_proof = all(v.kind == "pass_proof" for v in semi_weak.values())
    for q, rep, cert in rows:
        crit, cv = rep.overall, cert.verdict
        if crit == "unknown" or cv == "unknown":
            cls, detail = "undetermined", "a bounded search was inconclusive"
        elif (crit == "pass") == (cv == "gp"):
            cls, detail = "consistent", ""
        elif crit == "pass" and cv == "not_gp":
            # sufficiency needs only weak compatibility of the bimodules
            if weak_proof:
                cls = "inconsistent"
                detail = ("criterion passes under proof-grade weak "
                          "compatibility but the certificate refutes")
            else:
                cls, detail = "undetermined", "weak compatibility unproven"
        else:
            # certificate says GP, criterion fails: necessity hypotheses
            if semi_refuted:
                cls = "expected_divergence"
                detail = f"necessity hypothesis refuted: {semi_refuted}"
            elif weak_proof and semi_proof:
                cls = "inconsistent"
                detail = ("all hypotheses verified proof-grade yet the "
                          "verdicts disagree")
            else:
                cls, detail = "undetermined", "necessity hypotheses unproven"
        entries.append(AuditEntry(q.name or "?", crit, rep.failing, cv, cls,
                                  detail))
    consistent = all(e.classification != "inconsistent" for e in entries)
    return AuditReport(entries, bim_verdicts, semi_weak, consistent)
