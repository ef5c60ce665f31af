from __future__ import annotations

import gc
import json
import random
import weakref

import pytest

from gpmorita import complexes, gpcert
from gpmorita.algebra import opposite_algebra
from gpmorita.catalog import (
    arrow_ideal_context, field_algebra, glued_psi_context, nakayama, path_a2,
    product_fields, proj_a2, random_module, random_quadruple,
    simple_at_idempotent, simple_kx2, triangular_context, triangular_over,
    truncated_poly, two_cycle_context, two_cycle_rad_square,
)
from gpmorita.complexes import (
    ComplexWindow, hom_exactness_failure, total_exactness,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import (
    CertifyError, GPCertificate, NotGPWitness, RightTailStep,
    _periodic_window, certify_gorenstein_projective,
)
from gpmorita.homology import (
    Resolution, _block_reps, first_nonzero_ext, global_dimension,
    is_projective, is_self_injective, minimal_resolution, projective_cover,
    simple_modules, split_projective_summands,
)
from gpmorita.jsonio import certificate_to_json
from gpmorita.linalg import Mat, left_kernel
from gpmorita.modules import (
    FDModule, ModuleHom, Undetermined, cokernel_of, direct_sum, dual_module,
    is_isomorphic, kernel_of, regular_module, zero_module,
)
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


def _t2_simple(F):
    # (k, 0, 0, 0) over T2(R) = the context (R, R, 0, R, 0, 0) with
    # R = k[x]/(x^2): a GP simple over a ring that is neither self-injective
    # nor of finite global dimension, but 1-Gorenstein, so its certificate
    # is periodic
    r = truncated_poly(F, 2)
    ctx = triangular_over(r)
    return quadruple_to_module(build_ring(ctx), z_a(ctx, simple_kx2(r)))


def _cokernel_targets(monkeypatch):
    """The dims of the targets whose cokernels the certifier builds."""
    targets = []

    def spy(alpha, *args, **kwargs):
        targets.append(alpha.target.dim)
        return cokernel_of(alpha, *args, **kwargs)

    monkeypatch.setattr(gpcert, "cokernel_of", spy)
    return targets


def test_the_tail_targets_stay_at_dim_two_and_the_period_is_one(monkeypatch):
    # minimal approximations keep every target of this tail at dim 2, far
    # below the budget, and the tail closes up with period 1
    for F in (QQ(), GF(7)):
        x = _t2_simple(F)
        targets = _cokernel_targets(monkeypatch)
        cert = certify_gorenstein_projective(x, window=2, dim_budget=120)
        assert (cert.verdict, cert.reason, cert.period) == ("gp", "periodic", 1)
        assert targets and max(targets) <= 2
        assert verify_certificate(cert, x) == []


def test_no_cokernel_is_built_past_the_dimension_budget(monkeypatch):
    # the first target of the module above has dim 2: the budget 1 stops
    # the tail before its cokernel
    x = _t2_simple(GF(7))
    targets = _cokernel_targets(monkeypatch)
    cert = certify_gorenstein_projective(x, window=2, dim_budget=1)
    assert (cert.verdict, cert.reason) == ("unknown", "dimension budget exceeded")
    assert targets == []


@pytest.mark.parametrize("n, F", [(2, QQ()), (2, GF(7)), (3, QQ()), (3, GF(11))],
                         ids=["n2-Q", "n2-GF7", "n3-Q", "n3-GF11"])
def test_known_answers_on_the_triangular_ring_over_truncated_polynomials(n, F):
    # over T2(R), R = k[x]/(x^n) self-injective, (X, Y, g) is GP exactly
    # when g is injective (Li & Zhang, J. Algebra 323 (2010)); the corner
    # modules of random_quadruple are max_cuts=1 draws.  At n = 3 the ring
    # has dim 9 and its radical by trace form needs p > 9: GF(11), not GF(7)
    ctx = triangular_over(truncated_poly(F, n))
    ring, rng = build_ring(ctx), random.Random(37)
    seen = set()
    for _ in range(25):
        q = random_quadruple(ctx, rng)
        if not q.dim:
            continue
        x = quadruple_to_module(ring, q)
        cert = certify_gorenstein_projective(x, window=2)
        assert cert.verdict == ("gp" if q.g.is_injective() else "not_gp"), q
        assert verify_certificate(cert, x) == [], q
        seen.add((cert.verdict, cert.reason))
    assert {("gp", "periodic"), ("not_gp", "")} <= seen, seen


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_a_self_injective_module_with_no_period_in_the_bound_is_certified(F):
    # the simple over k[x]/(x^3) has period 2; with period_bound 1 the
    # certificate is the plain two-sided window
    s = simple_kx2(truncated_poly(F, 3))
    cert = certify_gorenstein_projective(s, window=2, period_bound=1)
    assert (cert.verdict, cert.reason, cert.period) == ("gp", "self-injective",
                                                        None)
    assert verify_certificate(cert, s) == []


# -- tails on demand against the eager certifier ------------------------------
#
# The certifier used to build both tails of the core over the whole window
# before it looked for a period, and to look in both.  Its code is kept here
# verbatim, renamed, with the syzygy window builder that the certifier no
# longer has, as the oracle of the on-demand search: every step and every
# isomorphism test is deterministic, so the certificates must agree byte
# for byte.  They would differ only at a period of window + 2, which no
# module here has.


def eager_right_tail(x, length, seed, dim_budget):
    """Build cosyzygy steps; returns (steps, final_stage) or a NotGPWitness."""
    steps = []
    cur = x
    for j in range(length):
        alpha, P = gpcert._minimal_approximation(cur)
        ker_rows = left_kernel(alpha.mat)
        if ker_rows.rows:
            return None, NotGPWitness("non_injective_approximation", j,
                                      steps=steps, stage=cur, alpha=alpha,
                                      kernel_row=Mat(ker_rows.field,
                                                     [ker_rows.row(0)],
                                                     ker_rows.cols))
        nxt, proj = cokernel_of(alpha, name=f"C{j + 1}")
        steps.append(RightTailStep(cur, alpha, P, proj))
        if P.dim > dim_budget:
            return steps, "budget"
        cur = nxt
    return steps, cur


def _syzygy_periodic_window(res: Resolution, p: int, theta: ModuleHom,
                            span: int) -> tuple[ComplexWindow, ModuleHom]:
    """Periodic window from the resolution block, closed with
    theta: x -> (p-th syzygy)."""
    block = [res.terms[p - 1 - j] for j in range(p)]     # degrees 0..p-1
    if p == 1:
        ker, incl = kernel_of(res.aug)
    else:
        ker, incl = kernel_of(res.maps[p - 2])
    internal = [res.maps[p - 2 - j] for j in range(p - 1)]
    junction = res.aug.then(theta).then(incl)            # P_0 -> x -> ker -> P_{p-1}
    return _periodic_window(block, internal, junction, span), theta.then(incl)


def eager_search_period(core, steps, tail_end, res, window, period_bound, seed):
    """(window, kernel_ident, period) for the core, or (None, None, None);
    raises Undetermined only when a decisive answer was blocked."""
    undetermined = False
    for p in range(1, period_bound + 1):
        if p < len(steps):
            cand = steps[p].stage
        elif p == len(steps) and isinstance(tail_end, FDModule):
            cand = tail_end
        else:
            break
        try:
            theta = is_isomorphic(cand, core, seed=seed)
        except Undetermined:
            undetermined = True
            continue
        if theta is not None:
            wc, ki = gpcert._cosyzygy_periodic_window(steps, p, theta, window)
            return wc, ki, p
    for p in range(1, min(period_bound, len(res.syzygies)) + 1):
        cand = res.syzygies[p - 1]
        try:
            theta = is_isomorphic(core, cand, seed=seed)
        except Undetermined:
            undetermined = True
            continue
        if theta is not None:
            wc, ki = _syzygy_periodic_window(res, p, theta, window)
            return wc, ki, p
    if undetermined:
        raise Undetermined("periodicity search hit an undetermined isomorphism test")
    return None, None, None


def eager_certify(x, window=6, period_bound=12, seed=0, dim_budget=600):
    """The certifier with both tails of the core built over the whole window."""
    if window < 2:
        raise ValueError("window must be at least 2")
    a = x.algebra
    if x.dim == 0 or is_projective(x):
        wc, ki = gpcert._split_window(x, window)
        return GPCertificate("gp", x, reason="split-projective", period=1,
                             window=wc, kernel_ident=ki)
    gl = global_dimension(a, window)
    if gl is not None:
        res = minimal_resolution(x, gl + 1)
        i = first_nonzero_ext(res, regular_module(a))
        if i is None:
            raise CertifyError(
                "finite global dimension, not projective, but no Ext witness")
        return GPCertificate(
            "not_gp", x,
            witness=NotGPWitness("non_vanishing_ext", i, resolution=res))
    self_inj = is_self_injective(a)
    core, projs, overall = split_projective_summands(x)
    core_is_x = not projs

    def emit(wc, ki, reason, period):
        if not core_is_x:
            wc, ki = gpcert._combine_with_split(x, overall, projs, wc, ki, window)
        return GPCertificate("gp", x, reason=reason, period=period, window=wc,
                             kernel_ident=ki)

    def unknown(reason):
        return GPCertificate("unknown", x, bound=(window, period_bound),
                             reason=reason)

    # the two-sided window on [-window, window] reads the right-tail steps
    # 0..window, so it needs window + 1 of them
    if self_inj:
        core_res = minimal_resolution(core, window + 1)
        steps, tail_end = eager_right_tail(core, window, seed, dim_budget)
        if steps is None:
            raise CertifyError("embedding failed over a self-injective algebra")
        if tail_end == "budget":
            return unknown("dimension budget exceeded")
        wc, ki, p = eager_search_period(core, steps, tail_end, core_res, window,
                                        period_bound, seed)
        if wc is not None:
            return emit(wc, ki, "self-injective", p)
        steps, tail_end = eager_right_tail(core, window + 1, seed, dim_budget)
        if tail_end == "budget":
            return unknown("dimension budget exceeded")
        wc, ki = gpcert._two_sided_window(core_res, steps, window)
        return emit(wc, ki, "self-injective", None)

    res = minimal_resolution(x, window + 1)
    reg = regular_module(a)
    i = first_nonzero_ext(res, reg)
    if i is not None:
        return GPCertificate(
            "not_gp", x,
            witness=NotGPWitness("non_vanishing_ext", i, resolution=res))
    steps_x, tail_x = eager_right_tail(x, window + 1, seed, dim_budget)
    if steps_x is None:
        return GPCertificate("not_gp", x, witness=tail_x)
    if tail_x == "budget":
        return unknown("dimension budget exceeded")
    probe, _ = gpcert._two_sided_window(res, steps_x, window)
    # non-exactness of Hom(probe, A) in a positive degree refutes: the
    # right-tail terms come from projective approximations, so it descends
    # to the cosyzygies
    obstruction = hom_exactness_failure(probe, reg, lo=1)
    if obstruction is not None:
        return GPCertificate(
            "not_gp", x,
            witness=NotGPWitness("homology_obstruction", obstruction,
                                 steps=steps_x))
    if core_is_x:
        steps_c, tail_c, res_c = steps_x, tail_x, res
    else:
        res_c = minimal_resolution(core, window + 1)
        steps_c, tail_c = eager_right_tail(core, window + 1, seed, dim_budget)
        if steps_c is None:
            return GPCertificate("not_gp", x, witness=tail_c)
        if tail_c == "budget":
            return unknown("dimension budget exceeded")
    wc, ki, p = eager_search_period(core, steps_c, tail_c, res_c, window,
                                    period_bound, seed)
    if wc is not None:
        # Hom(-, A) of the closed-up window is the one fact of this path
        # that its construction does not prove
        if not total_exactness(wc):
            raise CertifyError("assembled window is not totally exact")
        return emit(wc, ki, "periodic", p)
    return unknown("no period found within the bound")


def _as_json(cert):
    return json.dumps(certificate_to_json(cert, cert.module.algebra.name))


def _self_injective_modules(F):
    """(label, module): the simples, a sum of two simples and the
    non-projective seeded random draws over k[x]/(x^n), n = 2, 3, 4, and
    over the radical-square-zero two-cycle algebra; the first simple and
    the sum also plus an indecomposable projective."""
    rng = random.Random(22)
    out = []
    for alg in (truncated_poly(F, 2), truncated_poly(F, 3), truncated_poly(F, 4),
                two_cycle_rad_square(F)):
        simples = simple_modules(alg)
        s0, ss = simples[0], direct_sum([simples[0], simples[-1]])[0]
        proj = _block_reps(alg)[-1][0]
        drawn = [m for m in (random_module(alg, rng, max_cuts=3) for _ in range(30))
                 if m.dim and not is_projective(m)]
        mods = ([(f"S{k}", s) for k, s in enumerate(simples)]
                + [("S+S", ss), ("S0+P", direct_sum([s0, proj])[0]),
                   ("S+S+P", direct_sum([ss, proj])[0])]
                + [("rand", m) for m in drawn[:1]])
        out += [(f"{alg.name}:{label}", m) for label, m in mods]
    return out


@pytest.mark.parametrize("window", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_tails_on_demand_give_the_eager_certificates(F, window):
    seen, checked = set(), set()
    for label, m in _self_injective_modules(F):
        for period_bound, dim_budget in ((1, 600), (12, 600), (2, 3)):
            kw = dict(window=window, period_bound=period_bound,
                      dim_budget=dim_budget)
            cert = certify_gorenstein_projective(m, **kw)
            text = _as_json(cert)
            assert text == _as_json(eager_certify(m, **kw)), (label, kw)
            seen.add((cert.verdict, cert.reason, cert.period is None))
            # a certificate equal to one already checked is not checked again
            if cert.is_gp and text not in checked:
                assert verify_certificate(cert, m) == [], (label, kw)
                checked.add(text)
    # periods, the two-sided fallback and the budget stop all occurred
    assert {("gp", "self-injective", False), ("gp", "self-injective", True),
            ("unknown", "dimension budget exceeded", True)} <= seen


def dual_embedding(cur):
    """The embedding that the self-injective branch built before the minimal
    approximation, kept as its oracle: the dual of the projective cover of
    the dual."""
    P_op, cov = projective_cover(dual_module(cur, opposite_algebra(cur.algebra)))
    return ModuleHom(cur, dual_module(P_op, cur.algebra), cov.mat.transpose())


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_over_a_self_injective_algebra_the_approximation_is_the_envelope(F):
    # the injective envelope is unique up to isomorphism: targets of the
    # same dim and isomorphic cosyzygies, two steps deep
    for label, m in _self_injective_modules(F):
        ours, theirs = m, m
        for _ in range(2):
            alpha, P = gpcert._minimal_approximation(ours)
            beta = dual_embedding(theirs)
            assert alpha.is_injective() and P.dim == beta.target.dim, label
            ours, theirs = cokernel_of(alpha)[0], cokernel_of(beta)[0]
            assert is_isomorphic(ours, theirs) is not None, label


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_tails_on_demand_give_the_eager_certificates_on_the_general_path(F):
    # (k, 0, 0, 0) over T2(k[x]/(x^2)), certified with a period, and with
    # a budget below its first target
    x = _t2_simple(F)
    for dim_budget in (120, 1):
        cert = certify_gorenstein_projective(x, window=2, dim_budget=dim_budget)
        assert cert.verdict == ("gp" if dim_budget > 1 else "unknown")
        assert _as_json(cert) == _as_json(eager_certify(x, window=2,
                                                        dim_budget=dim_budget))


def _found_as_json(m, found):
    wc, ki, p = found
    return _as_json(GPCertificate("gp", m, period=p, window=wc, kernel_ident=ki))


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_the_general_search_reads_what_the_eager_search_read(F):
    # the general path's search with right tails of projective
    # approximations: on a core with no tail built yet, whose tail stops on
    # a non-injective step over kA2 or on a small budget, and on a core
    # whose whole tail is given, as when the core is x
    rng = random.Random(3)
    algs = (path_a2(F), truncated_poly(F, 3), two_cycle_rad_square(F))
    mods = [m for alg in algs for m in
            simple_modules(alg) + [random_module(alg, rng, max_cuts=3)]
            if m.dim and not is_projective(m)]
    seen = set()
    for m in mods:
        for window in (2, 3):
            for period_bound, dim_budget in ((1, 600), (12, 600), (12, 2)):
                args = (window, period_bound, 0)
                found = gpcert._search_period(m, [], *args, dim_budget)
                steps, tail = eager_right_tail(m, window + 1, 0, dim_budget)
                if steps is None or tail == "budget":
                    seen.add(type(tail).__name__)
                    assert type(found) is type(tail)
                    if steps is None:
                        assert (found.degree, len(found.steps)) == (
                            tail.degree, len(tail.steps))
                    continue
                eager_res = minimal_resolution(m, window + 1)
                eager = eager_search_period(m, steps, tail, eager_res, *args)
                given = gpcert._search_period(m, list(steps), *args, dim_budget)
                if eager[0] is None:
                    seen.add(None)
                    assert found is None and given is None
                    continue
                seen.add(eager[2])
                text = _found_as_json(m, eager)
                assert _found_as_json(m, found) == text == _found_as_json(m, given)
    assert {"NotGPWitness", "str", None, 2} <= seen


# -- the reach of the period search --------------------------------------------
#
# The cosyzygy scan tests periods up to min(period_bound, window + 2,
# 2 * window - 1): window + 2 is the reach the syzygy scan used to add, and
# 2 * window - 1 the longest period that the window [-window, window]
# witnesses.  The simple of N(3,3) has period 4, and of N(2,2,2,2,2)
# period 5 (Auslander, Reiten & Smalo, ch. IV); over T2 of them, Z_A(S)
# keeps the period (d = 1).


def _t2_nakayama_simple(F, kupisch):
    """Z_A(S_0) = (S_0, 0) over T2(N(kupisch)), S_0 the simple at vertex 0."""
    r = nakayama(F, kupisch)
    ctx = triangular_over(r)
    return quadruple_to_module(build_ring(ctx), z_a(ctx, simple_at_idempotent(r, 0)))


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_a_period_the_window_cannot_witness_is_not_claimed(F):
    # at window 2 the window witnesses periods up to 3: the period 4 of the
    # simple is not claimed, and the two-sided window certifies it
    s = simple_at_idempotent(nakayama(F, [3, 3]), 0)
    cert = certify_gorenstein_projective(s, window=2)
    assert (cert.verdict, cert.reason, cert.period) == ("gp", "self-injective", None)
    assert verify_certificate(cert, s) == []


# T2 of an algebra of dim n has dim 3n, and the radical needs p > 3n
@pytest.mark.parametrize("F", [QQ(), GF(31)], ids=["Q", "GF31"])
def test_the_period_search_reaches_window_plus_two_within_the_window(F):
    x = _t2_nakayama_simple(F, [3, 3])
    cert = certify_gorenstein_projective(x, window=2)
    assert (cert.verdict, cert.reason) == ("unknown", "no period found within the bound")
    assert verify_certificate(cert, x) == []
    x = _t2_nakayama_simple(F, [2, 2, 2, 2, 2])
    cert = certify_gorenstein_projective(x, window=3)
    assert (cert.verdict, cert.reason, cert.period) == ("gp", "periodic", 5)
    assert verify_certificate(cert, x) == []


def test_a_period_two_simple_builds_two_embeddings_and_no_left_resolution(
        count_calls):
    # the simple of k[x]/(x^3) has period 2; the eager certifier made 15
    # projective covers at window 6: one for the projectivity test, 8 for
    # the core's left resolution and 6 for the embeddings.  Now the
    # projectivity test counts the cover without building it, and the two
    # embeddings, minimal approximations, build none
    a = truncated_poly(QQ(), 3)
    covers = count_calls(projective_cover)
    embeddings = count_calls(gpcert._minimal_approximation)
    resolutions = count_calls(minimal_resolution)
    counts = {}
    for window in (3, 6):
        # the algebra's own verdicts are kept on it; only the module's work counts
        global_dimension(a, window), is_self_injective(a)
        s = simple_kx2(a)
        del covers[:], embeddings[:], resolutions[:]
        cert = certify_gorenstein_projective(s, window=window)
        assert (cert.reason, cert.period) == ("self-injective", 2)
        assert len(embeddings) == 2
        assert resolutions == []
        counts[window] = len(covers)
    assert counts == {3: 0, 6: 0}


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("window", [2, 3, 4])
def test_z_a_of_the_simple_over_t2_dual_numbers_certifies_with_period_one(F, window):
    # (k, 0) over T2(k[x]/(x^2)), alone and with each block projective of
    # the ring added: the general path's two-sided probe once cost seconds
    # here and exceeded the budget past window 2; the ring's projectives
    # come from its corners
    r = truncated_poly(F, 2)
    ctx = triangular_over(r)
    mr = build_ring(ctx)
    za = quadruple_to_module(mr, z_a(ctx, simple_kx2(r)))
    projs = [rep[0] for rep in _block_reps(mr.ring)]
    assert len(projs) == 2
    for x in [za] + [direct_sum([za, p])[0] for p in projs]:
        cert = certify_gorenstein_projective(x, window=window, dim_budget=600)
        assert (cert.verdict, cert.period) == ("gp", 1), (cert.verdict, cert.reason)
        assert verify_certificate(cert, x) == []
