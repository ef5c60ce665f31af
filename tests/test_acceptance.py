"""The acceptance gate: each test prints one PASS/FAIL line (visible with
pytest -s) and enforces its criterion exactly, with zero tolerance on the
exact checks."""
from __future__ import annotations

import json
import os
import random
from contextlib import contextmanager
from itertools import product as iproduct

import pytest

from gpmorita.algebra import opposite_algebra, validate_algebra
from gpmorita.bimodules import right_bimodule, tensor_module
from gpmorita.catalog import (
    arrow_ideal_context, corrupt_psi, field_algebra, glued_psi_context,
    path_a2, product_fields, proj_a2, random_context, random_glued_context,
    random_module, random_quadruple, simple_at_idempotent, simple_kx2,
    triangular_context, truncated_poly, two_cycle_context,
    two_cycle_rad_square,
)
from gpmorita.complexes import (
    ShortExactSequence, horseshoe, is_exact, validate_complex,
)
from gpmorita.engine import (
    audit_equivalence, build_total_resolution, check_conditions,
    check_semi_weak_quadruple,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import is_projective
from gpmorita.linalg import Mat, rank
from gpmorita.modules import (
    ModuleHom, direct_sum, dual_module, hom_dim, hom_space, is_isomorphic,
    kernel_of, regular_module, free_module, restrict_along,
)
from gpmorita.morita import (
    ContextError, build_ring, direct_sum_quadruples, module_to_quadruple,
    opposite_context, quadruple_to_module, regular_right_quadruples, t_a, t_b,
    tensor_over_ring, tensor_over_ring_oracle, validate_context,
    validate_quadruple, z_a, z_b,
)
from gpmorita.nctensor import (
    build_exact_context, build_nc_tensor, corollary_criterion, iso_with_morita,
    nc_morita_presentation,
)
from gpmorita.trivext import column_hom_iso, t_lambda
from gpmorita.verify import (
    projective_by_splitting, _window_exact, _window_is_complex,
    _window_totally_exact,
)


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {desc}")


def test_criterion_1_ring_construction():
    with criterion(1, "randomized ring construction and corrupted-psi rejection"):
        rng = random.Random(101)
        built = 0
        corrupted = 0
        for F in [QQ(), GF(2), GF(5)]:
            for _ in range(7):
                _, ctx = random_context(F, rng)
                assert validate_context(ctx) == []
                mr = build_ring(ctx)
                assert validate_algebra(mr.ring) == []
                built += 1
                if corrupted < 7:
                    broken = corrupt_psi(ctx, rng)
                    if broken is not None:
                        assert validate_context(broken) != []
                        with pytest.raises(ContextError):
                            build_ring(broken)
                        corrupted += 1
        assert built >= 20
        assert corrupted >= 5


def test_criterion_2_equivalence_layer():
    with criterion(2, "quadruple/module round-trip and kernel transport"):
        rng = random.Random(202)
        contexts = [triangular_context(QQ())[1], two_cycle_context(QQ())[1],
                    glued_psi_context(QQ())[1], arrow_ideal_context(QQ())[1]]
        rings = {id(c): build_ring(c) for c in contexts}
        done = 0
        while done < 50:
            ctx = contexts[done % len(contexts)]
            mr = rings[id(ctx)]
            q = random_quadruple(ctx, rng)
            v = quadruple_to_module(mr, q)
            assert v.dim == q.dim
            q2 = module_to_quadruple(mr, v)
            assert (q2.x.dim, q2.y.dim) == (q.x.dim, q.y.dim)
            # the round trip is an isomorphism of ring modules
            iso = is_isomorphic(v, quadruple_to_module(mr, q2), seed=done)
            assert iso is not None and iso.intertwines() and iso.is_iso()
            done += 1
        # kernels commute with the equivalence: the kernel of a ring map
        # block_diag(alpha, beta) is a quadruple on (ker alpha, ker beta)
        checked = 0
        while checked < 8:
            ctx = contexts[checked % len(contexts)]
            mr = rings[id(ctx)]
            q1 = random_quadruple(ctx, rng, allow_sum=False)
            q2 = random_quadruple(ctx, rng, allow_sum=False)
            homs = hom_space(quadruple_to_module(mr, q1),
                             quadruple_to_module(mr, q2))
            if not homs:
                checked += 1
                continue
            h = homs[len(homs) // 2]
            dx1, dx2 = q1.x.dim, q2.x.dim
            m = h.mat
            assert m.block(0, dx1, dx2, m.cols).is_zero()
            assert m.block(dx1, m.rows, 0, dx2).is_zero()
            kq = module_to_quadruple(mr, kernel_of(h)[0])
            assert validate_quadruple(kq) == []
            for part, src, dst, blk in (
                    (kq.x, q1.x, q2.x, m.block(0, dx1, 0, dx2)),
                    (kq.y, q1.y, q2.y, m.block(dx1, m.rows, dx2, m.cols))):
                corner, _ = kernel_of(ModuleHom(src, dst, blk))
                assert is_isomorphic(part, corner, seed=checked) is not None
            checked += 1


def test_criterion_3_hom_and_tensor_identities():
    with criterion(3, "adjunction dims, seven hom transports, four tensor "
                      "formulas, quotient-presentation tensor vs oracle"):
        rng = random.Random(303)
        setups = [glued_psi_context(QQ()), arrow_ideal_context(QQ()),
                  glued_psi_context(GF(7)), arrow_ideal_context(GF(7))]
        # adjunction dimension identities (>= 20)
        count = 0
        while count < 20:
            ext, ctx = setups[count % len(setups)]
            mr = build_ring(ctx)
            x = random_module(ctx.A, rng, max_free=1, max_cuts=1)
            v = random_quadruple(ctx, rng, allow_sum=False)
            assert hom_dim(quadruple_to_module(mr, t_a(ctx, x)),
                           quadruple_to_module(mr, v)) == hom_dim(x, v.x)
            count += 1
        # the seven hom transports (>= 20 instances each)
        kinds = ["tl_tb", "tl_zl", "tl_tl", "tb_tl", "tb_tb", "tb_zb",
                 "zero_pairs"]
        runs = {k: 0 for k in kinds}
        draw = 0
        while min(runs.values()) < 20:
            ext, ctx = setups[draw % len(setups)]
            x = random_module(ext.Lam, rng, max_free=1, max_cuts=1)
            x2 = random_module(ext.Lam, rng, max_free=1, max_cuts=1)
            y = random_module(ctx.B, rng, max_free=1, max_cuts=1)
            y2 = random_module(ctx.B, rng, max_free=1, max_cuts=1)
            for k in kinds:
                chk = column_hom_iso(ext, ctx, k, x=x, x2=x2, y=y, y2=y2)
                assert chk.ok, (k, draw)
                runs[k] += 1
            draw += 1
        # the four one-column tensor formulas (>= 20 instances)
        count = 0
        while count < 20:
            ext, ctx = setups[count % len(setups)]
            # right modules are quadruples over the opposite context
            op = opposite_context(ctx)
            lam_op = opposite_algebra(ext.Lam)
            c_mod = random_module(lam_op, rng, max_free=1, max_cuts=1)
            d_mod = random_module(op.B, rng, max_free=1, max_cuts=1)
            c_a = restrict_along(c_mod, ext.proj_rows, op.A, name="C|Aop")
            zc = z_a(op, c_a, name="Z(C)")
            zd = z_b(op, d_mod, name="Z(D)")
            x = random_module(ext.Lam, rng, max_free=1, max_cuts=1)
            y = random_module(ctx.B, rng, max_free=1, max_cuts=1)
            tlx = t_lambda(ext, ctx, x)
            tby = t_b(ctx, y)
            x_lam = x
            assert tensor_over_ring(zc, tlx) == \
                tensor_module(right_bimodule(c_mod), x_lam).module.dim
            assert tensor_over_ring(zd, tby) == \
                tensor_module(right_bimodule(d_mod), y).module.dim
            assert tensor_over_ring(zc, tby) == 0
            assert tensor_over_ring(zd, tlx) == 0
            count += 1
        # quotient-presentation tensor vs brute force over the ring (>= 20)
        count = 0
        while count < 20:
            ext, ctx = setups[count % len(setups)]
            mr = build_ring(ctx)
            for rq in regular_right_quadruples(mr):
                q = random_quadruple(ctx, rng, allow_sum=False)
                assert tensor_over_ring(rq, q) == \
                    tensor_over_ring_oracle(mr, rq, q)
                count += 1


def _random_ses(alg, rng):
    from gpmorita.catalog import random_submodule
    from gpmorita.modules import quotient_by_rows
    w = random_module(alg, rng, max_free=2, max_cuts=1)
    sub, incl = random_submodule(w, rng)
    quo, proj = quotient_by_rows(w, incl.mat)
    return ShortExactSequence(incl, proj)


def test_criterion_4_horseshoe():
    with criterion(4, "horseshoe on 20 randomized inputs, exact output and "
                      "degree-0 kernel sequence on the nose"):
        rng = random.Random(404)
        done = 0
        algebras = [truncated_poly(QQ(), 2), two_cycle_rad_square(QQ()),
                    truncated_poly(GF(7), 3), two_cycle_rad_square(GF(7))]
        while done < 20:
            alg = algebras[done % len(algebras)]
            ses = _random_ses(alg, rng)
            if ses.validate():
                continue
            cu = certify_gorenstein_projective(ses.u, window=3)
            cv = certify_gorenstein_projective(ses.v, window=3)
            assert cu.verdict == "gp" and cv.verdict == "gp"
            res = horseshoe(ses, cu.window, cu.kernel_ident, cv.window,
                            cv.kernel_ident)
            # exactness and the literal kernel-sequence identity are
            # re-checked inside horseshoe; assert the output once more
            assert is_exact(res.zc)
            assert rank(res.embed.mat) == ses.w.dim
            done += 1


def test_criterion_5_main_theorem_positive():
    with criterion(5, "triangular fixture: criterion verdicts and the "
                      "independently verified total resolution of P2"):
        ext, ctx = triangular_context(QQ())
        p1 = t_a(ctx, regular_module(ctx.A), name="P1")
        p2 = t_b(ctx, regular_module(ctx.B), name="P2")
        s2 = z_b(ctx, regular_module(ctx.B), name="S2")
        assert check_conditions(ext, ctx, p1).overall == "pass"
        rep2 = check_conditions(ext, ctx, p2)
        assert rep2.overall == "pass"
        rep3 = check_conditions(ext, ctx, s2)
        assert rep3.overall == "fail" and rep3.failing == ["iso_b2"]
        asm = build_total_resolution(ext, ctx, p2, rep2, window=4)
        # independent verification of the emitted window
        wc = asm.tcx
        assert _window_is_complex(wc) is None
        assert _window_exact(wc) is None
        for i in range(wc.lo, wc.hi + 1):
            assert projective_by_splitting(wc.term(i))
        assert _window_totally_exact(wc) is None
        # fresh kernel extraction and isomorphism with P2 over the ring
        ker_t, _ = kernel_of(wc.diff(0))
        iso = is_isomorphic(ker_t, quadruple_to_module(build_ring(ctx), p2))
        assert iso is not None and iso.intertwines() and iso.is_iso()


def test_criterion_6_main_theorem_audit():
    with criterion(6, "two-cycle fixture: certificate GP vs criterion fail "
                      "classified as expected divergence with witness"):
        ext, ctx = two_cycle_context(QQ())
        mr = build_ring(ctx)
        s1 = z_a(ctx, regular_module(ctx.A), name="S1")
        s2 = z_b(ctx, regular_module(ctx.B), name="S2")
        cert = certify_gorenstein_projective(quadruple_to_module(mr, s1))
        assert cert.verdict == "gp" and cert.reason == "self-injective"
        rep = check_conditions(ext, ctx, s1)
        assert rep.overall == "fail" and "iso_b1" in rep.failing
        sw = check_semi_weak_quadruple(ext, ctx, "left", "N", [cert.window])
        assert sw.refuted and sw.witness is not None
        audit = audit_equivalence(ext, ctx, [s1, s2])
        assert audit.consistent
        assert all(e.classification == "expected_divergence"
                   for e in audit.entries)


def test_criterion_7_certifier_calibration():
    with criterion(7, "calibration: GP with period <= 2 over the dual "
                      "numbers, GP iff projective over the path algebra"):
        a = truncated_poly(QQ(), 2)
        s = simple_kx2(a)
        reg = regular_module(a)
        shapes = [[s], [s, s], [reg], [s, s, s], [s, reg], [s, s, s, s],
                  [s, s, reg], [reg, reg]]
        for parts in shapes:
            m = parts[0] if len(parts) == 1 else direct_sum(parts)[0]
            cert = certify_gorenstein_projective(m)
            assert cert.verdict == "gp"
            assert cert.period is not None and cert.period <= 2
        b = path_a2(QQ())
        s1 = simple_at_idempotent(b, 0, name="S1")
        s2 = simple_at_idempotent(b, 2, name="S2")
        p2 = proj_a2(b)
        for m1 in range(5):
            for m2 in range(5):
                for mp in range(3):
                    dim = m1 + m2 + 2 * mp
                    if dim == 0 or dim > 4:
                        continue
                    parts = [s1] * m1 + [s2] * m2 + [p2] * mp
                    m = parts[0] if len(parts) == 1 else direct_sum(parts)[0]
                    cert = certify_gorenstein_projective(m, window=4)
                    assert (cert.verdict == "gp") == is_projective(m)


def test_criterion_8_noncommutative_tensor():
    with criterion(8, "nc tensor associativity on 20 contexts, the 5-dim "
                      "isomorphism, and verdict transport"):
        rng = random.Random(808)
        built = 0
        while built < 20:
            F = [QQ(), GF(5), GF(7)][built % 3]
            _, ctx = random_context(F, rng)
            nc = build_nc_tensor(ctx)          # validates associativity
            rep = build_exact_context(ctx)
            assert rep.exact and rep.euler == 0
            built += 1
        _, base = two_cycle_context(QQ())
        nc = build_nc_tensor(base)
        assert nc.ring.dim == 5
        pres = nc_morita_presentation(nc)
        assert iso_with_morita(pres) == Mat.identity(QQ(), 5)
        # verdict transport across the isomorphism on the fixture family
        mr2 = pres.mr2
        family = [t_b(pres.ctx2, regular_module(pres.ctx2.B), name="PB"),
                  t_a(pres.ctx2, regular_module(pres.ctx2.A), name="PA")]
        from gpmorita.homology import simple_modules
        sb = next(s for s in simple_modules(pres.ctx2.B) if s.dim == 1)
        family.append(z_b(pres.ctx2, sb, name="SB"))
        disagreements = 0
        for q in family:
            rep_direct, _ = corollary_criterion(pres, q)
            # transport: read the module over the tensor ring (identity
            # bijection), back over the Morita ring, and re-check
            v = quadruple_to_module(mr2, q)
            from gpmorita.modules import FDModule
            v_nc = FDModule(nc.ring, v.dim, v.acts, name=v.name)
            v_back = FDModule(mr2.ring, v_nc.dim, v_nc.acts, name=v.name)
            q_back = module_to_quadruple(mr2, v_back, name=f"back({q.name})")
            rep_back, _ = corollary_criterion(pres, q_back)
            if rep_direct.overall != rep_back.overall:
                disagreements += 1
        assert disagreements == 0


FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_criterion_9_cli_determinism(capsys):
    with criterion(9, "byte-identical CLI reports on repeated runs"):
        from gpmorita.cli import main
        commands = [
            ["check-gp", os.path.join(FIX, "triangular.json"), "--extension",
             "ext", "--context", "ctx", "--quadruple", "S2", "--seed", "5",
             "--json"],
            ["certify-gp", os.path.join(FIX, "dual_numbers.json"), "--module",
             "S", "--seed", "5", "--json"],
            ["audit", os.path.join(FIX, "two_cycle.json"), "--extension",
             "ext", "--context", "ctx", "--quadruples", "S1", "S2", "--seed",
             "5", "--json"],
            ["nc-tensor", "build", os.path.join(FIX, "two_cycle.json"),
             "--context", "ctx", "--seed", "5", "--json"],
            ["classify", os.path.join(FIX, "glued5.json"), "--context", "ctx",
             "--seed", "5", "--json"],
        ]
        for argv in commands:
            outs = []
            for _ in range(2):
                main(list(argv))
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], argv[0]
