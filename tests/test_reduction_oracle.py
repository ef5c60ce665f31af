"""The paper's reduction identity, against the corner complexes it names.

`engine.check_semi_weak_quadruple` decides semi-weak compatibility by its
definition, over the context ring: Hom(T, Z(W)) (left) or Z(W) (x) T
(right) for a totally exact complex T of projectives and the one-column
module Z(W) = (W, 0, 0, 0).  The paper reduces both to the Lambda-side
complex P of T (the cokernels of the g components): Hom_Lambda(P, W) and
W (x)_Lambda P.  `corner_complexes` below is the extraction of P (and of
the B-side complex Q) that the engine once decided on, kept verbatim as
the oracle of that reduction.  On every certified window of the audit
family (the T, H and Z images of the simples and six seeded random
quadruples, at window 3), and on each of the four (side, W) pairs, the two
must give the same complex dimensions degree by degree and the same first
failing degree; and the engine's verdict must be the one the corner
complexes give.  The contexts are the four catalog ones over Q and GF(7),
and Lambda_(0,0) and the wide-psi context over Q and GF(11) (their
idempotent search does not run over GF(7)).
"""
from __future__ import annotations

import random

import pytest

from gpmorita.algebra import opposite_algebra
from gpmorita.catalog import (
    arrow_ideal_context, full_context, glued_psi_context, random_quadruple,
    triangular_context, truncated_poly, two_cycle_context, wide_psi_context,
)
from gpmorita.bimodules import right_bimodule
from gpmorita.complexes import (
    ComplexWindow, _first_inexact, hom_complex_data, tensor_window, window_data,
)
from gpmorita.engine import (
    EngineError, check_semi_weak_quadruple, identity_extension,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import simple_modules
from gpmorita.linalg import coordinates, factor_through
from gpmorita.modules import ModuleHom, cokernel_of, restrict_along
from gpmorita.morita import (
    MoritaContext, MoritaRing, build_ring, h_a, h_b, module_to_quadruple,
    opposite_context, opposite_ring, quadruple_bases, quadruple_to_module, t_a,
    t_b, z_a, z_b,
)
from gpmorita.trivext import TrivialExtension, lam_bimodules


# -- the corner-complex oracle ---------------------------------------------------


def corner_complexes(ext: TrivialExtension, ctx: MoritaContext,
                     mr: MoritaRing, wc: ComplexWindow):
    """Extract the Lambda-side complex P (cokernels of the g components)
    and the B-side complex Q (cokernels of the f components) from a
    totally exact complex of projectives over the context ring.  Each
    distinct term instance (a periodic window repeats them) is read as a
    quadruple, and its two cokernels taken, once."""
    corners: dict[int, tuple] = {}
    for i, t in zip(range(wc.lo, wc.hi + 1), wc.terms):
        if id(t) not in corners:
            qd = module_to_quadruple(mr, t, name=f"T^{i}")
            u, lam = cokernel_of(qd.g)
            v, mu = cokernel_of(qd.f)
            corners[id(t)] = (qd, quadruple_bases(mr, t), ext.lam_module(u),
                              lam, v, mu)
    quads, bases, u_terms, u_projs, v_terms, v_projs = (
        list(col) for col in zip(*(corners[id(t)] for t in wc.terms)))
    u_diffs, v_diffs = [], []
    for i in range(wc.lo, wc.hi):
        d = wc.diff(i).mat
        (xs, ys), (xd, yd) = bases[i - wc.lo], bases[i - wc.lo + 1]
        # alpha and beta: the differential read in the quadruple bases
        alpha = coordinates(xd, xs @ d)
        beta = coordinates(yd, ys @ d)
        du = factor_through(u_projs[i - wc.lo].mat,
                            [alpha @ u_projs[i - wc.lo + 1].mat])
        if du is None:
            raise EngineError("corner complex P failed to descend")
        u_diffs.append(ModuleHom(u_terms[i - wc.lo], u_terms[i - wc.lo + 1], du[0]))
        dv = factor_through(v_projs[i - wc.lo].mat,
                            [beta @ v_projs[i - wc.lo + 1].mat])
        if dv is None:
            raise EngineError("corner complex Q failed to descend")
        v_diffs.append(ModuleHom(v_terms[i - wc.lo], v_terms[i - wc.lo + 1], dv[0]))
    pcx = ComplexWindow(wc.lo, wc.hi, u_terms, u_diffs)
    qcx = ComplexWindow(wc.lo, wc.hi, v_terms, v_diffs)
    return pcx, qcx, quads


# -- the reduction identity ------------------------------------------------------


def _audit_family(ctx, randoms: int) -> list:
    """The T, H and Z images of the simples and seeded random quadruples."""
    family = [f(ctx, s) for s in simple_modules(ctx.A) for f in (t_a, h_a, z_a)]
    family += [f(ctx, s) for s in simple_modules(ctx.B) for f in (t_b, h_b, z_b)]
    rng = random.Random(0)
    return family + [random_quadruple(ctx, rng) for _ in range(randoms)]


def _one_column(ext, ctx, side: str, which: str):
    """W over Lambda (left) or Lambda^op (right), and Z(W) over the ring or
    its opposite, built as `check_semi_weak_quadruple` builds them."""
    m_lam, n_lam = lam_bimodules(ext, ctx)
    bim = {"N": n_lam, "M": m_lam, "I": ext.ideal}[which]
    mr = build_ring(ctx)
    if side == "left":
        w = bim.as_left_module(f"{which}|Lam")
        zq = z_a(ctx, ext.inflate(w, name=f"{which}|A"))
        return w, quadruple_to_module(mr, zq)
    w = bim.as_right_module(f"{which}|rop")
    zq = z_a(opposite_context(ctx),
             restrict_along(w, ext.proj_rows, opposite_algebra(ctx.A),
                            name=f"{which}|Aop"), name=f"Z({which})")
    return w, quadruple_to_module(opposite_ring(mr), zq)


def _exactness(side: str, c: ComplexWindow, y):
    """(dims per degree, first failing degree) of Hom(c, y) (left) or of
    y (x) c (right)."""
    data = (hom_complex_data(c, y) if side == "left"
            else window_data(tensor_window(right_bimodule(y), c)[0]))
    return data[0], _first_inexact(c, data)


def _lambda00(F):
    ctx = full_context(truncated_poly(F, 2), scale=0)
    return identity_extension(ctx), ctx


CONTEXTS = [pytest.param(make, F, id=f"{make.__name__}-{tag}")
            for make in (triangular_context, two_cycle_context,
                         glued_psi_context, arrow_ideal_context)
            for F, tag in ((QQ(), "Q"), (GF(7), "GF7"))]
CONTEXTS += [pytest.param(make, F, id=f"{name}-{tag}")
             for make, name in ((_lambda00, "lambda00"),
                                (wide_psi_context, "wide_psi"))
             for F, tag in ((QQ(), "Q"), (GF(11), "GF11"))]
PAIRS = (("left", "N"), ("left", "I"), ("right", "M"), ("right", "I"))


@pytest.mark.parametrize("make, F", CONTEXTS)
def test_ring_windows_agree_with_their_corner_complexes(make, F):
    ext, ctx = make(F)
    mr = build_ring(ctx)
    windows = []
    for q in _audit_family(ctx, 6):
        cert = certify_gorenstein_projective(quadruple_to_module(mr, q), 3)
        if cert.verdict == "gp" and cert.window is not None:
            windows.append(cert.window)
    assert windows
    corners = [corner_complexes(ext, ctx, mr, wc)[0] for wc in windows]
    for side, which in PAIRS:
        w, zw = _one_column(ext, ctx, side, which)
        failures = []
        for wc, pcx in zip(windows, corners):
            ring_dims, ring_failure = _exactness(side, wc, zw)
            corner_dims, corner_failure = _exactness(side, pcx, w)
            assert ring_dims == corner_dims, (side, which)
            assert ring_failure == corner_failure, (side, which)
            failures.append(corner_failure)
        v = check_semi_weak_quadruple(ext, ctx, side, which, windows, bound=3)
        if v.kind == "pass_proof":
            continue
        k = next((k for k, f in enumerate(failures) if f is not None), None)
        if k is None:
            assert (v.kind, v.witness) == ("pass_sampled", None)
        else:
            assert v.witness == ({"test": k, "degree": failures[k]}
                                 if side == "left" else {"test": k})
