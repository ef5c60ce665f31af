"""Total exactness from the ring's self-injective dimension.

`homology.self_injective_dimension(a)` is d = id(_A A), or None past its
bound, and `homology.gorenstein_dimension(a)` the d with id(_A A) =
id(A_A) = d, which is the same on every ring here.  Over a finite d an exact window of projectives is Hom(-, A)-exact
at every interior degree i with i + d + 1 <= hi, so
`complexes.total_exactness` builds the Hom(-, A) complex only on the last
d + 2 terms of a window, and none on a window that repeats literally.
These tests check the dimensions against known values, and the rule's
verdict against the full Hom complex on certificate windows, periodic T
windows, minimal resolutions and two exact windows that are not Hom-exact
at their last interior degrees, one with d = 1 and one with d = 2.
"""
from __future__ import annotations

import pytest

from gpmorita import complexes
from gpmorita.algebra import Algebra
from gpmorita.catalog import (
    arrow_ideal_context, glued_psi_context, path_a2, triangular_context,
    triangular_over, truncated_poly, two_cycle_context,
)
from gpmorita.complexes import (
    ComplexWindow, hom_exactness_failure, is_exact, total_exactness,
    window_period,
)
from gpmorita.engine import build_total_resolution, check_conditions
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import (
    ext_dim, gorenstein_dimension, minimal_resolution, self_injective_dimension,
    simple_modules,
)
from gpmorita.linalg import Mat
from gpmorita.modules import regular_module, zero_hom, zero_module
from gpmorita.morita import build_ring, quadruple_to_module

from test_assembly_oracle import _images
from test_frobenius import _inclusion_window

FIELDS = {"Q": QQ, "GF7": lambda: GF(7)}
CONTEXTS = {"triangular": triangular_context, "two_cycle": two_cycle_context,
            "glued_psi": glued_psi_context, "arrow_ideal": arrow_ideal_context}


def _square_zero_plane(F) -> Algebra:
    """k[x, y]/(x, y)^2 on the basis 1, x, y, from its structure constants:
    local, with a two-dimensional socle, so neither self-injective nor of
    finite self-injective dimension."""
    rows = [[0] * 3 for _ in range(9)]
    for i in range(3):
        rows[i][i] = rows[3 * i][i] = 1
    return Algebra(F, 3, Mat(F, rows, 3), [F.one(), F.zero(), F.zero()],
                   name="k[x,y]/(x,y)^2")


def _ring(name):
    return lambda F: build_ring(CONTEXTS[name](F)[1]).ring


KNOWN = {"path_a2": (path_a2, 1), "k[x]/x^3": (lambda F: truncated_poly(F, 3), 0),
         "triangular": (_ring("triangular"), 1), "two_cycle": (_ring("two_cycle"), 0),
         "glued_psi": (_ring("glued_psi"), 2), "arrow_ideal": (_ring("arrow_ideal"), 1),
         "k[x,y]/(x,y)^2": (_square_zero_plane, None)}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(KNOWN))
def test_known_self_injective_dimensions(name, field):
    make, d = KNOWN[name]
    a = make(FIELDS[field]())
    assert self_injective_dimension(a) == d
    assert gorenstein_dimension(a) == d


# the ring of T2(k[x]/(x^n)) has dimension 3n, past GF(7)'s trace form
@pytest.mark.parametrize("F", [QQ(), GF(13)], ids=["Q", "GF13"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangular_rings_over_truncated_polynomials_have_dimension_one(n, F):
    ring = build_ring(triangular_over(truncated_poly(F, n))).ring
    assert self_injective_dimension(ring) == 1
    assert gorenstein_dimension(ring) == 1


def _full_verdict(wc: ComplexWindow) -> bool:
    """Total exactness with the whole Hom(-, A) complex built."""
    return is_exact(wc) and hom_exactness_failure(wc, regular_module(wc.algebra)) is None


def _context_windows(F):
    """Per catalog context: the criterion's certificate windows, the T
    windows of the passing quadruples (window 3), and the ring-level
    certificate window and minimal resolution (length 3) of each
    quadruple's ring module."""
    out = []
    for make in CONTEXTS.values():
        ext, ctx = make(F)
        mr = build_ring(ctx)
        for q in _images(ext, ctx):
            rep = check_conditions(ext, ctx, q)
            out += [c.window for c in (rep.coker_g_cert, rep.coker_f_cert)
                    if c.window is not None]
            if rep.passed:
                out.append(build_total_resolution(ext, ctx, q, rep, window=3).tcx)
            x = quadruple_to_module(mr, q)
            cert = certify_gorenstein_projective(x)
            if cert.window is not None:
                out.append(cert.window)
            out.append(minimal_resolution(x, 3).window())
    return out


def _truncated_resolution(F) -> ComplexWindow:
    """0 -> P_2 -> P_1 -> P_0 on the degrees -3 to 0, the minimal
    resolution of the simple S of glued_psi's ring (d = 2) with
    Ext^2(S, ring) != 0.  It is exact, and its Hom(-, ring) complex is not
    exact at -2, where only the last d + 2 terms can see it."""
    ring = build_ring(glued_psi_context(F)[1]).ring
    reg = regular_module(ring)
    s = next(s for s in simple_modules(ring) if ext_dim(s, reg, 2))
    res = minimal_resolution(s, 2)
    assert res.syzygies[-1].dim == 0
    z = zero_module(ring)
    p2, p1, p0 = res.terms[2], res.terms[1], res.terms[0]
    return ComplexWindow(-3, 0, [z, p2, p1, p0],
                         [zero_hom(z, p2), res.maps[1], res.maps[0]])


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_the_margin_rule_agrees_with_the_full_hom_complex(field):
    F = FIELDS[field]()
    windows = _context_windows(F)
    periodic = sum(window_period(wc) is not None for wc in windows)
    assert periodic and periodic < len(windows)
    for wc in windows:
        assert total_exactness(wc) == _full_verdict(wc)
    # the two exact windows whose last interior degrees are not Hom-exact
    for wc, d in ((_inclusion_window(F), 1), (_truncated_resolution(F), 2)):
        assert self_injective_dimension(wc.algebra) == d
        assert is_exact(wc) and not _full_verdict(wc)
        assert not total_exactness(wc)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_periodic_window_builds_no_hom_complex(field, count_calls):
    F = FIELDS[field]()
    ext, ctx = glued_psi_context(F)
    q = _images(ext, ctx)[0]
    rep = check_conditions(ext, ctx, q)
    assert rep.passed
    tcx = build_total_resolution(ext, ctx, q, rep, window=3).tcx
    assert window_period(tcx) is not None
    assert self_injective_dimension(tcx.algebra) == 2
    calls = count_calls(complexes.hom_complex_data)
    assert total_exactness(tcx)
    assert calls == []
