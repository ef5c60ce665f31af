"""Frobenius forms and the total exactness they prove.

`algebra.frobenius_form` looks for a form lambda whose pairing
lambda(b_i b_j) is nondegenerate among three fixed integer forms.  Such a
form makes A injective over itself, so an exact window of projectives is
totally exact: the builder's `complexes.total_exactness` and the checker's
`verify._window_failure` then build no Hom(-, A) complex.  The checker
proves the rank of the pairing itself (`verify._frobenius`), so a wrong
form can cost it the shortcut but never its verdict.
"""
from __future__ import annotations

import pytest

from gpmorita import verify
from gpmorita.algebra import UnsupportedField, frobenius_form, opposite_algebra, radical_basis
from gpmorita.catalog import (
    arrow_ideal_context, field_algebra, glued_psi_context, path_a2, proj_a2,
    product_fields, simple_at_idempotent, simple_kx2, triangular_context,
    truncated_poly, two_cycle_context, two_cycle_rad_square,
)
from gpmorita.complexes import ComplexWindow, total_exactness
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import is_self_injective
from gpmorita.linalg import Mat
from gpmorita.modules import (
    ModuleHom, direct_sum, dual_module, regular_module, zero_hom, zero_module,
)
from gpmorita.morita import build_ring

FIELDS = {"Q": QQ, "GF5": lambda: GF(5), "GF7": lambda: GF(7), "GF11": lambda: GF(11)}
CONTEXTS = {"triangular": triangular_context, "two_cycle": two_cycle_context,
            "glued_psi": glued_psi_context, "arrow_ideal": arrow_ideal_context}
# the algebras below with no injective regular module, and so no form,
# opposites included
NOT_SELF_INJECTIVE = {"path_a2", "triangular.ring", "glued_psi.ring",
                      "arrow_ideal.ring", "arrow_ideal.A"}


def _algebras(F):
    """(label, algebra): the catalog algebras, then the ring, the two
    corners and Lambda of each catalog context."""
    out = [("k", field_algebra(F)), ("k^2", product_fields(F, 2)),
           ("k[x]/x^2", truncated_poly(F, 2)), ("k[x]/x^3", truncated_poly(F, 3)),
           ("k[x]/x^4", truncated_poly(F, 4)), ("path_a2", path_a2(F)),
           ("two_cycle_rad_square", two_cycle_rad_square(F))]
    for name, make in CONTEXTS.items():
        ext, ctx = make(F)
        out += [(f"{name}.ring", build_ring(ctx).ring), (f"{name}.A", ctx.A),
                (f"{name}.B", ctx.B), (f"{name}.Lambda", ext.Lam)]
    return out


def _injective_by_splitting(a) -> bool:
    """The checker's splitting proof of self-injectivity, without its
    Frobenius shortcut: D(A_A) is a projective left module."""
    return verify.projective_by_splitting(dual_module(regular_module(opposite_algebra(a)), a))


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_form_is_found_exactly_on_the_self_injective_algebras(field):
    F = FIELDS[field]()
    for label, alg in _algebras(F):
        for a, name in ((alg, label), (opposite_algebra(alg), f"{label}^op")):
            lam = frobenius_form(a)
            expected = label not in NOT_SELF_INJECTIVE
            assert (lam is not None) == expected, name
            assert _injective_by_splitting(a) == expected, name
            assert verify._self_injective_by_splitting(a) == expected, name
            try:
                assert is_self_injective(a) == expected, name
            except UnsupportedField:
                pass            # the radical's trace form needs p > dim
            assert verify._frobenius(a) == expected, name
            if lam is not None:
                assert (lam.rows, lam.cols) == (1, a.dim), name


def test_a_form_needs_no_radical():
    # over GF(3) the trace form cannot give the radical of k[x]/(x^3), and
    # the form search does not use it
    a = truncated_poly(GF(3), 3)
    with pytest.raises(UnsupportedField):
        radical_basis(a)
    assert frobenius_form(a) is not None and verify._frobenius(a)


# -- the skip proves what it replaces -------------------------------------------


def _inclusion_window(F):
    """0 -> A e1 -> A e2 over path_a2 on the degrees -1, 0, 1, with A e1
    (the simple projective S1) sent onto the arrow of A e2 (`proj_a2`).  It
    is exact, but Hom(A e2, A e1) = 0 and Hom(A e1, A) is 2-dimensional
    against Hom(A e2, A) of dimension 1, so its Hom(-, A) complex is not
    exact at 0."""
    a = path_a2(F)
    s1, p2, z = simple_at_idempotent(a, 0, "S1"), proj_a2(a), zero_module(a)
    incl = ModuleHom(s1, p2, Mat.from_rows(F, [[F.one(), F.zero()]]))
    assert incl.intertwines()
    return ComplexWindow(-1, 1, [z, s1, p2], [zero_hom(z, s1), incl])


@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_an_exact_window_over_a_non_frobenius_algebra_is_still_hom_checked(field):
    wc = _inclusion_window(FIELDS[field]())
    assert verify._window_exact(wc) is None
    assert not total_exactness(wc)
    assert verify._window_failure(wc) == "Hom(-, A) complex not exact at 0"


@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_a_degenerate_form_does_not_move_the_checker(field, monkeypatch):
    F = FIELDS[field]()

    def offered(a):
        # all ones: for path_a2 the pairing has rank 2 of 3
        return Mat(a.field, [[1] * a.dim], a.dim)

    monkeypatch.setattr(verify, "frobenius_form", offered)
    wc = _inclusion_window(F)
    assert not verify._frobenius(wc.algebra)
    assert verify._window_failure(wc) == "Hom(-, A) complex not exact at 0"
    assert not verify._self_injective_by_splitting(wc.algebra)


def _certified(modules):
    """[(certificate, module)] for each module."""
    return [(certify_gorenstein_projective(m), m) for m in modules]


@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_the_checker_builds_no_hom_complex_over_a_frobenius_algebra(field, count_calls):
    F = FIELDS[field]()
    kx3, cyc, ka2 = truncated_poly(F, 3), two_cycle_rad_square(F), path_a2(F)
    s, c1, c2 = simple_kx2(kx3), simple_at_idempotent(cyc, 0), simple_at_idempotent(cyc, 1)
    s1, s2, p2 = simple_at_idempotent(ka2, 0), simple_at_idempotent(ka2, 2), proj_a2(ka2)
    frobenius = _certified([s, direct_sum([s, s])[0], regular_module(kx3), c1, c2,
                            direct_sum([c1, c2])[0], regular_module(cyc)])
    hereditary = _certified([s1, s2, p2, direct_sum([s1, p2])[0]])
    calls = count_calls(verify._window_totally_exact)
    for cert, m in frobenius:
        assert cert.verdict == "gp" and verify.verify_certificate(cert, m) == []
    assert calls == []
    windows = [cert for cert, _ in hereditary if cert.window is not None]
    assert len(windows) == 3
    for cert, m in hereditary:
        assert verify.verify_certificate(cert, m) == []
    # one Hom complex per window over path_a2, as without the shortcut
    assert len(calls) == len(windows)
