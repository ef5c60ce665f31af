"""The primitive idempotents that `homology._block_reps` reads from the
parts an algebra was built from, against the search that finds them cold.

An opposite made by `opposite_algebra(b)` takes b's list; a ring from
`morita.build_ring` whose psi(N (x) M) lies in rad A and phi(M (x) N) in
rad B takes A's list, then B's, padded into A ++ N ++ M ++ B with B's
blocks after A's (A. D. Sands, J. Algebra 24, 1973); a one-dimensional
algebra takes its unit.  Over Q, GF(11) and GF(7), where the trace form
gives the radical (p > dim), the rings of the catalog contexts,
T2(k[x]/(x^n)) for n = 2 and 3 and full_context(k[x]/(x^2)), each with
its opposite, give the idempotents `primitive_idempotents` finds, up to
order, in the same blocks and with projectives of the same dimensions.
full_context fails the hypothesis (psi and phi are onto, and its ring is
M_2(k[x]/(x^2)), one block), so it is searched.  Which of an algebra and
its opposite is asked first does not change either list.
"""
from __future__ import annotations

import pytest

from gpmorita import homology
from gpmorita.algebra import UnsupportedField, opposite_algebra
from gpmorita.catalog import (
    arrow_ideal_context, full_context, glued_psi_context, triangular_context,
    triangular_over, truncated_poly, two_cycle_context, wide_psi_context,
)
from gpmorita.fields import GF, QQ
from gpmorita.homology import _block_reps, _idempotents
from gpmorita.idempotents import primitive_idempotents
from gpmorita.linalg import rank
from gpmorita.morita import build_ring

FIELDS = [QQ(), GF(11), GF(7)]

CONTEXTS = {
    "triangular": lambda F: triangular_context(F)[1],
    "two_cycle": lambda F: two_cycle_context(F)[1],
    "glued_psi": lambda F: glued_psi_context(F)[1],
    "arrow_ideal": lambda F: arrow_ideal_context(F)[1],
    "wide_psi": lambda F: wide_psi_context(F)[1],
    "T2(k[x]/(x^2))": lambda F: triangular_over(truncated_poly(F, 2)),
    "T2(k[x]/(x^3))": lambda F: triangular_over(truncated_poly(F, 3)),
    "full(k[x]/(x^2))": lambda F: full_context(truncated_poly(F, 2)),
}
# the ring's dimension, for the cases the trace form allows
DIMS = {"triangular": 3, "two_cycle": 4, "glued_psi": 5, "arrow_ideal": 6,
        "wide_psi": 7, "T2(k[x]/(x^2))": 6, "T2(k[x]/(x^3))": 9,
        "full(k[x]/(x^2))": 8}
CASES = [pytest.param(F, name, id=f"{F}-{name}") for F in FIELDS for name in CONTEXTS
         if F.characteristic == 0 or F.characteristic > DIMS[name]]


def _ring(F, name):
    return build_ring(CONTEXTS[name](F)).ring


def _blocks(idems):
    """The partition of the idempotents into blocks."""
    parts = {}
    for e, blk in idems:
        parts.setdefault(blk, []).append(repr(e))
    return sorted(sorted(p) for p in parts.values())


def _projective_dims(a, idems):
    """dim A e for the first idempotent e of each block."""
    first = {}
    for e, blk in idems:
        first.setdefault(blk, e)
    return sorted(rank(a.rmul_of(e)) for e in first.values())


@pytest.mark.parametrize("F, name", CASES)
def test_derived_idempotents_are_those_the_search_finds(F, name):
    ring = _ring(F, name)
    for a in (ring, opposite_algebra(ring)):
        derived, searched = _idempotents(a), primitive_idempotents(a)
        assert sorted(repr(e) for e, _ in derived) == sorted(repr(e) for e, _ in searched)
        assert _blocks(derived) == _blocks(searched)
        assert sorted(mod.dim for mod, _, _, _ in _block_reps(a)) == \
            _projective_dims(a, searched)


@pytest.mark.parametrize("F, name", CASES)
def test_only_a_ring_outside_the_hypothesis_is_searched(F, name, monkeypatch):
    searched = []
    real = homology.primitive_idempotents
    monkeypatch.setattr(homology, "primitive_idempotents",
                        lambda a: searched.append(a) or real(a))
    ctx = CONTEXTS[name](F)
    ring = build_ring(ctx).ring
    _block_reps(opposite_algebra(ring))
    if name.startswith("full"):
        assert searched == [ring]
    else:
        assert all((a is ctx.A or a is ctx.B) and a.dim > 1 for a in searched)


@pytest.mark.parametrize("F, name", CASES)
def test_the_lists_do_not_depend_on_which_is_asked_first(F, name):
    lists = []
    for op_first in (False, True):
        ring = _ring(F, name)
        pair = [ring, opposite_algebra(ring)]
        for a in pair[::-1] if op_first else pair:
            _block_reps(a)
        lists.append([(repr(_idempotents(a)),
                       [(mod.name, mod.dim, repr(e), blk) for mod, _, e, blk in _block_reps(a)])
                      for a in pair])
    assert lists[0] == lists[1]


def test_a_ring_the_trace_form_cannot_split_still_raises():
    # T2(k[x]/(x^3)) has dimension 9, and its corner k[x]/(x^3) dimension 3:
    # the corners would split over GF(7), but the ring's radical would not
    ring = _ring(GF(7), "T2(k[x]/(x^3))")
    for a in (ring, opposite_algebra(ring)):
        with pytest.raises(UnsupportedField,
                           match=r"^radical via trace form needs char 0 or p > dim; "
                                 r"got p=7, dim=9$"):
            _block_reps(a)
