"""The isomorphism scan on integer rows against the per-candidate path.

`modules._invertible_in_span` hands its candidate coefficients to
`linalg.first_invertible_combination`, which builds and tests each
candidate on integer rows and stops at its first column with no pivot;
the random draws are taken one at a time, and only the winner is built as
a `Mat`.  The function as it was before, which built a `Mat` and its
echelon form for every candidate, is kept below verbatim apart from its
name as the oracle: on every input the two must return equal matrices
or raise the same exception with the same message.

Over Q, GF(2), GF(3), GF(7) and GF(4099) the inputs are seeded random
spans (over Q with entries of several denominators), spans of the
endomorphisms of a module, and spans in which every combination is
singular: there the F_p enumeration and the Q grid prove None, and over
GF(4099), or over Q past the grid's budget, the search raises
`Undetermined`.  Over Q one span is singular at every one of the seeded
draws, whose coefficients lie in [-3, 3], and invertible only at a point
of the grid fallback.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from gpmorita.catalog import simple_kx2, truncated_poly
from gpmorita.fields import GF, QQ
from gpmorita.linalg import Mat, linear_combination, rank, solve_left
from gpmorita.modules import Undetermined, _invertible_in_span, direct_sum, hom_space

FIELDS = {"Q": QQ, "GF2": lambda: GF(2), "GF3": lambda: GF(3),
          "GF7": lambda: GF(7), "GF4099": lambda: GF(4099)}


def _per_candidate(basis: list[Mat], seed: int) -> Mat | None:
    """The combination sum_j c_j basis[j] at the first coefficients c found
    that make it invertible, or None when provably no such c exists.

    Over F_p the whole span is enumerated when p^k is small.  Otherwise
    40 seeded random draws come first; over Q a failed search falls back to
    the grid {0..n}^k for n x n matrices, which is decisive because the
    determinant has degree <= n in each coefficient.  If neither decisive
    step is affordable the search raises Undetermined rather than returning
    a false negative.
    """
    F = basis[0].field
    k, n = len(basis), basis[0].rows

    def invertible_combo(coeffs):
        m = linear_combination(F, n, n, [F.of_int(c) for c in coeffs], basis)
        return m if rank(m) == n else None

    def first_invertible(grid):
        return next((m for m in map(invertible_combo, grid) if m is not None),
                    None)

    if not F.is_rational and F.p ** k <= 4096:
        return first_invertible(iter_product(range(F.p), repeat=k))
    rng = random.Random(seed)
    for _ in range(40):
        if F.is_rational:
            coeffs = [rng.randint(-3, 3) for _ in range(k)]
        else:
            coeffs = [rng.randrange(F.p) for _ in range(k)]
        found = invertible_combo(coeffs)
        if found is not None:
            return found
    if F.is_rational and (n + 1) ** k <= 200_000:
        return first_invertible(iter_product(range(n + 1), repeat=k))
    raise Undetermined(
        f"isomorphism search exhausted its budget ({k}-dimensional hom "
        f"space, determinant degree {n})")


def _outcome(fn, basis, seed):
    try:
        return fn(basis, seed)
    except Undetermined as exc:
        return type(exc), str(exc)


def _agree(basis, seed):
    new = _outcome(_invertible_in_span, basis, seed)
    assert new == _outcome(_per_candidate, basis, seed)
    return new


def _entry(F, rng):
    if F.is_rational:
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
    return rng.randrange(F.p)


def _random_span(F, rng, k, n, rank_cap=None):
    """k random n x n matrices; with rank_cap, each has its last n - rank_cap
    rows zero, so that the whole span is singular."""
    rows = n if rank_cap is None else rank_cap
    return [Mat(F, [[_entry(F, rng) for _ in range(n)] for _ in range(rows)]
                + [[0] * n for _ in range(n - rows)], n) for _ in range(k)]


def _unimodular(F, rng, n):
    def draw(i, j):
        return 1 if i == j else rng.choice((-1, 0, 1))
    L = Mat(F, [[draw(i, j) for j in range(i + 1)] + [0] * (n - 1 - i)
                for i in range(n)], n)
    U = Mat(F, [[0] * i + [draw(i, j) for j in range(i, n)] for i in range(n)], n)
    return L @ U


@pytest.mark.parametrize("field", FIELDS)
def test_random_spans_find_the_same_matrix(field):
    F = FIELDS[field]()
    rng = random.Random(40)
    found = 0
    for _ in range(60):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        span = _random_span(F, rng, k, n)
        for seed in (0, 3):
            found += isinstance(_agree(span, seed), Mat)
    assert found


@pytest.mark.parametrize("field", FIELDS)
def test_spans_of_endomorphisms_find_the_same_matrix(field):
    F = FIELDS[field]()
    a = truncated_poly(F, 3)
    s = simple_kx2(a)
    for parts in ([s, s], [s, s, s]):
        x = direct_sum(parts)[0]
        basis = [h.mat for h in hom_space(x, x)]
        assert isinstance(_agree(basis, 0), Mat)


@pytest.mark.parametrize("field", FIELDS)
def test_singular_spans_give_the_same_none_or_undetermined(field):
    F = FIELDS[field]()
    rng = random.Random(41)
    for k, n in ((1, 1), (1, 3), (2, 3), (3, 4)):
        span = _random_span(F, rng, k, n, rank_cap=n - 1)
        out = _agree(span, 0)
        if F.is_rational or F.p ** k <= 4096:
            assert out is None
        else:
            assert out[0] is Undetermined


def test_a_span_past_the_q_grid_budget_is_undetermined():
    F = QQ()
    span = _random_span(F, random.Random(42), 5, 11, rank_cap=10)
    assert _agree(span, 0)[0] is Undetermined


def test_the_q_grid_finds_what_every_seeded_draw_misses():
    """c1 A + c2 B is conjugate to the diagonal matrix with entries c2 and
    b c1 - a c2 for each ratio a / b of integers in [-3, 3]: singular at
    every draw in [-3, 3]^2, invertible at the grid point (1, 4)."""
    F = QQ()
    ratios = sorted({Fraction(a, b) for a in range(-3, 4) for b in range(1, 4)})
    n = len(ratios) + 1
    diag_a = [0] + [r.denominator for r in ratios]
    diag_b = [1] + [-r.numerator for r in ratios]
    P = _unimodular(F, random.Random(43), n)
    P_inv = solve_left(P, Mat.identity(F, n))
    span = [P_inv @ Mat(F, [[d if i == j else 0 for j in range(n)]
                            for i, d in enumerate(diag)], n) @ P
            for diag in (diag_a, diag_b)]
    for seed in (0, 1, 2):
        found = _agree(span, seed)
        assert found == linear_combination(F, n, n, [F.of_int(1), F.of_int(4)], span)
