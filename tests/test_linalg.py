from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gpmorita import linalg
from gpmorita.catalog import (
    path_a2, random_module, simple_at_idempotent, truncated_poly,
    two_cycle_rad_square,
)
from gpmorita.fields import GF, QQ, Field, FieldMismatch, FieldSpec
from gpmorita.linalg import (
    Mat, NonCanonicalBasis, coordinates, in_row_space, is_injective,
    is_surjective, kernel_basis, left_kernel, rank, row_space, solve,
    solve_left,
)
from gpmorita.modules import direct_sum, regular_module


def test_field_spec_rejects_bad_modulus():
    with pytest.raises(ValueError):
        FieldSpec("Fp", 4)
    with pytest.raises(ValueError):
        FieldSpec("Fp", None)
    with pytest.raises(ValueError):
        FieldSpec("weird")


def test_scalar_parse_format_roundtrip():
    F = QQ()
    assert F.parse("3/4") == Fraction(3, 4)
    assert F.format(Fraction(3, 4)) == "3/4"
    assert F.format(Fraction(5)) == 5
    G = GF(7)
    assert G.parse(-1) == 6
    assert G.parse("1/2") == G.inv(2)


@pytest.mark.parametrize("field, text", [(QQ(), "1/0"), (GF(7), "1/7"),
                                         (GF(7), "3/-14")])
def test_scalar_parse_rejects_zero_denominator(field, text):
    with pytest.raises(ValueError, match=text):
        field.parse(text)


def test_rank_identity_and_zero():
    F = QQ()
    assert rank(Mat.identity(F, 2)) == 2
    assert rank(Mat.zeros(F, 3, 4)) == 0


def test_rank_dependent_rows_q():
    # hand row-reduction: second row is twice the first
    F = QQ()
    m = Mat.from_rows(F, [[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_empty():
    F = QQ()
    k = kernel_basis(Mat.identity(F, 3))
    assert k.cols == 0 and k.rows == 3


def test_kernel_zero_matrix():
    F = QQ()
    k = kernel_basis(Mat.zeros(F, 2, 3))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_f2_enumeration_oracle():
    F = GF(2)
    m = Mat.from_rows(F, [[1, 1]])
    k = kernel_basis(m)
    assert k.cols == 1
    # oracle: enumerate F_2^2 by brute force
    sols = [v for v in product([0, 1], repeat=2) if (v[0] + v[1]) % 2 == 0 and any(v)]
    assert [k.data[0][0], k.data[1][0]] in [list(v) for v in sols]
    assert (m @ k).is_zero()


def test_solve_cases():
    F = QQ()
    b = Mat.from_rows(F, [[5], [7]])
    assert solve(Mat.identity(F, 2), b) == b
    assert solve(Mat.from_rows(F, [[0]]), Mat.from_rows(F, [[1]])) is None
    x = solve(Mat.from_rows(F, [[2]]), Mat.from_rows(F, [[1]]))
    assert x.data[0][0] == Fraction(1, 2)


def test_solve_shape_mismatch():
    F = QQ()
    with pytest.raises(ValueError):
        solve(Mat.identity(F, 2), Mat.zeros(F, 3, 1))


@pytest.mark.parametrize("field", [QQ(), GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [3]], "row 1 has 1 entries, not 2"),
    ([[1], [3, 4, 5]], "row 1 has 3 entries, not 1"),
    ([[1, 2, 3], [4, 5, 6], [7, 8]], "row 2 has 2 entries, not 3"),
], ids=["short", "long", "third"])
def test_rows_of_unequal_length_are_rejected(field, rows, message):
    with pytest.raises(ValueError, match=message):
        Mat(field, rows)
    with pytest.raises(ValueError, match=message):
        Mat.from_rows(field, rows, len(rows[0]))


def test_mixed_field_is_error():
    with pytest.raises(FieldMismatch):
        Mat.identity(QQ(), 2).matmul(Mat.identity(GF(5), 2))


def test_zero_extent_matrices():
    F = QQ()
    a = Mat.zeros(F, 0, 3)
    assert a.transpose().rows == 3 and a.transpose().cols == 0
    assert rank(a) == 0
    k = kernel_basis(a)
    assert k.rows == 3 and k.cols == 3
    assert (Mat.zeros(F, 2, 0) @ Mat.zeros(F, 0, 5)).is_zero()


def _rand_mat(F, rng, rows, cols, span=5):
    return Mat.from_rows(F, [[rng.draw(st.integers(-span, span)) for _ in range(cols)]
                             for _ in range(rows)], cols)


small = st.integers(0, 4)


@settings(max_examples=60)
@given(st.data(), small, small, st.sampled_from(["Q", "F5", "F2"]))
def test_rank_nullity(data, r, c, fk):
    F = {"Q": QQ(), "F5": GF(5), "F2": GF(2)}[fk]
    m = _rand_mat(F, data, r, c)
    k = kernel_basis(m)
    assert rank(m) + k.cols == c
    if k.cols:
        assert (m @ k).is_zero()


@settings(max_examples=60)
@given(st.data(), small, small, small)
def test_solve_consistent_system(data, r, c, c2):
    F = GF(7)
    a = _rand_mat(F, data, r, c)
    x = _rand_mat(F, data, c, c2)
    b = a @ x
    x2 = solve(a, b)
    assert x2 is not None
    assert a @ x2 == b


@settings(max_examples=30)
@given(st.data(), st.integers(1, 3), st.integers(1, 3))
def test_kron_dims_and_identity(data, n, m):
    F = QQ()
    assert Mat.identity(F, n).kron(Mat.identity(F, m)) == Mat.identity(F, n * m)
    a = _rand_mat(F, data, n, m)
    b = _rand_mat(F, data, m, n)
    k = a.kron(b)
    assert (k.rows, k.cols) == (n * m, m * n)


@settings(max_examples=30)
@given(st.data(), st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
def test_swap_factors_is_the_commutation_of_the_two_factors(data, a, b, c):
    # (v (x) u) @ M.swap_factors(a, b) = (u (x) v) @ M, and swapping back
    # restores M
    F = QQ()
    m = _rand_mat(F, data, a * b, c)
    s = m.swap_factors(a, b)
    for u in range(a):
        for v in range(b):
            assert s.row(v * a + u) == m.row(u * b + v)
    assert s.swap_factors(b, a) == m
    with pytest.raises(ValueError):
        m.swap_factors(a * b + 1, 1)


def test_row_space_canonical_and_membership():
    F = QQ()
    m = Mat.from_rows(F, [[2, 4, 0], [1, 2, 1]])
    rs = row_space(m)
    assert rs.rows == 2
    assert in_row_space(rs, Mat.from_rows(F, [[3, 6, 1]]))
    assert not in_row_space(rs, Mat.from_rows(F, [[0, 1, 0]]))


def test_left_kernel():
    F = QQ()
    m = Mat.from_rows(F, [[1, 0], [2, 0], [0, 1]])
    lk = left_kernel(m)
    assert lk.rows == 1
    assert (lk @ m).is_zero()


def test_solutions_and_injectivity_flags():
    F = QQ()
    a = Mat.from_rows(F, [[1, 0], [0, 0]])
    x = solve(a, Mat.from_rows(F, [[3], [0]]))
    assert x is not None
    assert (a @ x) == Mat.from_rows(F, [[3], [0]])
    assert kernel_basis(a).cols == 1
    assert not is_injective(a) and not is_surjective(a)
    assert is_injective(Mat.identity(F, 2)) and is_surjective(Mat.identity(F, 2))


def test_solve_left():
    F = QQ()
    a = Mat.from_rows(F, [[1, 2], [0, 1]])
    b = Mat.from_rows(F, [[1, 4]])
    x = solve_left(a, b)
    assert x @ a == b


# -- the per-entry kernels the integer ones replaced, kept as oracles ----------
# Copied verbatim from the methods and functions of linalg that computed
# entry by entry through Field and Fraction arithmetic.


def old_is_zero(self) -> bool:
    z = self.field.zero()
    return all(x == z for row in self.data for x in row)


def old_eq(self, other):
    return (
        isinstance(other, Mat)
        and self.field == other.field
        and self.rows == other.rows
        and self.cols == other.cols
        and self.data == other.data
    )


def old_add(self, other: "Mat") -> "Mat":
    self._same_field(other)
    if (self.rows, self.cols) != (other.rows, other.cols):
        raise ValueError("shape mismatch in add")
    F = self.field
    return Mat(F, [
        [F.add(a, b) for a, b in zip(r1, r2)]
        for r1, r2 in zip(self.data, other.data)
    ], self.cols)


def old_sub(self, other: "Mat") -> "Mat":
    self._same_field(other)
    if (self.rows, self.cols) != (other.rows, other.cols):
        raise ValueError("shape mismatch in sub")
    F = self.field
    return Mat(F, [
        [F.sub(a, b) for a, b in zip(r1, r2)]
        for r1, r2 in zip(self.data, other.data)
    ], self.cols)


def old_scale(self, c) -> "Mat":
    F = self.field
    c = F.of_int(c) if isinstance(c, int) else c
    return Mat(F, [[F.mul(c, x) for x in row] for row in self.data], self.cols)


def old_matmul(self, other: "Mat") -> "Mat":
    self._same_field(other)
    if self.cols != other.rows:
        raise ValueError(f"shape mismatch in matmul: {self.cols} vs {other.rows}")
    F = self.field
    z = F.zero()
    ot = other.data
    out = []
    for row in self.data:
        acc = [z] * other.cols
        for k, a in enumerate(row):
            if a == z:
                continue
            orow = ot[k]
            if F.is_rational:
                for j in range(other.cols):
                    acc[j] += a * orow[j]
            else:
                p = F.p
                for j in range(other.cols):
                    acc[j] = (acc[j] + a * orow[j]) % p
        out.append(acc)
    return Mat(F, out, other.cols)


def old_kron(self, other: "Mat") -> "Mat":
    self._same_field(other)
    F = self.field
    z = F.zero()
    out = Mat.zeros(F, self.rows * other.rows, self.cols * other.cols).to_rows()
    for i in range(self.rows):
        for j in range(self.cols):
            a = self.data[i][j]
            if a == z:
                continue
            for k in range(other.rows):
                orow = other.data[k]
                trow = out[i * other.rows + k]
                base = j * other.cols
                for l in range(other.cols):
                    trow[base + l] = F.add(trow[base + l], F.mul(a, orow[l]))
    return Mat(F, out, self.cols * other.cols)


def _rref_fp(field: Field, data: list[list]) -> tuple[list[list], list[int]]:
    p = field.p
    m = [row[:] for row in data]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] % p != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                mr = m[r]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], mr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _rref_q(data: list[list]) -> tuple[list[list], list[int]]:
    # Clear denominators per row, then fraction-free (Bareiss) elimination
    # over Z to bound entry growth; normalize to reduced echelon form with
    # Fractions only on the surviving rows.
    m = []
    for row in data:
        den = 1
        for x in row:
            den = den * x.denominator // _gcd(den, x.denominator)
        m.append([int(x * den) for x in row])
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            mi, mr = m[i], m[r]
            if f == 0:
                if piv != prev:
                    m[i] = [x * piv // prev for x in mi]
            else:
                m[i] = [(piv * x - f * y) // prev for x, y in zip(mi, mr)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    ech = [[Fraction(x) for x in m[i]] for i in range(r)]
    for i in range(r - 1, -1, -1):
        c = pivots[i]
        piv = ech[i][c]
        ech[i] = [x / piv for x in ech[i]]
        for j in range(i):
            f = ech[j][c]
            if f:
                ech[j] = [x - f * y for x, y in zip(ech[j], ech[i])]
    return ech, pivots


def old_rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    if m.field.is_rational:
        rows, piv = _rref_q(m.data)
    else:
        rows, piv = _rref_fp(m.field, m.data)
    return Mat(m.field, rows, m.cols), tuple(piv)


# -- the two row reductions the one kernel replaced, kept as oracles
# bareiss_rref_q's body is the Q kernel's, verbatim, from before its forward
# pass kept rows primitive; gauss_jordan_rref_fp's is the F_p kernel's,
# verbatim, from before the two fields shared one kernel.


def gauss_jordan_rref_fp(p: int, ints: list[list[int]]) -> tuple[list[list[int]], int, list[int]]:
    """Gauss-Jordan mod p: (reduced rows, denominator 1, pivot columns)."""
    m = list(ints)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] % p != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                mr = m[r]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], mr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], 1, pivots


def bareiss_rref_q(ints: list[list[int]]) -> tuple[list[list[int]], int, list[int]]:
    """Bareiss elimination, which rescales every row below each pivot,
    then the same back-substitution."""
    m = list(ints)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            mi, mr = m[i], m[r]
            if f == 0:
                if piv != prev:
                    m[i] = [x * piv // prev for x in mi]
            else:
                m[i] = [(piv * x - f * y) // prev for x, y in zip(mi, mr)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # Bottom up, reduced row i is e / d over Z: e is zero in every other
    # pivot column and d = e[pivots[i]] > 0, with gcd(e) = 1, so d is the
    # row's canonical denominator and their lcm the matrix's.
    red = [None] * r
    for i in range(r - 1, -1, -1):
        e = m[i]
        for j in range(i + 1, r):
            f = e[pivots[j]]
            if f:
                ej, dj = red[j]
                g = gcd(f, dj)
                a, b = dj // g, f // g
                e = [a * x - b * y for x, y in zip(e, ej)]
        g = gcd(*e)
        if e[pivots[i]] < 0:
            g = -g
        e = [x // g for x in e]
        red[i] = (e, e[pivots[i]])
    den = lcm(*(d for _, d in red))
    return [[x * (den // d) for x in e] for e, d in red], den, pivots


# -- differential tests against the oracles ------------------------------------------

BIG = 2 ** 70
ORACLE_FIELDS = [QQ(), GF(2), GF(7), GF(2 ** 31 - 1)]


def _entries(F):
    if F.is_rational:
        num = st.one_of(st.integers(-6, 6), st.integers(BIG - 3, BIG + 3),
                        st.integers(-BIG - 3, -BIG + 3))
        return st.builds(Fraction, num, st.integers(1, 12))
    return st.one_of(st.just(0), st.just(F.p - 1), st.integers(0, F.p - 1))


@st.composite
def _mat(draw, F, rows, cols):
    """A rows x cols matrix: random entries, or, for a rank-deficient one,
    the (oracle) product of two random matrices through 0-2 dimensions."""
    def plain(r, c):
        return Mat(F, [[draw(_entries(F)) for _ in range(c)] for _ in range(r)], c)

    if draw(st.booleans()):
        return plain(rows, cols)
    inner = draw(st.integers(0, 2))
    return old_matmul(plain(rows, inner), plain(inner, cols))


def exact(m: Mat):
    """Shape, and each entry's type and lowest-terms numerator and denominator."""
    return (m.rows, m.cols,
            [[(type(x), x.numerator, x.denominator) for x in row] for row in m.data])


def assert_operands_intact(*ms: tuple[Mat, list]):
    """Each operand's entries are as before: no result shares rows with an
    operand."""
    for m, before in ms:
        assert m.to_rows() == before


dims = st.integers(0, 5)


@settings(max_examples=200)
@given(st.data(), st.sampled_from(ORACLE_FIELDS), dims, dims, dims)
def test_kernels_match_per_entry_oracle(data, F, r, k, n):
    a = data.draw(_mat(F, r, k))
    b = data.draw(_mat(F, k, n))
    c = data.draw(_mat(F, r, k))
    ops = [(a, a.to_rows()), (b, b.to_rows()),
           (c, c.to_rows())]
    s = data.draw(st.one_of(st.integers(-3, 3), _entries(F)))
    pairs = [(a.matmul(b), old_matmul(a, b)), (a.kron(b), old_kron(a, b)),
             (b.kron(a), old_kron(b, a)), (a.add(c), old_add(a, c)),
             (a.sub(c), old_sub(a, c)), (c.sub(a), old_sub(c, a)),
             (a.scale(s), old_scale(a, s)), (a.neg(), old_scale(a, -1))]
    for new, old in pairs:
        assert exact(new) == exact(old)
        assert_operands_intact(*ops)
    for m in (a, b, a.sub(a), a.sub(c), Mat.zeros(F, r, n)):
        assert m.is_zero() == old_is_zero(m)
    rows = a.to_rows()
    if r and k:
        rows[0][0] = F.add(rows[0][0], F.one())
    tweaked = Mat(F, rows, a.cols)
    for x, y in [(a, a.copy()), (a, c), (a, tweaked), (a, b), (a, a.add(c).sub(c))]:
        assert (x == y) == old_eq(x, y)
    assert_operands_intact(*ops)


@settings(max_examples=200)
@given(st.data(), st.sampled_from(ORACLE_FIELDS), dims, dims, dims)
def test_rref_solve_kernel_match_per_entry_oracle(data, F, r, n, n2):
    a = data.draw(_mat(F, r, n))
    b = data.draw(_mat(F, r, n2))
    ops = [(a, a.to_rows()), (b, b.to_rows())]
    with mock.patch.object(linalg, "rref", old_rref):
        want_ker = kernel_basis(a)
        want_x = solve(a, b)
    R, piv = linalg.rref(a)
    want_R, want_piv = old_rref(a)
    assert piv == want_piv
    assert exact(R) == exact(want_R)
    assert exact(kernel_basis(a)) == exact(want_ker)
    x = solve(a, b)
    assert (x is None) == (want_x is None)
    if x is not None:
        assert exact(x) == exact(want_x)
    assert_operands_intact(*ops)


# -- the one kernel against Bareiss over Q and Gauss-Jordan over F_p ----------

KERNEL_PRIMES = [2, 3, 7, 31]


def assert_rref_q_matches_bareiss(ints: list[list[int]]):
    before = [list(r) for r in ints]
    assert linalg._rref(ints, None) == bareiss_rref_q(ints)
    assert ints == before


def assert_rref_fp_matches_gauss_jordan(ints: list[list[int]], p: int):
    """The kernel over F_p on ints reduced mod p, as Mat storage holds
    them, against Gauss-Jordan: the same rows, denominator and pivots, and
    the input left as it was."""
    ints = [[x % p for x in r] for r in ints]
    before = [list(r) for r in ints]
    assert linalg._rref(ints, p) == gauss_jordan_rref_fp(p, ints)
    assert ints == before


def _intertwining_ints(x, y) -> list[list[int]]:
    """The integer rows of the system whose kernel is Hom(x, y)."""
    gens = x.gens()
    return linalg.intertwining_system(
        x.algebra.field, x.dim, y.dim, [x.acts[t] for t in gens],
        [y.acts[t].transpose() for t in gens])._ints


def _catalog_hom_systems(F: Field):
    """The integer rows of the Hom systems between catalog modules over F:
    regular, simple, seeded random and direct sums, up to 64 columns."""
    rng = random.Random(11)
    for a in (truncated_poly(F, 3), truncated_poly(F, 4), path_a2(F),
              two_cycle_rad_square(F)):
        mods = [regular_module(a), simple_at_idempotent(a, 0)]
        mods += [m for m in (random_module(a, rng) for _ in range(3)) if m.dim]
        mods += [direct_sum([mods[0], mods[0]])[0],
                 direct_sum([mods[1], mods[-1]])[0]]
        for x, y in product(mods, repeat=2):
            if x.dim * y.dim <= 64:
                yield _intertwining_ints(x, y)


def test_rref_q_matches_bareiss_on_hom_systems_of_catalog_modules():
    for ints in _catalog_hom_systems(QQ()):
        assert_rref_q_matches_bareiss(ints)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_rref_fp_matches_gauss_jordan_on_hom_systems_of_catalog_modules(p):
    for ints in _catalog_hom_systems(GF(p)):
        assert_rref_fp_matches_gauss_jordan(ints, p)


def _block_diagonal(rng: random.Random) -> list[list[int]]:
    blocks = [[[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
              for r, c in ((rng.randint(1, 6), rng.randint(1, 6))
                           for _ in range(rng.randint(2, 8)))]
    ncols = sum(len(b[0]) for b in blocks)
    out, left = [], 0
    for b in blocks:
        w = len(b[0])
        out += [[0] * left + row + [0] * (ncols - left - w) for row in b]
        left += w
    return out


def _with_cancelling_rows(rng: random.Random) -> list[list[int]]:
    """Independent rows, plus integer combinations of two or three of them
    placed below, which cancel to zero once their last term's pivot is
    cleared, partway through the elimination."""
    c = rng.randint(2, 12)
    base = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(rng.randint(2, c))]
    out = list(base)
    for _ in range(rng.randint(1, 4)):
        terms = rng.sample(range(len(base)), min(len(base), rng.randint(2, 3)))
        coef = [rng.choice([-3, -2, -1, 1, 2, 5]) for _ in terms]
        out.append([sum(k * base[t][j] for k, t in zip(coef, terms))
                    for j in range(c)])
    return out


def _dense_big(rng: random.Random) -> list[list[int]]:
    r, c = rng.randint(1, 10), rng.randint(1, 10)
    entry = [lambda: rng.randint(BIG - 3, BIG + 3),
             lambda: rng.randint(-BIG - 3, -BIG + 3), lambda: rng.randint(-6, 6)]
    return [[rng.choice(entry)() for _ in range(c)] for _ in range(r)]


def _sparse_square(rng: random.Random) -> list[list[int]]:
    """Up to 60 x 60 with about a tenth of the cells nonzero, full rank or
    the product of two such matrices through fewer dimensions."""
    n = rng.randint(30, 60)

    def sparse(r, c):
        return [[rng.randint(-3, 3) if rng.random() < 0.1 else 0
                 for _ in range(c)] for _ in range(r)]
    if rng.random() < 0.5:
        return sparse(n, n)
    k = rng.randint(1, n - 1)
    a, b = sparse(n, k), sparse(k, n)
    return [[sum(x * b[t][j] for t, x in enumerate(row) if x) for j in range(n)]
            for row in a]


def _low_rank_square(rng: random.Random) -> list[list[int]]:
    """Up to 60 x 60, dense, of rank at most k < n: the product of an
    n x k and a k x n matrix, so its rows cancel to zero once k pivots
    are cleared."""
    n = rng.randint(2, 60)
    k = rng.randint(1, n - 1)
    a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(n)]
            for row in a]


@pytest.mark.parametrize("make", [_block_diagonal, _with_cancelling_rows,
                                  _dense_big, _sparse_square, _low_rank_square])
@pytest.mark.parametrize("seed", range(6))
def test_rref_q_matches_bareiss_on_seeded_structured_matrices(make, seed):
    assert_rref_q_matches_bareiss(make(random.Random(seed)))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("make", [_block_diagonal, _with_cancelling_rows,
                                  _dense_big, _sparse_square, _low_rank_square])
@pytest.mark.parametrize("seed", range(6))
def test_rref_fp_matches_gauss_jordan_on_seeded_structured_matrices(make, seed, p):
    assert_rref_fp_matches_gauss_jordan(make(random.Random(seed)), p)


EDGE_SHAPES = [
    [],                                     # no rows
    [[], [], []],                           # no columns
    [[0, 0, 0], [0, 0, 0]],                 # zero
    [[1, 2, 3], [2, 4, 6]],                 # cancels at the first pivot
    [[1, 0, 1], [0, 1, 1], [1, 1, 2]],      # cancels at the second pivot
    [[2, 1], [4, 2], [0, 3]],               # cancels above a live row
    [[0, 6, 4], [3, 0, 9], [6, 6, 0]],      # pivots with a common factor
    [[-BIG, BIG + 1], [BIG - 1, -BIG]],     # entries near +-2^70
]
EDGE_IDS = ["no-rows", "no-cols", "zero", "cancel-first", "cancel-second",
            "zero-row-above", "common-factors", "big"]


@pytest.mark.parametrize("ints", EDGE_SHAPES, ids=EDGE_IDS)
def test_rref_q_matches_bareiss_on_edge_shapes(ints):
    assert_rref_q_matches_bareiss(ints)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("ints", EDGE_SHAPES, ids=EDGE_IDS)
def test_rref_fp_matches_gauss_jordan_on_edge_shapes(ints, p):
    assert_rref_fp_matches_gauss_jordan(ints, p)


# -- coordinates in canonical bases, against solve_left ---------------------------

COORD_FIELDS = [QQ(), GF(7)]


@st.composite
def _canonical_basis(draw, F):
    """A transposed kernel basis or a reduced echelon row basis of a random
    matrix, so every row has a unit column."""
    m = draw(_mat(F, draw(dims), draw(st.integers(0, 6))))
    return kernel_basis(m).transpose() if draw(st.booleans()) else row_space(m)


@settings(max_examples=120)
@given(st.data(), st.sampled_from(COORD_FIELDS))
def test_coordinates_read_combinations_and_match_solve_left(data, F):
    basis = data.draw(_canonical_basis(F))
    ops = [(basis, basis.to_rows())]
    x = data.draw(_mat(F, data.draw(st.integers(0, 4)), basis.rows))
    vectors = x @ basis
    got = coordinates(basis, vectors)
    assert got is not None and got == x and got @ basis == vectors
    if vectors.rows and vectors.cols:
        # one entry moved: off the span unless the span is the whole space
        i = data.draw(st.integers(0, vectors.rows - 1))
        j = data.draw(st.integers(0, vectors.cols - 1))
        rows = vectors.to_rows()
        rows[i][j] = F.add(rows[i][j], data.draw(_entries(F)))
        moved = Mat(F, rows, vectors.cols)
        got, want = coordinates(basis, moved), solve_left(basis, moved)
        assert (got is None) == (want is None)
        if got is not None:
            assert got == want and got @ basis == moved
        assert in_row_space(basis, moved) == (want is not None)
    assert_operands_intact(*ops)


@pytest.mark.parametrize("F", COORD_FIELDS)
def test_coordinates_of_zero_rows_and_in_a_zero_row_basis(F):
    basis = row_space(Mat.from_rows(F, [[1, 2, 0], [0, 0, 1]]))
    got = coordinates(basis, Mat.zeros(F, 0, 3))
    assert (got.rows, got.cols) == (0, 2)
    empty = Mat.zeros(F, 0, 3)
    got = coordinates(empty, Mat.zeros(F, 2, 3))
    assert (got.rows, got.cols) == (2, 0)
    assert coordinates(empty, Mat.from_rows(F, [[0, 1, 0]])) is None
    assert coordinates(empty, Mat.zeros(F, 0, 3)).rows == 0


@pytest.mark.parametrize("rows", [[[1, 1], [0, 1]], [[2, 0]], [[1, 0], [1, 0]]])
def test_coordinates_reject_a_basis_without_unit_columns(rows):
    # an internal error: never a ValueError, which the CLI reports as bad input
    assert not issubclass(NonCanonicalBasis, ValueError)
    for F in COORD_FIELDS:
        basis = Mat.from_rows(F, rows, 2)
        with pytest.raises(NonCanonicalBasis):
            coordinates(basis, Mat.zeros(F, 1, 2))


# -- storage: integer rows over one denominator ---------------------------------

STORAGE_FIELDS = [QQ(), GF(5), GF(7)]


def _scalars(F):
    """Nonzero scalars of F with their inverses."""
    if F.is_rational:
        return st.builds(Fraction, st.integers(1, 40) | st.integers(-40, -1),
                         st.integers(1, 40)).map(lambda c: (c, 1 / c))
    return st.integers(1, F.p - 1).map(lambda c: (c, pow(c, -1, F.p)))


@settings(max_examples=150)
@given(st.data(), st.sampled_from(STORAGE_FIELDS), dims, dims)
def test_storage_round_trips_field_elements(data, F, r, n):
    rows = [[data.draw(_entries(F)) for _ in range(n)] for _ in range(r)]
    m = Mat(F, rows, n)
    assert m.to_rows() == rows and m.data == rows
    assert [m.row(i) for i in range(r)] == rows
    if F.is_rational:
        # lowest terms, positive denominators, as Fraction itself keeps them
        for row in m.to_rows():
            for x in row:
                assert type(x) is Fraction and x.denominator > 0
                assert _gcd(abs(x.numerator), x.denominator) == 1
        assert exact(m) == exact(Mat(F, [[Fraction(x) for x in row] for row in rows],
                                     n))


@settings(max_examples=150)
@given(st.data(), st.sampled_from(STORAGE_FIELDS), dims, dims)
def test_equal_values_from_differently_scaled_inputs_are_equal(data, F, r, n):
    m = data.draw(_mat(F, r, n))
    c, inv = data.draw(_scalars(F))
    scaled = Mat(F, [[F.mul(c, x) for x in row] for row in m.to_rows()], n)
    for same in (scaled.scale(inv), m.scale(c).scale(inv), m.add(scaled).sub(scaled)):
        assert same == m and exact(same) == exact(m)
    if r and n:
        assert m.block(0, 1, 0, n) == Mat(F, [m.row(0)], n)


def test_equal_values_from_differently_scaled_fractions_are_equal():
    F = QQ()
    a = Mat(F, [[Fraction(1, 2), Fraction(1, 3)]])
    b = Mat(F, [[3, 2]]).scale(Fraction(1, 6))
    assert a == b and exact(a) == exact(b)
    assert Mat(F, [[Fraction(1, 2)]]).kron(Mat(F, [[2]])) == Mat.identity(F, 1)
    assert Mat(F, [[Fraction(1, 2), 1]]).block(0, 1, 1, 2) == Mat.identity(F, 1)


@pytest.mark.parametrize("F", STORAGE_FIELDS)
def test_returned_rows_do_not_write_through(F):
    m = Mat.from_rows(F, [[1, 2], [3, 4]])
    before = m.to_rows()
    m.data[0][0] = F.of_int(9)
    m.row(1)[1] = F.of_int(9)
    m.to_rows()[0][1] = F.of_int(9)
    m.data.append([F.of_int(9)] * 2)
    assert m.to_rows() == before and m.rows == 2
    assert m == Mat.from_rows(F, [[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        m.data = [[F.of_int(0)] * 2] * 2


# -- an echelon form is its own echelon form ------------------------------------


@pytest.mark.parametrize("F", STORAGE_FIELDS)
def test_rref_of_an_echelon_form_runs_no_elimination(F):
    m = Mat.from_rows(F, [[1, 2, 3], [2, 4, 7], [0, 0, 2]])
    R = row_space(m)
    K = left_kernel(m.transpose())
    with mock.patch.object(linalg, "_rref") as kernel:
        assert linalg.rref(R) == (R, (0, 2)) and rank(R) == 2
        assert row_space(R) is R and row_space(K) is K
        assert kernel_basis(R).cols == 1 and kernel_basis(K).cols == 2
    assert not kernel.called
    # a copy carries no echelon form, but it is recognised as one on
    # arrival: the same (R, pivots), with no elimination
    with mock.patch.object(linalg, "_rref") as kernel:
        assert linalg.rref(R.copy()) == linalg.rref(R)
    assert not kernel.called


@pytest.mark.parametrize("F", STORAGE_FIELDS)
@pytest.mark.parametrize("rows", [
    [[0, 1, 2], [1, 0, 3]],         # not in echelon form
    [[2, 0, 1], [0, 1, 4]],         # an echelon form with a pivot 2
    [[1, 3, 0], [0, 1, 2]],         # a nonzero entry above a pivot
    [[1, 0, 2], [0, 0, 0]],         # a zero row
    [[0, 0, 0], [0, 1, 2]],         # a zero row on top
], ids=["not-echelon", "pivot-2", "above-pivot", "zero-row", "zero-row-on-top"])
def test_rref_of_a_matrix_not_reduced_eliminates_once(F, rows):
    m = Mat.from_rows(F, rows)
    with mock.patch.object(linalg, "_rref", wraps=linalg._rref) as kernel:
        assert linalg.rref(m) == old_rref(m)
        assert linalg.rref(m) == old_rref(m)
    assert kernel.call_count == 1


@pytest.mark.parametrize("F", STORAGE_FIELDS)
def test_rref_of_an_empty_or_zero_matrix_runs_no_elimination(F):
    cases = [Mat.zeros(F, 0, 3), Mat.zeros(F, 0, 0), Mat.zeros(F, 3, 0),
             Mat.zeros(F, 2, 3)]
    with mock.patch.object(linalg, "_rref") as kernel:
        for m in cases:
            R, piv = linalg.rref(m)
            assert (R.rows, R.cols, piv) == (0, m.cols, ())
            assert (R, piv) == old_rref(m)
        # a matrix with no rows is its own form
        assert linalg.rref(cases[0])[0] is cases[0]
    assert not kernel.called
