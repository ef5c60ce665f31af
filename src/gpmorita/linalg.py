"""Dense exact linear algebra over Q or F_p.

Matrices are immutable-by-convention row-major lists.  Row reduction is
plain Gauss-Jordan over F_p and fraction-free (Bareiss) over Q, with
deterministic first-nonzero pivoting, so every echelon form, kernel and
quotient basis is reproducible across runs.

Convention used by the rest of the package: linear maps act on ROW
vectors from the right, x |-> x @ M, so a map V -> W is a (dim V x dim W)
matrix and the composite "first f then g" is f.mat @ g.mat.  The
functions below are convention-neutral plumbing; `kernel_basis` returns
the right null space as columns, `left_kernel` the row-vector kernel.
Zero-extent matrices are first-class (zero modules are routine here), so
shapes are stored explicitly.
"""
from __future__ import annotations

from fractions import Fraction

from .fields import Field, FieldMismatch


class Mat:
    __slots__ = ("field", "rows", "cols", "data", "_rref")

    def __init__(self, field: Field, data: list[list], cols: int | None = None):
        self.field = field
        self.data = data
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if cols is not None and cols != self.cols:
                raise ValueError("declared column count disagrees with data")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols
        self._rref = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: list[list], cols: int | None = None) -> "Mat":
        out = []
        for r in rows:
            out.append([field.of_int(x) if isinstance(x, int) else x for x in r])
        return Mat(field, out, cols)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        z = field.zero()
        return Mat(field, [[z] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        z, o = field.zero(), field.one()
        return Mat(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @staticmethod
    def unit_row(field: Field, n: int, i: int) -> "Mat":
        m = Mat.zeros(field, 1, n)
        m.data[0][i] = field.one()
        return m

    @staticmethod
    def row_vector(field: Field, entries: list) -> "Mat":
        return Mat.from_rows(field, [entries], len(entries))

    def copy(self) -> "Mat":
        return Mat(self.field, [row[:] for row in self.data], self.cols)

    # -- basic queries ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for row in self.data for x in row)

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def row(self, i: int) -> list:
        return self.data[i][:]

    # -- arithmetic ---------------------------------------------------

    def _same_field(self, other: "Mat"):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def add(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        F = self.field
        return Mat(F, [
            [F.add(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.data, other.data)
        ], self.cols)

    def sub(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sub")
        F = self.field
        return Mat(F, [
            [F.sub(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.data, other.data)
        ], self.cols)

    def scale(self, c) -> "Mat":
        F = self.field
        c = F.of_int(c) if isinstance(c, int) else c
        return Mat(F, [[F.mul(c, x) for x in row] for row in self.data], self.cols)

    def neg(self) -> "Mat":
        return self.scale(-1)

    def matmul(self, other: "Mat") -> "Mat":
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

    def __matmul__(self, other: "Mat") -> "Mat":
        return self.matmul(other)

    def transpose(self) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zeros(self.field, self.cols, self.rows)
        return Mat(self.field, [list(col) for col in zip(*self.data)], self.rows)

    # -- block operations ----------------------------------------------

    @staticmethod
    def hstack(mats: list["Mat"]) -> "Mat":
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack: row counts differ")
        cols = sum(m.cols for m in mats)
        return Mat(mats[0].field,
                   [sum((m.data[i] for m in mats), []) for i in range(rows)], cols)

    @staticmethod
    def vstack(mats: list["Mat"]) -> "Mat":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column counts differ")
        data = []
        for m in mats:
            data.extend(row[:] for row in m.data)
        return Mat(mats[0].field, data, cols)

    @staticmethod
    def block_diag(mats: list["Mat"]) -> "Mat":
        field = mats[0].field
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = Mat.zeros(field, rows, cols)
        r0 = c0 = 0
        for m in mats:
            for i in range(m.rows):
                out.data[r0 + i][c0:c0 + m.cols] = m.data[i][:]
            r0 += m.rows
            c0 += m.cols
        return out

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; row index (i, k) -> i * other.rows + k.

        Matches the row-major tensor basis used for all tensor spaces:
        (u (x) v) @ (A kron B) = (u @ A) (x) (v @ B).
        """
        self._same_field(other)
        F = self.field
        z = F.zero()
        out = Mat.zeros(F, self.rows * other.rows, self.cols * other.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.data[i][j]
                if a == z:
                    continue
                for k in range(other.rows):
                    orow = other.data[k]
                    trow = out.data[i * other.rows + k]
                    base = j * other.cols
                    for l in range(other.cols):
                        trow[base + l] = F.add(trow[base + l], F.mul(a, orow[l]))
        return out


# -- row reduction -----------------------------------------------------


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


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form (zero rows dropped) and pivot columns."""
    if m._rref is None:
        if m.field.is_rational:
            rows, piv = _rref_q(m.data)
        else:
            rows, piv = _rref_fp(m.field, m.data)
        R = Mat(m.field, rows, m.cols)
        m._rref = (R, tuple(piv))
    return m._rref


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right null space {x : m @ x = 0}."""
    F = m.field
    R, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    out = Mat.zeros(F, m.cols, len(free))
    for k, c in enumerate(free):
        out.data[c][k] = F.one()
        for i, pc in enumerate(pivots):
            out.data[pc][k] = F.neg(R.data[i][c])
    return out


def left_kernel(m: Mat) -> Mat:
    """Rows form the canonical basis of {x : x @ m = 0}."""
    ker = kernel_basis(m.transpose()).transpose()
    return row_space(ker)


def row_space(m: Mat) -> Mat:
    """Canonical (RREF) basis of the row space, as rows."""
    R, _ = rref(m)
    return R


def image_basis(m: Mat) -> Mat:
    """Basis of the column space: the pivot columns of m, kept verbatim."""
    _, piv = rref(m.transpose())
    # pivot columns of m are the pivot "rows" of m^T
    cols = [[m.data[i][c] for c in piv] for i in range(m.rows)]
    return Mat(m.field, cols, len(piv)) if m.rows else Mat.zeros(m.field, 0, len(piv))


def solve(a: Mat, b: Mat) -> Mat | None:
    """One exact solution x of a @ x = b, or None if inconsistent."""
    if a.field != b.field:
        raise FieldMismatch("solve over mixed fields")
    if a.rows != b.rows:
        raise ValueError("solve: row counts differ")
    aug = Mat.hstack([a, b])
    R, pivots = rref(aug)
    for p in pivots:
        if p >= a.cols:
            return None
    F = a.field
    x = Mat.zeros(F, a.cols, b.cols)
    for i, p in enumerate(pivots):
        x.data[p] = [R.data[i][a.cols + j] for j in range(b.cols)]
    return x


def solve_left(a: Mat, b: Mat) -> Mat | None:
    """One exact solution x of x @ a = b, or None."""
    xt = solve(a.transpose(), b.transpose())
    return None if xt is None else xt.transpose()


def preimage(a: Mat, b: Mat) -> tuple[Mat, Mat] | None:
    """All solutions of a @ x = b: (particular solution, kernel columns)."""
    x = solve(a, b)
    if x is None:
        return None
    return x, kernel_basis(a)


def is_injective(m: Mat) -> bool:
    """Injectivity of the column-vector map x |-> m @ x."""
    return rank(m) == m.cols


def is_surjective(m: Mat) -> bool:
    return rank(m) == m.rows


def in_row_space(basis: Mat, vectors: Mat) -> bool:
    """True when every row of `vectors` lies in the row space of `basis`."""
    return solve_left(basis, vectors) is not None
