"""Dense exact linear algebra over Q or F_p.

This is the only module that reads or writes matrix entries.  Every
other module works with whole matrices: arithmetic, Kronecker products,
stacking, `from_blocks` assembly, `block` slicing, `reshape`/`flatten`,
`to_rows`, `row` and `trace`, and four builders for matrix-shaped jobs,
`linear_combination` (the action of an algebra element),
`intertwining_system` (hom spaces and balanced-tensor relations),
`quotient_maps` (quotient coordinates) and `coordinates` (vectors
expressed in a canonical basis).  `coordinates` needs a unit column in
every basis row, a column that is 1 in that row and 0 in the others, as
every `row_space`, `left_kernel` and transposed `kernel_basis` has; it
reads the coordinates off those columns with no row reduction.
`factor_through` applies it to the transposes, to factor maps through a
`kernel_basis` (a quotient projection).  A change of entry storage stays
inside this file.

Matrices are row-major lists of field elements: `Fraction`s over Q, ints
in [0, p) over F_p.  Row reduction is Gauss-Jordan over F_p and
fraction-free (Bareiss) over Q, with deterministic first-nonzero
pivoting, so every echelon form, kernel and quotient basis is
reproducible across runs.

Over Q every kernel computes on Python ints.  `_lift` turns a matrix into
integer rows over one common denominator, the lcm of its entry
denominators, and caches the result on the matrix; `_drop` turns integer
rows over a denominator back into one `Fraction` per entry.  The lift is
canonical, so two matrices are equal exactly when their lifts are.  Over
F_p the kernels run on the entries themselves and reduce each output
cell once.

A `Mat` is never written after its first arithmetic use.  Its lift and
its echelon form are cached on it, so code here that builds a matrix by
writing into `data` (a fresh `zeros`, `identity` or `copy`) finishes
writing before it passes the matrix to any operation.

Convention used by the rest of the package: linear maps act on ROW
vectors from the right, x |-> x @ M, so a map V -> W is a (dim V x dim W)
matrix and the composite "first f then g" is f.mat @ g.mat.  The
functions below are convention-neutral plumbing; `kernel_basis` returns
the right null space as columns, `left_kernel` the row-vector kernel.
Zero-extent matrices are first-class (zero modules are routine here), so
shapes are stored explicitly.  Tensor spaces use the row-major basis
(i, j) -> i * dim W + j of V (x) W, matching `Mat.kron`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import Field, FieldMismatch

# Shared constants for small integers: most entries here are small, and a
# dict hit costs far less than building a Fraction.
_SMALL = {n: Fraction(n) for n in range(-64, 65)}
_new = object.__new__


def _lift(m: "Mat") -> tuple[list[list[int]], int]:
    """(rows, den) with m = rows / den and den the lcm of the entry
    denominators.  Cached on m; the rows are never written."""
    lifted = m._lifted
    if lifted is None:
        data = m.data
        den = lcm(*{x.denominator for row in data for x in row})
        if den == 1:
            rows = [[x.numerator for x in row] for row in data]
        else:
            rows = [[x.numerator * (den // x.denominator) for x in row]
                    for row in data]
        lifted = m._lifted = (rows, den)
    return lifted


def _drop(rows: list[list[int]], den: int) -> list[list[Fraction]]:
    """The entries of rows / den as Fractions, one per entry; den > 0."""
    small = _SMALL
    if den == 1:
        return [[small[x] if x in small else Fraction(x) for x in row]
                for row in rows]
    out = []
    for row in rows:
        frow = []
        for x in row:
            g = gcd(x, den)
            if g == den:
                x //= den
                frow.append(small[x] if x in small else Fraction(x))
            else:
                # lowest terms with a positive denominator, as Fraction keeps
                # them, without Fraction's own argument checks
                f = _new(Fraction)
                f._numerator, f._denominator = x // g, den // g
                frow.append(f)
        out.append(frow)
    return out


def _matmul_rows(a: list[list[int]], b: list[list[int]], n: int,
                 p: int | None) -> list[list[int]]:
    """a @ b on int rows, skipping zero entries of a; over F_p (p given)
    each output cell is reduced once."""
    out = []
    for row in a:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(acc if p is None else [s % p for s in acc])
    return out


class Mat:
    """A rows x cols matrix over `field`.

    `data` belongs to this module: code outside `linalg` reads and builds
    matrices only through the methods and functions here (`from_rows`,
    `to_rows`, `row`, `trace`, `block`, `from_blocks`, `reshape`,
    `flatten` and the arithmetic).  `data` is never
    written after the matrix's first arithmetic use, because `_lifted` (the
    integer lift over Q) and `_rref` (the echelon form) are cached from it."""

    __slots__ = ("field", "rows", "cols", "data", "_lifted", "_rref")

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
        self._lifted = None
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

    def copy(self) -> "Mat":
        return Mat(self.field, [row[:] for row in self.data], self.cols)

    # -- basic queries ------------------------------------------------

    def __eq__(self, other):
        if not (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols):
            return False
        if self.field.is_rational:
            return _lift(self) == _lift(other)
        return self.data == other.data

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"

    def is_zero(self) -> bool:
        rows = _lift(self)[0] if self.field.is_rational else self.data
        return not any(map(any, rows))

    def row(self, i: int) -> list:
        return self.data[i][:]

    def to_rows(self) -> list[list]:
        """The entries as fresh row lists; `from_rows` takes them back."""
        return [row[:] for row in self.data]

    def trace(self):
        diag = [self.data[d][d] for d in range(min(self.rows, self.cols))]
        F = self.field
        return sum(diag, F.zero()) if F.is_rational else sum(diag) % F.p

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Rows r0..r1-1 and columns c0..c1-1, as a new matrix."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError(f"block [{r0}:{r1}, {c0}:{c1}] outside a "
                             f"{self.rows}x{self.cols} matrix")
        return Mat(self.field, [row[c0:c1] for row in self.data[r0:r1]], c1 - c0)

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries, read and written row-major, as rows x cols."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} "
                             f"to {rows}x{cols}")
        flat = [x for row in self.data for x in row]
        return Mat(self.field, [flat[i * cols:(i + 1) * cols] for i in range(rows)],
                   cols)

    def flatten(self) -> "Mat":
        """The entries as one row vector, row-major."""
        return self.reshape(1, self.rows * self.cols)

    # -- arithmetic ---------------------------------------------------

    def _same_field(self, other: "Mat"):
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def _combine(self, other: "Mat", sign: int, op: str) -> "Mat":
        """self + sign * other, for sign = 1 or -1."""
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {op}")
        F = self.field
        if F.is_rational:
            (ra, da), (rb, db) = _lift(self), _lift(other)
            den = lcm(da, db)
            sa, sb = den // da, sign * (den // db)
            rows = [[x * sa + y * sb for x, y in zip(r1, r2)]
                    for r1, r2 in zip(ra, rb)]
            return Mat(F, _drop(rows, den), self.cols)
        p = F.p
        return Mat(F, [[(x + sign * y) % p for x, y in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)], self.cols)

    def add(self, other: "Mat") -> "Mat":
        return self._combine(other, 1, "add")

    def sub(self, other: "Mat") -> "Mat":
        return self._combine(other, -1, "sub")

    def scale(self, c) -> "Mat":
        F = self.field
        c = F.of_int(c) if isinstance(c, int) else c
        if F.is_rational:
            rows, den = _lift(self)
            n = c.numerator
            return Mat(F, _drop([[n * x for x in row] for row in rows],
                                den * c.denominator), self.cols)
        p = F.p
        return Mat(F, [[(c * x) % p for x in row] for row in self.data], self.cols)

    def neg(self) -> "Mat":
        return self.scale(-1)

    def matmul(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in matmul: {self.cols} vs {other.rows}")
        F = self.field
        n = other.cols
        if F.is_rational:
            (ra, da), (rb, db) = _lift(self), _lift(other)
            return Mat(F, _drop(_matmul_rows(ra, rb, n, None), da * db), n)
        return Mat(F, _matmul_rows(self.data, other.data, n, F.p), n)

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

    @staticmethod
    def from_blocks(field: Field, row_dims: list[int], col_dims: list[int],
                    blocks: list[list["Mat | None"]]) -> "Mat":
        """The block matrix with blocks[i][j], a row_dims[i] x col_dims[j]
        matrix, in row band i and column band j; None is a zero block."""
        z = field.zero()
        data = []
        for rd, band in zip(row_dims, blocks, strict=True):
            for m, cd in zip(band, col_dims, strict=True):
                if m is not None:
                    if m.field is not field and m.field != field:
                        raise FieldMismatch("from_blocks over mixed fields")
                    if (m.rows, m.cols) != (rd, cd):
                        raise ValueError("from_blocks: a block disagrees with "
                                         "its band sizes")
            for i in range(rd):
                row = []
                for m, cd in zip(band, col_dims):
                    row.extend([z] * cd if m is None else m.data[i])
                data.append(row)
        return Mat(field, data, sum(col_dims))

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; row index (i, k) -> i * other.rows + k.

        Matches the row-major tensor basis used for all tensor spaces:
        (u (x) v) @ (A kron B) = (u @ A) (x) (v @ B).
        """
        self._same_field(other)
        F = self.field
        cols = self.cols * other.cols
        if F.is_rational:
            (ra, da), (rb, db) = _lift(self), _lift(other)
            rows = [[x * y for x in ar for y in br] for ar in ra for br in rb]
            return Mat(F, _drop(rows, da * db), cols)
        p = F.p
        return Mat(F, [[(x * y) % p for x in ar for y in br]
                       for ar in self.data for br in other.data], cols)


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


def _rref_q(data: list[list]) -> tuple[list[list], list[int]]:
    # Clear denominators per row, then fraction-free (Bareiss) elimination
    # over Z to bound entry growth, then back-substitution over Z; only the
    # reduced rows become Fractions.
    m = []
    for row in data:
        den = lcm(*{x.denominator for x in row})
        m.append([x.numerator for x in row] if den == 1 else
                 [x.numerator * (den // x.denominator) for x in row])
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
    # pivot column and d = e[pivots[i]] > 0, with gcd(e) = 1.
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
    return [_drop([e], d)[0] for e, d in red], pivots


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
    return _kernel_and_free(m)[0]


def _kernel_and_free(m: Mat) -> tuple[Mat, list[int]]:
    """kernel_basis(m) and the non-pivot columns of m's echelon form,
    one per kernel column."""
    F = m.field
    R, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    out = Mat.zeros(F, m.cols, len(free))
    for k, c in enumerate(free):
        out.data[c][k] = F.one()
        for i, pc in enumerate(pivots):
            out.data[pc][k] = F.neg(R.data[i][c])
    return out, free


def quotient_maps(rel_rows: Mat) -> tuple[Mat, Mat]:
    """(projection, canonical section) for k^n modulo the row span of
    rel_rows, n = rel_rows.cols.

    The quotient lives on the non-pivot coordinates of the span's reduced
    echelon form: the projection is kernel_basis(rel_rows), and the section
    lifts quotient coordinates to the matching unit vectors, so
    sec @ proj = identity."""
    F = rel_rows.field
    proj, free = _kernel_and_free(rel_rows)
    z, o = F.zero(), F.one()
    sec = Mat(F, [[o if j == c else z for j in range(rel_rows.cols)] for c in free],
              rel_rows.cols)
    return proj, sec


def linear_combination(field: Field, rows: int, cols: int, coeffs: list,
                       mats: list[Mat]) -> Mat:
    """sum_t coeffs[t] * mats[t], for rows x cols matrices, in one pass over
    the integer lifts (Q) or the entries (F_p).  Zero coefficients are
    skipped; a lone coefficient 1 returns its matrix itself."""
    terms = [(c, m) for c, m in zip(coeffs, mats, strict=True) if c]
    for _, m in terms:
        if m.field is not field and m.field != field:
            raise FieldMismatch("linear_combination over mixed fields")
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch in linear_combination")
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    if field.is_rational:
        lifted = [(c, _lift(m)) for c, m in terms]
        den = lcm(*(c.denominator * d for c, (_, d) in lifted))
        scaled = [(c.numerator * (den // (c.denominator * d)), r)
                  for c, (r, d) in lifted]
    else:
        scaled = [(c, m.data) for c, m in terms]
    acc = [[0] * cols for _ in range(rows)]
    for f, mrows in scaled:
        acc = [[s + f * x for s, x in zip(ar, r)] for ar, r in zip(acc, mrows)]
    if field.is_rational:
        return Mat(field, _drop(acc, den), cols)
    p = field.p
    return Mat(field, [[s % p for s in r] for r in acc], cols)


def intertwining_system(field: Field, dp: int, dq: int, ps: list[Mat],
                        qs: list[Mat]) -> Mat:
    """The stacked rows P_t (x) 1 - 1 (x) Q_t, for P_t dp x dp and Q_t
    dq x dq: a dp*dq vector v, read row-major as a dp x dq matrix V, is
    in its right kernel exactly when P_t V = V Q_t^T for every t.  With
    Q_t = Y_t^T that is the module-hom condition X_t V = V Y_t; with
    Q_t = L_t the rows are the middle relations of a balanced tensor.

    Row (i, k) holds P_t[i][j] at column (j, k) and -Q_t[k][l] at column
    (i, l), so each row is written from the nonzeros of row i of P_t and
    row k of Q_t: over Q on integer lifts over one common denominator,
    over F_p reducing only the cells that receive a Q_t entry."""
    n = dp * dq
    if field.is_rational:
        lifts = [_lift(m) for m in (*ps, *qs)]
        den = lcm(*(d for _, d in lifts))
        ints = [[[x * (den // d) for x in r] for r in rows] for rows, d in lifts]
        p_rows, q_rows = ints[:len(ps)], ints[len(ps):]
    else:
        p_rows, q_rows = [m.data for m in ps], [m.data for m in qs]
    p = field.p
    out = []
    for prow, qrow in zip(p_rows, q_rows, strict=True):
        pnz = [[(j * dq, x) for j, x in enumerate(r) if x] for r in prow]
        qnz = [[(l, y) for l, y in enumerate(r) if y] for r in qrow]
        for i in range(dp):
            base = i * dq
            for k in range(dq):
                row = [0] * n
                for c, x in pnz[i]:
                    row[c + k] = x
                if p is None:
                    for l, y in qnz[k]:
                        row[base + l] -= y
                else:
                    for l, y in qnz[k]:
                        row[base + l] = (row[base + l] - y) % p
                out.append(row)
    return Mat(field, _drop(out, den) if field.is_rational else out, n)


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


class NonCanonicalBasis(RuntimeError):
    """`coordinates` got a basis with a row that has no unit column.  This
    is an internal error, never an input error: every basis the package
    hands it is a `row_space`, a `left_kernel` or a transposed
    `kernel_basis`, or a column permutation of one."""


def _unit_columns(rows: list[list[int]], one: int) -> list[int]:
    """For each row i of int rows, the first column holding `one` in row i
    and 0 in every other row."""
    nonzeros = [len(col) - col.count(0) for col in zip(*rows)]
    units = []
    for i, row in enumerate(rows):
        c = next((c for c, x in enumerate(row) if x == one and nonzeros[c] == 1),
                 None)
        if c is None:
            raise NonCanonicalBasis(f"basis row {i} has no unit column")
        units.append(c)
    return units


def coordinates(basis: Mat, vectors: Mat) -> Mat | None:
    """The x with x @ basis == vectors, or None when some row of `vectors`
    is outside the row space of `basis`.

    Precondition: every row of `basis` has a unit column, a column that is
    1 in that row and 0 in every other row.  A reduced echelon basis
    (`row_space`, `left_kernel`) has one at each pivot, and a transposed
    `kernel_basis` at each free column; a column permutation keeps them.
    A basis without one raises `NonCanonicalBasis`.  The coordinates are
    read off the unit columns, with no elimination, and one product over
    the whole batch proves the read exact."""
    if basis.field is not vectors.field and basis.field != vectors.field:
        raise FieldMismatch("coordinates over mixed fields")
    if basis.cols != vectors.cols:
        raise ValueError("coordinates: column counts differ")
    F = basis.field
    n = basis.cols
    if F.is_rational:
        (rb, db), (rv, dv) = _lift(basis), _lift(vectors)
        units = _unit_columns(rb, db)
        prod = _matmul_rows([[r[c] for c in units] for r in rv], rb, n, None)
        exact = all(got == [y * db for y in r] for got, r in zip(prod, rv))
    else:
        units = _unit_columns(basis.data, 1)
        prod = _matmul_rows([[r[c] for c in units] for r in vectors.data],
                            basis.data, n, F.p)
        exact = prod == vectors.data
    if not exact:
        return None
    return Mat(F, [[r[c] for c in units] for r in vectors.data], len(units))


def factor_through(proj: Mat, mats: list[Mat]) -> list[Mat] | None:
    """The Z_i with proj @ Z_i == mats[i], or None when some mats[i] does
    not factor through proj.

    Precondition: proj is a `kernel_basis`, or a product of kernel bases
    (the projection onto an iterated tensor quotient, say), so that its
    transpose has a unit column in every row (see `coordinates`).  Such a
    proj has full column rank, so each Z_i is unique; all of them come
    from one `coordinates` call on the transposes."""
    if not mats:
        return []
    zt = coordinates(proj.transpose(), Mat.vstack([m.transpose() for m in mats]))
    if zt is None:
        return None
    out, r = [], 0
    for m in mats:
        out.append(zt.block(r, r + m.cols, 0, zt.cols).transpose())
        r += m.cols
    return out


def in_row_space(basis: Mat, vectors: Mat) -> bool:
    """True when every row of `vectors` lies in the row space of `basis`,
    a basis with unit columns (see `coordinates`)."""
    return coordinates(basis, vectors) is not None
