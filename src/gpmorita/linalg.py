"""Dense exact linear algebra over Q or F_p.

This is the only module that reads or writes matrix entries.  Every
other module works with whole matrices: arithmetic, Kronecker products,
stacking, `from_blocks` assembly, `block` slicing, `reshape`/`flatten`,
`swap_factors`, `nonzero_rows`, `to_rows`, `row` and `trace`, and five
builders for matrix-shaped jobs, `linear_combination` (the action of an
algebra element), `intertwining_system` (hom spaces and balanced-tensor
relations), `quotient_maps` (quotient coordinates), `coordinates`
(vectors expressed in a canonical basis) and `first_invertible_combination`
(the isomorphism scan: the first coefficients of a grid whose combination
of square matrices is invertible, tested on integer rows by a forward pass
that stops at the first column with no pivot, so no candidate becomes a
`Mat`).  `coordinates` needs a unit column in
every basis row, a column that is 1 in that row and 0 in the others, as
every `row_space`, `left_kernel` and transposed `kernel_basis` has; it
reads the coordinates off those columns with no row reduction.
`factor_through` applies it to the transposes, to factor maps through a
`kernel_basis` (a quotient projection); an empty projection, one with no
columns, factors only zero maps and needs no `coordinates` call.

Storage.  Every `Mat`, over either field, holds integer rows over one
positive denominator, `_ints / _den`, built once at construction and
never written afterwards.  Over F_p the denominator is 1 and the entries
lie in [0, p).  Over Q the denominator is canonical, the least positive
one with integer rows, so two matrices are equal exactly when their
storage is.  Every `Mat` is made by one helper, `_wrap`, and a matrix
with no rows or no columns is one instance per shape, kept on its field
(`Field.empties`), so the zero pieces of a construction are the same
instances to the per-instance memos above this module.

Kernels.  Arithmetic, the builders above, kernels and `solve` compute on
the integer rows, with one code path for both fields.  A result whose
storage may not be canonical passes through one normaliser, `_canon`:
over F_p it reduces the rows mod p, over Q it divides out the gcd of the
entries and the denominator.  Over F_p the arithmetic kernels (`add`,
`sub`, `matmul`, `kron`, `linear_combination`, `intertwining_system`)
skip it: they reduce mod p inside their own loops, only the cells that can
leave [0, p).  Pure rearrangements (transposes, stacks, reshapes), entries
taken from a matrix over denominator 1 (`_select`) and the 0/1 matrices
keep canonical storage as they are.  Row reduction is one kernel for
both fields, `_rref`: a forward pass that touches only the rows with a
nonzero in the pivot column, then a back-substitution, on integer rows
over Z for Q and over F_p.  The field enters only in how a row is
normalised: over Z a combined row is divided by its content and a pivot
row made primitive with a positive lead, over F_p a combined row is
reduced mod p and a pivot row scaled to lead with 1.  It pivots on the
first nonzero, so every echelon form, kernel and quotient basis is
reproducible across runs.  The echelon form is cached on the matrix and
on itself, and a matrix that arrives already in reduced echelon form, or
zero, is recognised by one scan, so neither is ever eliminated.

Boundary.  Field elements, `Fraction`s over Q and ints over F_p, appear
only where matrices meet the rest of the package: `Mat(F, rows, cols)`
and `from_rows` take them, and `row`, `to_rows`, `trace` and the
read-only `data` return fresh ones.  `from_ints` takes rows of plain
Python ints, as a problem file gives them, straight into the storage.

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


def _wrap(field: Field, ints: list[list[int]], den: int, cols: int) -> "Mat":
    """A Mat holding ints / den as given, which must be canonical storage;
    with no rows or no columns, the field's one instance of that shape."""
    m = object.__new__(Mat)
    m.field, m.rows, m.cols = field, len(ints), cols
    m._ints, m._den, m._rref = ints, den, None
    return m if m.rows and cols else field.empties.setdefault((m.rows, cols), m)


def _canon(field: Field, ints: list[list[int]], den: int, cols: int) -> "Mat":
    """The matrix ints / den, den > 0, in canonical storage: over F_p the
    rows reduced mod p over 1, over Q the rows and den divided by their
    gcd."""
    p = field.p
    if p is not None:
        if den != 1:    # a Fraction entry given to the constructor
            inv = pow(den, -1, p)
            ints = [[x * inv for x in r] for r in ints]
        return _wrap(field, [[x % p for x in r] for r in ints], 1, cols)
    if den != 1:
        g = den
        for r in ints:
            g = gcd(g, *r)
            if g == 1:
                break
        else:
            ints, den = [[x // g for x in r] for r in ints], den // g
    return _wrap(field, ints, den, cols)


def _select(field: Field, ints: list[list[int]], den: int, cols: int) -> "Mat":
    """The matrix ints / den, where ints holds entries (and zeros) of the
    integer rows of a matrix stored over den.  Over den 1 they are
    canonical as they stand, in both fields; otherwise a smaller
    denominator may do, so they go through the normaliser."""
    return _wrap(field, ints, 1, cols) if den == 1 else _canon(field, ints, den, cols)


def _over(m: "Mat", den: int) -> list[list[int]]:
    """m's integer rows over den, a multiple of m's denominator."""
    s = den // m._den
    return m._ints if s == 1 else [[x * s for x in r] for r in m._ints]


def _drop(field: Field, ints: list[list[int]], den: int) -> list[list]:
    """The entries of ints / den as field elements, in fresh rows."""
    if not field.is_rational:
        return [r[:] for r in ints]
    small = _SMALL
    if den == 1:
        return [[small[x] if x in small else Fraction(x) for x in row]
                for row in ints]
    out = []
    for row in ints:
        frow = []
        for x in row:
            g = gcd(x, den)
            if g == den:
                x //= den
                frow.append(small[x] if x in small else Fraction(x))
            else:
                # lowest terms with a positive denominator, as Fraction keeps
                # them, without Fraction's own argument checks
                f = object.__new__(Fraction)
                f._numerator, f._denominator = x // g, den // g
                frow.append(f)
        out.append(frow)
    return out


def _row_length(data: list[list], cols: int | None) -> int:
    """The common length of the rows of data, which must agree with cols
    when cols is given; an empty data needs cols."""
    if data:
        if cols is not None and cols != len(data[0]):
            raise ValueError("declared column count disagrees with data")
        cols = len(data[0])
        if len(data) > 1 and set(map(len, data)) != {cols}:
            bad = next(i for i, row in enumerate(data) if len(row) != cols)
            raise ValueError(f"row {bad} has {len(data[bad])} entries, "
                             f"not {cols}")
    elif cols is None:
        raise ValueError("empty matrix needs an explicit column count")
    return cols


def _matmul_rows(a: list[list[int]], b: list[list[int]], n: int,
                 p: int | None = None) -> list[list[int]]:
    """a @ b on int rows with n columns, skipping zero entries of a; with a
    modulus p, each output row is reduced mod p as it is finished."""
    out = []
    for row in a:
        acc = [0] * n
        for k, x in enumerate(row):
            if x:
                acc = [s + x * y for s, y in zip(acc, b[k])]
        out.append(acc if p is None else [s % p for s in acc])
    return out


class Mat:
    """A rows x cols matrix over `field`, stored as integer rows over one
    denominator (see the module docstring) and never written after
    construction.

    The storage belongs to this module: code outside `linalg` builds and
    reads matrices only through the methods and functions here
    (`Mat(F, rows, cols)`, `from_rows`, `from_ints`, `to_rows`, `row`,
    `data`, `trace`, `block`, `from_blocks`, `reshape`, `flatten`,
    `swap_factors`, `nonzero_rows` and the arithmetic), which take and
    return field elements.  The echelon form is cached in `_rref`."""

    __slots__ = ("field", "rows", "cols", "_ints", "_den", "_rref")

    def __new__(cls, field: Field, data: list[list], cols: int | None = None):
        """The matrix with the given rows of field elements (ints are read
        into the field).  Every row must have the same length."""
        cols = _row_length(data, cols)
        den = lcm(*{x.denominator for row in data for x in row})
        ints = [[x.numerator * (den // x.denominator) for x in row] for row in data]
        return _canon(field, ints, den, cols)

    def __reduce__(self):
        # a copy or an unpickled matrix is minted like any other
        return _wrap, (self.field, self._ints, self._den, self.cols)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows: list[list], cols: int | None = None) -> "Mat":
        return Mat(field, rows, cols)

    @staticmethod
    def from_ints(field: Field, rows: list[list[int]], cols: int | None = None) -> "Mat":
        """The matrix `Mat(field, rows, cols)` for rows of Python ints (no
        bools), read straight into integer storage with no field element
        per entry: over Q as they are, over F_p reduced mod p.  The rows
        are copied."""
        cols = _row_length(rows, cols)
        p = field.p
        ints = ([r[:] for r in rows] if p is None
                else [[x % p for x in r] for r in rows])
        return _wrap(field, ints, 1, cols)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return _wrap(field, [[0] * cols for _ in range(rows)], 1, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return _wrap(field, [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)], 1, n)

    def copy(self) -> "Mat":
        """The same matrix with no cached echelon form; an empty one is the
        shared instance, whose echelon form costs nothing to keep."""
        return _wrap(self.field, self._ints, self._den, self.cols)

    # -- basic queries ------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field is other.field
                and self.rows == other.rows and self.cols == other.cols
                and self._den == other._den and self._ints == other._ints)

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"

    def is_zero(self) -> bool:
        return not any(map(any, self._ints))

    def nonzero_rows(self) -> list[int]:
        """The indices of the rows that are not zero, in order."""
        return [i for i, row in enumerate(self._ints) if any(row)]

    @property
    def data(self) -> list[list]:
        """The entries as fresh row lists, read-only like `to_rows`."""
        return _drop(self.field, self._ints, self._den)

    def row(self, i: int) -> list:
        return _drop(self.field, [self._ints[i]], self._den)[0]

    def to_rows(self) -> list[list]:
        """The entries as fresh row lists; `from_rows` takes them back."""
        return _drop(self.field, self._ints, self._den)

    def trace(self):
        s = sum(self._ints[d][d] for d in range(min(self.rows, self.cols)))
        return _canon(self.field, [[s]], self._den, 1).row(0)[0]

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "Mat":
        """Rows r0..r1-1 and columns c0..c1-1, as a new matrix."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise ValueError(f"block [{r0}:{r1}, {c0}:{c1}] outside a "
                             f"{self.rows}x{self.cols} matrix")
        return _select(self.field, [row[c0:c1] for row in self._ints[r0:r1]],
                       self._den, c1 - c0)

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries, read and written row-major, as rows x cols."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} "
                             f"to {rows}x{cols}")
        flat = [x for row in self._ints for x in row]
        return _wrap(self.field, [flat[i * cols:(i + 1) * cols] for i in range(rows)],
                     self._den, cols)

    def flatten(self) -> "Mat":
        """The entries as one row vector, row-major."""
        return self.reshape(1, self.rows * self.cols)

    def swap_factors(self, a: int, b: int) -> "Mat":
        """The rows, indexed (i, j) -> i * b + j on a (x) b, re-indexed to
        (j, i) -> j * a + i on b (x) a: the map precomposed with the swap
        of the two tensor factors."""
        if a * b != self.rows:
            raise ValueError(f"cannot swap factors {a} x {b} of {self.rows} rows")
        ints = self._ints
        return _wrap(self.field,
                     [ints[i * b + j] for j in range(b) for i in range(a)],
                     self._den, self.cols)

    # -- arithmetic ---------------------------------------------------

    def _same_field(self, other: "Mat"):
        if self.field is not other.field:
            raise FieldMismatch("matrices over different fields")

    def _combine(self, other: "Mat", sign: int, op: str) -> "Mat":
        """self + sign * other, for sign = 1 or -1."""
        self._same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {op}")
        p = self.field.p
        if p is not None:
            ints = [[(x + sign * y) % p for x, y in zip(r1, r2)]
                    for r1, r2 in zip(self._ints, other._ints)]
            return _wrap(self.field, ints, 1, self.cols)
        da, db = self._den, other._den
        den = lcm(da, db)
        sa, sb = den // da, sign * (den // db)
        ints = [[x * sa + y * sb for x, y in zip(r1, r2)]
                for r1, r2 in zip(self._ints, other._ints)]
        return _canon(self.field, ints, den, self.cols)

    def add(self, other: "Mat") -> "Mat":
        return self._combine(other, 1, "add")

    def sub(self, other: "Mat") -> "Mat":
        return self._combine(other, -1, "sub")

    def scale(self, c) -> "Mat":
        """c * self, for an int or a field element c."""
        n = c.numerator
        ints = [[n * x for x in row] for row in self._ints]
        return _canon(self.field, ints, self._den * c.denominator, self.cols)

    def neg(self) -> "Mat":
        return self.scale(-1)

    def matmul(self, other: "Mat") -> "Mat":
        self._same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in matmul: {self.cols} vs {other.rows}")
        p = self.field.p
        ints = _matmul_rows(self._ints, other._ints, other.cols, p)
        if p is not None:
            return _wrap(self.field, ints, 1, other.cols)
        return _canon(self.field, ints, self._den * other._den, other.cols)

    def __matmul__(self, other: "Mat") -> "Mat":
        return self.matmul(other)

    def transpose(self) -> "Mat":
        if self.rows == 0 or self.cols == 0:
            return Mat.zeros(self.field, self.cols, self.rows)
        return _wrap(self.field, [list(col) for col in zip(*self._ints)], self._den,
                     self.rows)

    # -- block operations ----------------------------------------------
    # The lcm of canonical denominators is the canonical denominator of the
    # assembled matrix, so these need no normaliser.

    @staticmethod
    def hstack(mats: list["Mat"]) -> "Mat":
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValueError("hstack: row counts differ")
        den = lcm(*(m._den for m in mats))
        parts = [_over(m, den) for m in mats]
        return _wrap(mats[0].field, [sum(r, []) for r in zip(*parts)], den,
                     sum(m.cols for m in mats))

    @staticmethod
    def vstack(mats: list["Mat"]) -> "Mat":
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("vstack: column counts differ")
        den = lcm(*(m._den for m in mats))
        return _wrap(mats[0].field, [r for m in mats for r in _over(m, den)], den, cols)

    @staticmethod
    def block_diag(mats: list["Mat"]) -> "Mat":
        cols = sum(m.cols for m in mats)
        den = lcm(*(m._den for m in mats))
        ints = []
        c0 = 0
        for m in mats:
            pad = [0] * (cols - c0 - m.cols)
            ints.extend([0] * c0 + r + pad for r in _over(m, den))
            c0 += m.cols
        return _wrap(mats[0].field, ints, den, cols)

    @staticmethod
    def from_blocks(field: Field, row_dims: list[int], col_dims: list[int],
                    blocks: list[list["Mat | None"]]) -> "Mat":
        """The block matrix with blocks[i][j], a row_dims[i] x col_dims[j]
        matrix, in row band i and column band j; None is a zero block."""
        for rd, band in zip(row_dims, blocks, strict=True):
            for m, cd in zip(band, col_dims, strict=True):
                if m is not None:
                    if m.field is not field:
                        raise FieldMismatch("from_blocks over mixed fields")
                    if (m.rows, m.cols) != (rd, cd):
                        raise ValueError("from_blocks: a block disagrees with "
                                         "its band sizes")
        den = lcm(*(m._den for band in blocks for m in band if m is not None))
        ints = []
        for rd, band in zip(row_dims, blocks):
            parts = [None if m is None else _over(m, den) for m in band]
            for i in range(rd):
                row = []
                for p, cd in zip(parts, col_dims):
                    row.extend([0] * cd if p is None else p[i])
                ints.append(row)
        return _wrap(field, ints, den, sum(col_dims))

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; row index (i, k) -> i * other.rows + k.

        Matches the row-major tensor basis used for all tensor spaces:
        (u (x) v) @ (A kron B) = (u @ A) (x) (v @ B).
        """
        self._same_field(other)
        cols = self.cols * other.cols
        p = self.field.p
        if p is not None:
            ints = [[x * y % p for x in ar for y in br]
                    for ar in self._ints for br in other._ints]
            return _wrap(self.field, ints, 1, cols)
        ints = [[x * y for x in ar for y in br]
                for ar in self._ints for br in other._ints]
        return _canon(self.field, ints, self._den * other._den, cols)


# -- row reduction -----------------------------------------------------


def _combination(a: int, u: list[int], b: int, v: list[int],
                 p: int | None) -> list[int]:
    """The row a·u - b·v, normalised: over Z (p None) divided by its
    content (a row that cancels to zero has content 0 and stays zero),
    over F_p reduced mod p."""
    if p is None:
        row = [a * x - b * y for x, y in zip(u, v)]
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row
    return [(a * x - b * y) % p for x, y in zip(u, v)]


def _leading(row: list[int], c: int, p: int | None) -> list[int]:
    """The nonzero row, led by column c, scaled so that row[c] is its
    canonical denominator: over Z primitive with row[c] > 0, over F_p
    with row[c] = 1."""
    if p is None:
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        return row if g == 1 else [x // g for x in row]
    s = pow(row[c], -1, p)
    return row if s == 1 else [x * s % p for x in row]


def _rref(ints: list[list[int]], p: int | None) -> tuple[list[list[int]], int, list[int]]:
    """Row reduction over Z (p None, for Q) or over F_p: (reduced rows
    over their canonical denominator, that denominator, pivot columns).
    The input rows are left as they are.  Scaling a matrix keeps its
    echelon form, so the stored denominator plays no part.

    The forward pass pivots on the first nonzero of each column and
    scales the pivot row by `_leading` (a row that leads with 1 is
    already as `_leading` leaves it).  Then only the rows with a
    nonzero f in the pivot column change: such a row becomes
    (piv/g)·row - (f/g)·(pivot row), with g = gcd(piv, f), normalised by
    `_combination`.  So a pivot costs in proportion to the rows it
    clears, not to all the rows below it.  The field enters only in
    those two normalisations.  Over F_p every entry stays in [0, p).
    Over Z every row stays a multiple of its Gaussian-elimination row,
    and the Bareiss (fraction-free) row, whose entries are minors of the
    input, is an integer multiple of the same primitive row; so no entry
    outgrows Bareiss's bound."""
    m = list(ints)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mr = m[pr]
        if mr[c] != 1:
            mr = _leading(mr, c, p)
        # row r, which the pivot row replaces, is zero in column c (unless
        # it is the pivot row), as are the rows between them
        m[pr], m[r] = m[r], mr
        piv = mr[c]
        for i in range(pr + 1, nrows):
            f = m[i][c]
            if f:
                g = gcd(piv, f)
                m[i] = _combination(piv // g, m[i], f // g, mr, p)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # Bottom up, reduced row i is e / d: e is zero in every other pivot
    # column and d = e[pivots[i]] is the row's canonical denominator, as
    # `_leading` made it (a combination with dj / g > 0 keeps e primitive
    # over Z, and keeps d = 1 over F_p); the lcm of the d is the matrix's.
    red = [None] * r
    for i in range(r - 1, -1, -1):
        e = m[i]
        for j in range(i + 1, r):
            f = e[pivots[j]]
            if f:
                ej, dj = red[j]
                g = gcd(f, dj)
                e = _combination(dj // g, e, f // g, ej, p)
        red[i] = (e, e[pivots[i]])
    den = lcm(*(d for _, d in red))
    return [e if d == den else [x * (den // d) for x in e] for e, d in red], den, pivots


def _reduced_pivots(ints: list[list[int]], den: int) -> list[int] | None:
    """The pivot columns of ints / den when it is already in reduced row
    echelon form with no zero row (a matrix with no rows is), else None:
    each row leads with den, further right than the row above, in a column
    that is zero in the rows above (the rows below lead further right)."""
    piv = []
    for i, row in enumerate(ints):
        c = next((c for c, x in enumerate(row) if x), None)
        if (c is None or row[c] != den or (piv and c <= piv[-1])
                or any(r[c] for r in ints[:i])):
            return None
        piv.append(c)
    return piv


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form (zero rows dropped) and pivot columns.  A
    matrix already in that form is recognised by one scan, and a zero
    matrix (one with no columns, say) has the form with no rows, so
    neither is eliminated; the form is unique, so the result is the same."""
    if m._rref is None:
        F = m.field
        piv = _reduced_pivots(m._ints, m._den)
        if piv is not None:
            m._rref = (None, tuple(piv))
        else:
            ints, den, piv = ([], 1, []) if m.is_zero() else _rref(m._ints, F.p)
            R = _wrap(F, ints, den, m.cols)
            # R is its own echelon form: None stands for R itself, so that
            # no reference cycle outlives the caller's last use of R
            R._rref = (None, tuple(piv))
            m._rref = (R, tuple(piv))
    cached = m._rref
    return cached if cached[0] is not None else (m, cached[1])


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Mat) -> Mat:
    """Columns form a basis of the right null space {x : m @ x = 0}."""
    return _kernel_and_free(m)[0]


def _kernel_and_free(m: Mat) -> tuple[Mat, list[int]]:
    """kernel_basis(m) and the non-pivot columns of m's echelon form,
    one per kernel column."""
    R, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    ints = [[0] * len(free) for _ in range(m.cols)]
    for k, c in enumerate(free):
        ints[c][k] = R._den
        for i, pc in enumerate(pivots):
            ints[pc][k] = -R._ints[i][c]
    return _canon(m.field, ints, R._den, len(free)), free


def quotient_maps(rel_rows: Mat) -> tuple[Mat, Mat]:
    """(projection, canonical section) for k^n modulo the row span of
    rel_rows, n = rel_rows.cols.

    The quotient lives on the non-pivot coordinates of the span's reduced
    echelon form: the projection is kernel_basis(rel_rows), and the section
    lifts quotient coordinates to the matching unit vectors, so
    sec @ proj = identity."""
    n = rel_rows.cols
    proj, free = _kernel_and_free(rel_rows)
    return proj, _wrap(rel_rows.field, [[0] * c + [1] + [0] * (n - 1 - c) for c in free],
                       1, n)


def linear_combination(field: Field, rows: int, cols: int, coeffs: list,
                       mats: list[Mat]) -> Mat:
    """sum_t coeffs[t] * mats[t], for rows x cols matrices and int or
    field-element coefficients, in one pass over the integer rows.  Zero
    coefficients are skipped; a lone coefficient 1 returns its matrix
    itself."""
    terms = [(c, m) for c, m in zip(coeffs, mats, strict=True) if c]
    for _, m in terms:
        if m.field is not field:
            raise FieldMismatch("linear_combination over mixed fields")
        if (m.rows, m.cols) != (rows, cols):
            raise ValueError("shape mismatch in linear_combination")
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    den = lcm(*(c.denominator * m._den for c, m in terms))
    acc = [[0] * cols for _ in range(rows)]
    p = field.p
    for t, (c, m) in enumerate(terms, 1):
        f = c.numerator * (den // (c.denominator * m._den))
        if p is not None and t == len(terms):   # the last term reduces mod p
            acc = [[(s + f * x) % p for s, x in zip(ar, r)]
                   for ar, r in zip(acc, m._ints)]
        else:
            acc = [[s + f * x for s, x in zip(ar, r)] for ar, r in zip(acc, m._ints)]
    if p is not None:
        return _wrap(field, acc, 1, cols)
    return _canon(field, acc, den, cols)


def _nonsingular(m: list[list[int]], p: int | None) -> bool:
    """Whether the square int rows m (consumed) are nonsingular over Q (p
    None) or over F_p: a forward pass that stops at the first column with
    no pivot.  After each pivot the column is dropped from the rows that
    stay, which `_combination` keeps primitive over Z and in [0, p) over
    F_p."""
    while m:
        pr = next((i for i, row in enumerate(m) if row[0]), None)
        if pr is None:
            return False
        mr = m.pop(pr)
        piv = mr[0]
        for i, row in enumerate(m):
            f = row[0]
            if f:
                g = gcd(piv, f)
                row = _combination(piv // g, row, f // g, mr, p)
            m[i] = row[1:]
    return True


def first_invertible_combination(mats: list[Mat], grid) -> tuple | None:
    """The first coefficient tuple c of `grid`, an iterable of int tuples,
    whose combination sum_j c_j mats[j] of square matrices is invertible,
    or None when none is.  Each candidate is built and tested on integer
    rows over the matrices' common denominator, with no `Mat` and no
    echelon form, and its test stops at the first column with no pivot.
    The grid is read one tuple at a time, so a lazy one is drawn only up
    to the winner."""
    F = mats[0].field
    p, n = F.p, mats[0].rows
    for m in mats:
        if m.field is not F:
            raise FieldMismatch("first_invertible_combination over mixed fields")
        if (m.rows, m.cols) != (n, n):
            raise ValueError("first_invertible_combination needs square matrices "
                             "of one size")
    den = lcm(*(m._den for m in mats))
    flats = [[x for r in _over(m, den) for x in r] for m in mats]
    for coeffs in grid:
        acc = [0] * (n * n)
        for c, flat in zip(coeffs, flats, strict=True):
            if c:
                acc = [s + c * x for s, x in zip(acc, flat)]
        if p is not None:
            acc = [s % p for s in acc]
        if _nonsingular([acc[i * n:(i + 1) * n] for i in range(n)], p):
            return tuple(coeffs)
    return None


def intertwining_system(field: Field, dp: int, dq: int, ps: list[Mat],
                        qs: list[Mat]) -> Mat:
    """The stacked rows P_t (x) 1 - 1 (x) Q_t, for P_t dp x dp and Q_t
    dq x dq: a dp*dq vector v, read row-major as a dp x dq matrix V, is
    in its right kernel exactly when P_t V = V Q_t^T for every t.  With
    Q_t = Y_t^T that is the module-hom condition X_t V = V Y_t; with
    Q_t = L_t the rows are the middle relations of a balanced tensor.

    Row (i, k) holds P_t[i][j] at column (j, k) and -Q_t[k][l] at column
    (i, l), so each row is written from the nonzeros of row i of P_t and
    row k of Q_t, on integer rows over one common denominator.  Over F_p
    only the cells that receive a -Q_t entry can leave [0, p), so only
    they are reduced."""
    n = dp * dq
    den = lcm(*(m._den for m in (*ps, *qs)))
    p = field.p
    out = []
    for pm, qm in zip(ps, qs, strict=True):
        pnz = [[(j * dq, x) for j, x in enumerate(r) if x] for r in _over(pm, den)]
        qnz = [[(l, y) for l, y in enumerate(r) if y] for r in _over(qm, den)]
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
    return _wrap(field, out, 1, n) if p is not None else _canon(field, out, den, n)


def left_kernel(m: Mat) -> Mat:
    """Rows form the canonical basis of {x : x @ m = 0}."""
    ker = kernel_basis(m.transpose()).transpose()
    return row_space(ker)


def row_space(m: Mat) -> Mat:
    """Canonical (RREF) basis of the row space, as rows."""
    R, _ = rref(m)
    return R


def solve(a: Mat, b: Mat) -> Mat | None:
    """One exact solution x of a @ x = b, or None if inconsistent."""
    if a.field is not b.field:
        raise FieldMismatch("solve over mixed fields")
    if a.rows != b.rows:
        raise ValueError("solve: row counts differ")
    aug = Mat.hstack([a, b])
    R, pivots = rref(aug)
    if any(p >= a.cols for p in pivots):
        return None
    ints = [[0] * b.cols for _ in range(a.cols)]
    for i, p in enumerate(pivots):
        ints[p] = R._ints[i][a.cols:]
    return _select(a.field, ints, R._den, b.cols)


def solve_left(a: Mat, b: Mat) -> Mat | None:
    """One exact solution x of x @ a = b, or None."""
    xt = solve(a.transpose(), b.transpose())
    return None if xt is None else xt.transpose()


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
    if basis.field is not vectors.field:
        raise FieldMismatch("coordinates over mixed fields")
    if basis.cols != vectors.cols:
        raise ValueError("coordinates: column counts differ")
    F = basis.field
    units = _unit_columns(basis._ints, basis._den)
    x = [[r[c] for c in units] for r in vectors._ints]    # over vectors._den
    prod = _matmul_rows(x, basis._ints, basis.cols)
    if _canon(F, prod, vectors._den * basis._den, vectors.cols) != vectors:
        return None
    return _select(F, x, vectors._den, len(units))


def factor_through(proj: Mat, mats: list[Mat]) -> list[Mat] | None:
    """The Z_i with proj @ Z_i == mats[i], or None when some mats[i] does
    not factor through proj.

    Precondition: proj is a `kernel_basis`, or a product of kernel bases
    (the projection onto an iterated tensor quotient, say), so that its
    transpose has a unit column in every row (see `coordinates`).  Such a
    proj has full column rank, so each Z_i is unique; all of them come
    from one `coordinates` call on the transposes.  An empty projection
    (no columns) needs no call: the only Z_i is 0 x mats[i].cols, and it
    factors mats[i] exactly when mats[i] is zero."""
    if not mats:
        return []
    if proj.cols == 0:
        for m in mats:
            if m.field is not proj.field:
                raise FieldMismatch("factor_through over mixed fields")
            if m.rows != proj.rows:
                raise ValueError("factor_through: row counts differ")
        if not all(m.is_zero() for m in mats):
            return None
        return [Mat.zeros(proj.field, 0, m.cols) for m in mats]
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
