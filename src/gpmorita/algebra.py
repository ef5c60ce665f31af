"""Finite-dimensional associative unital algebras via structure constants.

An algebra is a basis b_0..b_{n-1} and a distinguished unit vector;
elements are coordinate lists.  The product is stored as one n^2 x n
matrix, `consts`: row i*n + j holds the coordinates of b_i b_j.  Every
product job is then a whole-matrix operation: a product of elements is
(a (x) b) @ consts, the left multiplications are the n row blocks of
consts, the opposite algebra is consts with its two factors swapped, and
subalgebras, corners, quotients and the associativity check are products
of consts with Kronecker squares and stacks.

The package's block rings (the Morita context ring, Lambda |x I and the
noncommutative tensor ring) are built by one function, `glued_algebra`:
the basis is a sequence of blocks, and a table P of shape
(d_s * d_t) x d_u gives the products of block s with block t, landing in
block u; row i * d_t + j of P is b_i b_j.

Matrix convention (package-wide): maps act on row vectors from the right.
Left multiplication by a, L_a : x |-> a x, then satisfies L_{ab} = L_b @ L_a
as matrices, while right multiplication R_a : x |-> x a satisfies
R_{ab} = R_a @ R_b.
"""
from __future__ import annotations

import functools
import inspect
import operator
from dataclasses import dataclass, field as dc_field

from .fields import Field
from .linalg import (
    Mat, coordinates, in_row_space, left_kernel, linear_combination,
    quotient_maps, rank, row_space,
)


class AlgebraError(ValueError):
    pass


# arguments keyed by value; any other argument is keyed by its id
_BY_VALUE = (int, str, bool, float, type(None))


def memo(f=None, *, on: int = 0):
    """The package's one memo of derived values.  f(*args) is kept on the
    `_cache` of its argument number `on`, the holder, and lives as long as
    the holder does.  The entry is keyed by the memoized function (the
    one its name finds, so a holder pickles) and the other arguments, with
    defaults filled in, so a positional and a keyword call share it:
    numbers, strings and None by value, any other object by id.  Those
    objects are held in the entry, so a reused id cannot hit, and a hit
    returns the very instance that was stored.  An exception is not stored.
    A function of one parameter, called with one positional argument, finds
    its entry, keyed by the function alone, by one dict lookup.

    `f.put(value, *args)` records a value known without computing it, such
    as the reverse of an involution; `f.get(*args)` reads an entry without
    computing one (None when there is none)."""
    if f is None:
        return functools.partial(memo, on=on)
    sig = inspect.signature(f)
    defaults = tuple(p.default for p in sig.parameters.values())
    n = len(defaults)
    required = sum(d is inspect.Parameter.empty for d in defaults)

    def find(args, kw):
        """The holder's cache, the key and the held objects of a call, and
        the entry stored for it or None."""
        if kw or not required <= len(args) <= n:
            bound = sig.bind(*args, **kw)
            bound.apply_defaults()
            args = tuple(bound.arguments.values())
        elif len(args) < n:
            args += defaults[len(args):]
        key, held = (cached,), ()
        for v in args[:on] + args[on + 1:]:
            if type(v) in _BY_VALUE:
                key += (v,)
            else:
                key += (id(v),)
                held += (v,)
        cache = args[on]._cache
        entry = cache.get(key)
        if entry is not None and not all(map(operator.is_, entry[0], held)):
            entry = None
        return cache, key, held, entry

    @functools.wraps(f)
    def cached(*args, **kw):
        if alone and len(args) == 1 and not kw:
            entry = args[0]._cache.get(alone)
            if entry is not None:
                return entry[1]
        cache, key, held, entry = find(args, kw)
        if entry is None:
            entry = cache[key] = (held, f(*args, **kw))
        return entry[1]

    def put(value, *args, **kw):
        cache, key, held, _ = find(args, kw)
        cache[key] = (held, value)

    def get(*args, **kw):
        entry = find(args, kw)[3]
        return None if entry is None else entry[1]

    alone = (cached,) if n == 1 else None
    cached.put, cached.get = put, get
    return cached


@dataclass
class Algebra:
    field: Field
    dim: int
    consts: Mat                    # row i * dim + j = coords of b_i * b_j
    unit: list                     # coords of 1
    name: str = ""
    # `memo` entries: equality is that of the structure, not of what was
    # computed, and a dataclasses.replace copy starts with none
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False,
                            compare=False)
    # the parts `homology._idempotents` reads idempotents from, set by their builders
    opposite_of: Algebra | None = dc_field(default=None, init=False, repr=False, compare=False)
    morita_context: object = dc_field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.dim
        if (self.consts.rows, self.consts.cols) != (n * n, n):
            raise AlgebraError("structure constant table has wrong shape")
        if len(self.unit) != n:
            raise AlgebraError("unit vector has wrong length")

    def __repr__(self):
        return f"Algebra({self.name or '?'}, dim={self.dim} over {self.field})"

    # -- element arithmetic on coordinate lists ------------------------

    def zero_el(self) -> list:
        return [self.field.zero()] * self.dim

    def basis_el(self, i: int) -> list:
        e = self.zero_el()
        e[i] = self.field.one()
        return e

    @memo
    def lmul_mats(self) -> list[Mat]:
        """Left multiplication by each basis element, as row-action
        matrices: the n row blocks of consts."""
        n = self.dim
        return [self.consts.block(t * n, (t + 1) * n, 0, n) for t in range(n)]

    @memo
    def rmul_mats(self) -> list[Mat]:
        """Right multiplication by each basis element: left multiplication
        in the opposite algebra."""
        return opposite_algebra(self).lmul_mats()

    def rmul_of(self, a: list) -> Mat:
        return linear_combination(self.field, self.dim, self.dim, a, self.rmul_mats())


@dataclass
class Violation:
    kind: str                      # "associativity" | "unit"
    indices: tuple
    detail: str = ""


def validate_algebra(a: Algebra) -> list[Violation]:
    """Check associativity on all basis triples and both unit laws.  The
    verdict is stored on a, so each instance is checked once; every call
    returns a fresh list."""
    return _algebra_violations(a)[:]


@memo
def _algebra_violations(a: Algebra) -> list[Violation]:
    """Row (i*n + j)*n + k of C @ C.reshape(n, n^2), read as n^3 x n, is
    (b_i b_j) b_k, and row i*n^2 + j*n + k of the stack of the C @ L_i is
    b_i (b_j b_k); the triples are read off the rows where they differ, in
    the order (i, j, k).  The unit laws are (1 (x) b_i) @ C and
    (b_i (x) 1) @ C against b_i."""
    F, n, C = a.field, a.dim, a.consts
    if n == 0:      # the zero algebra: no triple, and no L_i to stack
        return []
    diff = (C @ C.reshape(n, n * n)).reshape(n ** 3, n).sub(
        Mat.vstack([C @ L for L in a.lmul_mats()]))
    out = [Violation("associativity", (r // (n * n), r // n % n, r % n))
           for r in diff.nonzero_rows()]
    unit, eye = Mat.from_rows(F, [a.unit], n), Mat.identity(F, n)
    left = set((unit.kron(eye) @ C).sub(eye).nonzero_rows())
    right = set((eye.kron(unit) @ C).sub(eye).nonzero_rows())
    for i in range(n):
        if i in left:
            out.append(Violation("unit", (i,), "1*b != b"))
        if i in right:
            out.append(Violation("unit", (i,), "b*1 != b"))
    return out


@memo
def opposite_algebra(a: Algebra) -> Algebra:
    """Opposite algebra, b_i * b_j = b_j b_i: consts with its two factors
    swapped.  Cached both ways, so it is an involution on instances."""
    op = Algebra(a.field, a.dim, a.consts.swap_factors(a.dim, a.dim), a.unit[:],
                 name=f"{a.name}^op" if a.name else "op")
    op.opposite_of = a
    opposite_algebra.put(a, op)
    return op


def glued_algebra(F: Field, dims: list[int], tables: dict, unit: list,
                  name: str = "") -> Algebra:
    """The algebra on the concatenated blocks of the given dims whose
    products of block s with block t are tables[(s, t)] = (u, P): row
    i * d_t + j of P, a (d_s * d_t) x d_u matrix, is b_i b_j in block u.
    Pairs without a table multiply to zero.

    The products b_i b_J of block s, in the order (J, i), fall into one
    band of rows per block t of J, holding P with its two factors swapped;
    swapping the factors of the whole band back gives the rows i * n + J
    of consts."""
    n = sum(dims)
    bands = []
    for s, ds in enumerate(dims):
        blocks = [[None] * len(dims) for _ in dims]
        for t, dt in enumerate(dims):
            if (s, t) in tables:
                u, P = tables[(s, t)]
                blocks[t][u] = P.swap_factors(ds, dt)
        bands.append(Mat.from_blocks(F, [dt * ds for dt in dims], dims, blocks)
                     .swap_factors(n, ds))
    return Algebra(F, n, Mat.vstack(bands), unit, name=name)


@memo
def generating_subset(a: Algebra) -> list[int]:
    """Indices of basis elements generating a as a unital algebra.

    Intertwiner computations and the module laws only need constraints
    for a generating set, which keeps the linear systems small.  Memoized
    on a; callers only read the list.

    An algebra of dim <= 1 needs none: its unit spans it.  The unital
    subalgebra generated by some basis elements is the same subspace of
    a and of its opposite, so the scan picks the same list in both, and
    a list already kept on the opposite is reused.
    """
    if a.dim <= 1:
        return []
    op = opposite_algebra.get(a)
    gens = None if op is None else generating_subset.get(op)
    if gens is not None:
        return gens
    F = a.field
    span = row_space(Mat.from_rows(F, [a.unit], a.dim))
    gens: list[int] = []
    for i in range(a.dim):
        e = Mat.from_rows(F, [a.basis_el(i)], a.dim)
        if in_row_space(span, e):
            continue
        gens.append(i)
        # close the span under left products with the generators: it holds
        # 1, so that gives every word in them, a span closed under right
        # products too
        while True:
            new_span = row_space(Mat.vstack(
                [span] + [span @ a.lmul_mats()[g] for g in gens]))
            if new_span.rows == span.rows:
                break
            span = new_span
        if span.rows == a.dim:
            break
    return gens


def subalgebra(a: Algebra, rows: Mat, name: str = "") -> tuple[Algebra, Mat]:
    """Subalgebra on the row span of `rows` (must contain 1, be closed).

    Returns (algebra on the canonical row-space basis, inclusion matrix).
    """
    basis = row_space(rows)
    unit_c = coordinates(basis, Mat.from_rows(a.field, [a.unit], a.dim))
    if unit_c is None:
        raise AlgebraError("subalgebra does not contain the unit")
    consts = _products_in(a, basis, "span")
    return Algebra(a.field, basis.rows, consts, unit_c.row(0), name=name), basis


def _products_in(a: Algebra, basis: Mat, what: str) -> Mat:
    """The structure constants of the products of the rows of `basis`, a
    canonical row basis, in that basis: the coordinates of
    (basis (x) basis) @ consts.  The first pair (i, j) whose product
    leaves the span is named in the error."""
    q = basis.rows
    prods = basis.kron(basis) @ a.consts
    c = coordinates(basis, prods)
    if c is None:
        i, j = next(divmod(r, q) for r in range(q * q) if coordinates(
            basis, prods.block(r, r + 1, 0, a.dim)) is None)
        raise AlgebraError(f"{what} not closed under multiplication at ({i},{j})")
    return c


def corner_algebra(a: Algebra, eps: list, name: str = "") -> tuple[Algebra, Mat]:
    """The corner eps * a * eps as an algebra with unit eps.

    Returns (corner algebra on the canonical basis, inclusion matrix).
    """
    F, n = a.field, a.dim
    rows = row_space(linear_combination(F, n, n, eps, a.lmul_mats()) @ a.rmul_of(eps))
    unit_c = coordinates(rows, Mat.from_rows(F, [eps], n))
    if unit_c is None:
        raise AlgebraError("idempotent does not lie in its own corner")
    consts = _products_in(a, rows, "corner")
    return Algebra(F, rows.rows, consts, unit_c.row(0), name=name), rows


def ideal_products(a: Algebra, rows: Mat) -> Mat:
    """rows @ L_t for every basis element b_t, then rows @ R_t, stacked:
    the products b_t r and r b_t of each row r.  The rows span a two-sided
    ideal exactly when these all lie in their span.  The zero algebra has
    no L_t to stack, and its rows (with no columns) are their own products."""
    if a.dim == 0:
        return rows
    return Mat.vstack([rows @ m for m in (*a.lmul_mats(), *a.rmul_mats())])


def quotient_algebra(a: Algebra, ideal_rows: Mat, name: str = "") -> tuple[Algebra, Mat]:
    """Quotient by a two-sided ideal given as a row span.

    Returns (quotient algebra, projection matrix a -> quotient); the
    quotient basis is the set of non-pivot coordinates of the ideal's
    reduced echelon form, so it is canonical.  The products of quotient
    basis elements are taken through the canonical lifts,
    (lift (x) lift) @ consts @ proj.
    """
    F = a.field
    R = row_space(ideal_rows)
    if not in_row_space(R, ideal_products(a, R)):
        raise AlgebraError("row span is not a two-sided ideal")
    proj, lift = quotient_maps(R)
    consts = lift.kron(lift) @ a.consts @ proj
    unit = (Mat.from_rows(F, [a.unit], a.dim) @ proj).row(0)
    return Algebra(F, proj.cols, consts, unit, name=name), proj


class UnsupportedField(AlgebraError):
    """The chosen algorithm does not apply over this field."""


def trace_form(a: Algebra) -> Mat:
    """T[i][j] = trace of left multiplication by b_i b_j on the regular
    module, sum_k c[i][j][k] tr(L_{b_k}): the n^2 x n stacked structure
    constants times the column of traces, read as n x n."""
    F, n = a.field, a.dim
    traces = Mat(F, [[m.trace()] for m in a.lmul_mats()], 1)
    return (a.consts @ traces).reshape(n, n)


@memo
def frobenius_form(a: Algebra) -> Mat | None:
    """A form lambda on a, as a 1 x n row, whose pairing
    (x, y) |-> lambda(xy) is nondegenerate, or None.  Such a form makes a
    a Frobenius algebra, so A is an injective A-module (Lam, *Lectures on
    Modules and Rings*, ch. 6).  The pairing's matrix lambda(b_i b_j) is
    consts @ lambda^T read as n x n.  The first of three fixed integer
    forms, lambda(b_k) = 1, k + 1 and k^2 + 1, whose pairing has rank n
    is returned.  None proves nothing: a self-injective algebra may have
    no such form among the three."""
    F, n = a.field, a.dim
    for values in ([1] * n, [k + 1 for k in range(n)], [k * k + 1 for k in range(n)]):
        lam = Mat(F, [values], n)
        if rank((a.consts @ lam.transpose()).reshape(n, n)) == n:
            return lam
    return None


@memo
def radical_basis(a: Algebra) -> Mat:
    """Canonical row basis of the Jacobson radical.

    Uses the trace-form kernel, valid in characteristic 0 and in
    characteristic p > dim; other characteristics raise UnsupportedField.
    Memoized on a.
    """
    p = a.field.characteristic
    if p != 0 and p <= a.dim:
        raise UnsupportedField(
            f"radical via trace form needs char 0 or p > dim; got p={p}, dim={a.dim}")
    return left_kernel(trace_form(a))


def ideal_closure(a: Algebra, rows: Mat) -> Mat:
    """Smallest two-sided ideal containing the row span."""
    span = row_space(rows)
    while True:
        new = row_space(Mat.vstack([span, ideal_products(a, span)]))
        if new.rows == span.rows:
            return new
        span = new
