"""Finite-dimensional associative unital algebras via structure constants.

An algebra is a basis b_0..b_{n-1} with products b_i b_j = sum_k c[i][j][k] b_k
and a distinguished unit vector.  Elements are coordinate lists.

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
    quotient_maps, row_space,
)


class AlgebraError(ValueError):
    pass


# arguments keyed by value; any other argument is keyed by its id
_BY_VALUE = (int, str, bool, float, type(None))


def memo(f=None, *, on: int = 0):
    """The package's one memo of derived values.  f(*args) is kept on the
    `_cache` of its argument number `on`, the holder, and lives as long as
    the holder does.  The entry is keyed by f and the other arguments, with
    defaults filled in, so a positional and a keyword call share it:
    numbers, strings and None by value, any other object by id.  Those
    objects are held in the entry, so a reused id cannot hit, and a hit
    returns the very instance that was stored.  An exception is not stored.

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
        key, held = (f,), ()
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

    cached.put, cached.get = put, get
    return cached


@dataclass
class Algebra:
    field: Field
    dim: int
    mul: list[list[list]]          # mul[i][j] = coords of b_i * b_j
    unit: list                     # coords of 1
    name: str = ""
    # `memo` entries: equality is that of the structure, not of what was
    # computed, and a dataclasses.replace copy starts with none
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        n = self.dim
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise AlgebraError("structure constant table has wrong shape")
        if any(len(self.mul[i][j]) != n for i in range(n) for j in range(n)):
            raise AlgebraError("structure constant entries have wrong length")
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

    def multiply(self, a: list, b: list) -> list:
        F = self.field
        out = self.zero_el()
        for i, ai in enumerate(a):
            if F.is_zero(ai):
                continue
            for j, bj in enumerate(b):
                if F.is_zero(bj):
                    continue
                c = F.mul(ai, bj)
                row = self.mul[i][j]
                for k in range(self.dim):
                    if not F.is_zero(row[k]):
                        out[k] = F.add(out[k], F.mul(c, row[k]))
        return out

    @memo
    def lmul_mats(self) -> list[Mat]:
        """Left multiplication by each basis element, as row-action matrices."""
        return [Mat(self.field, [self.mul[t][i][:] for i in range(self.dim)], self.dim)
                for t in range(self.dim)]

    @memo
    def rmul_mats(self) -> list[Mat]:
        """Right multiplication by each basis element."""
        return [Mat(self.field, [self.mul[i][t][:] for i in range(self.dim)], self.dim)
                for t in range(self.dim)]

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
    out = []
    n = a.dim
    for i in range(n):
        for j in range(n):
            ij = a.mul[i][j]
            for k in range(n):
                left = a.multiply(ij, a.basis_el(k))
                right = a.multiply(a.basis_el(i), a.mul[j][k])
                if left != right:
                    out.append(Violation("associativity", (i, j, k)))
    for i in range(n):
        e = a.basis_el(i)
        if a.multiply(a.unit, e) != e:
            out.append(Violation("unit", (i,), "1*b != b"))
        if a.multiply(e, a.unit) != e:
            out.append(Violation("unit", (i,), "b*1 != b"))
    return out


@memo
def opposite_algebra(a: Algebra) -> Algebra:
    """Opposite algebra; cached both ways, so it is an involution on
    instances."""
    op = Algebra(a.field, a.dim,
                 [[a.mul[j][i][:] for j in range(a.dim)] for i in range(a.dim)],
                 a.unit[:], name=f"{a.name}^op" if a.name else "op")
    opposite_algebra.put(a, op)
    return op


@memo
def generating_subset(a: Algebra) -> list[int]:
    """Indices of basis elements generating a as a unital algebra.

    Intertwiner computations and the module laws only need constraints
    for a generating set, which keeps the linear systems small.  Memoized
    on a; callers only read the list.
    """
    F = a.field
    span = row_space(Mat.from_rows(F, [a.unit], a.dim))
    gens: list[int] = []
    for i in range(a.dim):
        e = Mat.from_rows(F, [a.basis_el(i)], a.dim)
        if in_row_space(span, e):
            continue
        gens.append(i)
        # close the span under products with everything already present
        while True:
            rows = span.to_rows()
            for u in list(rows):
                for g in gens:
                    rows.append(a.multiply(u, a.basis_el(g)))
                    rows.append(a.multiply(a.basis_el(g), u))
            new_span = row_space(Mat.from_rows(F, rows, a.dim))
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
    mul = _products_in(a, basis, "span")
    return Algebra(a.field, basis.rows, mul, unit_c.row(0), name=name), basis


def _products_in(a: Algebra, basis: Mat, what: str) -> list:
    """The structure constants of the products of the rows of `basis`, a
    canonical row basis, in that basis, found in one batch; the first pair
    (i, j) whose product leaves the span is named in the error."""
    q = basis.rows
    prods = Mat.from_rows(a.field, [a.multiply(basis.row(i), basis.row(j))
                                    for i in range(q) for j in range(q)], a.dim)
    c = coordinates(basis, prods)
    if c is None:
        i, j = next(divmod(r, q) for r in range(q * q) if coordinates(
            basis, prods.block(r, r + 1, 0, a.dim)) is None)
        raise AlgebraError(f"{what} not closed under multiplication at ({i},{j})")
    return [[c.row(i * q + j) for j in range(q)] for i in range(q)]


def corner_algebra(a: Algebra, eps: list, name: str = "") -> tuple[Algebra, Mat]:
    """The corner eps * a * eps as an algebra with unit eps.

    Returns (corner algebra on the canonical basis, inclusion matrix).
    """
    rows = row_space(Mat.from_rows(
        a.field, [a.multiply(a.multiply(eps, a.basis_el(i)), eps) for i in range(a.dim)],
        a.dim))
    unit_c = coordinates(rows, Mat.from_rows(a.field, [eps], a.dim))
    if unit_c is None:
        raise AlgebraError("idempotent does not lie in its own corner")
    mul = _products_in(a, rows, "corner")
    return Algebra(a.field, rows.rows, mul, unit_c.row(0), name=name), rows


def quotient_algebra(a: Algebra, ideal_rows: Mat, name: str = "") -> tuple[Algebra, Mat]:
    """Quotient by a two-sided ideal given as a row span.

    Returns (quotient algebra, projection matrix a -> quotient); the
    quotient basis is the set of non-pivot coordinates of the ideal's
    reduced echelon form, so it is canonical.
    """
    F = a.field
    R = row_space(ideal_rows)
    for t in range(a.dim):
        if not in_row_space(R, R @ a.lmul_mats()[t]) or not in_row_space(R, R @ a.rmul_mats()[t]):
            raise AlgebraError("row span is not a two-sided ideal")
    proj, lift = quotient_maps(R)
    q = proj.cols
    # products of quotient basis elements via arbitrary lifts
    mul = []
    for i in range(q):
        rowi = []
        for j in range(q):
            prod = a.multiply(lift.row(i), lift.row(j))
            rowi.append((Mat.from_rows(F, [prod], a.dim) @ proj).row(0))
        mul.append(rowi)
    unit = (Mat.from_rows(F, [a.unit], a.dim) @ proj).row(0)
    return Algebra(F, q, mul, unit, name=name), proj


class UnsupportedField(AlgebraError):
    """The chosen algorithm does not apply over this field."""


def trace_form(a: Algebra) -> Mat:
    """T[i][j] = trace of left multiplication by b_i b_j on the regular
    module, sum_k c[i][j][k] tr(L_{b_k}): the n^2 x n stacked structure
    constants times the column of traces, read as n x n."""
    F, n = a.field, a.dim
    consts = Mat(F, [a.mul[i][j] for i in range(n) for j in range(n)], n)
    traces = Mat(F, [[m.trace()] for m in a.lmul_mats()], 1)
    return (consts @ traces).reshape(n, n)


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


def nilpotency_index(a: Algebra, rows: Mat, cap: int | None = None) -> int | None:
    """Least m with span^m = 0 under products, or None if not nilpotent by cap."""
    cap = cap if cap is not None else a.dim + 1
    cur = row_space(rows)
    m = 1
    while cur.rows:
        if m > cap:
            return None
        prods = []
        for i in range(cur.rows):
            for j in range(rows.rows):
                prods.append(a.multiply(cur.row(i), rows.row(j)))
        cur = row_space(Mat.from_rows(a.field, prods, a.dim)) if prods else \
            Mat.zeros(a.field, 0, a.dim)
        m += 1
    return m


def ideal_closure(a: Algebra, rows: Mat) -> Mat:
    """Smallest two-sided ideal containing the row span."""
    span = row_space(rows)
    while True:
        prods = span.to_rows()
        for i in range(span.rows):
            for t in range(a.dim):
                prods.append((Mat.from_rows(a.field, [span.row(i)], a.dim)
                              @ a.lmul_mats()[t]).row(0))
                prods.append((Mat.from_rows(a.field, [span.row(i)], a.dim)
                              @ a.rmul_mats()[t]).row(0))
        new = row_space(Mat.from_rows(a.field, prods, a.dim))
        if new.rows == span.rows:
            return new
        span = new
