"""Finitely generated left modules over a finite-dimensional algebra.

A module is a list of row-action matrices, one per algebra basis element:
b_t . x = x @ acts[t].  With maps written on the right of elements, the
composite "first f then g" is fg, and a left-module structure satisfies
act(ab) = act(b) @ act(a) as matrices (the one place the row convention
shows a reversal; homs and all displayed block matrices transcribe with
no transposes).

Module laws and hom conditions are checked on the algebra's generators
(`generating_subset`) only.  Once the unit acts as the identity, the
elements s with act(s b) = act(b) @ act(s) for every basis element b form
a subalgebra: it is a subspace, holds 1, and for s, s' in it
act(s s' b) = act(s' b) @ act(s) = act(b) @ act(s') @ act(s)
= act(b) @ act(s s').  So the law holds on all of A once it holds for the
generators, and |G| * dim checks replace dim^2.  Likewise, when both ends
are modules, the elements whose actions a linear map intertwines form a
subalgebra, so a map that intertwines the generators is a module map.
"""
from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field as dc_field
from itertools import product as iter_product

from .algebra import Algebra, generating_subset, memo
from .linalg import (
    Mat, coordinates, factor_through, first_invertible_combination,
    intertwining_system, kernel_basis, left_kernel, linear_combination,
    quotient_maps, rank, row_space, solve_left,
)


class ModuleError(ValueError):
    pass


class Undetermined(RuntimeError):
    """A bounded search could not decide; never silently coerced to 'no'."""


@dataclass
class FDModule:
    algebra: Algebra
    dim: int
    acts: list[Mat]
    name: str = ""
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False,
                            compare=False)
    # the parts `direct_sum` built this module from; read only through
    # `direct_summands`, which checks them against the actions
    summands: list | None = dc_field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        if len(self.acts) != self.algebra.dim:
            raise ModuleError("one action matrix per algebra basis element required")
        for m in self.acts:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise ModuleError("action matrix has wrong shape")

    def __repr__(self):
        return f"FDModule({self.name or '?'}, dim={self.dim} over {self.algebra.name or '?'})"

    def act_of(self, coeffs: list) -> Mat:
        return linear_combination(self.algebra.field, self.dim, self.dim,
                                  coeffs, self.acts)

    def acts_of(self, rows: Mat) -> Mat:
        """The actions of the elements in the rows of `rows`, stacked: row
        r * dim + v is rows[r] . x_v, so rows spanning an ideal I give a
        matrix whose row space is I.x."""
        if rows.rows == 0:
            return Mat.zeros(self.algebra.field, 0, self.dim)
        return Mat.vstack([self.act_of(rows.row(r)) for r in range(rows.rows)])

    def gens(self) -> list[int]:
        return generating_subset(self.algebra)


def validate_module(x: FDModule) -> list[str]:
    """The module laws x violates: the unit must act as the identity, and
    act(b_g b_j) = act(b_j) @ act(b_g) (the row convention) must hold for
    every generator g and every basis element j; the first failing pair
    (g, j) is named.  The verdict is stored on x, so each instance is
    checked once; every call returns a fresh list."""
    return _module_violations(x)[:]


@memo
def _module_violations(x: FDModule) -> list[str]:
    parts = direct_summands(x)
    if parts is not None:
        return next((bad for bad in map(_module_violations, parts) if bad), [])
    a = x.algebra
    out = []
    if x.act_of(a.unit) != Mat.identity(a.field, x.dim):
        out.append("unit does not act as identity")
    gens = x.gens()
    if not gens:        # the unit spans the algebra
        return out
    n, dd = a.dim, x.dim * x.dim
    stack = Mat.vstack(x.acts)              # row j * dim + r: row r of act(b_j)
    flat = stack.reshape(n, dd)             # row j: act(b_j), flattened
    # row k * n + j, g the k-th generator: act(b_g b_j) = L_g's row j times
    # the actions, against act(b_j) @ act(b_g); one comparison for all g
    lhs = Mat.vstack([a.lmul_mats()[g] for g in gens]) @ flat
    rhs = Mat.vstack([(stack @ x.acts[g]).reshape(n, dd) for g in gens])
    bad = lhs.sub(rhs).nonzero_rows()
    if bad:
        k, j = divmod(bad[0], n)
        return out + [f"action not multiplicative at ({gens[k]},{j})"]
    return out


def zero_module(a: Algebra) -> FDModule:
    return FDModule(a, 0, [Mat.zeros(a.field, 0, 0) for _ in range(a.dim)], name="0")


@memo
def regular_module(a: Algebra) -> FDModule:
    """The regular module A, one instance per algebra, kept on it: every
    caller shares it, so every hom_space(-, A) hits the same memo entries
    and a sum's Hom into A is read off entries kept on its summands."""
    return FDModule(a, a.dim, a.lmul_mats(), name=f"{a.name or 'A'}")


def free_module(a: Algebra, n: int) -> FDModule:
    """A^n as a fresh direct sum of n copies of the one regular module
    (fresh, so a caller may rename it); A^0 is a renamed zero module."""
    name = f"{a.name or 'A'}^{n}"
    if n == 0:
        z = zero_module(a)
        z.name = name
        return z
    return direct_sum([regular_module(a)] * n, name=name)[0]


@dataclass
class ModuleHom:
    source: FDModule
    target: FDModule
    mat: Mat

    def __post_init__(self):
        if (self.mat.rows, self.mat.cols) != (self.source.dim, self.target.dim):
            raise ModuleError("hom matrix has wrong shape")
        if self.source.algebra is not self.target.algebra:
            raise ModuleError("hom between modules over different algebras")

    def then(self, other: "ModuleHom") -> "ModuleHom":
        if self.target is not other.source and self.target.dim != other.source.dim:
            raise ModuleError("composition mismatch")
        return ModuleHom(self.source, other.target, self.mat @ other.mat)

    def is_injective(self) -> bool:
        return rank(self.mat) == self.source.dim

    def is_surjective(self) -> bool:
        return rank(self.mat) == self.target.dim

    def is_iso(self) -> bool:
        return self.source.dim == self.target.dim and self.is_injective()

    def is_zero(self) -> bool:
        return self.mat.is_zero()

    def intertwines(self) -> bool:
        """Whether mat is a module map, checked on the generators only.
        Precondition: source and target are modules (validate_module finds
        nothing); on other actions the answer means nothing."""
        x, y = self.source, self.target
        return all(x.acts[t] @ self.mat == self.mat @ y.acts[t]
                   for t in x.gens())


def identity_hom(x: FDModule) -> ModuleHom:
    return ModuleHom(x, x, Mat.identity(x.algebra.field, x.dim))


def zero_hom(x: FDModule, y: FDModule) -> ModuleHom:
    return ModuleHom(x, y, Mat.zeros(x.algebra.field, x.dim, y.dim))


@memo
def hom_space(x: FDModule, y: FDModule) -> list[ModuleHom]:
    """Canonical basis of Hom_A(x, y), via the intertwining linear system.
    Memoized per (x, y) instance pair, on x.

    When `direct_summands` confirms x = x_1 (+) ... (+) x_n, the system is
    block diagonal over the contiguous blocks of unknowns that make up the
    rows of each x_i, so its canonical basis is the basis of each
    Hom(x_i, y) in turn, zero-padded to x's rows: the same list, matrix
    for matrix.  The pieces are kept on the x_i only when y is the
    algebra's regular module, which lives as long as they do; for any
    other y they are solved unmemoized, so no long-lived summand keeps a
    transient y alive."""
    if x.algebra is not y.algebra:
        raise ModuleError("hom space needs a common algebra")
    F = x.algebra.field
    dx, dy = x.dim, y.dim
    if dx == 0 or dy == 0:
        return []
    parts = direct_summands(x)
    if parts is not None:
        piece = (hom_space if y is regular_module(y.algebra)
                 else inspect.unwrap(hom_space))
        dims, zeros = [s.dim for s in parts], [[None]] * len(parts)
        return [ModuleHom(x, y, Mat.from_blocks(
                    F, dims, [dy], zeros[:i] + [[h.mat]] + zeros[i + 1:]))
                for i, s in enumerate(parts) for h in piece(s, y)]
    gens = x.gens()
    basis = kernel_basis(intertwining_system(
        F, dx, dy, [x.acts[t] for t in gens],
        [y.acts[t].transpose() for t in gens])).transpose()
    return [ModuleHom(x, y, basis.block(c, c + 1, 0, dx * dy).reshape(dx, dy))
            for c in range(basis.rows)]


def hom_dim(x: FDModule, y: FDModule) -> int:
    return len(hom_space(x, y))


# -- sub / quotient / kernel / image --------------------------------------


def submodule_from_rows(x: FDModule, rows: Mat, name: str = "") -> tuple[FDModule, ModuleHom]:
    """Submodule on the canonical basis of an invariant row span."""
    basis = row_space(rows)
    k = basis.rows
    coeffs = coordinates(basis, Mat.vstack([basis @ m for m in x.acts]))
    if coeffs is None:
        raise ModuleError("row span is not invariant under the action")
    acts = [coeffs.block(t * k, (t + 1) * k, 0, k) for t in range(x.algebra.dim)]
    sub = FDModule(x.algebra, k, acts, name=name)
    return sub, ModuleHom(sub, x, basis)


def spanned_submodule(x: FDModule, rows: Mat, name: str = "") -> tuple[FDModule, ModuleHom]:
    """Submodule generated by arbitrary rows (closure under the action)."""
    span = row_space(rows)
    while True:
        new_span = row_space(Mat.vstack([span] + [span @ m for m in x.acts]))
        if new_span.rows == span.rows:
            return submodule_from_rows(x, new_span, name=name)
        span = new_span


def quotient_by_rows(x: FDModule, rows: Mat, name: str = "") -> tuple[FDModule, ModuleHom]:
    """Quotient by an invariant row span, on pivot-complement coordinates.
    The span is invariant exactly when every act_t @ proj factors through
    proj (the rows that proj kills are the span), so one `factor_through`
    both checks it and reads the induced actions."""
    proj, _ = quotient_maps(rows)
    acts = factor_through(proj, [m @ proj for m in x.acts])
    if acts is None:
        raise ModuleError("row span is not invariant under the action")
    quo = FDModule(x.algebra, proj.cols, acts, name=name)
    return quo, ModuleHom(x, quo, proj)


def kernel_of(h: ModuleHom, name: str = "") -> tuple[FDModule, ModuleHom]:
    rows = left_kernel(h.mat)
    return submodule_from_rows(h.source, rows, name=name)


def image_of(h: ModuleHom, name: str = "") -> tuple[FDModule, ModuleHom]:
    rows = row_space(h.mat)
    return submodule_from_rows(h.target, rows, name=name)


def cokernel_of(h: ModuleHom, name: str = "") -> tuple[FDModule, ModuleHom]:
    return quotient_by_rows(h.target, h.mat, name=name)


def corestrict(h: ModuleHom, sub: FDModule, incl: ModuleHom) -> ModuleHom:
    """Factor h through a submodule of its target containing the image."""
    coeffs = solve_left(incl.mat, h.mat)
    if coeffs is None:
        raise ModuleError("image does not lie in the submodule")
    return ModuleHom(h.source, sub, coeffs)


def direct_sum(mods: list[FDModule], name: str = "") -> tuple[FDModule, list[ModuleHom], list[ModuleHom]]:
    """Direct sum with canonical inclusions and projections."""
    if not mods:
        raise ModuleError("empty direct sum needs an algebra")
    a = mods[0].algebra
    F = a.field
    total = sum(m.dim for m in mods)
    acts = [Mat.block_diag([m.acts[t] for m in mods]) if total else Mat.zeros(F, 0, 0)
            for t in range(a.dim)]
    s = FDModule(a, total, acts, name=name or "+".join(m.name or "?" for m in mods))
    s.summands = list(mods)
    dims, zeros = [m.dim for m in mods], [None] * len(mods)
    incls, projs = [], []
    for i, m in enumerate(mods):
        incl = Mat.from_blocks(F, [m.dim], dims, [
            zeros[:i] + [Mat.identity(F, m.dim)] + zeros[i + 1:]])
        incls.append(ModuleHom(m, s, incl))
        projs.append(ModuleHom(s, m, incl.transpose()))
    return s, incls, projs


@memo
def direct_summands(x: FDModule) -> list[FDModule] | None:
    """The summands x was built from by `direct_sum`, or None when x has
    no such record or the record disagrees with x: every summand must be
    over x's algebra and each action of x the block diagonal of theirs.
    A property additive over direct sums (module laws, projectivity) then
    holds for x iff it holds for each summand, and Hom out of x is read
    off the summands.  The record is checked once per instance."""
    parts = x.summands
    if parts is None or any(s.algebra is not x.algebra for s in parts):
        return None
    if any(x.acts[t] != Mat.block_diag([s.acts[t] for s in parts])
           for t in range(x.algebra.dim)):
        return None
    return parts


def dual_module(x: FDModule, opposite: Algebra, name: str = "") -> FDModule:
    """k-linear dual as a module over the opposite algebra (transposed
    actions).  The dual of a direct sum is the direct sum of the duals of
    its summands, each built once per (summand, opposite algebra)."""
    name = name or f"D({x.name or '?'})"
    parts = direct_summands(x)
    if parts is not None:
        return direct_sum([_dual(s, opposite) for s in parts], name=name)[0]
    return FDModule(opposite, x.dim, [m.transpose() for m in x.acts], name=name)


@memo
def _dual(x: FDModule, opposite: Algebra) -> FDModule:
    """dual_module(x, opposite), kept on x: the dual of an indecomposable
    projective of an algebra is built, and proven projective, once."""
    return dual_module(x, opposite)


def restrict_along(x: FDModule, hom_rows: Mat, source_alg: Algebra, name: str = "") -> FDModule:
    """Pull a module back along an algebra morphism given by its matrix.

    hom_rows[t] holds the image coordinates of the t-th basis element of
    source_alg inside x.algebra.
    """
    if hom_rows.rows != source_alg.dim or hom_rows.cols != x.algebra.dim:
        raise ModuleError("morphism matrix has wrong shape")
    acts = [x.act_of(hom_rows.row(t)) for t in range(source_alg.dim)]
    return FDModule(source_alg, x.dim, acts, name=name)


# -- isomorphism testing ----------------------------------------------------


def _invertible_in_span(basis: list[Mat], seed: int) -> Mat | None:
    """The combination sum_j c_j basis[j] at the first coefficients c found
    that make it invertible, or None when provably no such c exists.

    Over F_p the whole span is enumerated when p^k is small.  Otherwise
    40 seeded random draws come first; over Q a failed search falls back to
    the grid {0..n}^k for n x n matrices, which is decisive because the
    determinant has degree <= n in each coefficient.  If neither decisive
    step is affordable the search raises Undetermined rather than returning
    a false negative.  `first_invertible_combination` tests the candidates
    on integer rows, drawing the random ones one at a time, and only the
    winner is built as a matrix.
    """
    F = basis[0].field
    k, n = len(basis), basis[0].rows

    def first_invertible(grid):
        coeffs = first_invertible_combination(basis, grid)
        return None if coeffs is None else linear_combination(
            F, n, n, [F.of_int(c) for c in coeffs], basis)

    if not F.is_rational and F.p ** k <= 4096:
        return first_invertible(iter_product(range(F.p), repeat=k))
    rng = random.Random(seed)
    if F.is_rational:
        draws = ([rng.randint(-3, 3) for _ in range(k)] for _ in range(40))
    else:
        draws = ([rng.randrange(F.p) for _ in range(k)] for _ in range(40))
    found = first_invertible(draws)
    if found is not None:
        return found
    if F.is_rational and (n + 1) ** k <= 200_000:
        return first_invertible(iter_product(range(n + 1), repeat=k))
    raise Undetermined(
        f"isomorphism search exhausted its budget ({k}-dimensional hom "
        f"space, determinant degree {n})")


def is_isomorphic(x: FDModule, y: FDModule, seed: int = 0) -> ModuleHom | None:
    """An invertible intertwiner, or None when provably none exists; raises
    Undetermined when the bounded search cannot decide."""
    if x.algebra is not y.algebra:
        return None
    if x.dim != y.dim:
        return None
    if x.dim == 0:
        return ModuleHom(x, y, Mat.zeros(x.algebra.field, 0, 0))
    basis = hom_space(x, y)
    if not basis:
        return None
    found = _invertible_in_span([h.mat for h in basis], seed)
    return None if found is None else ModuleHom(x, y, found)
