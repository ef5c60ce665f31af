"""Bounded windows of cochain complexes, their Hom and tensor complexes
and the homology of all three, total exactness, and the two-sided
horseshoe construction for exact complexes.

A window holds terms X^i for lo <= i <= hi and differentials
d^i : X^i -> X^{i+1} for lo <= i < hi.  Maps compose left to right, so
d^i then d^{i+1} is d^i.mat @ d^{i+1}.mat.  The termwise tensor of a
window with a bimodule, `tensor_window`, is again a window.  A window and
its Hom complex are each read as (dims, maps), maps[j] joining the terms
j and j + 1, and homology_at is the one homology count over them.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field

from .bimodules import Bimodule, tensor_functor_hom, tensor_module
from .linalg import Mat, coordinates, intertwining_system, rank, solve
from .modules import (
    FDModule, ModuleHom, direct_sum, hom_space, regular_module, validate_module,
)
from .homology import is_projective, self_injective_dimension


class ComplexError(ValueError):
    pass


def _same_module(a: FDModule, b: FDModule) -> bool:
    return a.algebra is b.algebra and a.dim == b.dim and a.acts == b.acts


@dataclass
class ComplexWindow:
    lo: int
    hi: int
    terms: list[FDModule]
    diffs: list[ModuleHom]
    # `memo` entries; a window is read, never changed, once built
    _cache: dict = dc_field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.hi < self.lo:
            raise ComplexError("empty window")
        if len(self.terms) != self.hi - self.lo + 1:
            raise ComplexError("terms do not fill the window")
        if len(self.diffs) != self.hi - self.lo:
            raise ComplexError("one differential per adjacent pair required")

    def term(self, i: int) -> FDModule:
        if not self.lo <= i <= self.hi:
            raise ComplexError(f"degree {i} outside window [{self.lo}, {self.hi}]")
        return self.terms[i - self.lo]

    def diff(self, i: int) -> ModuleHom:
        if not self.lo <= i < self.hi:
            raise ComplexError(f"no differential at degree {i}")
        return self.diffs[i - self.lo]

    @property
    def algebra(self):
        return self.terms[0].algebra


def _repeats(c: ComplexWindow, p: int) -> bool:
    """c repeats literally by p: each term equals the term p degrees on as
    a module, and each differential the one p degrees on, as a matrix
    between equal modules."""
    return (all(_same_module(a, b) for a, b in zip(c.terms, c.terms[p:]))
            and all(d.mat == e.mat and _same_module(d.source, e.source)
                    and _same_module(d.target, e.target)
                    for d, e in zip(c.diffs, c.diffs[p:])))


def window_period(*cs: ComplexWindow) -> int | None:
    """The least p with 1 <= p <= hi - lo - 1 by which every window of cs,
    all over the degrees of the first, repeats literally, or None."""
    c = cs[0]
    return next((p for p in range(1, c.hi - c.lo)
                 if all(_repeats(x, p) for x in cs)), None)


def one_period(c: ComplexWindow) -> ComplexWindow:
    """The sub-window [lo, lo + p + 1] of c for its least period p, or c
    when it does not repeat.

    When c repeats by p, every check at degree i is the check at i - p: a
    term's module laws and projectivity, a differential's ends and
    module-map property, the d.d pair at i, exactness and
    Hom(-, A)-exactness at i.  The p + 2 terms and p + 1 differentials of
    the sub-window hold every residue mod p of the terms, the
    differentials, the d.d pairs and the inner degrees once (the
    differential at lo + p covers the junction of two periods), so a check
    passes on c iff it passes there, and the first failure it names lies
    within the first period.  `verify` keeps its own copy of this argument
    and does not call this builder helper."""
    p = window_period(c)
    if p is None:
        return c
    return ComplexWindow(c.lo, c.lo + p + 1, c.terms[:p + 2], c.diffs[:p + 1])


def per_instance(build, degrees, inputs) -> list:
    """[build(i) for i in degrees], with build called once per distinct
    tuple inputs(i): the objects that degree i reads, such as its terms,
    differential matrices and lifts.  A degree whose inputs are the very
    instances (`is`) of an earlier degree's shares the value built there,
    as a periodic window shares its terms; the shared value is itself one
    instance, so a later build keyed by it shares in turn, and a window
    that repeats costs one period.  A matrix with no rows or no columns is
    one instance per shape and field (`linalg`), so the zero pieces of the
    degrees, such as every M (x) P^i when M = 0, are the same instances."""
    built: list[tuple[tuple, object]] = []
    out = []
    for i in degrees:
        key = inputs(i)
        for seen, value in built:
            if all(map(operator.is_, seen, key)):
                break
        else:
            value = build(i)
            built.append((key, value))
        out.append(value)
    return out


def validate_complex(c: ComplexWindow) -> list[str]:
    """Terms are modules, each differential a module map between its two
    terms, and d.d = 0.  validate_module keeps its verdict on the term, so a
    window that repeats one term instance checks it once."""
    out = []
    for i in range(c.lo, c.hi + 1):
        bad = validate_module(c.term(i))
        if bad:
            out.append(f"term {i}: {bad[0]}")
            return out
    for i in range(c.lo, c.hi):
        d = c.diff(i)
        if not _same_module(d.source, c.term(i)) or not _same_module(d.target, c.term(i + 1)):
            out.append(f"differential {i} connects the wrong terms")
            return out
        if not d.intertwines():
            out.append(f"differential {i} is not a module map")
            return out
    for i in range(c.lo, c.hi - 1):
        if not (c.diff(i).mat @ c.diff(i + 1).mat).is_zero():
            out.append(f"d.d != 0 at degree {i}")
            return out
    return out


def homology_at(dims: list[int], maps: list[Mat], k: int) -> int:
    """The homology at term k of a complex of dims with maps[j] joining terms
    j and j + 1: the count holds whichever way the maps run."""
    return dims[k] - rank(maps[k - 1]) - rank(maps[k])


def _first_inexact(c: ComplexWindow, data, lo: int | None = None) -> int | None:
    """The first degree i in [lo, c.hi - 1] (lo defaults to c.lo + 1) where
    the complex data = (dims, maps) over the degrees of c is not exact."""
    dims, maps = data
    return next((i for i in range(c.lo + 1 if lo is None else lo, c.hi)
                 if homology_at(dims, maps, i - c.lo)), None)


def window_data(c: ComplexWindow):
    """A window read as (dims, maps)."""
    return [t.dim for t in c.terms], [d.mat for d in c.diffs]


def is_exact(c: ComplexWindow) -> bool:
    return _first_inexact(c, window_data(c)) is None


def hom_complex_data(c: ComplexWindow, y: FDModule):
    """The complex Hom(X^., y): dims per degree and the maps induced by
    precomposition with the differentials (degree-reversing)."""
    F = y.algebra.field
    bases = [hom_space(t, y) for t in c.terms]
    maps = []
    # Hom(X^{i+1}, y) -> Hom(X^i, y), h |-> d^i h
    for src, dst, d in zip(bases[1:], bases, c.diffs):
        if not src or not dst:
            maps.append(Mat.zeros(F, len(src), len(dst)))
            continue
        m = coordinates(Mat.vstack([h.mat.flatten() for h in dst]),
                        Mat.vstack([(d.mat @ h.mat).flatten() for h in src]))
        if m is None:
            raise ComplexError("hom complex map failed to express")
        maps.append(m)
    return [len(b) for b in bases], maps


def tensor_window(bim: Bimodule, wc: ComplexWindow):
    """Termwise tensor of a bimodule with a complex window; returns the
    window plus the TensorModule data per degree.  Repeated term instances
    (periodic windows) share one tensor product, by the memo of
    `tensor_module`, and repeated (terms, differential) instances one
    differential (`per_instance`)."""
    tens = [tensor_module(bim, t) for t in wc.terms]
    diffs = per_instance(
        lambda i: tensor_functor_hom(tens[i - wc.lo], tens[i - wc.lo + 1], wc.diff(i)),
        range(wc.lo, wc.hi),
        lambda i: (tens[i - wc.lo], tens[i - wc.lo + 1], wc.diff(i).mat))
    return ComplexWindow(wc.lo, wc.hi, [t.module for t in tens], diffs), tens


def hom_exactness_failure(c: ComplexWindow, y: FDModule,
                          lo: int | None = None) -> int | None:
    """The first degree i in [lo, c.hi - 1] (lo defaults to c.lo + 1) where
    Hom(X^., y) is not exact, or None."""
    return _first_inexact(c, hom_complex_data(c, y), lo)


def tensor_exactness_failure(c: ComplexWindow, bim: Bimodule) -> int | None:
    """The first interior degree where M (x)_A X^. is not exact, or None."""
    return _first_inexact(c, window_data(tensor_window(bim, c)[0]))


def total_exactness(c: ComplexWindow) -> bool:
    """Exactness of X^. and of Hom(X^., regular) at the degrees whose two
    neighbouring maps lie inside the window; terms must be projective.

    Hom(-, A)-exactness at i is Ext^1(Coker d^i, A) = 0 for an exact
    window.  Let d = id(_A A) (`homology.self_injective_dimension`).  At
    an interior degree i with i + d + 1 <= hi, Coker d^i is a d-th syzygy
    of Coker d^{i+d}, so Ext^1(Coker d^i, A) = Ext^{d+1}(Coker d^{i+d}, A)
    = 0 (Enochs & Jenda, Relative Homological Algebra, ch. 10; Iyengar &
    Krause, Doc. Math. 11 (2006)): only the last d + 2 terms,
    [max(lo, hi - d - 1), hi], build the Hom complex, and at d = 0, where
    A is injective, none.  A window that repeats literally
    (`window_period`) builds none either: its periodic extension is exact
    at every degree, and there each degree of the window lies d + 1
    degrees before a later end.  Past the bound of d the whole Hom
    complex is built."""
    for i in range(c.lo, c.hi + 1):
        if not is_projective(c.term(i)):
            raise ComplexError(f"term {i} is not projective")
    if not is_exact(c):
        return False
    a = c.algebra
    d = self_injective_dimension(a)
    if d is not None:
        lo = max(c.lo, c.hi - d - 1)
        if lo >= c.hi - 1 or window_period(c) is not None:
            return True
        k = lo - c.lo
        c = ComplexWindow(lo, c.hi, c.terms[k:], c.diffs[k:])
    return hom_exactness_failure(c, regular_module(a)) is None


# -- module-hom solving with side conditions ---------------------------------


def solve_module_hom(src: FDModule, dst: FDModule,
                     pre: Mat | None = None, pre_rhs: Mat | None = None,
                     post: Mat | None = None, post_rhs: Mat | None = None) -> ModuleHom | None:
    """A module hom J: src -> dst with optional affine side conditions
    pre @ J = pre_rhs  and/or  J @ post = post_rhs, or None."""
    F = src.algebra.field
    ds, dt = src.dim, dst.dim
    if ds == 0 or dt == 0:
        if pre_rhs is not None and not pre_rhs.is_zero():
            return None
        if post_rhs is not None and not post_rhs.is_zero():
            return None
        return ModuleHom(src, dst, Mat.zeros(F, ds, dt))
    gens = src.gens()
    blocks = [intertwining_system(F, ds, dt, [src.acts[t] for t in gens],
                                  [dst.acts[t].transpose() for t in gens])]
    rhs = [Mat.zeros(F, blocks[0].rows, 1)]
    if pre is not None:
        blocks.append(pre.kron(Mat.identity(F, dt)))
        rhs.append(pre_rhs.reshape(pre.rows * dt, 1))
    if post is not None:
        blocks.append(Mat.identity(F, ds).kron(post.transpose()))
        rhs.append(post_rhs.reshape(ds * post.cols, 1))
    sol = solve(Mat.vstack(blocks), Mat.vstack(rhs))
    if sol is None:
        return None
    return ModuleHom(src, dst, sol.reshape(ds, dt))


# -- horseshoe ----------------------------------------------------------------


@dataclass
class ShortExactSequence:
    inject: ModuleHom            # U -> W
    surject: ModuleHom           # W -> V

    def validate(self) -> list[str]:
        out = []
        if not self.inject.intertwines() or not self.surject.intertwines():
            out.append("maps are not module homs")
        if not self.inject.is_injective():
            out.append("first map is not injective")
        if not self.surject.is_surjective():
            out.append("second map is not surjective")
        if not (self.inject.mat @ self.surject.mat).is_zero():
            out.append("composite is not zero")
        if rank(self.inject.mat) + rank(self.surject.mat) != self.inject.target.dim:
            out.append("not exact in the middle")
        return out

    @property
    def u(self) -> FDModule:
        return self.inject.source

    @property
    def w(self) -> FDModule:
        return self.inject.target

    @property
    def v(self) -> FDModule:
        return self.surject.target


class HorseshoeError(ValueError):
    def __init__(self, msg: str, degree: int | None = None):
        super().__init__(msg)
        self.degree = degree


@dataclass
class HorseshoeResult:
    zc: ComplexWindow
    rho: dict                     # degree -> ModuleHom Y^i -> X^{i+1}
    embed: ModuleHom              # W -> Z^0 realizing the kernel
    x_incl: list[ModuleHom]       # X^i -> Z^i
    y_proj: list[ModuleHom]       # Z^i -> Y^i


def horseshoe(ses: ShortExactSequence, xc: ComplexWindow, kx: ModuleHom,
              yc: ComplexWindow, ky: ModuleHom) -> HorseshoeResult:
    """Weave two exact complexes along a short exact sequence.

    kx: U -> X^0 and ky: V -> Y^0 identify the degree-0 kernels.  The
    result has Z^i = X^i (+) Y^i, differentials [[d_X, 0], [rho, d_Y]],
    and its degree-0 kernel sequence is the given one on the nose.

    Each lift rho^i is one `solve_module_hom` system making d.d = 0 against
    its built neighbour, with no Ext^1 pre-check (vanishing Ext^1 is
    sufficient, not necessary): b @ rho^i = -(a @ d_X^i) for i >= 0, (a, b)
    the X- and Y-parts of the differential into degree i ([j0, surject.ky]
    at 0, j0 extending kx along the sequence), and rho^i @ d_X^{i+1} =
    -(d_Y^i @ rho^{i+1}) for i <= -1; a missing lift raises HorseshoeError
    with its degree.  The long exact homology sequence makes the woven
    window exact.  As Y is exact and surject is onto V, a forward system
    has the solutions of prescribing rho^i on ker d_Y^i through the image
    of the previous woven differential, and `solve` reads its answer off the
    reduced echelon form, which the solutions fix: each lift is the matrix
    that route gives.  The sequence, both kernel identifications and the
    exactness of both inputs are checked first, and the woven window and
    its kernel sequence last.

    Periodic inputs are built and checked over one period.  The lift at a
    degree i >= 1 is a deterministic function of the terms of X and Y at
    i and i + 1, the differentials d_Y^{i-1} and d_X^i, and rho^{i-1};
    the lift at i <= -1 one of the terms at i and i + 1, the
    differentials d_Y^i and d_X^{i+1}, and rho^{i+1}.  So when X and Y
    both repeat literally by L, and rho^{i-1} equals rho^{i-1-L} (i - L >=
    1) or rho^{i+1} equals rho^{i+1+L} (i + L <= -1), the lift at i - L
    (or i + L) is the very matrix that solving again would give, and it is
    reused.  Each distinct pair (X^i, Y^i) of term instances gives one
    direct sum, and each distinct tuple of its two sums, d_X^i, rho^i and
    d_Y^i one woven differential (`per_instance`), so a reused lift gives
    a shared differential and a periodic window costs one period.  The
    exactness of the inputs and the validity and exactness of the woven
    window are checked on `one_period` of each, which is the whole window
    when it does not repeat.
    """
    if (xc.lo, xc.hi) != (yc.lo, yc.hi):
        raise HorseshoeError("the two windows must agree")
    if xc.lo > 0 or xc.hi < 1:
        raise HorseshoeError("window must contain [0, 1]")
    bad = ses.validate()
    if bad:
        raise HorseshoeError(f"invalid short exact sequence: {bad[0]}")
    for c, k, tag in ((xc, kx, "X"), (yc, ky, "Y")):
        if not k.is_injective():
            raise HorseshoeError(f"kernel identification into {tag}^0 not injective")
        if not (k.mat @ c.diff(0).mat).is_zero():
            raise HorseshoeError(f"kernel identification into {tag}^0 misses the kernel")
        if rank(k.mat) != c.term(0).dim - rank(c.diff(0).mat):
            raise HorseshoeError(f"kernel identification into {tag}^0 not surjective")
    if not is_exact(one_period(xc)) or not is_exact(one_period(yc)):
        raise HorseshoeError("input complexes must be exact on the window")
    lo, hi = xc.lo, xc.hi
    period = window_period(xc, yc)
    z_sums = per_instance(
        lambda i: direct_sum([xc.term(i), yc.term(i)], name=f"Z^{i}"),
        range(lo, hi + 1), lambda i: (xc.term(i), yc.term(i)))
    terms = [z for z, _, _ in z_sums]
    rho: dict[int, ModuleHom] = {}
    j0 = solve_module_hom(ses.w, xc.term(0), pre=ses.inject.mat, pre_rhs=kx.mat)
    if j0 is None:
        raise HorseshoeError("no equivariant extension at degree 0", degree=0)
    v_part = ses.surject.mat @ ky.mat
    embed = Mat.hstack([j0.mat, v_part])
    for i in range(hi):
        if (period and i - period >= 1
                and rho[i - 1].mat == rho[i - 1 - period].mat):
            rho[i] = ModuleHom(yc.term(i), xc.term(i + 1), rho[i - period].mat)
            continue
        # d.d = 0 into degree i + 1, (a, b) the differential into degree i
        a, b = (j0.mat, v_part) if i == 0 else (rho[i - 1].mat, yc.diff(i - 1).mat)
        rho_i = solve_module_hom(yc.term(i), xc.term(i + 1), pre=b,
                                 pre_rhs=(a @ xc.diff(i).mat).neg())
        if rho_i is None:
            raise HorseshoeError(f"no equivariant lift for rho^{i}", degree=i)
        rho[i] = rho_i
    for i in range(-1, lo - 1, -1):
        if (period and i + period <= -1
                and rho[i + 1].mat == rho[i + 1 + period].mat):
            rho[i] = ModuleHom(yc.term(i), xc.term(i + 1), rho[i + period].mat)
            continue
        rho_i = solve_module_hom(yc.term(i), xc.term(i + 1),
                                 post=xc.diff(i + 1).mat,
                                 post_rhs=(yc.diff(i).mat @ rho[i + 1].mat).neg())
        if rho_i is None:
            raise HorseshoeError(f"no equivariant lift for rho^{i}", degree=i)
        rho[i] = rho_i

    zc = ComplexWindow(lo, hi, terms, per_instance(
        lambda i: ModuleHom(terms[i - lo], terms[i - lo + 1],
                            twisted_diff(xc.diff(i).mat, rho[i].mat, yc.diff(i).mat)),
        range(lo, hi), lambda i: (terms[i - lo], terms[i - lo + 1], xc.diff(i).mat,
                                  rho[i].mat, yc.diff(i).mat)))
    checked = one_period(zc)
    bad = validate_complex(checked)
    if bad:
        raise HorseshoeError(f"assembled complex invalid: {bad[0]}")
    if not is_exact(checked):
        raise HorseshoeError("assembled complex is not exact")
    x_incl = [incls[0] for _, incls, _ in z_sums]
    y_proj = [projs[1] for _, _, projs in z_sums]
    embed_hom = ModuleHom(ses.w, zc.term(0), embed)
    if not embed_hom.intertwines():
        raise HorseshoeError("kernel embedding is not a module map")
    _check_kernel_sequence(ses, zc, embed_hom, kx, ky, x_incl[-lo], y_proj[-lo])
    return HorseshoeResult(zc, rho, embed_hom, x_incl, y_proj)


def twisted_diff(dx: Mat, rho: Mat, dy: Mat) -> Mat:
    """The differential [[dx, 0], [rho, dy]] of a sum X^i (+) Y^i whose
    Y-part maps into the X-part of the next term through rho."""
    zero = Mat.zeros(dx.field, dx.rows, dy.cols)
    return Mat.vstack([Mat.hstack([dx, zero]), Mat.hstack([rho, dy])])


def _check_kernel_sequence(ses, zc, embed, kx, ky, x0_incl, y0_proj):
    if rank(embed.mat) != ses.w.dim:
        raise HorseshoeError("kernel embedding is not injective")
    ker_rows = zc.term(0).dim - rank(zc.diff(0).mat)
    if not (embed.mat @ zc.diff(0).mat).is_zero() or rank(embed.mat) != ker_rows:
        raise HorseshoeError("embedded W is not the degree-0 kernel")
    if ses.inject.mat @ embed.mat != kx.mat @ x0_incl.mat:
        raise HorseshoeError("kernel sequence does not restrict to the given one")
    if embed.mat @ y0_proj.mat != ses.surject.mat @ ky.mat:
        raise HorseshoeError("kernel sequence does not project to the given one")
