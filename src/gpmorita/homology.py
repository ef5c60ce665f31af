"""Projective covers, minimal resolutions, Ext/Tor and homological
dimensions over a split finite-dimensional algebra.

Right modules enter every signature as left modules over the opposite
algebra; duals swap the sides by transposing all action matrices.
Nothing here takes a seed: these are facts about the algebra, and the
idempotents behind them are read from the parts it was built from (an
opposite's original; a context ring's A and B, when psi and phi land in
their radicals, Sands' hypothesis; a one-dimensional algebra's unit) or
drawn from one fixed stream (see `idempotents`), so each algebra keeps
one set of block representatives, whichever is asked first.  Projectivity
is counted, not found: `is_projective` counts the copies of each A e_b in
the projective cover without building it.  Projective summands are split
off without a search: `split_projective_summands` reads the copies of
each A e_b off the rank of a pairing, and a nonsingular minor of that
pairing is the split.  The left self-injective dimension id(_A A)
(`self_injective_dimension`) is kept per algebra: it bounds how far from
its end a window of projectives needs its Hom(-, A) complex.  The
Gorenstein dimension d = id(_A A) = id(A_A) (`gorenstein_dimension`) is
kept per algebra too: a module is Gorenstein-projective exactly when
Ext^i(-, A) vanishes for 1 <= i <= d.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, frobenius_form, memo, opposite_algebra, radical_basis
from .bimodules import Bimodule, tensor_module
from .idempotents import _check_idempotents, primitive_idempotents
from .linalg import (Mat, coordinates, in_row_space, left_kernel, quotient_maps, rank,
                     row_space, rref, solve_left)
from .modules import (
    FDModule, ModuleError, ModuleHom, direct_sum, direct_summands, dual_module,
    hom_dim, hom_space, kernel_of, quotient_by_rows, regular_module,
    submodule_from_rows, zero_hom, zero_module,
)


@memo
def _idempotents(a: Algebra) -> list[tuple[list, int]]:
    """The primitive idempotents of a, each with its block of A/rad, read
    from the parts a was built from, never back, and checked: an opposite
    `opposite_algebra(b)` takes b's list, as e A^op e = (e A e)^op; a ring
    from `morita.build_ring` whose psi lands in rad A, and so phi in rad B,
    takes A's, then B's, padded, B's blocks after A's, as then
    rad = [[rad A, N], [M, rad B]] (A. D. Sands, J. Algebra 24, 1973); a
    one-dimensional algebra takes its unit.  Every other algebra is
    searched (`primitive_idempotents`)."""
    ctx = a.morita_context
    idems = [(a.unit, 0)] if a.dim == 1 else None
    if a.opposite_of is not None:
        idems = _idempotents(a.opposite_of)
    elif ctx is not None:
        if 0 < a.field.characteristic <= a.dim:
            radical_basis(a)    # raises UnsupportedField, as the search would
        # psi in rad A is enough: (im phi)^(k+1) is in phi(M (x) (im psi)^k N)
        if in_row_space(radical_basis(ctx.A), ctx.psi.mat):
            ea, z = _idempotents(ctx.A), [a.field.zero()]
            shift = len({b for _, b in ea})
            idems = [(e + z * (a.dim - ctx.A.dim), b) for e, b in ea] + [
                (z * (a.dim - ctx.B.dim) + f, b + shift) for f, b in _idempotents(ctx.B)]
    if idems is None:
        return primitive_idempotents(a)
    _check_idempotents(a, [e for e, _ in idems], "derived idempotents")
    return idems


@memo
def _block_reps(a: Algebra):
    """One (module, inclusion, idempotent, block) per block of A/rad: A*e
    for the block's first primitive idempotent e of `_idempotents`, named
    by e's index among all of them."""
    reg = regular_module(a)
    reps = {}
    for k, (e, blk) in enumerate(_idempotents(a)):
        if blk not in reps:
            mod, incl = submodule_from_rows(reg, row_space(a.rmul_of(e)),
                                            name=f"P(e{k})")
            reps[blk] = (mod, incl, e, blk)
    return list(reps.values())


@memo
def radical_rows_of_module(x: FDModule) -> Mat:
    a = x.algebra
    rad = radical_basis(a)
    if rad.rows == 0 or x.dim == 0:
        return Mat.zeros(a.field, 0, x.dim)
    return row_space(x.acts_of(rad))


def top_of(x: FDModule) -> tuple[FDModule, ModuleHom]:
    return quotient_by_rows(x, radical_rows_of_module(x), name=f"top({x.name})")


@memo
def simple_modules(a: Algebra) -> list[FDModule]:
    """One simple module per block, as the top of the block's projective."""
    out = []
    for mod, _, _, blk in _block_reps(a):
        s, _ = top_of(mod)
        s.name = f"S{blk}"
        out.append(s)
    return out


def projective_cover(x: FDModule) -> tuple[FDModule, ModuleHom]:
    """Minimal projective cover P ->> x (kernel inside rad P).

    Per block, one solve lifts every top row t_r of eT to some y_r with
    y_r @ proj_T = t_r, and x_r = y_r @ e gives the summand A*e -> x,
    v |-> v . x_r; one product against the hstacked actions of the basis
    of A*e gives the maps of all the block's summands.  The radical rows
    of P are the block diagonal of its summands' radical rows."""
    a = x.algebra
    if x.dim == 0:
        z = zero_module(a)
        return z, zero_hom(z, x)
    T, proj_T = top_of(x)
    summands: list[FDModule] = []
    blocks: list[Mat] = []
    for mod, incl, e, blk in _block_reps(a):
        eT = row_space(T.act_of(e))
        if eT.rows == 0:
            continue
        y = solve_left(proj_T.mat, eT)
        if y is None:
            raise ModuleError("top projection is not surjective")
        basis_acts = Mat.hstack([x.act_of(incl.mat.row(i)) for i in range(mod.dim)])
        homs = y @ x.act_of(e) @ basis_acts
        for r in range(eT.rows):
            summands.append(mod)
            blocks.append(homs.block(r, r + 1, 0, homs.cols).reshape(mod.dim, x.dim))
    if not summands:
        z = zero_module(a)
        return z, zero_hom(z, x)
    P, _, _ = direct_sum(summands, name=f"P({x.name})")
    phi = ModuleHom(P, x, Mat.vstack(blocks))
    if not phi.is_surjective():
        raise ModuleError("projective cover construction failed to surject")
    ker_rows = left_kernel(phi.mat)
    if ker_rows.rows:
        rad_P = Mat.block_diag([radical_rows_of_module(m) for m in summands])
        if not in_row_space(rad_P, ker_rows):
            raise ModuleError("projective cover is not minimal")
    return P, phi


@memo
def is_projective(x: FDModule) -> bool:
    """Whether the projective cover of x is as large as x, counted without
    building it.  The cover holds P_b = A e_b, for each block rep
    (P_b, e_b), dim e_b top(x) times (Auslander, Reiten & Smalø, ch. I),
    and e top(x) = e x / e rad(x); with E_b the action of e_b and R the
    radical rows of x that is rank E_b - rank (R @ E_b).  So x is
    projective iff the sum of those counts times dim P_b is dim x, the
    dimension `projective_cover` would build.  A direct sum is projective
    iff each of its summands is."""
    parts = direct_summands(x)
    if parts is not None:
        return all(is_projective(s) for s in parts)
    R = radical_rows_of_module(x)
    cover = 0
    for mod, _, e, _ in _block_reps(x.algebra):
        E = x.act_of(e)
        cover += (rank(E) - rank(R @ E)) * mod.dim
    return cover == x.dim


@memo
def _summand_functionals(a: Algebra) -> Mat:
    """Per block rep (A e_b, incl, e_b) of `_block_reps`, one column of an
    n x B matrix: the functional y |-> tau_b(e_b y e_b) on A, where tau_b
    reads the coefficient of the class of e_b in e_b A e_b / e_b rad(A) e_b,
    which is k as A is split.  It is L_{e_b} R_{e_b} times the column of
    A -> A/rad at which e_b's class is nonzero, divided by that entry."""
    F, n = a.field, a.dim
    proj, _ = quotient_maps(radical_basis(a))
    reg = regular_module(a)
    cols = []
    for _, _, e, _ in _block_reps(a):
        ebar = Mat.from_rows(F, [e], n) @ proj
        j = ebar.transpose().nonzero_rows()[0]
        col = reg.act_of(e) @ a.rmul_of(e) @ proj.block(0, n, j, j + 1)
        cols.append(col.scale(F.inv(ebar.row(0)[j])))
    return Mat.hstack(cols)


def split_projective_summands(x: FDModule) -> tuple[FDModule, list[FDModule], Mat]:
    """Split x as P_1 (+) ... (+) P_k (+) core, the P_i block
    representatives in block order and no projective summand left in the
    core; returns (core, projs, overall), overall the isomorphism.
    End(A e)/rad is k, so the multiplicity of A e as a summand of x is the
    rank of the composition pairing Hom(A e, x) x Hom(x, A e) ->
    End(A e)/rad (Auslander, Reiten & Smalø, ch. I).  Hom(A e_b, x) is
    e_b x, and every map x -> A e_b is some h in Hom(x, A) followed by
    right multiplication by e_b; so the pairing is the k x dim x matrix M_b
    of (x_i, h_j) |-> tau_b(e_b h_j(x_i) e_b), one product against
    `_summand_functionals` for all blocks.  Its pivot columns I and pivot
    rows J give a nonsingular minor M_b[J, I], and the maps
    u_i: a |-> a x_i and r_j: v |-> h_j(v) e_b compose to right
    multiplication by e_b h_j(x_i) e_b, which is M_b[j, i] modulo the
    radical; maps between blocks lie in the radical.  So E = U R is
    invertible, R E^-1 retracts U, and its kernel is the core.  A block
    whose A e_b is larger than x has none, and when every block is such,
    no Hom space is solved.  Hom(x, A) is the memoized entry that the
    minimal approximation of x reads."""
    a = x.algebra
    F = a.field
    unsplit = x, [], Mat.identity(F, x.dim)
    reps = _block_reps(a)
    blocks = [b for b, (mod, _, _, _) in enumerate(reps) if mod.dim <= x.dim]
    homs = hom_space(x, regular_module(a)) if blocks else []
    if not homs:
        return unsplit
    vals = Mat.vstack([h.mat for h in homs]) @ _summand_functionals(a)
    projs: list[FDModule] = []
    us, rs = [], []
    for b in blocks:
        mod, incl, e, _ = reps[b]
        pairing = vals.block(0, vals.rows, b, b + 1).reshape(len(homs), x.dim)
        cols = rref(pairing)[1]
        if not cols:
            continue
        acts = Mat.hstack([x.act_of(incl.mat.row(t)) for t in range(mod.dim)])
        for i, j in zip(cols, rref(pairing.transpose())[1]):
            projs.append(mod)
            us.append(acts.block(i, i + 1, 0, acts.cols).reshape(mod.dim, x.dim))
            rs.append(coordinates(incl.mat, homs[j].mat @ a.rmul_of(e)))
    if not projs:
        return unsplit
    U, R = Mat.vstack(us), Mat.hstack(rs)
    E = U @ R
    if rank(E) != E.rows:
        raise ModuleError("the projective summands found do not split off")
    retract = solve_left(E, R)
    core, incl = submodule_from_rows(x, left_kernel(retract))
    # sigma projects x onto the core along the projective part
    sigma = solve_left(incl.mat, Mat.identity(F, x.dim).sub(retract @ U))
    if sigma is None:
        raise ModuleError("projective summand complement failed")
    return core, projs, Mat.hstack([retract, sigma])


@dataclass
class Resolution:
    """Minimal projective resolution ... -> P_1 -> P_0 ->> module."""

    module: FDModule
    terms: list[FDModule]        # P_0 .. P_len
    maps: list[ModuleHom]        # maps[j]: P_{j+1} -> P_j
    aug: ModuleHom               # P_0 -> module
    syzygies: list[FDModule]     # ker(aug), ker(d_1), ...

    def window(self):
        """P_n -> ... -> P_0 as a window, P_j in degree -j (index n - j)."""
        from .complexes import ComplexWindow
        n = len(self.maps)
        return ComplexWindow(-n, 0, self.terms[::-1], self.maps[::-1])


def minimal_resolution(x: FDModule, length: int) -> Resolution:
    terms: list[FDModule] = []
    maps: list[ModuleHom] = []
    syzygies: list[FDModule] = []
    P0, aug = projective_cover(x)
    terms.append(P0)
    cur_ker, cur_incl = kernel_of(aug)
    syzygies.append(cur_ker)
    for _ in range(length):
        if cur_ker.dim == 0:
            z = zero_module(x.algebra)
            terms.append(z)
            maps.append(zero_hom(z, terms[-2]))
            syzygies.append(z)
            continue
        P, cov = projective_cover(cur_ker)
        terms.append(P)
        maps.append(cov.then(cur_incl))
        cur_ker, cur_incl = kernel_of(cov)
        syzygies.append(cur_ker)
    return Resolution(x, terms, maps, aug, syzygies)


def projective_dimension(x: FDModule, bound: int) -> int | None:
    """The least n <= bound with the syzygy Omega^n x projective, or None.
    In a minimal resolution Omega^n is projective iff Omega^(n+1) = 0, so
    the count stops at the first syzygy `is_projective` accepts and builds
    no cover of it."""
    n = 0
    while x.dim and not is_projective(x):
        if n >= bound:
            return None
        _, cover = projective_cover(x)
        x, _ = kernel_of(cover)
        n += 1
    return n


def ext_dim(x: FDModule, y: FDModule, i: int) -> int:
    """dim Ext^i(x, y) from a minimal projective resolution of x."""
    from .complexes import hom_complex_data, homology_at
    if i == 0:
        return hom_dim(x, y)
    res = minimal_resolution(x, i + 1)
    return homology_at(*hom_complex_data(res.window(), y), len(res.maps) - i)


def first_nonzero_ext(res: Resolution, y: FDModule) -> int | None:
    """The least i in [1, len(res.maps)) with Ext^i(res.module, y) != 0, or
    None, read off one Hom complex of the resolution."""
    from .complexes import hom_complex_data, homology_at
    dims, maps = hom_complex_data(res.window(), y)
    n = len(res.maps)
    return next((i for i in range(1, n) if homology_at(dims, maps, n - i)), None)


def tor_dim(bim: Bimodule, x: FDModule, i: int) -> int:
    """dim Tor_i(M, x) over k, for the right action of a bimodule M; a
    right module U enters as `bimodules.right_bimodule(U)`."""
    from .complexes import homology_at, tensor_window, window_data
    if i == 0:
        return tensor_module(bim, x).module.dim
    res = minimal_resolution(x, i + 1)
    return homology_at(*window_data(tensor_window(bim, res.window())[0]),
                       len(res.maps) - i)


def injective_dimension(x: FDModule, bound: int) -> int | None:
    """Via the projective dimension of the dual over the opposite algebra."""
    aop = opposite_algebra(x.algebra)
    return projective_dimension(dual_module(x, aop), bound)


@memo
def global_dimension(a: Algebra, bound: int) -> int | None:
    """The largest projective dimension of a simple module, or None when
    one exceeds bound; kept per algebra and bound."""
    best = 0
    for s in simple_modules(a):
        d = projective_dimension(s, bound)
        if d is None:
            return None
        best = max(best, d)
    return best


@memo
def self_injective_dimension(a: Algebra) -> int | None:
    """id(_A A), the injective dimension of the regular module, or None
    past the fixed bound 3, where None proves nothing.  A nondegenerate
    form (`algebra.frobenius_form`) proves 0 without a resolution.  Over a
    finite value d every exact window of projectives is Hom(-, A)-exact
    d + 1 degrees before its end (`complexes.total_exactness`)."""
    if frobenius_form(a) is not None:
        return 0
    return injective_dimension(regular_module(a), 3)


@memo
def gorenstein_dimension(a: Algebra) -> int | None:
    """The d with id(_A A) = id(A_A) = d <= 3, or None, which proves
    nothing.  Over such an A, X is Gorenstein-projective iff Ext^i(X, A)
    = 0 for 1 <= i <= d (Enochs & Jenda, Relative Homological Algebra,
    ch. 10-11).  Proofs, cheapest first: a nondegenerate form gives d = 0;
    a finite global dimension g gives d = g; else the injective dimensions
    of the regular module on both sides must be finite, and are then
    equal (Zaks)."""
    if frobenius_form(a) is not None:
        return 0
    g = global_dimension(a, 3)
    if g is not None:
        return g
    left = self_injective_dimension(a)
    right = self_injective_dimension(opposite_algebra(a))
    return None if left is None or right is None else max(left, right)


@memo
def is_self_injective(a: Algebra) -> bool:
    """A_A is injective iff its dual is projective as a left module."""
    aop = opposite_algebra(a)
    return is_projective(dual_module(regular_module(aop), a))


def indec_injectives(a: Algebra) -> list[FDModule]:
    """Indecomposable injectives: duals of the opposite's indecomposable
    projectives."""
    aop = opposite_algebra(a)
    out = []
    for mod, _, _, blk in _block_reps(aop):
        inj = dual_module(mod, a)
        inj.name = f"I{blk}"
        out.append(inj)
    return out
