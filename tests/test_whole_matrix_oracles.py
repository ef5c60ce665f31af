"""The whole-matrix system builders against the per-entry code they
replaced.

The oracles below are the earlier per-entry implementations, kept verbatim
apart from their names: the middle relations of a balanced tensor, the
relation rows of `tensor_over_ring`, and the quotient coordinates of a row
span.  The new code must give equal matrices (`Mat ==`, same shape, same
row order) and equal dimensions, over Q and GF(7), on the catalog contexts
and on seeded random quadruples.

The per-entry linear system of maps of quadruples (alpha, beta), the
A-linearity of alpha, the B-linearity of beta and the f- and g-squares, is
kept as an oracle for `hom_space` on the ring modules of the quadruples: a
quadruple map is the ring map block_diag(alpha, beta), so both must give
the same dimension and the same span, over Q, GF(7) and GF(5), on every
catalog context and the wide one.

Two whole-matrix builders are in turn checked against the dense formulas
they replaced, on seeded random matrices: `intertwining_system` against
P_t kron 1 - 1 kron Q_t, and `linear_combination` against a zero matrix
plus one `add(scale(.))` per nonzero coefficient.

The loops that express vectors in a known canonical basis now make one
batched `coordinates` call.  The per-element `solve_left` loops they
replaced are kept below as oracles for `hom_complex_data`, `hom_module`
and `submodule_from_rows`.

Actions induced on a quotient, and maps factored through a quotient
projection, are read off the projection's unit rows by one
`factor_through` call.  The per-element `solve(proj, ...)` loops they
replaced are kept below as oracles for `quotient_by_rows`,
`tensor_module`, `bimodule_tensor` and `make_quadruple`, including the
cases that must raise.  The cached `radical_basis` is checked against a
fresh trace-form kernel.

`projective_cover` lifts the top of a module with one `solve_left` per
block and builds the cover map with one product per block.  The per-row
cover it replaced is kept below as an oracle, over Q, GF(7) and GF(5), on
seeded random modules over every catalog algebra and its opposite.

A right module over the context ring is a quadruple over the opposite
context.  The separate right-module layer it replaced (`right_tensor`,
`make_right_quadruple`, `right_quadruple_to_module`) is kept below as an
oracle: fed each quadruple's maps, re-indexed from N (x) C and M (x) D to
C (x) N and D (x) M, it must give the same module over the same opposite
ring, and the row loop of `tensor_over_ring` the same dimension.  The
psi (x) 1 maps of `trivext` and the engine's sigma^0 are Kronecker
products; the coefficient loops they replaced are kept below as oracles.

Zero objects and reduced inputs take short cuts: a tensor product with a
zero factor, a tensor pushforward between zero modules, a factorisation
through a projection with no columns and the echelon form of a matrix
already reduced (or zero) are built without the general path.  The general
`tensor_module`, `tensor_functor_hom`, `factor_through` and `rref` they
bypass are kept below as oracles, over Q, GF(7) and GF(5), on zero and
nonzero bimodules and modules (the simples and random modules with one
cut, so that non-projectives occur) and on seeded random matrices:
echelon, near-echelon, with no rows and with no columns.

Hom(-, y) of a window is `hom_complex_data`, M (x) - of a window is
`complexes.tensor_window`, and `homology_at` is the one homology count
over them; a right module U is tensored as `right_bimodule(U)`.  The code
they replaced (`ext_dim` and `tor_dim` with their own complexes, the
engine's tensor exactness, `hom_exactness_failure`, the balanced tensor
space with no zero short cut, `tensor_complex_data` and the certifier's
per-degree Ext loop) is kept below as an oracle, over Q, GF(7) and GF(5),
on catalog algebras and their opposites, on simples, random cyclic
modules with one cut and zero modules, and on certificate and resolution
windows.  On the windows of `tests/test_reduction_oracle.py` and the
fixtures' complexes, over Q and GF(7), each tensored term must have the
parent's proj and section and each tensored differential its matrix,
and Tor_0 to Tor_2 its dimensions.

An algebra's product is one n^2 x n matrix, `consts`, and the block rings
are glued from tables by `glued_algebra`.  The parent's nested table, its
per-element `multiply` and action matrices, the associativity and unit
loops of `validate_algebra`, the loops of `generating_subset`,
`corner_algebra` and `quotient_algebra`, and the
per-element transcriptions of `build_ring`, `trivial_extension` and
`build_nc_tensor` are kept below as oracles.  Over Q, GF(7) and GF(5) the
structure constants must be equal on every catalog algebra, its opposite,
its corners at idempotent basis elements and its radical quotient, on the
rings of the catalog contexts, of full contexts at scales 1 to 3 and of
seeded random contexts, on trivial extensions and on the tensor rings of
`tests/test_nctensor.py`; a table or unit with one entry changed must get
the same violation list, in the same order.

The Morita layer acts by a span with one `FDModule.acts_of` and re-indexes
whole products with `swap_factors` and `reshape`; `swap_factors` is checked
against an index loop at unequal factors, and the N (x) M and M (x) N
oracles also run on the wide context, over Q and GF(11).  The per-element
code it replaced is kept below as oracles: the context squares and the ideal checks
of `validate_context`, the psi, zeta, evaluation and adjoint-mate maps,
`module_to_quadruple` on the ring's block embeddings, the two loops of
`structural_maps`, `induced_module`, and the ideal loops of
`quotient_algebra`, `recognize_trivial_extension` and `ideal_closure`.
They must give equal matrices and equal message lists, the errors
included, on the wide context and its swap (whose bimodules have dimension
2, so a wrong factor order shows), and over Q, GF(7) and GF(5) on seeded
random contexts, on contexts whose psi or phi is a random admissible
balanced map, and on `corrupt_psi` contexts.  On every context that
passes `validate_context`, the parent's ideal checks find nothing: the
axioms prove them.
"""
from __future__ import annotations

import glob
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from gpmorita import linalg
from gpmorita.algebra import (
    Algebra, AlgebraError, UnsupportedField, Violation, corner_algebra,
    generating_subset, ideal_closure, opposite_algebra, quotient_algebra,
    radical_basis, trace_form, validate_algebra,
)
from gpmorita.bimodules import (
    BalancedMap, Bimodule, BimoduleError, TensorModule, bimodule_tensor,
    hom_module, opposite_bimodule, regular_bimodule, right_bimodule,
    tensor_functor_hom, tensor_module, validate_balanced_map,
    validate_bimodule, zero_balanced_map, zero_bimodule,
)
from gpmorita.catalog import (
    arrow_ideal_context, corrupt_psi, field_algebra, full_context,
    glued_psi_context, path_a2, product_fields, random_context,
    random_glued_context, random_hom, random_module, random_quadruple,
    simple_at_idempotent, simple_kx2, triangular_context, truncated_poly,
    two_cycle_context, two_cycle_rad_square, wide_psi_context,
)
from gpmorita.complexes import (
    ComplexWindow, hom_complex_data, hom_exactness_failure,
    tensor_exactness_failure, tensor_window, window_data,
)
from gpmorita.engine import build_total_resolution, check_conditions
from gpmorita.fields import GF, QQ, Field
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import (
    _block_reps, ext_dim, first_nonzero_ext, minimal_resolution,
    projective_cover, radical_rows_of_module, simple_modules, top_of, tor_dim,
)
from gpmorita.jsonio import load_problem
from gpmorita.linalg import (
    Mat, coordinates, factor_through, in_row_space, intertwining_system,
    kernel_basis, left_kernel, linear_combination, quotient_maps, rank,
    row_space, rref, solve, solve_left,
)
from gpmorita.modules import (
    FDModule, ModuleError, ModuleHom, cokernel_of, direct_sum, hom_dim,
    hom_space, kernel_of, quotient_by_rows, regular_module, submodule_from_rows,
    zero_hom, zero_module,
)
from gpmorita.morita import (
    ContextError, MoritaContext, MoritaRing, QuadrupleModule,
    build_ring, direct_sum_quadruples, evaluation_full, f_tilde, h_a, h_b,
    make_quadruple, module_to_quadruple, opposite_context, opposite_ring,
    quadruple_to_module, regular_right_quadruples, swap_context,
    swap_quadruple, t_a, t_b, tensor_over_ring, validate_context,
    validate_quadruple, zeta_full,
)
from gpmorita.nctensor import build_nc_tensor
from gpmorita.trivext import (
    ExtensionError, StructuralMaps, TrivialExtension, _psi_tensor_one,
    check_extension_matches, ideal_bimodule_a, induced_module, lam_bimodules, psi_ideal_coords, psi_tensor_block,
    recognize_trivial_extension, structural_maps, t_lambda, trivial_extension,
)

from element_products import multiply

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "fixtures")
FIELDS = {"Q": QQ, "GF7": lambda: GF(7)}
THREE_FIELDS = {**FIELDS, "GF5": lambda: GF(5)}
CONTEXTS = {"triangular": triangular_context, "two_cycle": two_cycle_context,
            "glued_psi": glued_psi_context, "arrow_ideal": arrow_ideal_context}
# the tests of right modules and of the psi maps also run on the wide
# context, whose bimodules have dimension 2 and whose psi is not symmetric
# in its two factors
ALL_CONTEXTS = {**CONTEXTS, "wide": wide_psi_context}
# the wide context's ring has dimension 7, so its radical needs p > 7
CASE_FIELDS = {**THREE_FIELDS, "GF11": lambda: GF(11)}
SEEDS = range(6)


# -- oracles: the per-entry code, verbatim ------------------------------------


def _middle_relations(F: Field, right_acts_m: list[Mat], acts_x: list[Mat],
                      dim_m: int, dim_x: int) -> Mat:
    rows = []
    amb = dim_m * dim_x
    for t in range(len(right_acts_m)):
        Ra = right_acts_m[t]
        La = acts_x[t]
        for s in range(dim_m):
            ra_row = Ra.data[s]
            for j in range(dim_x):
                vec = [F.zero()] * amb
                for s2 in range(dim_m):
                    if not F.is_zero(ra_row[s2]):
                        vec[s2 * dim_x + j] = F.add(vec[s2 * dim_x + j], ra_row[s2])
                la_row = La.data[j]
                for j2 in range(dim_x):
                    if not F.is_zero(la_row[j2]):
                        vec[s * dim_x + j2] = F.sub(vec[s * dim_x + j2], la_row[j2])
                rows.append(vec)
    return Mat.from_rows(F, rows, amb) if rows else Mat.zeros(F, 0, amb)


def _quotient_maps(F: Field, rel_rows: Mat, ambient: int) -> tuple[Mat, Mat]:
    R, pivots = rref(rel_rows)
    pivset = set(pivots)
    free = [c for c in range(ambient) if c not in pivset]
    proj = Mat.zeros(F, ambient, len(free)).to_rows()
    sec = Mat.zeros(F, len(free), ambient).to_rows()
    for k, c in enumerate(free):
        proj[c][k] = F.one()
        sec[k][c] = F.one()
    for i, pc in enumerate(pivots):
        for k, c in enumerate(free):
            proj[pc][k] = F.neg(R.data[i][c])
    return Mat(F, proj, len(free)), Mat(F, sec, ambient)


def _quadruple_hom_space(q1: QuadrupleModule,
                         q2: QuadrupleModule) -> list[tuple[Mat, Mat]]:
    F = q1.ctx.A.field
    na, nb = q1.x.dim * q2.x.dim, q1.y.dim * q2.y.dim
    if na + nb == 0:
        return []
    sides = ((q1, q2, 0, na), (swap_quadruple(q1), swap_quadruple(q2), na, 0))
    rows: list[list] = []
    for s1, s2, own, _ in sides:
        d1, d2 = s1.x.dim, s2.x.dim
        for t in s1.x.gens():
            A1, A2 = s1.x.acts[t], s2.x.acts[t]
            for i in range(d1):
                for j in range(d2):
                    r = [F.zero()] * (na + nb)
                    for k in range(d1):
                        if not F.is_zero(A1.data[i][k]):
                            idx = own + k * d2 + j
                            r[idx] = F.add(r[idx], A1.data[i][k])
                    for l in range(d2):
                        if not F.is_zero(A2.data[l][j]):
                            idx = own + i * d2 + l
                            r[idx] = F.sub(r[idx], A2.data[l][j])
                    rows.append(r)
    # f-square: (1_M (x) alpha) f2 = f1 beta, as entries over MX1 x Y2
    for s1, s2, own, other in sides:
        d1, d2, e1, e2 = s1.x.dim, s2.x.dim, s1.y.dim, s2.y.dim
        S1 = s1.mx.section               # MX1 -> M (x)_k X1
        G2 = s2.mx.proj @ s2.f.mat       # M (x)_k X2 -> Y2
        Fm = s1.f.mat
        for p in range(s1.mx.module.dim):
            for qq in range(e2):
                r = [F.zero()] * (na + nb)
                for i in range(s1.ctx.M.dim):
                    for j in range(d1):
                        s_coef = S1.data[p][i * d1 + j]
                        if F.is_zero(s_coef):
                            continue
                        for l in range(d2):
                            g_coef = G2.data[i * d2 + l][qq]
                            if not F.is_zero(g_coef):
                                idx = own + j * d2 + l
                                r[idx] = F.add(r[idx], F.mul(s_coef, g_coef))
                for rr in range(e1):
                    if not F.is_zero(Fm.data[p][rr]):
                        idx = other + rr * e2 + qq
                        r[idx] = F.sub(r[idx], Fm.data[p][rr])
                rows.append(r)
    system = Mat.from_rows(F, rows, na + nb) if rows else Mat.zeros(F, 0, na + nb)
    ker = kernel_basis(system)

    def block(c, own, d1, d2):
        return Mat(F, [[ker.data[own + i * d2 + j][c] for j in range(d2)]
                       for i in range(d1)], d2)

    return [(block(c, 0, q1.x.dim, q2.x.dim), block(c, na, q1.y.dim, q2.y.dim))
            for c in range(ker.cols)]


def _tensor_over_ring(rq, q: QuadrupleModule) -> int:
    ctx = q.ctx
    F = ctx.A.field
    cx = _balanced_tensor_space(rq.c, q.x)
    dy = _balanced_tensor_space(rq.d, q.y)
    total = cx.dim + dy.dim
    rows = []
    g_big = q.ny.proj @ q.g.mat       # N (x)_k Y -> X
    f_big = q.mx.proj @ q.f.mat
    h_big = rq.cn.proj @ rq.h.mat     # C (x)_k N -> D
    k_big = rq.dm.proj @ rq.k.mat
    dc, dd, dn, dm = rq.c.dim, rq.d.dim, ctx.N.dim, ctx.M.dim
    dx, dyy = q.x.dim, q.y.dim
    for ic in range(dc):
        for i_n in range(dn):
            hval = h_big.row(ic * dn + i_n)          # in D
            for iy in range(dyy):
                gval = g_big.row(i_n * dyy + iy)     # in X
                vec = [F.zero()] * total
                # c (x) gval, projected into C (x)_A X
                for jx in range(dx):
                    if not F.is_zero(gval[jx]):
                        amb = ic * dx + jx
                        for t in range(cx.dim):
                            vec[t] = F.add(vec[t], F.mul(gval[jx], cx.proj.data[amb][t]))
                # minus hval (x) y, projected into D (x)_B Y
                for jd in range(dd):
                    if not F.is_zero(hval[jd]):
                        amb = jd * dyy + iy
                        for t in range(dy.dim):
                            vec[cx.dim + t] = F.sub(vec[cx.dim + t],
                                                    F.mul(hval[jd], dy.proj.data[amb][t]))
                rows.append(vec)
    for jd in range(dd):
        for i_m in range(dm):
            kval = k_big.row(jd * dm + i_m)          # in C
            for ix in range(dx):
                fval = f_big.row(i_m * dx + ix)      # in Y
                vec = [F.zero()] * total
                for jy in range(dyy):
                    if not F.is_zero(fval[jy]):
                        amb = jd * dyy + jy
                        for t in range(dy.dim):
                            vec[cx.dim + t] = F.add(vec[cx.dim + t],
                                                    F.mul(fval[jy], dy.proj.data[amb][t]))
                for jc in range(dc):
                    if not F.is_zero(kval[jc]):
                        amb = jc * dx + ix
                        for t in range(cx.dim):
                            vec[t] = F.sub(vec[t], F.mul(kval[jc], cx.proj.data[amb][t]))
                rows.append(vec)
    rel = Mat.from_rows(F, rows, total) if rows else Mat.zeros(F, 0, total)
    return total - rank(rel)


# the parent's right-module layer: right modules over the context ring as
# (C, D, h: C (x)_A N -> D, k: D (x)_B M -> C) on their own tensor spaces


@dataclass
class _RightQuadruple:
    """A right module over the context ring: (C_A, D_B, h, k) with
    h: C (x)_A N -> D and k: D (x)_B M -> C.

    Storage convention: C and D are left modules over the opposite corner
    algebras (the package-wide encoding of right modules), and the maps h,
    k are given on the quotient coordinates of the balanced tensor spaces
    below.  The "first corner" of the opposite presentation is C (the
    A-side), mirroring the left-module convention.
    """

    ctx: MoritaContext
    c: FDModule                  # over A^op
    d: FDModule                  # over B^op
    h: ModuleHom                 # (C (x)_A N as B^op-module) -> D
    k: ModuleHom                 # (D (x)_B M as A^op-module) -> C
    cn: "_RightTensor"
    dm: "_RightTensor"
    name: str = ""

    @property
    def dim(self) -> int:
        return self.c.dim + self.d.dim


@dataclass
class _RightTensor:
    module: FDModule
    proj: Mat
    section: Mat


def _right_tensor(c_op: FDModule, w: Bimodule, name: str = "") -> _RightTensor:
    """C (x)_A W for a right A-module C and an (A, B)-bimodule W, as a
    right B-module (left module over B^op)."""
    F = w.left.field
    proj, sec = quotient_maps(
        intertwining_system(F, c_op.dim, w.dim, c_op.acts, w.left_acts))
    bop = opposite_algebra(w.right)
    eye_c = Mat.identity(F, c_op.dim)
    acts = factor_through(proj, [eye_c.kron(a) @ proj for a in w.right_acts])
    if acts is None:
        raise ContextError("right action does not descend to the tensor")
    return _RightTensor(FDModule(bop, proj.cols, acts, name=name), proj, sec)


def _make_right_quadruple(ctx: MoritaContext, c: FDModule, d: FDModule,
                          h_full: Mat, k_full: Mat, name: str = "") -> _RightQuadruple:
    cn = _right_tensor(c, ctx.N, name=f"{c.name}(x)N")
    dm = _right_tensor(d, ctx.M, name=f"{d.name}(x)M")
    h_mat = factor_through(cn.proj, [h_full])
    if h_mat is None:
        raise ContextError("h does not factor through C (x)_A N")
    k_mat = factor_through(dm.proj, [k_full])
    if k_mat is None:
        raise ContextError("k does not factor through D (x)_B M")
    return _RightQuadruple(ctx, c, d, ModuleHom(cn.module, d, h_mat[0]),
                           ModuleHom(dm.module, c, k_mat[0]), cn, dm, name=name)


def _right_quadruple_to_module(mr: MoritaRing, rq: _RightQuadruple) -> FDModule:
    """As a left module over the opposite context ring."""
    ctx = mr.ctx
    F = mr.ring.field
    dc, dd = rq.c.dim, rq.d.dim
    offA, offN, offM, offB = mr.offs
    # row c of h_rows holds c (x) n_s |-> D in column band s; k likewise
    h_rows = (rq.cn.proj @ rq.h.mat).reshape(dc, ctx.N.dim * dd)
    k_rows = (rq.dm.proj @ rq.k.mat).reshape(dd, ctx.M.dim * dc)
    acts = []
    for t in range(mr.ring.dim):
        blocks = [[None, None], [None, None]]
        if offA <= t < offA + ctx.A.dim:
            blocks[0][0] = rq.c.acts[t - offA]
        elif offN <= t < offN + ctx.N.dim:
            s = t - offN
            blocks[0][1] = h_rows.block(0, dc, s * dd, (s + 1) * dd)
        elif offM <= t < offM + ctx.M.dim:
            s = t - offM
            blocks[1][0] = k_rows.block(0, dd, s * dc, (s + 1) * dc)
        else:
            blocks[1][1] = rq.d.acts[t - offB]
        acts.append(Mat.from_blocks(F, [dc, dd], [dc, dd], blocks))
    return FDModule(opposite_algebra(mr.ring), dc + dd, acts,
                    name=rq.name or "rquad")


def _as_right_quadruple(rq: QuadrupleModule) -> "_RightQuadruple":
    """The parent's right quadruple with the maps of rq, a quadruple over
    the opposite context, re-indexed row by row from N (x) C and M (x) D to
    C (x) N and D (x) M."""
    ctx = opposite_context(rq.ctx)
    F = ctx.A.field

    def swapped(big: Mat, a: int, b: int) -> Mat:
        rows = [big.row(i * b + j) for j in range(b) for i in range(a)]
        return Mat.from_rows(F, rows, big.cols) if rows else big

    h_full = swapped(rq.mx.proj @ rq.f.mat, ctx.N.dim, rq.x.dim)
    k_full = swapped(rq.ny.proj @ rq.g.mat, ctx.M.dim, rq.y.dim)
    return _make_right_quadruple(ctx, rq.x, rq.y, h_full, k_full, name=rq.name)


# the psi (x) 1 coefficient loops that the Kronecker products replaced


def _psi_tensor_block(ctx: MoritaContext, ext: TrivialExtension, p_module: FDModule,
                      mp_tensor: TensorModule, ip_tensor: TensorModule) -> Mat:
    """psi (x) 1_P as a matrix N (x)_k (M (x)_Lambda P) -> I (x)_Lambda P."""
    F = ctx.A.field
    dN, dM, dP = ctx.N.dim, ctx.M.dim, p_module.dim
    psi_i = psi_ideal_coords(ext, ctx)
    rows = []
    for i_n in range(dN):
        for t in range(mp_tensor.module.dim):
            lift = mp_tensor.section.row(t)
            acc = [F.zero()] * ip_tensor.module.dim
            for amb, coef in enumerate(lift):
                if F.is_zero(coef):
                    continue
                i_m, i_p = divmod(amb, dP)
                ivec = psi_i.row(i_n * dM + i_m)
                for s, c in enumerate(ivec):
                    if not F.is_zero(c):
                        prow = ip_tensor.proj.row(s * dP + i_p)
                        acc = [F.add(u, F.mul(F.mul(coef, c), w))
                               for u, w in zip(acc, prow)]
            rows.append(acc)
    return Mat.from_rows(F, rows, ip_tensor.module.dim) if rows else \
        Mat.zeros(F, 0, ip_tensor.module.dim)


def _t_lambda(ext: TrivialExtension, ctx: MoritaContext, x: FDModule,
              name: str = "") -> QuadrupleModule:
    """The induced quadruple (X(I), M (x)_Lambda X, projection, psi-action)."""
    check_extension_matches(ext, ctx)
    F = ext.Lam.field
    xi = induced_module(ext, x)
    ix_t = tensor_module(ext.ideal, x)
    mx_lam = tensor_module(lam_bimodules(ext, ctx)[0], x)
    y = mx_lam.module
    dX, dM, dN = x.dim, ctx.M.dim, ctx.N.dim
    # f: M (x)_k X(I) -> Y = M (x)_Lambda X;
    # m (x) (v, w) |-> m (x) v + (m . i-part of w) (x) ... (zero since MI = 0)
    f_rows = []
    for i_m in range(dM):
        for c in range(xi.dim):
            if c < dX:
                f_rows.append(mx_lam.proj.row(i_m * dX + c))
            else:
                lift = ix_t.section.row(c - dX)
                acc = [F.zero()] * y.dim
                for amb, coef in enumerate(lift):
                    if F.is_zero(coef):
                        continue
                    s, j = divmod(amb, dX)
                    w = ctx.M.right_act_of(ext.ideal_rows.row(s)).row(i_m)
                    for t, wt in enumerate(w):
                        if not F.is_zero(wt):
                            prow = mx_lam.proj.row(t * dX + j)
                            acc = [F.add(u, F.mul(F.mul(coef, wt), v))
                                   for u, v in zip(acc, prow)]
                f_rows.append(acc)
    f_full = Mat.from_rows(F, f_rows, y.dim) if f_rows else Mat.zeros(F, 0, y.dim)
    # g: N (x)_k Y -> X(I); n (x) (m (x) v) |-> psi(n (x) m) (x) v in the
    # I (x) X block
    g_full = Mat.hstack([Mat.zeros(F, dN * y.dim, dX),
                         _psi_tensor_block(ctx, ext, x, mx_lam, ix_t)])
    return make_quadruple(ctx, xi, y, f_full, g_full,
                          name=name or f"T_Lam({x.name})")


def _psi_tensor_one_loop(ctx: MoritaContext, sm: StructuralMaps,
                         nmu: TensorModule) -> ModuleHom:
    """psi (x) 1_U : N (x)_B M (x)_A U -> I (x)_A U."""
    F = ctx.A.field
    dN, dM, dU = ctx.N.dim, ctx.M.dim, sm.u.dim
    I = ctx.ideal_rows_a()
    psi_i = coordinates(I, ctx.psi.mat)
    if psi_i is None:
        raise ContextError("im(psi) escapes its own row space")
    rows = []
    for i_n in range(dN):
        for i_m in range(dM):
            ivec = psi_i.row(i_n * dM + i_m)
            for i_u in range(dU):
                acc = [F.zero()] * sm.iu_t.module.dim
                for s, c in enumerate(ivec):
                    if not F.is_zero(c):
                        prow = sm.iu_t.proj.row(s * dU + i_u)
                        acc = [F.add(p, F.mul(c, w)) for p, w in zip(acc, prow)]
                rows.append(acc)
    full = Mat.from_rows(F, rows, sm.iu_t.module.dim) if rows else \
        Mat.zeros(F, 0, sm.iu_t.module.dim)
    eye_n = Mat.identity(F, dN)
    big_proj = eye_n.kron(sm.mu_t.proj) @ nmu.proj
    mat = factor_through(big_proj, [full])
    if mat is None:
        raise ContextError("psi (x) 1 does not factor through the quotient")
    return ModuleHom(nmu.module, sm.iu_t.module, mat[0])


def _sigma0_loop(ctx, ext, ip0, nq0, mp0) -> Mat:
    F = ctx.A.field
    mp_dim = mp0.module.dim
    y0_dim = mp_dim + nq0.arg.dim
    z0_dim = ip0.module.dim + nq0.module.dim
    rows = []
    psi_part = psi_tensor_block(ctx, ext, mp0.arg)
    # careful: psi_part is on N (x)_k (M (x) P^0); build sigma on N (x)_k Y^0
    dN = ctx.N.dim
    for i_n in range(dN):
        for c in range(y0_dim):
            acc = [F.zero()] * z0_dim
            if c < mp_dim:
                prow = psi_part.row(i_n * mp_dim + c)
                acc[:ip0.module.dim] = prow
            else:
                j = c - mp_dim
                nq_amb = i_n * nq0.arg.dim + j
                prow = nq0.proj.row(nq_amb)
                for k2 in range(nq0.module.dim):
                    acc[ip0.module.dim + k2] = prow[k2]
            rows.append(acc)
    return Mat.from_rows(F, rows, z0_dim) if rows else Mat.zeros(F, 0, z0_dim)


def _intertwining_system_kron(field: Field, dp: int, dq: int, ps: list[Mat],
                              qs: list[Mat]) -> Mat:
    eye_p, eye_q = Mat.identity(field, dp), Mat.identity(field, dq)
    blocks = [p.kron(eye_q).sub(eye_p.kron(q)) for p, q in zip(ps, qs, strict=True)]
    return Mat.vstack(blocks) if blocks else Mat.zeros(field, 0, dp * dq)


def _act_of(F: Field, rows: int, cols: int, coeffs: list, mats: list[Mat]) -> Mat:
    out = Mat.zeros(F, rows, cols)
    for t, c in enumerate(coeffs):
        if not F.is_zero(c):
            out = out.add(mats[t].scale(c))
    return out


# -- cases ---------------------------------------------------------------------


def _cases(field: str, context: str):
    """The context, T_A(A), T_B(B), their sum and seeded random quadruples;
    a context name ending in "^swap" names the swap of a catalog context."""
    ctx = ALL_CONTEXTS[context.removesuffix("^swap")](CASE_FIELDS[field]())[1]
    if context.endswith("^swap"):
        ctx = swap_context(ctx)
    ta, tb = t_a(ctx, regular_module(ctx.A)), t_b(ctx, regular_module(ctx.B))
    quads = [ta, tb, direct_sum_quadruples([ta, tb])]
    quads += [random_quadruple(ctx, random.Random(s)) for s in SEEDS]
    return ctx, quads


PARAMS = [(f, c) for f in FIELDS for c in CONTEXTS]
WIDE_PARAMS = PARAMS + [(f, "wide") for f in FIELDS]
# with phi != 0 as well: the swap of the wide context
RIGHT_PARAMS = WIDE_PARAMS + [(f, "wide^swap") for f in FIELDS]
# the N (x) M and M (x) N oracles: on the wide context dim M = dim N = 2
# and psi is not symmetric, so a wrong order of the two factors shows
NM_PARAMS = PARAMS + [("Q", "wide"), ("GF11", "wide")]


@pytest.mark.parametrize("field", ["Q", "GF11"])
@pytest.mark.parametrize("a, b", [(2, 3), (3, 2), (2, 4)])
def test_swap_factors_matches_the_index_loop(field, a, b):
    # row i * b + j of a (x) b goes to row j * a + i of b (x) a, entry by
    # entry; every row differs, so any other order of the rows shows
    F = CASE_FIELDS[field]()
    cols = 3
    rows = [[Fraction(r * cols + k + 1, 1 + k) if F.is_rational
             else F.of_int(r * cols + k + 1) for k in range(cols)]
            for r in range(a * b)]
    out = [[None] * cols for _ in range(a * b)]
    for i in range(a):
        for j in range(b):
            for k in range(cols):
                out[j * a + i][k] = rows[i * b + j][k]
    assert Mat(F, rows, cols).swap_factors(a, b) == Mat(F, out, cols)


@pytest.mark.parametrize("field, context", NM_PARAMS)
def test_intertwining_system_is_the_middle_relations(field, context):
    ctx, quads = _cases(field, context)
    F = ctx.A.field
    pairs = [(ctx.M.right_acts, q.x.acts, ctx.M.dim, q.x.dim) for q in quads]
    pairs += [(ctx.N.right_acts, q.y.acts, ctx.N.dim, q.y.dim) for q in quads]
    pairs += [(ctx.N.right_acts, ctx.M.left_acts, ctx.N.dim, ctx.M.dim),
              (ctx.M.right_acts, ctx.N.left_acts, ctx.M.dim, ctx.N.dim)]
    for right_acts, acts, dm, dx in pairs:
        old = _middle_relations(F, right_acts, acts, dm, dx)
        new = intertwining_system(F, dm, dx, right_acts, acts)
        assert new == old
        proj, sec = quotient_maps(new)
        old_proj, old_sec = _quotient_maps(F, row_space(old), dm * dx)
        assert proj == old_proj and sec == old_sec


@pytest.mark.parametrize("field, context",
                         [(f, c) for f in THREE_FIELDS for c in ALL_CONTEXTS])
def test_ring_hom_space_matches_per_entry_quadruple_system(field, context):
    ctx, quads = _cases(field, context)
    mr = build_ring(ctx)
    mods = [quadruple_to_module(mr, q) for q in quads]
    for q1, v1 in zip(quads, mods):
        for q2, v2 in zip(quads, mods):
            new = [h.mat.flatten() for h in hom_space(v1, v2)]
            old = [Mat.block_diag([a, b]).flatten()
                   for a, b in _quadruple_hom_space(q1, q2)]
            assert len(new) == len(old)
            if old:
                assert row_space(Mat.vstack(new)) == row_space(Mat.vstack(old))


def _right_cases(ctx):
    """Right modules over the context ring, as quadruples over the opposite
    context: the two regular ones, T and H of every simple corner module,
    and seeded random quadruples (corner modules drawn with max_cuts=1)."""
    op = opposite_context(ctx)
    rqs = regular_right_quadruples(build_ring(ctx))
    rqs += [f(op, c) for c in simple_modules(op.A) for f in (t_a, h_a)]
    rqs += [f(op, d) for d in simple_modules(op.B) for f in (t_b, h_b)]
    rqs += [random_quadruple(op, random.Random(s)) for s in SEEDS]
    return rqs


@pytest.mark.parametrize("field, context", RIGHT_PARAMS)
def test_right_quadruples_match_the_parent_right_layer(field, context):
    ctx, _ = _cases(field, context)
    mr = build_ring(ctx)
    for rq in _right_cases(ctx):
        new = quadruple_to_module(opposite_ring(mr), rq)
        old = _right_quadruple_to_module(mr, _as_right_quadruple(rq))
        assert new.algebra is old.algebra
        assert new.acts == old.acts


@pytest.mark.parametrize("field, context", RIGHT_PARAMS)
def test_tensor_over_ring_matches_row_loop(field, context):
    ctx, quads = _cases(field, context)
    for rq in _right_cases(ctx):
        old = _as_right_quadruple(rq)
        for q in quads:
            assert tensor_over_ring(rq, q) == _tensor_over_ring(old, q)


def test_tensor_over_ring_wants_the_opposite_context():
    ctx, quads = _cases("Q", "glued_psi")
    with pytest.raises(ContextError, match="opposite context"):
        tensor_over_ring(quads[0], quads[1])


@pytest.mark.parametrize("field, context", WIDE_PARAMS)
def test_psi_kron_products_match_the_coefficient_loops(field, context):
    ext, ctx = ALL_CONTEXTS[context](FIELDS[field]())
    rng = random.Random(7)
    ps = simple_modules(ext.Lam) + [random_module(ext.Lam, rng, max_cuts=1)
                                    for _ in range(3)]
    qs = simple_modules(ctx.B) + [random_module(ctx.B, rng, max_cuts=1)
                                  for _ in range(2)]
    m_lam, n_lam = lam_bimodules(ext, ctx)
    quads = []
    for p in ps:
        mp, ip = tensor_module(m_lam, p), tensor_module(ext.ideal, p)
        assert psi_tensor_block(ctx, ext, p) == \
            _psi_tensor_block(ctx, ext, p, mp, ip)
        new, old = t_lambda(ext, ctx, p), _t_lambda(ext, ctx, p)
        assert new.f.mat == old.f.mat and new.g.mat == old.g.mat
        quads.append(new)
        for q in qs:
            # sigma^0 as the engine reads it off T^0: its g on the full
            # space N (x)_k Y^0, without the P columns
            nq = tensor_module(n_lam, q)
            g = direct_sum_quadruples([new, t_b(ctx, q)]).g_full
            assert g.block(0, g.rows, p.dim, g.cols) == \
                _sigma0_loop(ctx, ext, ip, nq, mp)
    nonzero = 0
    for q in quads + [t_b(ctx, y) for y in qs]:
        sm = structural_maps(ctx, q)
        nmu = tensor_module(ctx.N, sm.mu_t.module)
        new = _psi_tensor_one(ctx, sm, nmu)
        assert new.mat == _psi_tensor_one_loop(ctx, sm, nmu).mat
        nonzero += not new.mat.is_zero()
    assert nonzero or ctx.psi_is_zero


@pytest.mark.parametrize("field", FIELDS)
def test_quotient_maps_match_on_random_spans(field):
    F = FIELDS[field]()
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 6)
        rel = Mat.from_rows(F, [[rng.randint(-2, 2) for _ in range(cols)]
                                for _ in range(rows)], cols)
        proj, sec = quotient_maps(rel)
        old_proj, old_sec = _quotient_maps(F, row_space(rel), cols)
        assert proj == old_proj and sec == old_sec
        assert sec @ proj == Mat.identity(F, proj.cols)


def _random_scalar(F: Field, rng: random.Random):
    """Zero half the time, else a small entry; over Q with denominator
    1, 2 or 3."""
    if rng.random() < 0.5:
        return F.zero()
    if F.is_rational:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return F.of_int(rng.randrange(F.p))


def _random_mat(F: Field, rng: random.Random, rows: int, cols: int) -> Mat:
    return Mat.from_rows(F, [[_random_scalar(F, rng) for _ in range(cols)]
                             for _ in range(rows)], cols)


@pytest.mark.parametrize("field", FIELDS)
def test_sparse_intertwining_system_matches_kron_formula(field):
    F = FIELDS[field]()
    rng = random.Random(11)
    shapes = [(0, 0, 0), (2, 3, 0), (0, 3, 2), (3, 0, 1), (0, 0, 2)]
    shapes += [(rng.randrange(0, 4), rng.randrange(0, 4), rng.randrange(0, 4))
               for _ in range(60)]
    for dp, dq, k in shapes:
        ps = [_random_mat(F, rng, dp, dp) for _ in range(k)]
        qs = [_random_mat(F, rng, dq, dq) for _ in range(k)]
        new = intertwining_system(F, dp, dq, ps, qs)
        assert new == _intertwining_system_kron(F, dp, dq, ps, qs)
        assert (new.rows, new.cols) == (k * dp * dq, dp * dq)


@pytest.mark.parametrize("field", FIELDS)
def test_linear_combination_matches_add_scale_loop(field):
    F = FIELDS[field]()
    rng = random.Random(12)
    for _ in range(80):
        rows, cols, k = rng.randrange(0, 4), rng.randrange(0, 4), rng.randrange(0, 5)
        mats = [_random_mat(F, rng, rows, cols) for _ in range(k)]
        coeffs = [_random_scalar(F, rng) for _ in range(k)]
        assert (linear_combination(F, rows, cols, coeffs, mats)
                == _act_of(F, rows, cols, coeffs, mats))
        if k:
            # a lone unit coefficient hands back the matrix itself
            t = rng.randrange(k)
            unit = [F.one() if s == t else F.zero() for s in range(k)]
            assert linear_combination(F, rows, cols, unit, mats) is mats[t]


# -- express-in-a-basis loops: the per-element solve_left code, verbatim --------


def _hom_complex_data(c: ComplexWindow, y: FDModule):
    F = y.algebra.field
    bases = [hom_space(c.term(i), y) for i in range(c.lo, c.hi + 1)]
    maps = []
    for i in range(c.lo, c.hi):
        src = bases[i - c.lo + 1]       # Hom(X^{i+1}, y)
        dst = bases[i - c.lo]           # Hom(X^i, y)
        if not src or not dst:
            maps.append(Mat.zeros(F, len(src), len(dst)))
            continue
        stacked = Mat.vstack([h.mat.flatten() for h in dst])
        rows = []
        for h in src:
            comp = c.diff(i).mat @ h.mat
            co = solve_left(stacked, comp.flatten())
            if co is None:
                raise AssertionError("hom complex map failed to express")
            rows.append(co.row(0))
        maps.append(Mat.from_rows(F, rows, len(dst)))
    return [len(b) for b in bases], maps


def _hom_module_acts(n: Bimodule, x: FDModule) -> list[Mat]:
    B = n.right
    F = B.field
    basis = hom_space(n.as_left_module(), x)
    k = len(basis)
    if k == 0:
        return [Mat.zeros(F, 0, 0) for _ in range(B.dim)]
    stacked = Mat.vstack([h.mat.flatten() for h in basis])
    acts = []
    for t in range(B.dim):
        rows = []
        for h in basis:
            moved = n.right_acts[t] @ h.mat      # (b.f) = R_b then f
            c = solve_left(stacked, moved.flatten())
            if c is None:
                raise AssertionError("Hom space not closed under the action")
            rows.append(c.row(0))
        acts.append(Mat.from_rows(F, rows, k))
    return acts


def _submodule_acts(x: FDModule, rows: Mat) -> list[Mat]:
    basis = row_space(rows)
    acts = []
    for t in range(x.algebra.dim):
        moved = basis @ x.acts[t]
        coeffs = solve_left(basis, moved)
        if coeffs is None:
            raise AssertionError("row span is not invariant under the action")
        acts.append(coeffs)
    return acts


def _random2(alg) -> FDModule:
    """The first random module of dimension 2 drawn from a fixed stream."""
    ref = random.Random(0)
    for _ in range(500):
        m = random_module(alg, ref)
        if m.dim == 2:
            return m
    raise AssertionError(f"no 2-dimensional random module over {alg.name}")


def _resolution_window(x: FDModule) -> ComplexWindow:
    """The minimal resolution P_3 -> ... -> P_0 of x, as ext_dim windows it."""
    res = minimal_resolution(x, 3)
    n = len(res.maps)
    return ComplexWindow(-n, 0, res.terms[::-1], res.maps[::-1])


def _catalog_windows(field: str):
    """(window, targets): the T windows of the four catalog contexts at
    T_B(B), and the minimal resolutions of the simples and of random2 over
    three catalog algebras; the targets are the regular module and random2
    of the window's algebra."""
    F = FIELDS[field]()
    windows = []
    for make in CONTEXTS.values():
        ext, ctx = make(F)
        q = t_b(ctx, regular_module(ctx.B))
        asm = build_total_resolution(ext, ctx, q, check_conditions(ext, ctx, q),
                                     window=3)
        windows.append(asm.tcx)
    windows += [_resolution_window(x) for x in _resolved_modules(F)]
    return [(w, [regular_module(w.algebra), _random2(w.algebra)]) for w in windows]


def _resolved_modules(F: Field) -> list[FDModule]:
    """The simples and random2 of path_a2, k[x]/(x^3) and the two-cycle
    algebra."""
    ka2, kx3, cyc = path_a2(F), truncated_poly(F, 3), two_cycle_rad_square(F)
    simples = [simple_at_idempotent(ka2, 0), simple_at_idempotent(ka2, 2),
               simple_kx2(kx3), simple_at_idempotent(cyc, 0),
               simple_at_idempotent(cyc, 1)]
    return simples + [_random2(a) for a in (ka2, kx3, cyc)]


@pytest.mark.parametrize("field", FIELDS)
def test_hom_complex_data_matches_solve_left_loop(field):
    for window, targets in _catalog_windows(field):
        for y in targets:
            dims, maps = hom_complex_data(window, y)
            old_dims, old_maps = _hom_complex_data(window, y)
            assert dims == old_dims
            assert len(maps) == len(old_maps)
            for new, old in zip(maps, old_maps):
                assert new == old


@pytest.mark.parametrize("field, context", PARAMS)
def test_hom_module_matches_solve_left_loop(field, context):
    ctx, quads = _cases(field, context)
    pairs = [(ctx.N, q.x) for q in quads] + [(ctx.M, q.y) for q in quads]
    for n, x in pairs:
        mod, _ = hom_module(n, x)
        assert mod.acts == _hom_module_acts(n, x)


@pytest.mark.parametrize("field, context", PARAMS)
def test_submodule_from_rows_matches_solve_left_loop(field, context):
    ctx, quads = _cases(field, context)
    rng = random.Random(3)
    mods = [m for q in quads for m in (q.x, q.y)]
    for x in mods:
        for y in mods:
            if x.algebra is not y.algebra:
                continue
            h = random_hom(x, y, rng)
            for m, rows in ((x, left_kernel(h.mat)), (y, row_space(h.mat))):
                sub, _ = submodule_from_rows(m, rows)
                assert sub.acts == _submodule_acts(m, rows)


# -- factoring through a quotient projection: the per-element solve code --------


def _quotient_acts(x: FDModule, proj: Mat) -> list[Mat]:
    acts = []
    for t in range(x.algebra.dim):
        induced = solve(proj, x.acts[t] @ proj)
        acts.append(induced)
    return acts


def _tensor_acts(m: Bimodule, x: FDModule, proj: Mat) -> list[Mat]:
    F = m.left.field
    eye_x = Mat.identity(F, x.dim)
    acts = []
    for t in range(m.left.dim):
        big = m.left_acts[t].kron(eye_x)
        induced = solve(proj, big @ proj)
        if induced is None:
            raise BimoduleError("left action does not descend to the tensor quotient")
        acts.append(induced)
    return acts


def _bimodule_tensor_acts(m: Bimodule, n: Bimodule, proj: Mat):
    F = m.left.field
    eye_n = Mat.identity(F, n.dim)
    eye_m = Mat.identity(F, m.dim)
    la, ra = [], []
    for t in range(m.left.dim):
        big = m.left_acts[t].kron(eye_n)
        induced = solve(proj, big @ proj)
        if induced is None:
            raise BimoduleError("left action does not descend")
        la.append(induced)
    for t in range(n.right.dim):
        big = eye_m.kron(n.right_acts[t])
        induced = solve(proj, big @ proj)
        if induced is None:
            raise BimoduleError("right action does not descend")
        ra.append(induced)
    return la, ra


def _quadruple_maps(mx_proj: Mat, ny_proj: Mat, f_full: Mat, g_full: Mat):
    f_mat = solve(mx_proj, f_full)
    if f_mat is None:
        raise ContextError("f does not factor through M (x)_A X")
    g_mat = solve(ny_proj, g_full)
    if g_mat is None:
        raise ContextError("g does not factor through N (x)_B Y")
    return f_mat, g_mat


@pytest.mark.parametrize("field", FIELDS)
def test_quotient_actions_match_solve_loop(field):
    # the tops (quotients by the radical rows) of every module, term and
    # syzygy of the minimal resolutions, and the cokernel of every map
    for x in _resolved_modules(FIELDS[field]()):
        res = minimal_resolution(x, 3)
        for m in [x, *res.terms, *res.syzygies]:
            quo, p = top_of(m)
            assert quo.acts == _quotient_acts(m, p.mat)
        for h in [res.aug, *res.maps]:
            quo, p = cokernel_of(h)
            assert quo.acts == _quotient_acts(h.target, p.mat)


@pytest.mark.parametrize("field, context", NM_PARAMS)
def test_tensor_actions_match_solve_loop(field, context):
    ctx, quads = _cases(field, context)
    for m, x in [(ctx.M, q.x) for q in quads] + [(ctx.N, q.y) for q in quads]:
        t = tensor_module(m, x)
        assert t.module.acts == _tensor_acts(m, x, t.proj)
    for m, n in ((ctx.M, ctx.N), (ctx.N, ctx.M)):
        out, proj, _ = bimodule_tensor(m, n)
        assert (out.left_acts, out.right_acts) == _bimodule_tensor_acts(m, n, proj)


@pytest.mark.parametrize("field, context", PARAMS)
def test_make_quadruple_matches_solve(field, context):
    ctx, quads = _cases(field, context)
    for q in quads:
        f_full, g_full = q.mx.proj @ q.f.mat, q.ny.proj @ q.g.mat
        new = make_quadruple(ctx, q.x, q.y, f_full, g_full)
        f_mat, g_mat = _quadruple_maps(new.mx.proj, new.ny.proj, f_full, g_full)
        assert new.f.mat == f_mat == q.f.mat
        assert new.g.mat == g_mat == q.g.mat


def _same_error(new, old, exc, message):
    """Both calls raise exc with exactly this message."""
    for call in (new, old):
        with pytest.raises(exc) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("field", FIELDS)
def test_non_invariant_span_still_raises(field):
    a = truncated_poly(FIELDS[field](), 3)
    x = regular_module(a)
    rows = Mat.from_rows(a.field, [a.unit], a.dim)      # x . 1 = x leaves k.1

    def old():
        sub = row_space(rows)
        for t in range(x.algebra.dim):
            if not in_row_space(sub, sub @ x.acts[t]):
                raise ModuleError("row span is not invariant under the action")

    _same_error(lambda: quotient_by_rows(x, rows), old, ModuleError,
                "row span is not invariant under the action")


@pytest.mark.parametrize("field", FIELDS)
def test_non_descending_actions_still_raise(field):
    # right multiplication passed off as a left action (or left as right)
    # does not commute with the other side, so it leaves the relation span
    a = two_cycle_rad_square(FIELDS[field]())
    reg = regular_bimodule(a)
    bad_left = Bimodule(a, a, a.dim, a.rmul_mats(), a.rmul_mats())
    bad_right = Bimodule(a, a, a.dim, a.lmul_mats(), a.lmul_mats())
    x = regular_module(a)
    proj_x = quotient_maps(intertwining_system(a.field, a.dim, a.dim,
                                               bad_left.right_acts, x.acts))[0]
    _same_error(lambda: tensor_module(bad_left, x),
                lambda: _tensor_acts(bad_left, x, proj_x), BimoduleError,
                "left action does not descend to the tensor quotient")
    # bimodule_tensor descends its left action in `tensor_module`
    _same_error(lambda: bimodule_tensor(bad_left, reg),
                lambda: _tensor_acts(bad_left, x, proj_x), BimoduleError,
                "left action does not descend to the tensor quotient")
    proj = quotient_maps(intertwining_system(a.field, a.dim, a.dim,
                                             reg.right_acts, bad_right.left_acts))[0]
    _same_error(lambda: bimodule_tensor(reg, bad_right),
                lambda: _bimodule_tensor_acts(reg, bad_right, proj), BimoduleError,
                "right action does not descend")
    with pytest.raises(BimoduleError, match="^left action does not descend"):
        tensor_module(opposite_bimodule(bad_right), regular_module(opposite_algebra(a)))


@pytest.mark.parametrize("field", FIELDS)
def test_non_factoring_structure_maps_still_raise(field):
    cases = 0
    for context in CONTEXTS:
        ctx, quads = _cases(field, context)
        F = ctx.A.field
        for q in quads:
            f_full, g_full = q.mx.proj @ q.f.mat, q.ny.proj @ q.g.mat
            for bad, proj, cod in (("f", q.mx.proj, q.y), ("g", q.ny.proj, q.x)):
                units = [Mat.identity(F, proj.rows).block(0, proj.rows, j, j + 1)
                         for j in range(proj.rows)]
                outside = [e for e in units if solve(proj, e) is None]
                if not outside or cod.dim == 0:
                    continue
                full = Mat.hstack([outside[0], Mat.zeros(F, proj.rows, cod.dim - 1)])
                args = (full, g_full) if bad == "f" else (f_full, full)
                what = "M (x)_A X" if bad == "f" else "N (x)_B Y"
                message = f"{bad} does not factor through {what}"
                made = make_quadruple(ctx, q.x, q.y, *args)
                _same_error(lambda: getattr(made, bad),
                            lambda: _quadruple_maps(q.mx.proj, q.ny.proj, *args),
                            ContextError, message)
                assert validate_quadruple(made) == [message]
                cases += 1
    assert cases


def _catalog_algebras(F: Field):
    algs = [field_algebra(F), product_fields(F, 2), truncated_poly(F, 2),
            truncated_poly(F, 3), path_a2(F), two_cycle_rad_square(F)]
    for make in CONTEXTS.values():
        ext, ctx = make(F)
        algs += [ctx.A, ctx.B, ext.Lam, build_ring(ctx).ring]
    return algs


@pytest.mark.parametrize("field", FIELDS)
def test_cached_radical_is_the_trace_form_kernel(field):
    for a in _catalog_algebras(FIELDS[field]()):
        rad = radical_basis(a)
        assert rad == left_kernel(trace_form(a))
        assert radical_basis(a) is rad


def test_radical_field_check_runs_on_every_call():
    a = truncated_poly(GF(7), 7)
    for _ in range(2):
        with pytest.raises(UnsupportedField):
            radical_basis(a)


# -- the projective cover -------------------------------------------------------


def _projective_cover(x: FDModule, seed: int = 0) -> tuple[FDModule, ModuleHom]:
    """Minimal projective cover P ->> x (kernel inside rad P)."""
    a = x.algebra
    F = a.field
    if x.dim == 0:
        z = zero_module(a)
        return z, zero_hom(z, x)
    T, proj_T = top_of(x)
    summands: list[FDModule] = []
    blocks: list[Mat] = []
    for mod, incl, e, blk in _block_reps(a):
        eT = row_space(T.act_of(e))
        for r in range(eT.rows):
            t_r = Mat(F, [eT.row(r)], T.dim)
            y = solve_left(proj_T.mat, t_r)
            if y is None:
                raise ModuleError("top projection is not surjective")
            x_r = y @ x.act_of(e)
            # hom A*e -> x, v |-> v . x_r with x_r in e.x
            rows = [(x_r @ x.act_of(incl.mat.row(i))).row(0) for i in range(mod.dim)]
            summands.append(mod)
            blocks.append(Mat.from_rows(F, rows, x.dim))
    if not summands:
        z = zero_module(a)
        return z, zero_hom(z, x)
    P, _, _ = direct_sum(summands, name=f"P({x.name})")
    phi = ModuleHom(P, x, Mat.vstack(blocks))
    if not phi.is_surjective():
        raise ModuleError("projective cover construction failed to surject")
    ker_rows = left_kernel(phi.mat)
    if ker_rows.rows and not in_row_space(radical_rows_of_module(P), ker_rows):
        raise ModuleError("projective cover is not minimal")
    return P, phi


def _cover_cases(F: Field):
    """The simples and three seeded random modules over each catalog
    algebra and over its opposite, where the field computes the radical
    (char 0 or p > dim)."""
    rng = random.Random(5)
    for a in _catalog_algebras(F):
        if 0 < F.characteristic <= a.dim:
            continue
        for alg in (a, opposite_algebra(a)):
            yield from simple_modules(alg)
            for _ in range(3):
                yield random_module(alg, rng, max_cuts=1)


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_projective_cover_matches_per_row_solve(field):
    """Equal covers of each module and of its first syzygy; the cases
    include projectives (a zero kernel) and non-projectives."""
    F = THREE_FIELDS[field]()
    kernels = 0
    for x in _cover_cases(F):
        for y in (x, kernel_of(projective_cover(x)[1])[0]):
            P, phi = projective_cover(y)
            old_P, old_phi = _projective_cover(y)
            assert P.acts == old_P.acts
            assert phi.mat == old_phi.mat
            kernels += left_kernel(phi.mat).rows > 0
    assert kernels


# -- short cuts for zero objects and reduced inputs: the general path, verbatim --


def _tensor_module(m: Bimodule, x: FDModule, name: str = "") -> TensorModule:
    """M (x)_A X as a module over M's left algebra."""
    if x.algebra is not m.right:
        raise BimoduleError("tensor: module must live over the right-hand algebra")
    F = m.left.field
    proj, sec = quotient_maps(
        intertwining_system(F, m.dim, x.dim, m.right_acts, x.acts))
    eye_x = Mat.identity(F, x.dim)
    acts = _factor_through(proj, [a.kron(eye_x) @ proj for a in m.left_acts])
    if acts is None:
        raise BimoduleError("left action does not descend to the tensor quotient")
    mod = FDModule(m.left, proj.cols, acts,
                   name=name or f"{m.name}(x){x.name}")
    return TensorModule(mod, m, x, proj, sec)


def _tensor_functor_hom(src: TensorModule, dst: TensorModule, h: ModuleHom) -> ModuleHom:
    """1_M (x) h on the tensor quotients."""
    if src.bim is not dst.bim:
        raise BimoduleError("tensor pushforward needs a common bimodule")
    if h.source.dim != src.arg.dim or h.target.dim != dst.arg.dim:
        raise ModuleError("tensor pushforward shape mismatch")
    eye_m = Mat.identity(src.proj.field, src.bim.dim)
    mat = src.section @ eye_m.kron(h.mat) @ dst.proj
    return ModuleHom(src.module, dst.module, mat)


def _factor_through(proj: Mat, mats: list[Mat]) -> list[Mat] | None:
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


def _rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form (zero rows dropped) and pivot columns."""
    if m._rref is None:
        F = m.field
        ints, den, piv = linalg._rref(m._ints, F.p)
        R = linalg._wrap(F, ints, den, m.cols)
        # R is its own echelon form: None stands for R itself, so that no
        # reference cycle outlives the caller's last use of R
        R._rref = (None, tuple(piv))
        m._rref = (R, tuple(piv))
    cached = m._rref
    return cached if cached[0] is not None else (m, cached[1])


def _tensor_cases(F: Field):
    """(bimodule, modules over its right algebra): the regular and zero
    bimodules of three catalog algebras, and M, N, the ideal I of the
    trivial extension and a zero bimodule for each catalog context; the
    modules are the simples (where the field computes the radical), three
    random modules with one cut and the zero module."""
    rng = random.Random(7)

    def modules(a):
        out = [] if 0 < F.characteristic <= a.dim else list(simple_modules(a))
        out += [random_module(a, rng, max_cuts=1) for _ in range(3)]
        return out + [zero_module(a)]

    for a in (truncated_poly(F, 2), path_a2(F), two_cycle_rad_square(F)):
        xs = modules(a)
        yield regular_bimodule(a), xs
        yield zero_bimodule(a, a), xs
    for make in ALL_CONTEXTS.values():
        ext, ctx = make(F)
        for m in (ctx.M, ctx.N, ext.ideal):
            xs = modules(m.right)
            yield m, xs
            yield zero_bimodule(m.left, m.right), xs


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_tensor_short_cuts_match_the_general_path(field):
    """Equal tensor modules (actions, projection, section) and equal
    pushforwards of random homs between neighbouring modules; the cases
    include zero bimodules, zero modules and zero tensor products of
    nonzero factors."""
    F = THREE_FIELDS[field]()
    rng = random.Random(8)
    zero_factor = zero_product = 0
    for m, xs in _tensor_cases(F):
        new = [tensor_module(m, x) for x in xs]
        old = [_tensor_module(m, x) for x in xs]
        for t, o in zip(new, old):
            assert t.module.dim == o.module.dim and t.module.acts == o.module.acts
            assert t.proj == o.proj and t.section == o.section
            zero_factor += m.dim * t.arg.dim == 0
            zero_product += t.module.dim == 0 < m.dim * t.arg.dim
        for i in range(len(xs)):
            j = (i + 1) % len(xs)
            h = random_hom(xs[i], xs[j], rng)
            assert (tensor_functor_hom(new[i], new[j], h).mat
                    == _tensor_functor_hom(old[i], old[j], h).mat)
    assert zero_factor and zero_product


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_factor_through_short_cut_matches_the_coordinates_path(field):
    """Equal factors, and None on the same inputs, for projections with
    columns, n x 0 and 0 x 0 ones; the maps are zero, factor by
    construction or are random."""
    F = THREE_FIELDS[field]()
    rng = random.Random(9)
    empty = refused = 0
    for _ in range(150):
        n = rng.randrange(0, 5)
        if rng.random() < 0.4:
            proj = kernel_basis(Mat.identity(F, n))     # n x 0
        else:
            proj = kernel_basis(_random_mat(F, rng, rng.randrange(0, 4), n))
        mats = []
        for _ in range(rng.randrange(1, 4)):
            c, kind = rng.randrange(0, 3), rng.randrange(3)
            if kind == 0:
                mats.append(Mat.zeros(F, n, c))
            elif kind == 1:
                mats.append(proj @ _random_mat(F, rng, proj.cols, c))
            else:
                mats.append(_random_mat(F, rng, n, c))
        new, old = factor_through(proj, mats), _factor_through(proj, mats)
        assert (new is None) == (old is None)
        assert new == old
        if proj.cols == 0:
            empty += 1
            refused += new is None
    assert empty and refused
    # a map with the wrong number of rows is refused either way
    with pytest.raises(ValueError):
        factor_through(kernel_basis(Mat.identity(F, 2)), [Mat.zeros(F, 3, 1)])
    with pytest.raises(ValueError):
        _factor_through(kernel_basis(Mat.identity(F, 2)), [Mat.zeros(F, 3, 1)])


def _near_echelon(F: Field, rng: random.Random, R: Mat) -> list[Mat]:
    """Matrices one step away from the reduced form R with at least one
    row: a pivot scaled by 2, a later row added to an earlier one (a
    nonzero above a pivot, with two rows), a zero row appended and two
    rows swapped."""
    rows = R.to_rows()
    two = F.of_int(2)
    out = []
    i = rng.randrange(len(rows))
    out.append([[x * two for x in r] if k == i else r for k, r in enumerate(rows)])
    if len(rows) > 1:
        out.append([[x + y for x, y in zip(rows[0], rows[1])]] + rows[1:])
        out.append([rows[1], rows[0]] + rows[2:])
    out.append(rows + [[F.zero()] * R.cols])
    return [Mat.from_rows(F, r, R.cols) for r in out]


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_rref_short_cut_matches_elimination(field):
    """Equal (R, pivots) from fresh copies of random matrices (with no rows
    or no columns among them), their echelon forms and near-echelon
    matrices."""
    F = THREE_FIELDS[field]()
    rng = random.Random(10)
    cases = [Mat.zeros(F, 0, 3), Mat.zeros(F, 3, 0), Mat.zeros(F, 0, 0)]
    for _ in range(120):
        m = _random_mat(F, rng, rng.randrange(0, 5), rng.randrange(0, 5))
        R = _rref(m.copy())[0]
        cases += [m, R]
        if R.rows:
            cases += _near_echelon(F, rng, R)
    for m in cases:
        new, old = rref(m.copy()), _rref(m.copy())
        assert new == old
        assert new[0].rows == len(new[1])


def test_zero_tensor_builds_no_relation_system(count_calls):
    F = QQ()
    a = path_a2(F)
    systems, quotients = count_calls(intertwining_system), count_calls(quotient_maps)
    for m, x in ((zero_bimodule(a, a), regular_module(a)),
                 (regular_bimodule(a), zero_module(a))):
        t = tensor_module(m, x)
        assert t.module.dim == 0 and tensor_functor_hom(t, t, zero_hom(x, x)).mat.rows == 0
    assert systems == [] and quotients == []
    tensor_module(regular_bimodule(a), regular_module(a))
    assert len(systems) == 1 and len(quotients) == 1


def test_a_repeating_window_tensors_each_term_instance_once(count_calls):
    F = QQ()
    a = truncated_poly(F, 2)
    x, s = regular_module(a), simple_kx2(a)
    terms = [x, s, x, s, x]
    window = ComplexWindow(-2, 2, terms,
                           [zero_hom(u, v) for u, v in zip(terms, terms[1:])])
    bim = regular_bimodule(a)
    systems = count_calls(intertwining_system)
    cx, tens = tensor_window(bim, window)
    assert len(systems) == 2
    assert tens[0] is tens[2] is tens[4] and tens[1] is tens[3]
    assert [t.module for t in tens] == cx.terms
    for i in range(-2, 2):
        assert cx.diff(i).source is cx.term(i) and cx.diff(i).target is cx.term(i + 1)


# -- functors on a window and their homology: the parent code, verbatim --------


def _ext_dim(x: FDModule, y: FDModule, i: int, seed: int = 0,
             res=None) -> int:
    """dim Ext^i(x, y) from a minimal projective resolution of x."""
    if i == 0:
        return hom_dim(x, y)
    if x.dim == 0 or y.dim == 0:
        return 0
    res = res or minimal_resolution(x, i + 1)
    # the window P_n -> ... -> P_0 holds P_i in degree -i; Ext^i is the
    # homology of Hom(P_., y) there
    n = len(res.maps)
    dims, maps = _hom_complex_data(
        ComplexWindow(-n, 0, res.terms[::-1], res.maps[::-1]), y)
    ker_dim = dims[n - i] - rank(maps[n - i - 1])
    return ker_dim - rank(maps[n - i])


def _first_ext_by_loop(x: FDModule, y: FDModule, top: int, seed: int, res):
    """The certifier's per-degree Ext loop, with the witness degree."""
    for i in range(1, top + 1):
        if _ext_dim(x, y, i, seed, res=res) != 0:
            return i
    return None


def _tor_dim(u_op: FDModule, x: FDModule, i: int, seed: int = 0,
             res=None) -> int:
    """dim Tor_i(U, x) for a right module U given over the opposite algebra."""
    if i == 0:
        return _balanced_tensor_space(u_op, x).dim
    if x.dim == 0 or u_op.dim == 0:
        return 0
    res = res or minimal_resolution(x, i + 1)
    spaces = [_balanced_tensor_space(u_op, P) if P.dim else
              TensorSpace(0, Mat.zeros(x.algebra.field, 0, 0),
                          Mat.zeros(x.algebra.field, 0, 0))
              for P in res.terms]
    eye_u = Mat.identity(x.algebra.field, u_op.dim)

    def t_map(j: int) -> Mat:
        # U (x) P_{j+1} -> U (x) P_j
        if spaces[j + 1].dim == 0 or spaces[j].dim == 0:
            return Mat.zeros(x.algebra.field, spaces[j + 1].dim, spaces[j].dim)
        return spaces[j + 1].section @ eye_u.kron(res.maps[j].mat) @ spaces[j].proj

    ti = t_map(i - 1)       # U(x)P_i -> U(x)P_{i-1}
    tip = t_map(i)          # U(x)P_{i+1} -> U(x)P_i
    ker_dim = spaces[i].dim - rank(ti)
    return ker_dim - rank(tip)


def _tensor_exact(u_op: FDModule, wc: ComplexWindow) -> bool:
    spaces = [_balanced_tensor_space(u_op, wc.term(i))
              for i in range(wc.lo, wc.hi + 1)]
    F = u_op.algebra.field
    eye = Mat.identity(F, u_op.dim)
    mats = []
    for i in range(wc.lo, wc.hi):
        s, t = spaces[i - wc.lo], spaces[i - wc.lo + 1]
        if s.dim == 0 or t.dim == 0:
            mats.append(Mat.zeros(F, s.dim, t.dim))
        else:
            mats.append(s.section @ eye.kron(wc.diff(i).mat) @ t.proj)
    for i in range(wc.lo + 1, wc.hi):
        ker = spaces[i - wc.lo].dim - rank(mats[i - wc.lo])
        if ker != rank(mats[i - wc.lo - 1]):
            return False
    return True


def _hom_exactness_failure(c: ComplexWindow, y: FDModule,
                           lo: int | None = None) -> int | None:
    dims, maps = _hom_complex_data(c, y)
    for i in range(c.lo + 1 if lo is None else lo, c.hi):
        # exactness of ... -> Hom(X^{i+1}) -> Hom(X^i) -> Hom(X^{i-1}) -> ...
        into = maps[i - c.lo]           # Hom(X^{i+1}) -> Hom(X^i)
        out_of = maps[i - 1 - c.lo]     # Hom(X^i) -> Hom(X^{i-1})
        if dims[i - c.lo] - rank(out_of) != rank(into):
            return i
    return None


@dataclass
class TensorSpace:
    """U (x)_A X for a right module U (given over A^op) and a left module X:
    a plain vector space quotient of U (x)_k X."""

    dim: int
    proj: Mat
    section: Mat


def _balanced_tensor_space(u_op: FDModule, x: FDModule) -> TensorSpace:
    if opposite_algebra(u_op.algebra) is not x.algebra:
        raise BimoduleError("balanced tensor: algebra mismatch")
    # right action of a on u is u @ u_op.acts[a]
    proj, sec = quotient_maps(intertwining_system(
        x.algebra.field, u_op.dim, x.dim, u_op.acts, x.acts))
    return TensorSpace(proj.cols, proj, sec)


def _tensor_complex_data(u_op: FDModule, c: ComplexWindow):
    """The complex U (x)_A X^. for a right module U, given as a module over
    the opposite algebra: dims per degree and the maps 1 (x) d^i
    (degree-preserving)."""
    F = u_op.algebra.field
    spaces = [_balanced_tensor_space(u_op, t) for t in c.terms]
    eye = Mat.identity(F, u_op.dim)
    maps = [s.section @ eye.kron(d.mat) @ t.proj if s.dim and t.dim
            else Mat.zeros(F, s.dim, t.dim)
            for s, t, d in zip(spaces, spaces[1:], c.diffs)]
    return [s.dim for s in spaces], maps


def _functor_modules(a, rng: random.Random) -> list[FDModule]:
    """The simples of a (where the field computes its radical), two random
    cyclic modules with one cut and the zero module."""
    F = a.field
    out = [] if 0 < F.characteristic <= a.dim else list(simple_modules(a))
    out += [random_module(a, rng, max_free=1, max_cuts=1) for _ in range(2)]
    return out + [zero_module(a)]


def _functor_algebras(F: Field):
    """The catalog algebras with their opposites, where the field computes
    the radical; the rings of the contexts are left to the windows."""
    algs = [truncated_poly(F, 2), truncated_poly(F, 3), path_a2(F),
            two_cycle_rad_square(F), product_fields(F, 2)]
    _, ctx = triangular_context(F)
    algs += [ctx.A, ctx.B]
    for a in algs:
        if not 0 < F.characteristic <= a.dim:
            yield a
            yield opposite_algebra(a)


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_ext_and_tor_match_the_parent_code(field):
    """Equal dim Ext^i(x, y) and dim Tor_i(U, x) for i = 0..3, and the same
    least nonzero Ext^i off a shared resolution as the certifier's
    per-degree loop; the modules include zero ones and
    non-projectives, and both a vanishing and a nonzero Ext and Tor occur."""
    F = THREE_FIELDS[field]()
    rng = random.Random(11)
    seen = set()
    for a in _functor_algebras(F):
        aop = opposite_algebra(a)
        xs, us = _functor_modules(a, rng), _functor_modules(aop, rng)
        ys = [regular_module(a), xs[0]]
        for x in xs:
            res = minimal_resolution(x, 4)
            for y in ys:
                for i in range(4):
                    e = ext_dim(x, y, i)
                    assert e == _ext_dim(x, y, i)
                    seen.add(("ext", i > 0, e > 0))
                first = first_nonzero_ext(res, y)
                assert first == _first_ext_by_loop(x, y, 3, 0, res)
                seen.add(("first", first is None))
            for u in us:
                for i in range(4):
                    t = tor_dim(right_bimodule(u), x, i)
                    assert t == _tor_dim(u, x, i)
                    seen.add(("tor", i > 0, t > 0))
    assert {("ext", True, True), ("ext", True, False), ("tor", True, True),
            ("tor", True, False), ("first", True), ("first", False)} <= seen


def _functor_windows(F: Field):
    """Certificate windows (periodic, self-injective and split ones) and
    resolution windows of the modules of _functor_modules."""
    rng = random.Random(13)
    for a in _functor_algebras(F):
        for x in _functor_modules(a, rng):
            yield minimal_resolution(x, 3).window()
            cert = certify_gorenstein_projective(x, window=2)
            if cert.window is not None:
                yield cert.window


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_window_exactness_matches_the_parent_code(field):
    """The first inexact degree of Hom(W, y) (from every degree and from
    degree 1 on) and the exactness of U (x) W agree with the parent code on
    certificate and resolution windows; each outcome occurs."""
    F = THREE_FIELDS[field]()
    rng = random.Random(14)
    seen = set()
    for w in _functor_windows(F):
        a = w.algebra
        for y in [regular_module(a)] + _functor_modules(a, rng):
            deg = hom_exactness_failure(w, y)
            assert deg == _hom_exactness_failure(w, y)
            if w.hi > 1:
                assert (hom_exactness_failure(w, y, lo=1)
                        == _hom_exactness_failure(w, y, lo=1))
            seen.add(("hom", deg is None))
        for u in _functor_modules(opposite_algebra(a), rng):
            exact = tensor_exactness_failure(w, right_bimodule(u)) is None
            assert exact == _tensor_exact(u, w)
            seen.add(("tensor", exact))
    assert seen == {("hom", True), ("hom", False), ("tensor", True),
                    ("tensor", False)}


def test_zero_balanced_tensor_space_builds_no_relation_system(count_calls):
    F = QQ()
    a = path_a2(F)
    aop = opposite_algebra(a)
    systems = count_calls(intertwining_system)
    for u, x in ((zero_module(aop), regular_module(a)),
                 (regular_module(aop), zero_module(a))):
        t = tensor_module(right_bimodule(u), x)
        assert systems == []
        old = _balanced_tensor_space(u, x)
        assert (t.module.dim, t.proj, t.section) == (old.dim, old.proj, old.section)


def _tensor_matches_the_parent(bim: Bimodule, u_op: FDModule, wc: ComplexWindow,
                               seen: set):
    """bim (x) wc by `tensor_window` against the parent's U (x) wc for the
    right module U = u_op that is bim's right action: the same dims, proj
    and section per term and the same tensored differentials, matrix for
    matrix; and the same dim Tor_i(U, K), i = 0, 1, 2, for the kernel K of
    each distinct differential."""
    cx, tens = tensor_window(bim, wc)
    assert window_data(cx) == _tensor_complex_data(u_op, wc)
    for t, x in zip(tens, wc.terms):
        old = _balanced_tensor_space(u_op, x)
        assert (t.module.dim, t.proj, t.section) == (old.dim, old.proj, old.section)
    for d in {id(d): d for d in wc.diffs}.values():
        ker, _ = kernel_of(d)
        for i in range(3):
            t = tor_dim(bim, ker, i)
            assert t == _tor_dim(u_op, ker, i)
            seen.add((i > 0, t > 0))


@pytest.mark.parametrize("field", FIELDS)
def test_tensor_windows_match_the_parent_code(field):
    """On the windows of `tests/test_reduction_oracle.py` (the certified
    ring windows of the audit family, tensored with the right-side Z(W),
    and their Lambda-side corner complexes, tensored with W, both as
    `right_bimodule` and as the bimodule W itself) and on the fixtures'
    complexes (tensored with each bimodule over their algebra and with
    the regular right module), over Q and GF(7); and on a window whose
    one term instance is joined by two different differentials."""
    from test_reduction_oracle import _audit_family, _one_column, corner_complexes
    F = FIELDS[field]()
    seen = set()
    for make in CONTEXTS.values():
        ext, ctx = make(F)
        mr = build_ring(ctx)
        certs = (certify_gorenstein_projective(quadruple_to_module(mr, q), 3)
                 for q in _audit_family(ctx, 6))
        windows = [c.window for c in certs if c.verdict == "gp" and c.window]
        corners = [corner_complexes(ext, ctx, mr, wc)[0] for wc in windows]
        m_lam, _ = lam_bimodules(ext, ctx)
        for which, bim in (("M", m_lam), ("I", ext.ideal)):
            w, zw = _one_column(ext, ctx, "right", which)
            for wc, pcx in zip(windows, corners):
                _tensor_matches_the_parent(right_bimodule(zw), zw, wc, seen)
                _tensor_matches_the_parent(right_bimodule(w), w, pcx, seen)
                _tensor_matches_the_parent(bim, w, pcx, seen)
    complexes = 0
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        doc["field"] = "Q" if field == "Q" else {"p": 7}
        prob = load_problem(doc)
        for name in doc.get("complexes", {}):
            wc = prob.named("complexes", name)
            u = regular_module(opposite_algebra(wc.algebra))
            _tensor_matches_the_parent(right_bimodule(u), u, wc, seen)
            for b in doc.get("bimodules", {}):
                bim = prob.named("bimodules", b)
                if bim.right is wc.algebra:
                    _tensor_matches_the_parent(bim, bim.as_right_module(), wc, seen)
                    complexes += 1
    # one term instance, joined by two different differentials
    a = truncated_poly(F, 2)
    x, u = regular_module(a), regular_module(opposite_algebra(a))
    wc = ComplexWindow(0, 2, [x] * 3, [ModuleHom(x, x, a.rmul_mats()[1]), zero_hom(x, x)])
    _tensor_matches_the_parent(right_bimodule(u), u, wc, seen)
    assert complexes and {(False, True), (True, False), (True, True)} <= seen


# -- oracles: the nested product table and its per-element loops, verbatim -------


class _LoopAlgebra:
    """The parent's `Algebra`: a nested table mul[i][j] of coordinate lists,
    with its per-element `multiply` and its action matrices, verbatim."""

    def __init__(self, field: Field, dim: int, mul: list, unit: list, name: str = ""):
        self.field, self.dim, self.mul, self.unit, self.name = field, dim, mul, unit, name

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

    def lmul_mats(self) -> list[Mat]:
        return [Mat(self.field, [self.mul[t][i][:] for i in range(self.dim)], self.dim)
                for t in range(self.dim)]

    def rmul_mats(self) -> list[Mat]:
        return [Mat(self.field, [self.mul[i][t][:] for i in range(self.dim)], self.dim)
                for t in range(self.dim)]


def _loop(a: Algebra) -> _LoopAlgebra:
    """The nested table of a: mul[i][j] is row i * dim + j of consts."""
    n = a.dim
    return _LoopAlgebra(a.field, n, [[a.consts.row(i * n + j) for j in range(n)]
                                     for i in range(n)], a.unit[:], a.name)


def _flat(a: _LoopAlgebra) -> Mat:
    n = a.dim
    return Mat(a.field, [a.mul[i][j] for i in range(n) for j in range(n)], n)


def _loop_violations(a: _LoopAlgebra) -> list[Violation]:
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


def _loop_opposite(a: _LoopAlgebra) -> _LoopAlgebra:
    return _LoopAlgebra(a.field, a.dim,
                        [[a.mul[j][i][:] for j in range(a.dim)] for i in range(a.dim)],
                        a.unit[:])


def _loop_generating_subset(a: _LoopAlgebra) -> list[int]:
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


def _loop_products_in(a: _LoopAlgebra, basis: Mat, what: str) -> list:
    q = basis.rows
    prods = Mat.from_rows(a.field, [a.multiply(basis.row(i), basis.row(j))
                                    for i in range(q) for j in range(q)], a.dim)
    c = coordinates(basis, prods)
    if c is None:
        i, j = next(divmod(r, q) for r in range(q * q) if coordinates(
            basis, prods.block(r, r + 1, 0, a.dim)) is None)
        raise AlgebraError(f"{what} not closed under multiplication at ({i},{j})")
    return [[c.row(i * q + j) for j in range(q)] for i in range(q)]


def _loop_corner_algebra(a: _LoopAlgebra, eps: list) -> tuple[_LoopAlgebra, Mat]:
    rows = row_space(Mat.from_rows(
        a.field, [a.multiply(a.multiply(eps, a.basis_el(i)), eps) for i in range(a.dim)],
        a.dim))
    unit_c = coordinates(rows, Mat.from_rows(a.field, [eps], a.dim))
    if unit_c is None:
        raise AlgebraError("idempotent does not lie in its own corner")
    mul = _loop_products_in(a, rows, "corner")
    return _LoopAlgebra(a.field, rows.rows, mul, unit_c.row(0)), rows


def _loop_quotient_algebra(a: _LoopAlgebra, ideal_rows: Mat) -> tuple[_LoopAlgebra, Mat]:
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
    return _LoopAlgebra(F, q, mul, unit), proj


def _loop_build_ring(ctx: MoritaContext) -> _LoopAlgebra:
    A, B, M, N = _loop(ctx.A), _loop(ctx.B), ctx.M, ctx.N
    F = A.field
    dA, dN, dM, dB = A.dim, N.dim, M.dim, B.dim
    dim = dA + dN + dM + dB
    offA, offN, offM, offB = 0, dA, dA + dN, dA + dN + dM
    z = F.zero()
    mul = [[[z] * dim for _ in range(dim)] for _ in range(dim)]

    def put(i: int, j: int, off: int, vec: list):
        row = mul[i][j]
        for k, c in enumerate(vec):
            row[off + k] = c

    for i in range(dA):
        for j in range(dA):
            put(offA + i, offA + j, offA, A.mul[i][j])
        for j in range(dN):
            put(offA + i, offN + j, offN, N.left_acts[i].row(j))
    for i in range(dN):
        for j in range(dB):
            put(offN + i, offB + j, offN, N.right_acts[j].row(i))
        for j in range(dM):
            put(offN + i, offM + j, offA, ctx.psi.value(i, j))
    for i in range(dM):
        for j in range(dA):
            put(offM + i, offA + j, offM, M.right_acts[j].row(i))
        for j in range(dN):
            put(offM + i, offN + j, offB, ctx.phi.value(i, j))
    for i in range(dB):
        for j in range(dB):
            put(offB + i, offB + j, offB, B.mul[i][j])
        for j in range(dM):
            put(offB + i, offM + j, offM, M.left_acts[i].row(j))

    unit = [z] * dim
    unit[offA:offA + dA] = A.unit
    unit[offB:offB + dB] = B.unit
    return _LoopAlgebra(F, dim, mul, unit)


def _loop_trivial_extension(lam: Algebra, ideal: Bimodule) -> _LoopAlgebra:
    lam = _loop(lam)
    F = lam.field
    dl, di = lam.dim, ideal.dim
    dim = dl + di
    z = F.zero()
    mul = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dl):
        for j in range(dl):
            prod = lam.mul[i][j]
            for k, c in enumerate(prod):
                mul[i][j][k] = c
        for j in range(di):
            vec = ideal.left_acts[i].row(j)
            for k, c in enumerate(vec):
                mul[i][dl + j][dl + k] = c
    for i in range(di):
        for j in range(dl):
            vec = ideal.right_acts[j].row(i)
            for k, c in enumerate(vec):
                mul[dl + i][j][dl + k] = c
    unit = [z] * dim
    unit[:dl] = lam.unit
    return _LoopAlgebra(F, dim, mul, unit)


def _loop_nc_tensor(ctx: MoritaContext) -> _LoopAlgebra:
    A, G, M, N = _loop(ctx.A), _loop(ctx.B), ctx.M, ctx.N
    F = A.field
    mn, mn_proj, mn_sec = bimodule_tensor(M, N, name="M(x)N")
    dA, dN, dM, dG, dW = A.dim, N.dim, M.dim, G.dim, mn.dim
    dim = dA + dN + dM + dG + dW
    offA, offN, offM, offG, offW = 0, dA, dA + dN, dA + dN + dM, dA + dN + dM + dG
    z = F.zero()
    mul = [[[z] * dim for _ in range(dim)] for _ in range(dim)]

    def put(i, j, off, vec):
        row = mul[i][j]
        for k, c in enumerate(vec):
            row[off + k] = F.add(row[off + k], c)

    def phi_of_w(w_idx):
        lift = mn_sec.row(w_idx)
        acc = [z] * dG
        for amb, coef in enumerate(lift):
            if F.is_zero(coef):
                continue
            im, jn = divmod(amb, dN)
            val = ctx.phi.value(im, jn)
            acc = [F.add(u, F.mul(coef, v)) for u, v in zip(acc, val)]
        return acc

    for i in range(dA):
        for j in range(dA):
            put(offA + i, offA + j, offA, A.mul[i][j])
        for j in range(dN):
            put(offA + i, offN + j, offN, N.left_acts[i].row(j))
    for i in range(dN):
        for j in range(dM):
            put(offN + i, offM + j, offA, ctx.psi.value(i, j))
        for j in range(dG):
            put(offN + i, offG + j, offN, N.right_acts[j].row(i))
        for j in range(dW):
            # n . (m' (x) n') = n . phi(m' (x) n')
            gvec = phi_of_w(j)
            put(offN + i, offW + j, offN, N.right_act_of(gvec).row(i))
    for i in range(dM):
        for j in range(dA):
            put(offM + i, offA + j, offM, M.right_acts[j].row(i))
        for j in range(dN):
            # m (x) n lands in the tensor block
            put(offM + i, offN + j, offW, mn_proj.row(i * dN + j))
    for i in range(dG):
        for j in range(dG):
            put(offG + i, offG + j, offG, G.mul[i][j])
        for j in range(dM):
            put(offG + i, offM + j, offM, M.left_acts[i].row(j))
        for j in range(dW):
            put(offG + i, offW + j, offW, mn.left_acts[i].row(j))
    for i in range(dW):
        for j in range(dM):
            # (m (x) n) . m' = phi(m (x) n) . m'
            gvec = phi_of_w(i)
            put(offW + i, offM + j, offM, M.left_act_of(gvec).row(j))
        for j in range(dG):
            put(offW + i, offG + j, offW, mn.right_acts[j].row(i))
        for j in range(dW):
            # (m (x) n)(m' (x) n') = m (x) (psi(n (x) m') . n')
            lift_i = mn_sec.row(i)
            lift_j = mn_sec.row(j)
            acc = [z] * dW
            for amb_i, ci in enumerate(lift_i):
                if F.is_zero(ci):
                    continue
                im, jn = divmod(amb_i, dN)
                for amb_j, cj in enumerate(lift_j):
                    if F.is_zero(cj):
                        continue
                    im2, jn2 = divmod(amb_j, dN)
                    avec = ctx.psi.value(jn, im2)
                    nvec = N.left_act_of(avec).row(jn2)
                    for t, c in enumerate(nvec):
                        if not F.is_zero(c):
                            prow = mn_proj.row(im * dN + t)
                            coef = F.mul(F.mul(ci, cj), c)
                            acc = [F.add(u, F.mul(coef, w))
                                   for u, w in zip(acc, prow)]
            put(offW + i, offW + j, offW, acc)

    unit = [z] * dim
    unit[offA:offA + dA] = A.unit
    unit[offG:offG + dG] = G.unit
    return _LoopAlgebra(F, dim, mul, unit)


def _same_table(new: Algebra, old: _LoopAlgebra):
    assert (new.dim, new.consts, new.unit) == (old.dim, _flat(old), old.unit)


def _ring_contexts(F: Field) -> list[MoritaContext]:
    """The catalog contexts (the wide one too), full contexts at scales 1
    to 3 over commutative and noncommutative corners, and seeded random
    contexts."""
    ctxs = [make(F)[1] for make in ALL_CONTEXTS.values()]
    for R in (truncated_poly(F, 2), product_fields(F, 2), path_a2(F)):
        ctxs += [full_context(R, scale=F.of_int(c)) for c in (1, 2, 3)]
    rng = random.Random(25)
    for _ in range(8):
        ctxs.append(random_context(F, rng)[1])
        ctxs.append(random_glued_context(F, rng)[1])
    return ctxs


def _idempotents(a: Algebra, old: _LoopAlgebra) -> list[list]:
    """The unit and the idempotent basis elements."""
    return [a.unit] + [e for e in map(a.basis_el, range(a.dim))
                       if e != a.unit and old.multiply(e, e) == e]


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_product_tables_match_the_nested_loops(field):
    """Every catalog algebra (corners and context rings included), its
    opposite, its corners at idempotent basis elements and its radical
    quotient have the parent's structure constants, and so do their
    products of elements and generating sets."""
    F = THREE_FIELDS[field]()
    rng = random.Random(3)
    quotients = 0
    for a in _catalog_algebras(F):
        old = _loop(a)
        _same_table(opposite_algebra(a), _loop_opposite(old))
        for _ in range(4):
            x, y = ([_random_scalar(F, rng) for _ in range(a.dim)] for _ in range(2))
            assert multiply(a, x, y) == old.multiply(x, y)
        assert generating_subset(a) == _loop_generating_subset(old)
        for eps in _idempotents(a, old):
            new_c, new_rows = corner_algebra(a, eps)
            old_c, old_rows = _loop_corner_algebra(old, eps)
            _same_table(new_c, old_c)
            assert new_rows == old_rows
        try:
            rad = radical_basis(a)
        except UnsupportedField:
            continue
        new_q, new_proj = quotient_algebra(a, rad)
        old_q, old_proj = _loop_quotient_algebra(old, rad)
        _same_table(new_q, old_q)
        assert new_proj == old_proj
        quotients += 1
    assert quotients


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_glued_rings_match_the_transcriptions(field):
    """`build_ring`, `trivial_extension` and `build_nc_tensor` give the
    structure constants of the parent's per-element transcriptions."""
    F = THREE_FIELDS[field]()
    for ctx in _ring_contexts(F):
        _same_table(build_ring(ctx).ring, _loop_build_ring(ctx))
    exts = [make(F)[0] for make in ALL_CONTEXTS.values()]
    exts += [random_glued_context(F, random.Random(s))[0] for s in range(6)]
    pairs = [(e.Lam, e.ideal) for e in exts]
    pairs += [(a, b) for a in (truncated_poly(F, 2), path_a2(F), two_cycle_rad_square(F))
              for b in (regular_bimodule(a), zero_bimodule(a, a))]
    for lam, ideal in pairs:
        ext = trivial_extension(lam, ideal)
        _same_table(ext.A, _loop_trivial_extension(lam, ideal))
        # recognized on the unit rows, the extension gives back lam and I
        rec = recognize_trivial_extension(ext.A, ext.incl_rows, ext.ideal_rows)
        assert rec.Lam.consts == lam.consts
        assert (rec.ideal.left_acts, rec.ideal.right_acts) == (ideal.left_acts,
                                                               ideal.right_acts)
    # the tensor rings of tests/test_nctensor.py, and the full contexts
    # above (over the noncommutative path algebra too)
    nc_ctxs = [two_cycle_context(F)[1], triangular_context(F)[1]]
    nc_ctxs += [full_context(R, scale=c) for R in (
        field_algebra(F), truncated_poly(F, 2), product_fields(F, 2), path_a2(F))
        for c in (F.one(), F.of_int(2))]
    for ctx in nc_ctxs:
        _same_table(build_nc_tensor(ctx).ring, _loop_nc_tensor(ctx))


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_corrupted_tables_give_the_loop_violations(field):
    """A table or unit with one entry changed gets the parent's violation
    list: the same kinds, indices and details, in the same order."""
    F = THREE_FIELDS[field]()
    rng = random.Random(9)
    seen = set()
    for a in _catalog_algebras(F):
        n = a.dim
        assert validate_algebra(a) == _loop_violations(_loop(a)) == []
        for _ in range(3):
            rows, unit = a.consts.to_rows(), a.unit[:]
            if rng.random() < 0.75:
                r, c = rng.randrange(n * n), rng.randrange(n)
                rows[r][c] = F.add(rows[r][c], F.of_int(rng.randrange(1, 3)))
            else:
                i = rng.randrange(n)
                unit[i] = F.add(unit[i], F.one())
            bad = Algebra(F, n, Mat(F, rows, n), unit)
            old = _LoopAlgebra(F, n, [rows[i * n:(i + 1) * n] for i in range(n)], unit)
            found = validate_algebra(bad)
            assert found == _loop_violations(old)
            seen.update(v.kind for v in found)
    assert seen == {"associativity", "unit"}


# -- the Morita layer without per-element loops ---------------------------------
#
# The parent's per-element code, verbatim apart from the names: the context
# squares and the ideal checks of `validate_context`, the psi, zeta,
# evaluation and adjoint-mate maps, `module_to_quadruple` on the ring's
# embeddings, the two loops of `structural_maps`, `induced_module`, and the
# ideal loops of `quotient_algebra` and `recognize_trivial_extension`.


def _loop_context_violations(ctx: MoritaContext) -> list[str]:
    out = []
    if validate_algebra(ctx.A):
        out.append("corner algebra A is invalid")
    if validate_algebra(ctx.B):
        out.append("corner algebra B is invalid")
    if out:
        return out
    if ctx.M.left is not ctx.B or ctx.M.right is not ctx.A:
        out.append("M must be a bimodule over (B, A)")
    if ctx.N.left is not ctx.A or ctx.N.right is not ctx.B:
        out.append("N must be a bimodule over (A, B)")
    if out:
        return out
    out += [f"M: {msg}" for msg in validate_bimodule(ctx.M)]
    out += [f"N: {msg}" for msg in validate_bimodule(ctx.N)]
    out += [f"phi: {msg}" for msg in validate_balanced_map(ctx.phi)]
    out += [f"psi: {msg}" for msg in validate_balanced_map(ctx.psi)]
    if out:
        return out
    # the associativity square on N (x) M (x) N,
    #   psi(n (x) m) . n' = n . phi(m (x) n'),
    # and, through the swap, the one on M (x) N (x) M
    for c, which, (n, m) in ((ctx, "first", "nm"),
                             (swap_context(ctx), "second", "mn")):
        dN, dM = c.N.dim, c.M.dim
        for i in range(dN):
            for j in range(dM):
                left_mat = c.N.left_act_of(c.psi.value(i, j))
                for k in range(dN):
                    rhs = c.N.right_act_of(c.phi.value(j, k))
                    if left_mat.row(k) != rhs.row(i):
                        out.append(f"{which} context square fails at "
                                   f"({n}{i}, {m}{j}, {n}{k})")
                        return out
    out += _loop_ideal_checks(ctx)
    return out


def _loop_ideal_checks(ctx: MoritaContext) -> list[str]:
    out = []
    for c, im, corner in ((ctx, "psi", "A"), (swap_context(ctx), "phi", "B")):
        I = c.ideal_rows_a()
        for t in range(c.A.dim):
            if I.rows and not (in_row_space(I, I @ c.A.lmul_mats()[t])
                               and in_row_space(I, I @ c.A.rmul_mats()[t])):
                out.append(f"im({im}) is not a two-sided ideal of {corner}")
                break
    I = ctx.ideal_rows_a()
    if ctx.phi_is_zero and I.rows:
        # with phi = 0: I.N = 0, M.I = 0 and I^2 = 0
        for r in range(I.rows):
            a = I.row(r)
            if not ctx.N.left_act_of(a).is_zero():
                out.append("I.N != 0 although phi = 0")
                break
            if not ctx.M.right_act_of(a).is_zero():
                out.append("M.I != 0 although phi = 0")
                break
            # the products of row r with every row of I, in one product
            if not (I.block(r, r + 1, 0, I.cols).kron(I) @ ctx.A.consts).is_zero():
                out.append("I^2 != 0 although phi = 0")
    return out


def _psi_action_full(ctx: MoritaContext, x: FDModule) -> Mat:
    """The multiplication map N (x)_k M (x)_k X -> X,
    n (x) m (x) v |-> psi(n (x) m) . v."""
    F = ctx.A.field
    dN, dM, dX = ctx.N.dim, ctx.M.dim, x.dim
    rows = []
    for i in range(dN):
        for j in range(dM):
            act = x.act_of(ctx.psi.value(i, j))
            for v in range(dX):
                rows.append(act.row(v))
    return Mat.from_rows(F, rows, dX) if rows else Mat.zeros(F, 0, dX)


def _zeta_full(ctx: MoritaContext, x: FDModule, hom_basis) -> Mat:
    """M (x)_k X -> Hom_A(N, X) coordinates, m (x) v |-> [n |-> psi(n (x) m).v]."""
    F = ctx.A.field
    dM, dN, dX = ctx.M.dim, ctx.N.dim, x.dim
    k = len(hom_basis)
    if k == 0:
        return Mat.zeros(F, dM * dX, 0)
    flats = []
    for i in range(dM):
        acts = [x.act_of(ctx.psi.value(t, i)) for t in range(dN)]
        for v in range(dX):
            flats.append([e for t in range(dN) for e in acts[t].row(v)])
    c = coordinates(Mat.vstack([h.mat.flatten() for h in hom_basis]),
                    Mat.from_rows(F, flats, dN * dX))
    if c is None:
        raise ContextError("zeta image is not an intertwiner")
    return c


def _evaluation_full(field: Field, outer_dim: int, hom_basis, target_dim: int) -> Mat:
    """W (x)_k Hom(W, X) -> X, w (x) h |-> (w)h."""
    k = len(hom_basis)
    rows = []
    for i in range(outer_dim):
        for t in range(k):
            rows.append(hom_basis[t].mat.row(i))
    return Mat.from_rows(field, rows, target_dim) if rows else \
        Mat.zeros(field, 0, target_dim)


def _f_tilde(q: QuadrupleModule) -> ModuleHom:
    """The adjoint mate X -> Hom_B(M, Y) of f."""
    ctx = q.ctx
    F = ctx.A.field
    target, basis = hom_module(ctx.M, q.y)
    big = q.mx.proj @ q.f.mat       # M (x)_k X -> Y
    k = len(basis)
    if k == 0:
        return zero_hom(q.x, target)
    dx, dy = q.x.dim, q.y.dim
    # row j: the map m_i |-> (m_i (x) x_j) f, rows i of M stacked flat
    flats = [[e for i in range(ctx.M.dim) for e in big.row(i * dx + j)]
             for j in range(dx)]
    c = coordinates(Mat.vstack([h.mat.flatten() for h in basis]),
                    Mat.from_rows(F, flats, ctx.M.dim * dy))
    if c is None:
        raise ContextError("adjoint mate failed to express")
    return ModuleHom(q.x, target, c)


def _unit_list(F: Field, n: int, i: int) -> list:
    out = [F.zero()] * n
    out[i] = F.one()
    return out


@dataclass
class _EmbeddingRing:
    """A context ring with the parent's embeddings of the four blocks."""
    ctx: MoritaContext
    ring: Algebra
    offs: tuple[int, int, int, int]
    e1: list
    e2: list

    def embed_a(self, coeffs: list) -> list:
        return self._embed(coeffs, 0, self.ctx.A.dim)

    def embed_n(self, coeffs: list) -> list:
        return self._embed(coeffs, self.offs[1], self.ctx.N.dim)

    def embed_m(self, coeffs: list) -> list:
        return self._embed(coeffs, self.offs[2], self.ctx.M.dim)

    def embed_b(self, coeffs: list) -> list:
        return self._embed(coeffs, self.offs[3], self.ctx.B.dim)

    def _embed(self, coeffs: list, off: int, d: int) -> list:
        out = self.ring.zero_el()
        out[off:off + d] = coeffs
        return out


def _quadruple_bases(mr, v: FDModule) -> list[Mat]:
    return [row_space(v.act_of(e)) for e in (mr.e1, mr.e2)]


def _module_to_quadruple(mr, v: FDModule, name: str = "") -> QuadrupleModule:
    """Recover the quadruple from a module over the context ring."""
    ctx = mr.ctx
    F = mr.ring.field
    parts = _quadruple_bases(mr, v)
    if parts[0].rows + parts[1].rows != v.dim:
        raise ContextError("idempotent decomposition does not exhaust the module")
    mods = []
    for rows, alg, embed, (tag, letter) in zip(
            parts, (ctx.A, ctx.B), (mr.embed_a, mr.embed_b), ("XA", "YB")):
        k = rows.rows
        c = coordinates(rows, Mat.vstack([rows @ v.act_of(embed(alg.basis_el(t)))
                                          for t in range(alg.dim)]))
        if c is None:
            raise ContextError(f"{tag}-part is not {letter}-invariant")
        acts = [c.block(t * k, (t + 1) * k, 0, k) for t in range(alg.dim)]
        mods.append(FDModule(alg, k, acts, name=f"{name}|{tag}"))
    # f on the full tensor space: m_s (x) x_j |-> (embed m_s) . x_j; then g
    fulls = []
    for src, dst, bim, embed, (tag, part) in zip(
            parts, parts[::-1], (ctx.M, ctx.N), (mr.embed_m, mr.embed_n),
            ("MY", "NX")):
        images = [src @ v.act_of(embed(_unit_list(F, bim.dim, s)))
                  for s in range(bim.dim)]
        c = coordinates(dst, Mat.vstack(images) if images
                        else Mat.zeros(F, 0, v.dim))
        if c is None:
            raise ContextError(f"{tag}-action does not land in the {part}-part")
        fulls.append(c)
    return make_quadruple(ctx, mods[0], mods[1], fulls[0], fulls[1], name=name)


def _structural_loops(ctx: MoritaContext, q: QuadrupleModule) -> tuple[Mat, Mat]:
    """The row basis of IX and the multiplication I (x)_k X -> X of
    `structural_maps`."""
    F = ctx.A.field
    I = ctx.ideal_rows_a()
    ix_rows = (row_space(Mat.vstack([q.x.act_of(I.row(r)) for r in range(I.rows)]))
               if I.rows and q.x.dim else Mat.zeros(F, 0, q.x.dim))
    ibim = ideal_bimodule_a(ctx)
    mlt_rows = []
    for s in range(ibim.dim):
        act = q.x.act_of(ctx.ideal_rows_a().row(s))
        mlt_rows.extend(act.to_rows())
    mlt_full = Mat.from_rows(F, mlt_rows, q.x.dim) if mlt_rows else \
        Mat.zeros(F, 0, q.x.dim)
    return ix_rows, mlt_full


def _induced_module(ext: TrivialExtension, x: FDModule, name: str = "") -> FDModule:
    """X(I) = X (+) I (x)_Lambda X as an A-module, with the action
    (l, i).(v, w) = (l v, i (x) v + l.w), the ideal block on the
    balanced-tensor quotient coordinates."""
    if x.algebra is not ext.Lam:
        raise ExtensionError("induced module wants a Lambda-module")
    F = ext.Lam.field
    ix_t = tensor_module(ext.ideal, x)
    dX, dIX = x.dim, ix_t.module.dim
    eye_x = Mat.identity(F, dX)
    # row t: the ideal part b_t - lambda_t of basis element t, in I's basis
    i_cs = coordinates(ext.ideal_rows, Mat.identity(F, ext.A.dim).sub(
        ext.proj_rows @ ext.incl_rows))
    if i_cs is None:
        raise ExtensionError("basis element does not split as (lambda, i)")
    acts = []
    for t in range(ext.A.dim):
        lam_c = ext.proj_rows.row(t)
        # the ideal part sends v to the class of i_c (x) v
        i_c = i_cs.block(t, t + 1, 0, i_cs.cols)
        ideal_part = i_c.kron(eye_x) @ ix_t.proj
        acts.append(Mat.from_blocks(F, [dX, dIX], [dX, dIX],
                                    [[x.act_of(lam_c), ideal_part],
                                     [None, ix_t.module.act_of(lam_c)]]))
    return FDModule(ext.A, dX + dIX, acts, name=name or f"{x.name}(I)")


def _quotient_ideal_loop(a: Algebra, ideal_rows: Mat):
    """The two-sided ideal check of `quotient_algebra`."""
    R = row_space(ideal_rows)
    for t in range(a.dim):
        if not in_row_space(R, R @ a.lmul_mats()[t]) or not in_row_space(R, R @ a.rmul_mats()[t]):
            raise AlgebraError("row span is not a two-sided ideal")


def _recognize_ideal_loop(a: Algebra, I: Mat):
    """The two-sided ideal check of `recognize_trivial_extension`."""
    for m in (*a.lmul_mats(), *a.rmul_mats()):
        if not in_row_space(I, I @ m):
            raise ExtensionError("ideal span is not a two-sided ideal")


def _ideal_closure(a: Algebra, rows: Mat) -> Mat:
    """Smallest two-sided ideal containing the row span."""
    span = row_space(rows)
    while True:
        new = row_space(Mat.vstack([span] + [span @ m for m in
                                             (*a.lmul_mats(), *a.rmul_mats())]))
        if new.rows == span.rows:
            return new
        span = new


# -- cases of the Morita layer -----------------------------------------------------


def _admissible_map(x: Bimodule, y: Bimodule, c: Algebra, rng: random.Random) -> Mat:
    """A random C-bilinear map X (x)_D Y -> C that is balanced over D, for X
    over (C, D) and Y over (D, C), on the full tensor basis: a random point
    of the kernel of the three linear conditions."""
    F = c.field
    dx, dy, dc = x.dim, y.dim, c.dim
    if dx * dy == 0:
        return Mat.zeros(F, 0, dc)
    eye_x, eye_y = Mat.identity(F, dx), Mat.identity(F, dy)
    basis = kernel_basis(Mat.vstack([
        intertwining_system(F, dx, dy, x.right_acts, y.left_acts).kron(
            Mat.identity(F, dc)),
        intertwining_system(F, dx * dy, dc, [a.kron(eye_y) for a in x.left_acts],
                            [a.transpose() for a in c.lmul_mats()]),
        intertwining_system(F, dx * dy, dc, [eye_x.kron(a) for a in y.right_acts],
                            [a.transpose() for a in c.rmul_mats()])])).transpose()
    return linear_combination(
        F, dx * dy, dc, [_random_scalar(F, rng) for _ in range(basis.rows)],
        [basis.block(r, r + 1, 0, dx * dy * dc).reshape(dx * dy, dc)
         for r in range(basis.rows)]) if basis.rows else Mat.zeros(F, dx * dy, dc)


def _second_square_context(F: Field) -> MoritaContext:
    """A = k[x]/(x^2), B = k, N = k with x acting as 0, M = A, phi = 0 and
    psi(n (x) m) = x m: I = kx kills N but not M, so the first square holds
    and the second fails."""
    A, B = truncated_poly(F, 2), field_algebra(F)
    one, zero = Mat.identity(F, 1), Mat.zeros(F, 1, 1)
    N = Bimodule(A, B, 1, [one, zero], [one], name="N")
    M = Bimodule(B, A, 2, [Mat.identity(F, 2)], A.rmul_mats(), name="M")
    psi = BalancedMap(N, M, A, Mat.from_rows(F, [[0, 1], [0, 0]], 2))
    return MoritaContext(A, B, M, N, zero_balanced_map(M, N, B), psi)


def _context_cases(F: Field, seed: int) -> list[MoritaContext]:
    """The catalog contexts, their swaps and opposites, full contexts at
    scale 2 over k[x]/(x^2) and the path algebra of A2, a context whose
    second square alone fails, and seeded random contexts; each of these
    again with psi, or phi, replaced by a random admissible balanced map
    (which may break a square), and with psi perturbed by `corrupt_psi`."""
    rng = random.Random(seed)
    base = [make(F)[1] for make in ALL_CONTEXTS.values()]
    base.append(_second_square_context(F))
    base += [full_context(R, scale=F.of_int(2)) for R in (truncated_poly(F, 2),
                                                          path_a2(F))]
    base += [random_context(F, rng)[1] for _ in range(6)]
    base += [c for ctx in base[:len(ALL_CONTEXTS) + 1]
             for c in (swap_context(ctx), opposite_context(ctx))]
    out = list(base)
    for ctx in base:
        A, B, M, N = ctx.A, ctx.B, ctx.M, ctx.N
        out.append(MoritaContext(A, B, M, N, ctx.phi,
                                 BalancedMap(N, M, A, _admissible_map(N, M, A, rng))))
        out.append(MoritaContext(A, B, M, N,
                                 BalancedMap(M, N, B, _admissible_map(M, N, B, rng)),
                                 ctx.psi))
        broken = corrupt_psi(ctx, rng)
        if broken is not None:
            out.append(broken)
    return out


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_context_messages_match_the_loops(field):
    """`validate_context` gives the parent's message list, the ideal
    checks included, on valid, square-breaking and corrupted contexts."""
    F = THREE_FIELDS[field]()
    seen = set()
    for ctx in _context_cases(F, 28):
        found = validate_context(ctx)
        assert found == _loop_context_violations(ctx)
        seen.update(msg.split(" fails at ")[0] for msg in found)
    assert {"first context square", "second context square"} <= seen
    assert any(msg.startswith("psi: ") for msg in seen)


def _valid_contexts(F: Field) -> list[MoritaContext]:
    """The catalog contexts with their swaps and opposites, 40 seeded
    random contexts, and the valid ones among `_context_cases`."""
    out = []
    for make in ALL_CONTEXTS.values():
        ctx = make(F)[1]
        out += [ctx, swap_context(ctx), opposite_context(ctx)]
    rng = random.Random(40)
    out += [random_context(F, rng)[1] for _ in range(40)]
    out += _context_cases(F, 29)
    return [c for c in out if not validate_context(c)]


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_the_axioms_prove_the_ideal_checks(field):
    """On every context that passes `validate_context`, the parent's ideal
    checks find nothing: im(psi) and im(phi) are ideals, and with phi = 0,
    I.N = 0, M.I = 0 and I^2 = 0."""
    F = THREE_FIELDS[field]()
    valid = _valid_contexts(F)
    assert len(valid) >= 60
    nonzero = 0
    for ctx in valid:
        assert _loop_ideal_checks(ctx) == []
        nonzero += ctx.phi_is_zero and ctx.ideal_rows_a().rows > 0
    assert nonzero


@pytest.mark.parametrize("field, context", RIGHT_PARAMS)
def test_morita_maps_match_the_element_loops(field, context):
    """psi, zeta, the evaluation and the adjoint mate on both sides of every
    quadruple, and `module_to_quadruple` on the ring modules of the
    quadruples (right ones too), are the parent's matrices."""
    ctx, quads = _cases(field, context)
    mr = build_ring(ctx)
    for q in quads:
        for s in (q, swap_quadruple(q)):
            c, x = s.ctx, s.x
            assert x.acts_of(c.psi.mat) == _psi_action_full(c, x)
            nmx = tensor_module(c.N, s.mx.module)
            big_proj = Mat.identity(c.A.field, c.N.dim).kron(s.mx.proj) @ nmx.proj
            assert t_a(c, x).g.mat == \
                factor_through(big_proj, [_psi_action_full(c, x)])[0]
            _, basis = hom_module(c.N, x)
            assert zeta_full(c, x, basis) == _zeta_full(c, x, basis)
            assert evaluation_full(c.A.field, c.N.dim, basis, x.dim) == \
                _evaluation_full(c.A.field, c.N.dim, basis, x.dim)
            assert f_tilde(s).mat == _f_tilde(s).mat
    rings = [(mr, [quadruple_to_module(mr, q) for q in quads]
              + [regular_module(mr.ring)])]
    op = opposite_ring(mr)
    rings.append((op, [quadruple_to_module(op, rq) for rq in _right_cases(ctx)]))
    for ring, mods in rings:
        old_ring = _EmbeddingRing(ring.ctx, ring.ring, ring.offs, ring.e1, ring.e2)
        for v in mods:
            new, old = module_to_quadruple(ring, v), _module_to_quadruple(old_ring, v)
            assert (new.x.acts, new.y.acts) == (old.x.acts, old.y.acts)
            assert (new.f.mat, new.g.mat) == (old.f.mat, old.g.mat)


@pytest.mark.parametrize("field, context", RIGHT_PARAMS)
def test_trivext_maps_match_the_element_loops(field, context):
    """`induced_module` on Lambda-modules, and IX and the multiplication
    of `structural_maps` on every quadruple of a context with phi = 0."""
    ext = ALL_CONTEXTS[context.removesuffix("^swap")](FIELDS[field]())[0]
    rng = random.Random(11)
    for x in simple_modules(ext.Lam) + [random_module(ext.Lam, rng, max_cuts=1)
                                        for _ in range(3)]:
        assert induced_module(ext, x).acts == _induced_module(ext, x).acts
    ctx, quads = _cases(field, context)
    if not ctx.phi_is_zero:
        return
    for q in quads:
        sm = structural_maps(ctx, q)
        ix_rows, mlt_full = _structural_loops(ctx, q)
        assert sm.ix_rows == ix_rows
        assert sm.mlt.mat == factor_through(sm.ix_t.proj, [mlt_full])[0]


def _message(call) -> str | None:
    try:
        call()
    except (AlgebraError, ExtensionError) as e:
        return str(e)
    return None


@pytest.mark.parametrize("field", THREE_FIELDS)
def test_ideal_products_match_the_ideal_loops(field):
    """`quotient_algebra` and `recognize_trivial_extension` raise on a span
    exactly when the parent's loop over L_t and R_t does, with its message,
    and `ideal_closure` gives the parent's span."""
    F = THREE_FIELDS[field]()
    rng = random.Random(13)
    raised = 0
    zero = Algebra(F, 0, Mat.zeros(F, 0, 0), [])      # loadable from a file
    for a in _catalog_algebras(F) + [zero]:
        spans = [_random_mat(F, rng, rng.randint(0, a.dim), a.dim) for _ in range(4)]
        for rows in spans:
            closure = ideal_closure(a, rows)
            assert closure == _ideal_closure(a, rows)
            for span in (rows, closure):
                old = _message(lambda: _quotient_ideal_loop(a, span))
                new = _message(lambda: quotient_algebra(a, span))
                assert new == old
                raised += old is not None
    exts = [make(F)[0] for make in ALL_CONTEXTS.values()]
    exts += [random_glued_context(F, random.Random(s))[0] for s in range(4)]
    empty = Mat.zeros(F, 0, 0)
    assert recognize_trivial_extension(zero, empty, empty).ideal.dim == 0
    for ext in exts:
        L = row_space(ext.incl_rows)
        for _ in range(3):
            # each row of the ideal moved by a random element of Lambda:
            # still a complement, rarely an ideal
            k = ext.ideal_rows.rows
            I = row_space(ext.ideal_rows.add(_random_mat(F, rng, k, L.rows) @ L))
            old = _message(lambda: _recognize_ideal_loop(ext.A, I))
            new = _message(lambda: recognize_trivial_extension(ext.A, L, I))
            if old is not None:
                assert new == old
                raised += 1
            else:
                assert new != "ideal span is not a two-sided ideal"
    assert raised
