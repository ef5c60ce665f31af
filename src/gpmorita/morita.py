"""Morita contexts, the 2x2 context ring, and the quadruple description of
its modules.

A context is (A, B, M, N, phi, psi) with M a (B, A)-bimodule, N an (A, B)-
bimodule, phi: M (x)_A N -> B and psi: N (x)_B M -> A balanced bimodule
maps making the two associativity squares commute.  The ring lives on
A (+) N (+) M (+) B in that basis order.  A left module is a quadruple
(X, Y, f: M (x) X -> Y, g: N (x) Y -> X) whose two squares commute.

A `QuadrupleModule` holds f and g on the full k-tensor spaces
M (x)_k X -> Y and N (x)_k Y -> X, as a problem file gives them and as
every construction here writes them, so none solves for a factorisation.
`validate_quadruple` checks the maps as they stand, with no balanced
tensor built; the balanced tensors M (x)_A X and N (x)_B Y and f and g on
them are derived when first read.

This module owns the objects and the equivalence (`quadruple_to_module`,
`module_to_quadruple`).  A map of quadruples (alpha, beta) is the ring
module map block_diag(alpha, beta) between their images under
`quadruple_to_module` (Green's equivalence), so hom spaces, kernels,
cokernels and isomorphisms of quadruples are those of `modules`, taken
on the ring modules.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (
    Algebra, MemoCache, generating_subset, glued_algebra, memo,
    opposite_algebra, validate_algebra,
)
from .bimodules import (
    BalancedMap, Bimodule, TensorModule, hom_module, left_table,
    opposite_bimodule, right_bimodule, right_table, tensor_module,
    validate_balanced_map, validate_bimodule,
)
from .fields import Field
from .homology import _block_reps, indec_injectives
from .linalg import Mat, coordinates, intertwining_system, rank, row_space
from .modules import (
    FDModule, ModuleHom, identity_hom, kernel_of,
    quotient_by_rows, regular_module, validate_module, zero_hom, zero_module,
)


class ContextError(ValueError):
    pass


@dataclass
class MoritaContext:
    A: Algebra
    B: Algebra
    M: Bimodule                  # over (B, A)
    N: Bimodule                  # over (A, B)
    phi: BalancedMap             # M (x)_A N -> B
    psi: BalancedMap             # N (x)_B M -> A
    name: str = ""
    _cache: dict = dc_field(default_factory=MemoCache, init=False, repr=False,
                            compare=False)

    def ideal_rows_a(self) -> Mat:
        """Row basis of I = im(psi) inside A."""
        return row_space(self.psi.mat)

    def ideal_rows_b(self) -> Mat:
        """Row basis of J = im(phi) inside B."""
        return row_space(self.phi.mat)

    @property
    def phi_is_zero(self) -> bool:
        return self.phi.mat.is_zero()

    @property
    def psi_is_zero(self) -> bool:
        return self.psi.mat.is_zero()


@memo
def swap_context(ctx: MoritaContext) -> MoritaContext:
    """The corner swap (A, B, M, N, phi, psi) -> (B, A, N, M, psi, phi);
    (a n; m b) |-> (b m; n a) is a ring isomorphism.  Cached both ways, so
    swapping the swap returns the context itself."""
    sw = MoritaContext(ctx.B, ctx.A, ctx.N, ctx.M, ctx.psi, ctx.phi,
                       name=f"{ctx.name}^swap")
    swap_context.put(ctx, sw)
    return sw


@memo
def opposite_context(ctx: MoritaContext) -> MoritaContext:
    """The opposite context (A^op, B^op, N^op, M^op, phi', psi') with
    phi'(n (x) m) = phi(m (x) n) and psi'(m (x) n) = psi(n (x) m).  Its ring
    is the opposite of the context ring (see `opposite_ring`), so a right
    module (C, D, h: C (x)_A N -> D, k: D (x)_B M -> C) over the context
    ring is a quadruple (C, D, h, k) over this context, with h and k read on
    N (x) C and M (x) D.  Cached both ways, so the opposite of the opposite
    returns the context itself."""
    m_op, n_op = opposite_bimodule(ctx.N), opposite_bimodule(ctx.M)
    a_op, b_op = m_op.right, m_op.left
    dM, dN = ctx.M.dim, ctx.N.dim
    op = MoritaContext(
        a_op, b_op, m_op, n_op,
        BalancedMap(m_op, n_op, b_op, ctx.phi.mat.swap_factors(dM, dN)),
        BalancedMap(n_op, m_op, a_op, ctx.psi.mat.swap_factors(dN, dM)),
        name=f"{ctx.name}^op")
    opposite_context.put(ctx, op)
    return op


def validate_context(ctx: MoritaContext) -> list[str]:
    """The violated context axioms.  The verdict is stored on ctx, so each
    instance is checked once; every call returns a fresh list."""
    return _context_violations(ctx)[:]


@memo
def _context_violations(ctx: MoritaContext) -> list[str]:
    """The algebras, the bimodules, the balanced maps and then the two
    associativity squares, each only once the ones before it hold.

    The facts about I = im(psi) that the paper uses follow from these
    axioms, so they are not checked again.  I is a two-sided ideal of A
    because psi is A-bilinear, and im(phi) is one of B because phi is
    B-bilinear.  With phi = 0 the first square gives I.N = 0, as
    psi(n (x) m).n' = n.phi(m (x) n') = 0, and the second gives M.I = 0;
    then I^2 = 0, as psi(n (x) m) psi(n' (x) m') = psi(n (x) m.psi(n' (x) m')).

    Each square compares two whole matrices whose row (i, j, k) is
    psi(n_i (x) m_j).n_k and n_i.phi(m_j (x) n_k); the first row where
    they differ names the triple."""
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
        lhs = c.N.as_left_module().acts_of(c.psi.mat)
        rhs = c.N.as_right_module().acts_of(c.phi.mat).swap_factors(dM * dN, dN)
        if lhs != rhs:
            r = lhs.sub(rhs).nonzero_rows()[0]
            out.append(f"{which} context square fails at "
                       f"({n}{r // (dM * dN)}, {m}{r // dN % dM}, {n}{r % dN})")
            return out
    return out


def require_valid_context(ctx: MoritaContext):
    bad = validate_context(ctx)
    if bad:
        raise ContextError(f"invalid Morita context: {bad[0]}")


# -- the context ring --------------------------------------------------------


@dataclass
class MoritaRing:
    ctx: MoritaContext
    ring: Algebra
    offs: tuple[int, int, int, int]      # offsets of the A, N, M, B blocks
    e1: list
    e2: list


@memo
def build_ring(ctx: MoritaContext) -> MoritaRing:
    """The 2x2 Morita context ring on the basis A ++ N ++ M ++ B, memoized
    on ctx, so every caller works over the one ring.

    Validation runs first; a corrupted context is rejected before any ring
    is constructed.  The context axioms (algebras, unital bimodules,
    balanced bimodule maps, both associativity squares) are exactly what
    makes this ring associative and unital, so the ring is not re-checked.
    """
    require_valid_context(ctx)
    A, B, M, N = ctx.A, ctx.B, ctx.M, ctx.N
    F = A.field
    dims = [A.dim, N.dim, M.dim, B.dim]
    offs = tuple(sum(dims[:b]) for b in range(4))
    z = [F.zero()]
    e1 = A.unit + z * (N.dim + M.dim + B.dim)
    e2 = z * (A.dim + N.dim + M.dim) + B.unit
    unit = A.unit + z * (N.dim + M.dim) + B.unit
    # blocks 0 A, 1 N, 2 M, 3 B; (s, t): (u, table of block s times block t)
    ring = glued_algebra(F, dims, {
        (0, 0): (0, A.consts), (0, 1): (1, left_table(N)),
        (1, 3): (1, right_table(N)), (1, 2): (0, ctx.psi.mat),
        (2, 0): (2, right_table(M)), (2, 1): (3, ctx.phi.mat),
        (3, 3): (3, B.consts), (3, 2): (2, left_table(M)),
    }, unit, name=ctx.name or "Lambda")
    ring.morita_context = ctx
    return MoritaRing(ctx, ring, offs, e1, e2)


def opposite_ring(mr: MoritaRing) -> MoritaRing:
    """The ring of `opposite_context`: the opposite algebra of the context
    ring on the same coordinates, since (a n; m b) |-> (a m; n b) is a ring
    isomorphism that is the identity on A ++ N ++ M ++ B.  The N block of
    the opposite context is M^op, so the N and M offsets trade places."""
    offA, offN, offM, offB = mr.offs
    return MoritaRing(opposite_context(mr.ctx), opposite_algebra(mr.ring),
                      (offA, offM, offN, offB), mr.e1, mr.e2)


# -- quadruple modules -------------------------------------------------------


@dataclass
class QuadrupleModule:
    """f and g are stored on the full k-tensor spaces; `mx`, `ny`, `f` and
    `g`, the balanced tensors and the maps on them, are derived on first
    read."""
    ctx: MoritaContext
    x: FDModule                  # over A
    y: FDModule                  # over B
    f_full: Mat                  # M (x)_k X -> Y
    g_full: Mat                  # N (x)_k Y -> X
    name: str = ""
    # init=False: a dataclasses.replace copy starts with no memo entries
    _cache: dict = dc_field(default_factory=MemoCache, init=False, repr=False,
                            compare=False)

    @property
    def dim(self) -> int:
        return self.x.dim + self.y.dim

    @property
    def mx(self) -> TensorModule:
        return tensor_module(self.ctx.M, self.x)

    @property
    def ny(self) -> TensorModule:
        return tensor_module(self.ctx.N, self.y)

    @property
    def f(self) -> ModuleHom:
        """f on M (x)_A X."""
        return _factored(self, 0)

    @property
    def g(self) -> ModuleHom:
        """g on N (x)_B Y."""
        return _factored(self, 1)

    def __repr__(self):
        return f"Quadruple({self.name or '?'}: X{self.x.dim}, Y{self.y.dim})"


# make_quadruple(ctx, x, y, f_full, g_full, name=...) is the constructor
make_quadruple = QuadrupleModule


@memo
def _factored(q: QuadrupleModule, side: int) -> ModuleHom:
    """f (side 0) or g (side 1) on its balanced tensor, section @ full, as
    section @ proj is the identity.  It is the map on the quotient exactly
    when full = proj @ (section @ full), that is when full factors."""
    t, full, target = (q.mx, q.f_full, q.y) if side == 0 else (q.ny, q.g_full, q.x)
    mat = t.section @ full
    if t.proj @ mat != full:
        _, which, tensor, *_ = _QUADRUPLE_SIDES[side]
        raise ContextError(f"{which} does not factor through {tensor}")
    return ModuleHom(t.module, target, mat)


def swap_quadruple(q: QuadrupleModule, name: str | None = None) -> QuadrupleModule:
    """The quadruple over the swapped context: (X, Y, f, g) -> (Y, X, g, f).
    Only relabels; nothing is solved again.  The quadruple axioms are
    symmetric under the swap, so a stored verdict of no violations is
    carried over; a list of violations is not, as its messages name sides."""
    sw = QuadrupleModule(swap_context(q.ctx), q.y, q.x, q.g_full, q.f_full,
                         name=q.name if name is None else name)
    if _quadruple_verdict.get(q) == []:
        _quadruple_verdict.put([], sw)
    return sw


# message labels per side: the corner module, the structure map leaving it,
# the tensor it is defined on, the algebra it is linear over and the square
# it closes
_QUADRUPLE_SIDES = (("X", "f", "M (x)_A X", "B", "first"),
                    ("Y", "g", "N (x)_B Y", "A", "second"))


def validate_quadruple(q: QuadrupleModule) -> list[str]:
    """The violated quadruple axioms.  The verdict is stored on q, so each
    instance is checked once; every call returns a fresh list."""
    return _quadruple_verdict(q)[:]


@memo
def _quadruple_verdict(q: QuadrupleModule) -> list[str]:
    return _quadruple_violations(q)


def _quadruple_violations(q: QuadrupleModule) -> list[str]:
    """The axioms, each only once the ones before it hold, checked on f and
    g as maps on the full k-tensor spaces, so no balanced tensor is built.
    Side by side, for (X, f) and, through the swap, (Y, g):

    - f kills the middle relations m.a (x) x - m (x) a.x of M (x)_A X,
      which is to say it factors through that quotient.  The relations of
      a generating set of A suffice,
      M and X being modules: f kills m.(ab) (x) x - m (x) (ab).x once it
      kills the relations of a at m and b.x and those of b at m.a and x.
    - X obeys the module laws.
    - f is B-linear, (L_b (x) 1_X) f = f Y_b for the generators b of B; the
      full space maps onto the quotient, so that holds there iff it holds
      on M (x)_A X.
    - The square (1_N (x) f) g = Psi_X holds on N (x)_k M (x)_k X, which
      maps onto N (x)_B (M (x)_A X), so it holds there iff it holds on the
      balanced tensor product.  Psi_X(n (x) m (x) x) = g(n (x) f(m (x) x))
      lies in Im g, so the first square gives I X in Im g, that is
      I Coker(g) = 0, and the second J Coker(f) = 0."""
    f_full, g_full = q.f_full, q.g_full
    sides = [((q.ctx, q.x, q.y, f_full, g_full), _QUADRUPLE_SIDES[0]),
             ((swap_context(q.ctx), q.y, q.x, g_full, f_full), _QUADRUPLE_SIDES[1])]
    for (ctx, x, _, f, _), lab in sides:
        gens = generating_subset(ctx.A)
        rel = intertwining_system(x.algebra.field, ctx.M.dim, x.dim,
                                  [ctx.M.right_acts[a] for a in gens],
                                  [x.acts[a] for a in gens])
        if not (rel @ f).is_zero():
            return [f"{lab[1]} does not factor through {lab[2]}"]
    out = [f"{lab[0]}: {m}" for (_, x, *_), lab in sides for m in validate_module(x)]
    if out:
        return out
    for (ctx, x, y, f, _), lab in sides:
        eye_x = Mat.identity(x.algebra.field, x.dim)
        if not all(ctx.M.left_acts[b].kron(eye_x) @ f == f @ y.acts[b]
                   for b in generating_subset(ctx.B)):
            out.append(f"{lab[1]} is not {lab[3]}-linear")
    if out:
        return out
    # (1_N (x) f) g = Psi_X on N (x) M (x) X; on the B side
    # (1_M (x) g) f = Phi_Y on M (x) N (x) Y
    for (ctx, x, _, f, g), lab in sides:
        eye_n = Mat.identity(x.algebra.field, ctx.N.dim)
        if eye_n.kron(f) @ g != x.acts_of(ctx.psi.mat):
            out.append(f"{lab[4]} compatibility square fails")
    return out


def quadruple_map_violations(s: QuadrupleModule, t: QuadrupleModule,
                             alpha: Mat, beta: Mat) -> list[str]:
    """The ways in which (alpha: X_s -> X_t, beta: Y_s -> Y_t) fails to be
    a map of valid quadruples over one context: alpha A-linear, beta
    B-linear, f_s beta = (1_M (x) alpha) f_t on M (x)_k X_s and
    g_s alpha = (1_N (x) beta) g_t on N (x)_k Y_s.  The ring is spanned by
    A, N, M and B, whose actions on the module of a quadruple are those of
    X and Y, g and f, so these are exactly the conditions for
    block_diag(alpha, beta) to be a map of the ring modules (Green's
    equivalence), checked at the size of the corners."""
    out = []
    for lab, h, x, x2, bim, tag, f, f2, other in (
            ("alpha", alpha, s.x, t.x, s.ctx.M, "f", s.f_full, t.f_full, beta),
            ("beta", beta, s.y, t.y, s.ctx.N, "g", s.g_full, t.g_full, alpha)):
        if not ModuleHom(x, x2, h).intertwines():
            out.append(f"{lab} is not linear")
        if f @ other != Mat.identity(h.field, bim.dim).kron(h) @ f2:
            out.append(f"{lab} does not commute with the {tag} maps")
    return out


def zero_quadruple(ctx: MoritaContext) -> QuadrupleModule:
    F = ctx.A.field
    x, y = zero_module(ctx.A), zero_module(ctx.B)
    return QuadrupleModule(ctx, x, y, Mat.zeros(F, 0, 0), Mat.zeros(F, 0, 0),
                           name="0")


def direct_sum_quadruples(qs: list[QuadrupleModule], name: str = "") -> QuadrupleModule:
    from .modules import direct_sum
    ctx = qs[0].ctx
    F = ctx.A.field
    sides = (qs, [swap_quadruple(q) for q in qs])
    sums = [direct_sum([q.x for q in side]) for side in sides]
    # f on M (x)_k (+)X_i -> (+)Y_i is the sum over i of
    # (1_M (x) proj_i) f_i incl_i; then g through the swap
    fulls = []
    for side, (src, _, projs), (dst, incls, _) in zip(sides, sums, sums[::-1]):
        eye_m = Mat.identity(F, side[0].ctx.M.dim)
        full = Mat.zeros(F, eye_m.rows * src.dim, dst.dim)
        for q, prj, inc in zip(side, projs, incls):
            part = q.f_full @ inc.mat     # M (x)_k X_i -> Y
            full = full.add(eye_m.kron(prj.mat) @ part)
        fulls.append(full)
    return QuadrupleModule(ctx, sums[0][0], sums[1][0], fulls[0], fulls[1],
                           name=name or "+".join(q.name or "?" for q in qs))


# -- the equivalence with modules over the ring ------------------------------


@memo(on=1)
def quadruple_to_module(mr: MoritaRing, q: QuadrupleModule) -> FDModule:
    """The module on X (+) Y with the action determined by the quadruple.
    Memoized per (mr, q) instance pair, on q."""
    ctx = mr.ctx
    F = mr.ring.field
    dx, dy = q.x.dim, q.y.dim
    acts = []
    offA, offN, offM, offB = mr.offs
    g_big, f_big = q.g_full, q.f_full
    for t in range(mr.ring.dim):
        blocks = [[None, None], [None, None]]
        if offA <= t < offA + ctx.A.dim:
            blocks[0][0] = q.x.acts[t - offA]
        elif offN <= t < offN + ctx.N.dim:
            s = t - offN
            blocks[1][0] = g_big.block(s * dy, (s + 1) * dy, 0, dx)
        elif offM <= t < offM + ctx.M.dim:
            s = t - offM
            blocks[0][1] = f_big.block(s * dx, (s + 1) * dx, 0, dy)
        else:
            blocks[1][1] = q.y.acts[t - offB]
        acts.append(Mat.from_blocks(F, [dx, dy], [dx, dy], blocks))
    return FDModule(mr.ring, dx + dy, acts, name=q.name or "quad")


def quadruple_bases(mr: MoritaRing, v: FDModule) -> list[Mat]:
    """The bases of e1.V and e2.V, as rows: the bases of X and Y in which
    `module_to_quadruple` reads the ring module V."""
    return [row_space(v.act_of(mr.e1)), row_space(v.act_of(mr.e2))]


def module_to_quadruple(mr: MoritaRing, v: FDModule, name: str = "") -> QuadrupleModule:
    """Recover the quadruple from a module over the context ring.  The
    basis element t of the block at offset `off` acts on V by
    v.acts[off + t]."""
    ctx = mr.ctx
    F = mr.ring.field
    offA, offN, offM, offB = mr.offs
    parts = quadruple_bases(mr, v)
    if parts[0].rows + parts[1].rows != v.dim:
        raise ContextError("idempotent decomposition does not exhaust the module")
    mods = []
    for rows, alg, off, (tag, letter) in zip(
            parts, (ctx.A, ctx.B), (offA, offB), ("XA", "YB")):
        k = rows.rows
        c = coordinates(rows, Mat.vstack([rows @ v.acts[off + t]
                                          for t in range(alg.dim)]))
        if c is None:
            raise ContextError(f"{tag}-part is not {letter}-invariant")
        acts = [c.block(t * k, (t + 1) * k, 0, k) for t in range(alg.dim)]
        mods.append(FDModule(alg, k, acts, name=f"{name}|{tag}"))
    # f on the full tensor space: m_s (x) x_j |-> m_s . x_j; then g
    fulls = []
    for src, dst, bim, off, (tag, part) in zip(
            parts, parts[::-1], (ctx.M, ctx.N), (offM, offN), ("MY", "NX")):
        images = [src @ v.acts[off + s] for s in range(bim.dim)]
        c = coordinates(dst, Mat.vstack(images) if images
                        else Mat.zeros(F, 0, v.dim))
        if c is None:
            raise ContextError(f"{tag}-action does not land in the {part}-part")
        fulls.append(c)
    return QuadrupleModule(ctx, mods[0], mods[1], fulls[0], fulls[1], name=name)


# -- the six-functor zoo -----------------------------------------------------


def zeta_full(ctx: MoritaContext, x: FDModule, hom_basis) -> Mat:
    """M (x)_k X -> Hom_A(N, X) coordinates, m (x) v |-> [n |-> psi(n (x) m).v]:
    the rows (t, i, v) of psi(n_t (x) m_i).x_v, moved to (i, v, t) and
    read dN at a time as one flattened map."""
    F = ctx.A.field
    dM, dN, dX = ctx.M.dim, ctx.N.dim, x.dim
    if not hom_basis:
        return Mat.zeros(F, dM * dX, 0)
    flats = x.acts_of(ctx.psi.mat).swap_factors(dN, dM * dX)
    c = coordinates(Mat.vstack([h.mat.flatten() for h in hom_basis]),
                    flats.reshape(dM * dX, dN * dX))
    if c is None:
        raise ContextError("zeta image is not an intertwiner")
    return c


def evaluation_full(field: Field, outer_dim: int, hom_basis, target_dim: int) -> Mat:
    """W (x)_k Hom(W, X) -> X, w (x) h |-> (w)h: the stacked hom matrices,
    rows (t, i) for h_t and w_i, re-indexed to (i, t)."""
    if not hom_basis:
        return Mat.zeros(field, 0, target_dim)
    return Mat.vstack([h.mat for h in hom_basis]).swap_factors(len(hom_basis),
                                                              outer_dim)


def t_a(ctx: MoritaContext, x: FDModule, name: str = "") -> QuadrupleModule:
    """(X, M (x) X, identity, Psi_X): f is the projection onto M (x)_A X,
    and Psi_X sends n (x) (m (x) v) to psi(n (x) m).v, the stacked actions
    of the values of psi read through the section of M (x)_A X."""
    mx = tensor_module(ctx.M, x)
    eye_n = Mat.identity(ctx.A.field, ctx.N.dim)
    return QuadrupleModule(ctx, x, mx.module, mx.proj,
                           eye_n.kron(mx.section) @ x.acts_of(ctx.psi.mat),
                           name=name or f"T_A({x.name})")


def t_b(ctx: MoritaContext, y: FDModule, name: str = "") -> QuadrupleModule:
    """(N (x) Y, Y, Phi_Y, identity): T_A of the swapped context."""
    return swap_quadruple(t_a(swap_context(ctx), y, name=name or f"T_B({y.name})"))


def h_a(ctx: MoritaContext, x: FDModule, name: str = "") -> QuadrupleModule:
    """(X, Hom_A(N, X), zeta_X, evaluation)."""
    y, basis = hom_module(ctx.N, x)
    return QuadrupleModule(ctx, x, y, zeta_full(ctx, x, basis),
                           evaluation_full(ctx.A.field, ctx.N.dim, basis, x.dim),
                           name=name or f"H_A({x.name})")


def h_b(ctx: MoritaContext, y: FDModule, name: str = "") -> QuadrupleModule:
    """(Hom_B(M, Y), Y, evaluation, xi_Y): H_A of the swapped context."""
    return swap_quadruple(h_a(swap_context(ctx), y, name=name or f"H_B({y.name})"))


def z_a(ctx: MoritaContext, u: FDModule, name: str = "") -> QuadrupleModule:
    """(U, 0, 0, 0); requires I.U = 0."""
    if not u.acts_of(ctx.ideal_rows_a()).is_zero():
        raise ContextError("Z functor needs the corner ideal to annihilate the module")
    F = ctx.A.field
    y = zero_module(ctx.B)
    return QuadrupleModule(ctx, u, y, Mat.zeros(F, ctx.M.dim * u.dim, 0),
                           Mat.zeros(F, 0, u.dim), name=name or f"Z_A({u.name})")


def z_b(ctx: MoritaContext, v: FDModule, name: str = "") -> QuadrupleModule:
    """(0, V, 0, 0); requires J.V = 0.  Z_A of the swapped context."""
    return swap_quadruple(z_a(swap_context(ctx), v, name=name or f"Z_B({v.name})"))


def quotient_by_ideal(mod: FDModule, ideal_rows: Mat,
                      tag: str) -> tuple[FDModule, ModuleHom]:
    """mod / (ideal . mod) with its projection; `tag` names the ideal."""
    if ideal_rows.rows == 0 or mod.dim == 0:
        return mod, identity_hom(mod)
    rows = row_space(mod.acts_of(ideal_rows))
    return quotient_by_rows(mod, rows, name=f"{mod.name}/{tag}")


def q_a(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    """X / IX with its projection (the left adjoint of Z on the A side)."""
    return quotient_by_ideal(q.x, q.ctx.ideal_rows_a(), "I")


def q_b(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    """Y / JY: the Q_A quotient of the swapped quadruple."""
    sw = swap_quadruple(q)
    return quotient_by_ideal(sw.x, sw.ctx.ideal_rows_a(), "J")


def f_tilde(q: QuadrupleModule) -> ModuleHom:
    """The adjoint mate X -> Hom_B(M, Y) of f."""
    ctx = q.ctx
    target, basis = hom_module(ctx.M, q.y)
    big = q.f_full
    if not basis:
        return zero_hom(q.x, target)
    dM, dx = ctx.M.dim, q.x.dim
    # row j: the map m_i |-> (m_i (x) x_j) f, rows i of M stacked flat
    flats = big.swap_factors(dM, dx).reshape(dx, dM * q.y.dim)
    c = coordinates(Mat.vstack([h.mat.flatten() for h in basis]), flats)
    if c is None:
        raise ContextError("adjoint mate failed to express")
    return ModuleHom(q.x, target, c)


def p_a(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    """Kernel of the adjoint mate of f (right adjoint of Z on the A side)."""
    return kernel_of(f_tilde(q), name=f"P_A({q.name})")


def p_b(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    """Kernel of the adjoint mate Y -> Hom_A(N, X) of g, which is f_tilde of
    the swapped quadruple."""
    return kernel_of(f_tilde(swap_quadruple(q)), name=f"P_B({q.name})")


def classify_projectives(ctx: MoritaContext) -> list[QuadrupleModule]:
    """The indecomposable projective quadruples: T_A on the indecomposable
    projectives of A, then T_B likewise over B."""
    return [t(ctx, mod, name=f"T_{tag}(P{blk})")
            for alg, t, tag in ((ctx.A, t_a, "A"), (ctx.B, t_b, "B"))
            for mod, _, _, blk in _block_reps(alg)]


def classify_injectives(ctx: MoritaContext) -> list[QuadrupleModule]:
    return [h(ctx, inj, name=f"H_{tag}({inj.name})")
            for alg, h, tag in ((ctx.A, h_a, "A"), (ctx.B, h_b, "B"))
            for inj in indec_injectives(alg)]


def regular_quadruple(mr: MoritaRing) -> QuadrupleModule:
    """The regular module of the context ring, as a quadruple."""
    return module_to_quadruple(mr, regular_module(mr.ring), name="Lambda")


# -- right modules, as quadruples over the opposite context ------------------


def regular_right_quadruples(mr: MoritaRing) -> list[QuadrupleModule]:
    """The two right ideals e1.Lambda = (A, N, mult, psi) and
    e2.Lambda = (M, B, phi, mult): T_A(A^op) and T_B(B^op) over the
    opposite context."""
    op = opposite_context(mr.ctx)
    return [t_a(op, regular_module(op.A)), t_b(op, regular_module(op.B))]


def tensor_over_ring(rq: QuadrupleModule, q: QuadrupleModule) -> int:
    """dim of (C (x)_A X (+) D (x)_B Y) / H for the right module
    rq = (C, D, h, k), a quadruple over the opposite context, with H spanned
    by c (x) (n (x) y)g - (c (x) n)h (x) y  and  d (x) (m (x) x)f - (d (x) m)k (x) x."""
    ctx = q.ctx
    if rq.ctx is not opposite_context(ctx):
        raise ContextError("the right module must be a quadruple over the "
                           "opposite context")
    F = ctx.A.field
    cx = tensor_module(right_bimodule(rq.x), q.x)
    dy = tensor_module(right_bimodule(rq.y), q.y)
    g_big, f_big = q.g_full, q.f_full
    # C (x)_k N -> D and D (x)_k M -> C, re-indexed from N (x) C and M (x) D
    h_big = rq.f_full.swap_factors(ctx.N.dim, rq.x.dim)
    k_big = rq.g_full.swap_factors(ctx.M.dim, rq.y.dim)
    eye_c, eye_d = Mat.identity(F, rq.x.dim), Mat.identity(F, rq.y.dim)
    eye_x, eye_y = Mat.identity(F, q.x.dim), Mat.identity(F, q.y.dim)
    # rows c (x) n (x) y, then d (x) m (x) x, each projected into the two
    # balanced tensor spaces
    rel = Mat.vstack([
        Mat.hstack([eye_c.kron(g_big) @ cx.proj,
                    (h_big.kron(eye_y) @ dy.proj).neg()]),
        Mat.hstack([(k_big.kron(eye_x) @ cx.proj).neg(),
                    eye_d.kron(f_big) @ dy.proj])])
    return cx.module.dim + dy.module.dim - rank(rel)


def tensor_over_ring_oracle(mr: MoritaRing, rq: QuadrupleModule,
                            q: QuadrupleModule) -> int:
    """Brute-force dim of the tensor over the whole context ring."""
    u = quadruple_to_module(opposite_ring(mr), rq)
    return tensor_module(right_bimodule(u), quadruple_to_module(mr, q)).module.dim


def natural_maps(ctx: MoritaContext, x: FDModule, y: FDModule) -> dict:
    """The six structure maps attached to a pair of corner modules: the
    psi/phi multiplication composites, the tensor-to-hom comparison maps,
    and the two evaluation maps, each as a module hom over the right
    algebra.  They are the structure maps of T_A X, T_B Y, H_A X and H_B Y."""
    ta, tb, ha, hb = t_a(ctx, x), t_b(ctx, y), h_a(ctx, x), h_b(ctx, y)
    return {"psi": ta.g, "phi": tb.f, "zeta": ha.f, "xi": hb.g,
            "eval_x": ha.g, "eval_y": hb.f}
