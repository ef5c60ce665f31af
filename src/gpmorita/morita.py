"""Morita contexts, the 2x2 context ring, and the quadruple description of
its modules.

A context is (A, B, M, N, phi, psi) with M a (B, A)-bimodule, N an (A, B)-
bimodule, phi: M (x)_A N -> B and psi: N (x)_B M -> A balanced bimodule
maps making the two associativity squares commute.  The ring lives on
A (+) N (+) M (+) B in that basis order.  A left module is a quadruple
(X, Y, f: M (x) X -> Y, g: N (x) Y -> X) whose two squares commute.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import Algebra, opposite_algebra, validate_algebra
from .bimodules import (
    BalancedMap, Bimodule, TensorModule, hom_module, tensor_functor_hom,
    tensor_module, validate_balanced_map, validate_bimodule,
    _middle_relations, _vec,
)
from .fields import Field
from .linalg import Mat, kernel_basis, rank, row_space, solve, solve_left
from .modules import (
    FDModule, ModuleHom, _invertible_in_span, cokernel_of, identity_hom,
    kernel_of, quotient_by_rows, regular_module, validate_module, zero_hom,
    zero_module,
)


class ContextError(ValueError):
    pass


def _unit_list(F: Field, n: int, i: int) -> list:
    out = [F.zero()] * n
    out[i] = F.one()
    return out


@dataclass
class MoritaContext:
    A: Algebra
    B: Algebra
    M: Bimodule                  # over (B, A)
    N: Bimodule                  # over (A, B)
    phi: BalancedMap             # M (x)_A N -> B
    psi: BalancedMap             # N (x)_B M -> A
    name: str = ""
    _cache: dict = dc_field(default_factory=dict, repr=False)

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


def validate_context(ctx: MoritaContext) -> list[str]:
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
    F = ctx.A.field
    dN, dM = ctx.N.dim, ctx.M.dim
    # associativity square on N (x) M (x) N:
    #   psi(n (x) m) . n' = n . phi(m (x) n')
    for i in range(dN):
        ei = Mat.unit_row(F, dN, i)
        for j in range(dM):
            a = ctx.psi.value(i, j)
            left_mat = ctx.N.left_act_of(a)    # n' |-> psi(n,m).n'
            for k in range(dN):
                lhs = Mat.unit_row(F, dN, k) @ left_mat
                b = ctx.phi.value(j, k)
                rhs = ei @ ctx.N.right_act_of(b)
                if lhs.data[0] != rhs.data[0]:
                    out.append(f"first context square fails at (n{i}, m{j}, n{k})")
                    return out
    # associativity square on M (x) N (x) M:
    #   phi(m (x) n) . m' = m . psi(n (x) m')
    for i in range(dM):
        ei = Mat.unit_row(F, dM, i)
        for j in range(dN):
            b = ctx.phi.value(i, j)
            left_mat = ctx.M.left_act_of(b)
            for k in range(dM):
                lhs = Mat.unit_row(F, dM, k) @ left_mat
                a = ctx.psi.value(j, k)
                rhs = ei @ ctx.M.right_act_of(a)
                if lhs.data[0] != rhs.data[0]:
                    out.append(f"second context square fails at (m{i}, n{j}, m{k})")
                    return out
    out += _ideal_checks(ctx)
    return out


def _ideal_checks(ctx: MoritaContext) -> list[str]:
    out = []
    F = ctx.A.field
    I = ctx.ideal_rows_a()
    J = ctx.ideal_rows_b()
    from .linalg import in_row_space
    for t in range(ctx.A.dim):
        if I.rows and not (in_row_space(I, I @ ctx.A.lmul_mats()[t])
                           and in_row_space(I, I @ ctx.A.rmul_mats()[t])):
            out.append("im(psi) is not a two-sided ideal of A")
            break
    for t in range(ctx.B.dim):
        if J.rows and not (in_row_space(J, J @ ctx.B.lmul_mats()[t])
                           and in_row_space(J, J @ ctx.B.rmul_mats()[t])):
            out.append("im(phi) is not a two-sided ideal of B")
            break
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
            for s in range(I.rows):
                if any(not F.is_zero(c) for c in ctx.A.multiply(I.row(r), I.row(s))):
                    out.append("I^2 != 0 although phi = 0")
                    break
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

    def embed_a_rows(self) -> Mat:
        F = self.ring.field
        return Mat.from_rows(F, [self.embed_a(self.ctx.A.basis_el(i))
                                 for i in range(self.ctx.A.dim)], self.ring.dim)

    def embed_b_rows(self) -> Mat:
        F = self.ring.field
        return Mat.from_rows(F, [self.embed_b(self.ctx.B.basis_el(i))
                                 for i in range(self.ctx.B.dim)], self.ring.dim)


def build_ring(ctx: MoritaContext, validate: bool = True) -> MoritaRing:
    """The 2x2 Morita context ring on the basis A ++ N ++ M ++ B.

    Validation runs first; a corrupted context is rejected before any ring
    is constructed.
    """
    if validate:
        require_valid_context(ctx)
    A, B, M, N = ctx.A, ctx.B, ctx.M, ctx.N
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
            put(offA + i, offN + j, offN,
                (Mat.unit_row(F, dN, j) @ N.left_acts[i]).row(0))
    for i in range(dN):
        for j in range(dB):
            put(offN + i, offB + j, offN,
                (Mat.unit_row(F, dN, i) @ N.right_acts[j]).row(0))
        for j in range(dM):
            put(offN + i, offM + j, offA, ctx.psi.value(i, j))
    for i in range(dM):
        for j in range(dA):
            put(offM + i, offA + j, offM,
                (Mat.unit_row(F, dM, i) @ M.right_acts[j]).row(0))
        for j in range(dN):
            put(offM + i, offN + j, offB, ctx.phi.value(i, j))
    for i in range(dB):
        for j in range(dB):
            put(offB + i, offB + j, offB, B.mul[i][j])
        for j in range(dM):
            put(offB + i, offM + j, offM,
                (Mat.unit_row(F, dM, j) @ M.left_acts[i]).row(0))

    unit = [z] * dim
    unit[offA:offA + dA] = A.unit
    unit[offB:offB + dB] = B.unit
    ring = Algebra(F, dim, mul, unit, name=ctx.name or "Lambda")
    bad = validate_algebra(ring)
    if bad:
        raise ContextError(f"context ring fails associativity at {bad[0].indices}")
    e1 = [z] * dim
    e1[offA:offA + dA] = A.unit
    e2 = [z] * dim
    e2[offB:offB + dB] = B.unit
    return MoritaRing(ctx, ring, (offA, offN, offM, offB), e1, e2)


# -- quadruple modules -------------------------------------------------------


@dataclass
class QuadrupleModule:
    ctx: MoritaContext
    x: FDModule                  # over A
    y: FDModule                  # over B
    f: ModuleHom                 # M (x)_A x -> y, on the quotient coordinates
    g: ModuleHom                 # N (x)_B y -> x
    mx: TensorModule
    ny: TensorModule
    name: str = ""

    @property
    def dim(self) -> int:
        return self.x.dim + self.y.dim

    def __repr__(self):
        return f"Quadruple({self.name or '?'}: X{self.x.dim}, Y{self.y.dim})"


def make_quadruple(ctx: MoritaContext, x: FDModule, y: FDModule,
                   f_full: Mat, g_full: Mat, name: str = "") -> QuadrupleModule:
    """Assemble a quadruple from maps given on the full k-tensor spaces
    M (x)_k X -> Y and N (x)_k Y -> X (they must kill the middle relations)."""
    mx = tensor_module(ctx.M, x)
    ny = tensor_module(ctx.N, y)
    f_mat = solve(mx.proj, f_full)
    if f_mat is None:
        raise ContextError("f does not factor through M (x)_A X")
    g_mat = solve(ny.proj, g_full)
    if g_mat is None:
        raise ContextError("g does not factor through N (x)_B Y")
    return QuadrupleModule(ctx, x, y, ModuleHom(mx.module, y, f_mat),
                           ModuleHom(ny.module, x, g_mat), mx, ny, name=name)


def psi_action_full(ctx: MoritaContext, x: FDModule) -> Mat:
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


def phi_action_full(ctx: MoritaContext, y: FDModule) -> Mat:
    """M (x)_k N (x)_k Y -> Y, m (x) n (x) w |-> phi(m (x) n) . w."""
    F = ctx.B.field
    dM, dN, dY = ctx.M.dim, ctx.N.dim, y.dim
    rows = []
    for i in range(dM):
        for j in range(dN):
            act = y.act_of(ctx.phi.value(i, j))
            for w in range(dY):
                rows.append(act.row(w))
    return Mat.from_rows(F, rows, dY) if rows else Mat.zeros(F, 0, dY)


def psi_hom(ctx: MoritaContext, x: FDModule, mx: TensorModule,
            nmx: TensorModule) -> ModuleHom:
    """Psi_X : N (x)_B (M (x)_A X) -> X as a module map over A."""
    F = ctx.A.field
    eye_n = Mat.identity(F, ctx.N.dim)
    big_proj = eye_n.kron(mx.proj) @ nmx.proj
    full = psi_action_full(ctx, x)
    mat = solve(big_proj, full)
    if mat is None:
        raise ContextError("Psi does not factor through the tensor quotient")
    return ModuleHom(nmx.module, x, mat)


def phi_hom(ctx: MoritaContext, y: FDModule, ny: TensorModule,
            mny: TensorModule) -> ModuleHom:
    """Phi_Y : M (x)_A (N (x)_B Y) -> Y as a module map over B."""
    F = ctx.B.field
    eye_m = Mat.identity(F, ctx.M.dim)
    big_proj = eye_m.kron(ny.proj) @ mny.proj
    full = phi_action_full(ctx, y)
    mat = solve(big_proj, full)
    if mat is None:
        raise ContextError("Phi does not factor through the tensor quotient")
    return ModuleHom(mny.module, y, mat)


def validate_quadruple(q: QuadrupleModule) -> list[str]:
    out = []
    out += [f"X: {m}" for m in validate_module(q.x)]
    out += [f"Y: {m}" for m in validate_module(q.y)]
    if out:
        return out
    if not q.f.intertwines():
        out.append("f is not B-linear")
    if not q.g.intertwines():
        out.append("g is not A-linear")
    if out:
        return out
    ctx = q.ctx
    F = ctx.A.field
    # square 1: (1_N (x) f) g = Psi_X on N (x) M (x) X
    nmx = tensor_module(ctx.N, q.mx.module)
    one_f = tensor_functor_hom(nmx, q.ny, q.f)
    lhs = one_f.then(q.g)
    psi_x = psi_hom(ctx, q.x, q.mx, nmx)
    if lhs.mat != psi_x.mat:
        out.append("first compatibility square fails")
    # square 2: (1_M (x) g) f = Phi_Y on M (x) N (x) Y
    mny = tensor_module(ctx.M, q.ny.module)
    one_g = tensor_functor_hom(mny, q.mx, q.g)
    lhs2 = one_g.then(q.f)
    phi_y = phi_hom(ctx, q.y, q.ny, mny)
    if lhs2.mat != phi_y.mat:
        out.append("second compatibility square fails")
    if out:
        return out
    # consequences: I kills Coker(g), J kills Coker(f)
    coker_g, _ = cokernel_of(q.g)
    I = ctx.ideal_rows_a()
    for r in range(I.rows):
        if not coker_g.act_of(I.row(r)).is_zero():
            out.append("I does not annihilate Coker(g)")
            break
    coker_f, _ = cokernel_of(q.f)
    J = ctx.ideal_rows_b()
    for r in range(J.rows):
        if not coker_f.act_of(J.row(r)).is_zero():
            out.append("J does not annihilate Coker(f)")
            break
    return out


def zero_quadruple(ctx: MoritaContext) -> QuadrupleModule:
    F = ctx.A.field
    x, y = zero_module(ctx.A), zero_module(ctx.B)
    return make_quadruple(ctx, x, y, Mat.zeros(F, 0, 0), Mat.zeros(F, 0, 0),
                          name="0")


def direct_sum_quadruples(qs: list[QuadrupleModule], name: str = "") -> QuadrupleModule:
    from .modules import direct_sum
    ctx = qs[0].ctx
    F = ctx.A.field
    xs, ys = [q.x for q in qs], [q.y for q in qs]
    x, x_incls, _ = direct_sum(xs)
    y, y_incls, _ = direct_sum(ys)
    dM, dN = ctx.M.dim, ctx.N.dim
    f_full = Mat.zeros(F, dM * x.dim, y.dim)
    g_full = Mat.zeros(F, dN * y.dim, x.dim)
    xoff = 0
    for qi, q in enumerate(qs):
        full = q.mx.proj @ q.f.mat @ y_incls[qi].mat   # M (x)_k X_i -> Y
        for i in range(dM):
            for j in range(q.x.dim):
                f_full.data[i * x.dim + (xoff + j)] = full.data[i * q.x.dim + j][:]
        xoff += q.x.dim
    yoff = 0
    for qi, q in enumerate(qs):
        full = q.ny.proj @ q.g.mat @ x_incls[qi].mat
        for i in range(dN):
            for j in range(q.y.dim):
                g_full.data[i * y.dim + (yoff + j)] = full.data[i * q.y.dim + j][:]
        yoff += q.y.dim
    return make_quadruple(ctx, x, y, f_full, g_full,
                          name=name or "+".join(q.name or "?" for q in qs))


# -- the equivalence with modules over the ring ------------------------------


def quadruple_to_module(mr: MoritaRing, q: QuadrupleModule) -> FDModule:
    """The module on X (+) Y with the action determined by the quadruple."""
    ctx = mr.ctx
    F = mr.ring.field
    dx, dy = q.x.dim, q.y.dim
    dim = dx + dy
    acts = []
    offA, offN, offM, offB = mr.offs
    g_big = q.ny.proj @ q.g.mat        # N (x)_k Y -> X
    f_big = q.mx.proj @ q.f.mat        # M (x)_k X -> Y
    for t in range(mr.ring.dim):
        m = Mat.zeros(F, dim, dim)
        if offA <= t < offA + ctx.A.dim:
            ax = q.x.acts[t - offA]
            for i in range(dx):
                m.data[i][:dx] = ax.data[i][:]
        elif offN <= t < offN + ctx.N.dim:
            s = t - offN
            for j in range(dy):
                m.data[dx + j][:dx] = g_big.data[s * dy + j][:]
        elif offM <= t < offM + ctx.M.dim:
            s = t - offM
            for i in range(dx):
                m.data[i][dx:] = f_big.data[s * dx + i][:]
        else:
            by = q.y.acts[t - offB]
            for j in range(dy):
                m.data[dx + j][dx:] = by.data[j][:]
        acts.append(m)
    mod = FDModule(mr.ring, dim, acts, name=q.name or "quad")
    return mod


def module_to_quadruple(mr: MoritaRing, v: FDModule, name: str = "") -> QuadrupleModule:
    """Recover the quadruple from a module over the context ring."""
    ctx = mr.ctx
    F = mr.ring.field
    x_rows = row_space(v.act_of(mr.e1))
    y_rows = row_space(v.act_of(mr.e2))
    if x_rows.rows + y_rows.rows != v.dim:
        raise ContextError("idempotent decomposition does not exhaust the module")
    x_acts = []
    for t in range(ctx.A.dim):
        moved = x_rows @ v.act_of(mr.embed_a(ctx.A.basis_el(t)))
        c = solve_left(x_rows, moved)
        if c is None:
            raise ContextError("X-part is not A-invariant")
        x_acts.append(c)
    y_acts = []
    for t in range(ctx.B.dim):
        moved = y_rows @ v.act_of(mr.embed_b(ctx.B.basis_el(t)))
        c = solve_left(y_rows, moved)
        if c is None:
            raise ContextError("Y-part is not B-invariant")
        y_acts.append(c)
    x = FDModule(ctx.A, x_rows.rows, x_acts, name=f"{name}|X")
    y = FDModule(ctx.B, y_rows.rows, y_acts, name=f"{name}|Y")
    # f on the full tensor space: m_s (x) x_j |-> (embed m_s) . x_j
    f_rows = []
    for s in range(ctx.M.dim):
        act = v.act_of(mr.embed_m(_unit_list(F, ctx.M.dim, s)))
        moved = x_rows @ act
        c = solve_left(y_rows, moved)
        if c is None:
            raise ContextError("M-action does not land in the Y-part")
        f_rows.extend(c.data)
    g_rows = []
    for s in range(ctx.N.dim):
        act = v.act_of(mr.embed_n(_unit_list(F, ctx.N.dim, s)))
        moved = y_rows @ act
        c = solve_left(x_rows, moved)
        if c is None:
            raise ContextError("N-action does not land in the X-part")
        g_rows.extend(c.data)
    f_full = Mat.from_rows(F, f_rows, y.dim) if f_rows else Mat.zeros(F, 0, y.dim)
    g_full = Mat.from_rows(F, g_rows, x.dim) if g_rows else Mat.zeros(F, 0, x.dim)
    return make_quadruple(ctx, x, y, f_full, g_full, name=name)


# -- homomorphisms of quadruples ---------------------------------------------


@dataclass
class QuadrupleHom:
    src: QuadrupleModule
    dst: QuadrupleModule
    alpha: ModuleHom
    beta: ModuleHom

    def then(self, other: "QuadrupleHom") -> "QuadrupleHom":
        return QuadrupleHom(self.src, other.dst, self.alpha.then(other.alpha),
                            self.beta.then(other.beta))

    def is_iso(self) -> bool:
        return self.alpha.is_iso() and self.beta.is_iso()


def validate_quadruple_hom(h: QuadrupleHom) -> list[str]:
    out = []
    if not h.alpha.intertwines():
        out.append("alpha is not A-linear")
    if not h.beta.intertwines():
        out.append("beta is not B-linear")
    if out:
        return out
    ta = tensor_functor_hom(h.src.mx, h.dst.mx, h.alpha)
    if h.src.f.mat @ h.beta.mat != ta.mat @ h.dst.f.mat:
        out.append("f-square fails")
    tb = tensor_functor_hom(h.src.ny, h.dst.ny, h.beta)
    if h.src.g.mat @ h.alpha.mat != tb.mat @ h.dst.g.mat:
        out.append("g-square fails")
    return out


def quadruple_hom_space(q1: QuadrupleModule, q2: QuadrupleModule) -> list[QuadrupleHom]:
    """Canonical basis of Hom(q1, q2): pairs (alpha, beta) solving the
    intertwining conditions and the two squares as one linear system."""
    ctx = q1.ctx
    F = ctx.A.field
    dx1, dx2, dy1, dy2 = q1.x.dim, q2.x.dim, q1.y.dim, q2.y.dim
    na, nb = dx1 * dx2, dy1 * dy2
    if na + nb == 0:
        return []
    rows: list[list] = []

    def empty_row():
        return [F.zero()] * (na + nb)

    # A-linearity of alpha
    for t in q1.x.gens():
        A1, A2 = q1.x.acts[t], q2.x.acts[t]
        for i in range(dx1):
            for j in range(dx2):
                r = empty_row()
                for k in range(dx1):
                    if not F.is_zero(A1.data[i][k]):
                        r[k * dx2 + j] = F.add(r[k * dx2 + j], A1.data[i][k])
                for l in range(dx2):
                    if not F.is_zero(A2.data[l][j]):
                        r[i * dx2 + l] = F.sub(r[i * dx2 + l], A2.data[l][j])
                rows.append(r)
    # B-linearity of beta
    for t in q1.y.gens():
        B1, B2 = q1.y.acts[t], q2.y.acts[t]
        for i in range(dy1):
            for j in range(dy2):
                r = empty_row()
                for k in range(dy1):
                    if not F.is_zero(B1.data[i][k]):
                        r[na + k * dy2 + j] = F.add(r[na + k * dy2 + j], B1.data[i][k])
                for l in range(dy2):
                    if not F.is_zero(B2.data[l][j]):
                        r[na + i * dy2 + l] = F.sub(r[na + i * dy2 + l], B2.data[l][j])
                rows.append(r)
    # f-square: (1_M (x) alpha) f2 = f1 beta, as entries over MX1 x Y2
    S1 = q1.mx.section               # MX1 -> M (x)_k X1
    G2 = q2.mx.proj @ q2.f.mat       # M (x)_k X2 -> Y2
    dM = ctx.M.dim
    for p in range(q1.mx.module.dim):
        for qq in range(dy2):
            r = empty_row()
            for i in range(dM):
                for j in range(dx1):
                    s_coef = S1.data[p][i * dx1 + j]
                    if F.is_zero(s_coef):
                        continue
                    for l in range(dx2):
                        g_coef = G2.data[i * dx2 + l][qq]
                        if not F.is_zero(g_coef):
                            r[j * dx2 + l] = F.add(r[j * dx2 + l],
                                                   F.mul(s_coef, g_coef))
            Fm = q1.f.mat
            for rr in range(dy1):
                if not F.is_zero(Fm.data[p][rr]):
                    idx = na + rr * dy2 + qq
                    r[idx] = F.sub(r[idx], Fm.data[p][rr])
            rows.append(r)
    # g-square: (1_N (x) beta) g2 = g1 alpha, entries over NY1 x X2
    T1 = q1.ny.section
    H2 = q2.ny.proj @ q2.g.mat
    dN = ctx.N.dim
    for p in range(q1.ny.module.dim):
        for qq in range(dx2):
            r = empty_row()
            for i in range(dN):
                for j in range(dy1):
                    s_coef = T1.data[p][i * dy1 + j]
                    if F.is_zero(s_coef):
                        continue
                    for l in range(dy2):
                        h_coef = H2.data[i * dy2 + l][qq]
                        if not F.is_zero(h_coef):
                            r[na + j * dy2 + l] = F.add(r[na + j * dy2 + l],
                                                        F.mul(s_coef, h_coef))
            Gm = q1.g.mat
            for rr in range(dx1):
                if not F.is_zero(Gm.data[p][rr]):
                    r[rr * dx2 + qq] = F.sub(r[rr * dx2 + qq], Gm.data[p][rr])
            rows.append(r)
    system = Mat.from_rows(F, rows, na + nb) if rows else Mat.zeros(F, 0, na + nb)
    ker = kernel_basis(system)
    out = []
    for c in range(ker.cols):
        amat = Mat(F, [[ker.data[i * dx2 + j][c] for j in range(dx2)]
                       for i in range(dx1)], dx2)
        bmat = Mat(F, [[ker.data[na + i * dy2 + j][c] for j in range(dy2)]
                       for i in range(dy1)], dy2)
        out.append(QuadrupleHom(q1, q2, ModuleHom(q1.x, q2.x, amat),
                                ModuleHom(q1.y, q2.y, bmat)))
    return out


def quadruple_kernel(h: QuadrupleHom, name: str = "") -> tuple[QuadrupleModule, QuadrupleHom]:
    """Kernel quadruple (ker alpha, ker beta) with the induced structure maps."""
    ctx = h.src.ctx
    ka, ia = kernel_of(h.alpha)
    kb, ib = kernel_of(h.beta)
    # f restricts: M (x) ker(alpha) -> ker(beta)
    mka = tensor_module(ctx.M, ka)
    one_ia = tensor_functor_hom(mka, h.src.mx, ia)
    from .modules import corestrict
    f_res = corestrict(one_ia.then(h.src.f), kb, ib)
    nkb = tensor_module(ctx.N, kb)
    one_ib = tensor_functor_hom(nkb, h.src.ny, ib)
    g_res = corestrict(one_ib.then(h.src.g), ka, ia)
    q = QuadrupleModule(ctx, ka, kb, f_res, g_res, mka, nkb, name=name)
    return q, QuadrupleHom(q, h.src, ia, ib)


def quadruple_cokernel(h: QuadrupleHom, name: str = "") -> tuple[QuadrupleModule, QuadrupleHom]:
    ctx = h.src.ctx
    ca, pa = cokernel_of(h.alpha)
    cb, pb = cokernel_of(h.beta)
    mca = tensor_module(ctx.M, ca)
    one_pa = tensor_functor_hom(h.dst.mx, mca, pa)
    # induced f: M (x) coker(alpha) -> coker(beta) via surjectivity of 1 (x) pa
    f_mat = solve(one_pa.mat, h.dst.f.mat @ pb.mat)
    if f_mat is None:
        raise ContextError("induced cokernel f does not exist")
    ncb = tensor_module(ctx.N, cb)
    one_pb = tensor_functor_hom(h.dst.ny, ncb, pb)
    g_mat = solve(one_pb.mat, h.dst.g.mat @ pa.mat)
    if g_mat is None:
        raise ContextError("induced cokernel g does not exist")
    q = QuadrupleModule(ctx, ca, cb, ModuleHom(mca.module, cb, f_mat),
                        ModuleHom(ncb.module, ca, g_mat), mca, ncb, name=name)
    return q, QuadrupleHom(h.dst, q, pa, pb)


def quadruple_is_isomorphic(q1: QuadrupleModule, q2: QuadrupleModule,
                            seed: int = 0) -> QuadrupleHom | None:
    """Invertible quadruple map, searched inside the quadruple hom space.
    The product of the determinants of the two blocks of a combination has
    degree <= dim X + dim Y in each coefficient."""
    if (q1.x.dim, q1.y.dim) != (q2.x.dim, q2.y.dim):
        return None
    if q1.dim == 0:
        return QuadrupleHom(q1, q2, zero_hom(q1.x, q2.x), zero_hom(q1.y, q2.y))
    basis = quadruple_hom_space(q1, q2)
    if not basis:
        return None
    found = _invertible_in_span([[h.alpha.mat, h.beta.mat] for h in basis],
                                seed, 60, q1.x.dim + q1.y.dim)
    if found is None:
        return None
    am, bm = found
    return QuadrupleHom(q1, q2, ModuleHom(q1.x, q2.x, am),
                        ModuleHom(q1.y, q2.y, bm))


# -- the six-functor zoo -----------------------------------------------------


def zeta_full(ctx: MoritaContext, x: FDModule, hom_basis) -> Mat:
    """M (x)_k X -> Hom_A(N, X) coordinates, m (x) v |-> [n |-> psi(n (x) m).v]."""
    F = ctx.A.field
    dM, dN, dX = ctx.M.dim, ctx.N.dim, x.dim
    k = len(hom_basis)
    if k == 0:
        return Mat.zeros(F, dM * dX, 0)
    stacked = Mat.vstack([_vec(h.mat) for h in hom_basis])
    rows = []
    for i in range(dM):
        acts = [x.act_of(ctx.psi.value(t, i)) for t in range(dN)]
        for v in range(dX):
            hmat = Mat.from_rows(F, [acts[t].row(v) for t in range(dN)], dX)
            c = solve_left(stacked, _vec(hmat))
            if c is None:
                raise ContextError("zeta image is not an intertwiner")
            rows.append(c.row(0))
    return Mat.from_rows(F, rows, k) if rows else Mat.zeros(F, 0, k)


def xi_full(ctx: MoritaContext, y: FDModule, hom_basis) -> Mat:
    """N (x)_k Y -> Hom_B(M, Y) coordinates, n (x) w |-> [m |-> phi(m (x) n).w]."""
    F = ctx.B.field
    dM, dN, dY = ctx.M.dim, ctx.N.dim, y.dim
    k = len(hom_basis)
    if k == 0:
        return Mat.zeros(F, dN * dY, 0)
    stacked = Mat.vstack([_vec(h.mat) for h in hom_basis])
    rows = []
    for j in range(dN):
        acts = [y.act_of(ctx.phi.value(t, j)) for t in range(dM)]
        for w in range(dY):
            hmat = Mat.from_rows(F, [acts[t].row(w) for t in range(dM)], dY)
            c = solve_left(stacked, _vec(hmat))
            if c is None:
                raise ContextError("xi image is not an intertwiner")
            rows.append(c.row(0))
    return Mat.from_rows(F, rows, k) if rows else Mat.zeros(F, 0, k)


def evaluation_full(field: Field, outer_dim: int, hom_basis, target_dim: int) -> Mat:
    """W (x)_k Hom(W, X) -> X, w (x) h |-> (w)h."""
    k = len(hom_basis)
    rows = []
    for i in range(outer_dim):
        for t in range(k):
            rows.append(hom_basis[t].mat.row(i))
    return Mat.from_rows(field, rows, target_dim) if rows else \
        Mat.zeros(field, 0, target_dim)


def t_a(ctx: MoritaContext, x: FDModule, name: str = "") -> QuadrupleModule:
    """(X, M (x) X, identity, Psi_X)."""
    mx = tensor_module(ctx.M, x)
    y = mx.module
    ny = tensor_module(ctx.N, y)
    f = ModuleHom(mx.module, y, Mat.identity(ctx.A.field, y.dim))
    g = psi_hom(ctx, x, mx, ny)
    return QuadrupleModule(ctx, x, y, f, g, mx, ny,
                           name=name or f"T_A({x.name})")


def t_b(ctx: MoritaContext, y: FDModule, name: str = "") -> QuadrupleModule:
    """(N (x) Y, Y, Phi_Y, identity)."""
    ny = tensor_module(ctx.N, y)
    x = ny.module
    mx = tensor_module(ctx.M, x)
    f = phi_hom(ctx, y, ny, mx)
    g = ModuleHom(ny.module, x, Mat.identity(ctx.A.field, x.dim))
    return QuadrupleModule(ctx, x, y, f, g, mx, ny,
                           name=name or f"T_B({y.name})")


def h_a(ctx: MoritaContext, x: FDModule, name: str = "") -> QuadrupleModule:
    """(X, Hom_A(N, X), zeta_X, evaluation)."""
    y, basis = hom_module(ctx.N, x)
    mx = tensor_module(ctx.M, x)
    ny = tensor_module(ctx.N, y)
    f_mat = solve(mx.proj, zeta_full(ctx, x, basis))
    if f_mat is None:
        raise ContextError("zeta does not factor through the tensor quotient")
    g_mat = solve(ny.proj, evaluation_full(ctx.A.field, ctx.N.dim, basis, x.dim))
    if g_mat is None:
        raise ContextError("evaluation does not factor through the tensor quotient")
    return QuadrupleModule(ctx, x, y, ModuleHom(mx.module, y, f_mat),
                           ModuleHom(ny.module, x, g_mat), mx, ny,
                           name=name or f"H_A({x.name})")


def h_b(ctx: MoritaContext, y: FDModule, name: str = "") -> QuadrupleModule:
    """(Hom_B(M, Y), Y, evaluation, xi_Y)."""
    x, basis = hom_module(ctx.M, y)
    mx = tensor_module(ctx.M, x)
    ny = tensor_module(ctx.N, y)
    f_mat = solve(mx.proj, evaluation_full(ctx.B.field, ctx.M.dim, basis, y.dim))
    if f_mat is None:
        raise ContextError("evaluation does not factor through the tensor quotient")
    g_mat = solve(ny.proj, xi_full(ctx, y, basis))
    if g_mat is None:
        raise ContextError("xi does not factor through the tensor quotient")
    return QuadrupleModule(ctx, x, y, ModuleHom(mx.module, y, f_mat),
                           ModuleHom(ny.module, x, g_mat), mx, ny,
                           name=name or f"H_B({y.name})")


def z_a(ctx: MoritaContext, u: FDModule, name: str = "") -> QuadrupleModule:
    """(U, 0, 0, 0); requires I.U = 0."""
    I = ctx.ideal_rows_a()
    for r in range(I.rows):
        if not u.act_of(I.row(r)).is_zero():
            raise ContextError("Z functor needs I to annihilate the module")
    F = ctx.A.field
    y = zero_module(ctx.B)
    return make_quadruple(ctx, u, y, Mat.zeros(F, ctx.M.dim * u.dim, 0),
                          Mat.zeros(F, 0, u.dim), name=name or f"Z_A({u.name})")


def z_b(ctx: MoritaContext, v: FDModule, name: str = "") -> QuadrupleModule:
    """(0, V, 0, 0); requires J.V = 0."""
    J = ctx.ideal_rows_b()
    for r in range(J.rows):
        if not v.act_of(J.row(r)).is_zero():
            raise ContextError("Z functor needs J to annihilate the module")
    F = ctx.A.field
    x = zero_module(ctx.A)
    return make_quadruple(ctx, x, v, Mat.zeros(F, 0, v.dim),
                          Mat.zeros(F, ctx.N.dim * v.dim, 0),
                          name=name or f"Z_B({v.name})")


def u_a(q: QuadrupleModule) -> FDModule:
    return q.x


def q_a(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    """X / IX with its projection (the left adjoint of Z on the A side)."""
    ctx = q.ctx
    I = ctx.ideal_rows_a()
    if I.rows == 0 or q.x.dim == 0:
        return q.x, identity_hom(q.x)
    rows = row_space(Mat.vstack([q.x.act_of(I.row(r)) for r in range(I.rows)]))
    return quotient_by_rows(q.x, rows, name=f"{q.x.name}/I")


def q_b(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    ctx = q.ctx
    J = ctx.ideal_rows_b()
    if J.rows == 0 or q.y.dim == 0:
        return q.y, identity_hom(q.y)
    rows = row_space(Mat.vstack([q.y.act_of(J.row(r)) for r in range(J.rows)]))
    return quotient_by_rows(q.y, rows, name=f"{q.y.name}/J")


def f_tilde(q: QuadrupleModule) -> ModuleHom:
    """The adjoint mate X -> Hom_B(M, Y) of f."""
    ctx = q.ctx
    F = ctx.A.field
    target, basis = hom_module(ctx.M, q.y)
    big = q.mx.proj @ q.f.mat       # M (x)_k X -> Y
    k = len(basis)
    if k == 0:
        return zero_hom(q.x, target)
    stacked = Mat.vstack([_vec(h.mat) for h in basis])
    rows = []
    for j in range(q.x.dim):
        hmat = Mat.from_rows(F, [big.row(i * q.x.dim + j) for i in range(ctx.M.dim)],
                             q.y.dim)
        c = solve_left(stacked, _vec(hmat))
        if c is None:
            raise ContextError("adjoint mate failed to express")
        rows.append(c.row(0))
    return ModuleHom(q.x, target, Mat.from_rows(F, rows, k))


def g_tilde(q: QuadrupleModule) -> ModuleHom:
    """The adjoint mate Y -> Hom_A(N, X) of g."""
    ctx = q.ctx
    F = ctx.A.field
    target, basis = hom_module(ctx.N, q.x)
    big = q.ny.proj @ q.g.mat
    k = len(basis)
    if k == 0:
        return zero_hom(q.y, target)
    stacked = Mat.vstack([_vec(h.mat) for h in basis])
    rows = []
    for j in range(q.y.dim):
        hmat = Mat.from_rows(F, [big.row(i * q.y.dim + j) for i in range(ctx.N.dim)],
                             q.x.dim)
        c = solve_left(stacked, _vec(hmat))
        if c is None:
            raise ContextError("adjoint mate failed to express")
        rows.append(c.row(0))
    return ModuleHom(q.y, target, Mat.from_rows(F, rows, k))


def p_a(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    """Kernel of the adjoint mate of f (right adjoint of Z on the A side)."""
    return kernel_of(f_tilde(q), name=f"P_A({q.name})")


def p_b(q: QuadrupleModule) -> tuple[FDModule, ModuleHom]:
    return kernel_of(g_tilde(q), name=f"P_B({q.name})")


def classify_projectives(ctx: MoritaContext, seed: int = 0) -> list[QuadrupleModule]:
    """The indecomposable projective quadruples: T_A on the indecomposable
    projectives of A, then T_B likewise over B."""
    from .homology import _block_reps
    out = []
    for mod, _, _, blk in _block_reps(ctx.A, seed):
        out.append(t_a(ctx, mod, name=f"T_A(P{blk})"))
    for mod, _, _, blk in _block_reps(ctx.B, seed):
        out.append(t_b(ctx, mod, name=f"T_B(P{blk})"))
    return out


def classify_injectives(ctx: MoritaContext, seed: int = 0) -> list[QuadrupleModule]:
    from .homology import indec_injectives
    out = []
    for inj in indec_injectives(ctx.A, seed):
        out.append(h_a(ctx, inj, name=f"H_A({inj.name})"))
    for inj in indec_injectives(ctx.B, seed):
        out.append(h_b(ctx, inj, name=f"H_B({inj.name})"))
    return out


def regular_quadruple(mr: MoritaRing) -> QuadrupleModule:
    """The regular module of the context ring, as a quadruple."""
    return module_to_quadruple(mr, regular_module(mr.ring), name="Lambda")


# -- right modules as quadruples ---------------------------------------------


@dataclass
class RightQuadruple:
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
    cn: "RightTensor"
    dm: "RightTensor"
    name: str = ""

    @property
    def dim(self) -> int:
        return self.c.dim + self.d.dim


@dataclass
class RightTensor:
    module: FDModule
    proj: Mat
    section: Mat


def right_tensor(c_op: FDModule, w: Bimodule, name: str = "") -> RightTensor:
    """C (x)_A W for a right A-module C and an (A, B)-bimodule W, as a
    right B-module (left module over B^op)."""
    from .algebra import quotient_maps
    F = w.left.field
    amb = c_op.dim * w.dim
    rel = _middle_relations(F, c_op.acts, w.left_acts, c_op.dim, w.dim)
    proj, sec = quotient_maps(F, row_space(rel), amb)
    bop = opposite_algebra(w.right)
    eye_c = Mat.identity(F, c_op.dim)
    acts = []
    for t in range(bop.dim):
        big = eye_c.kron(w.right_acts[t])
        induced = solve(proj, big @ proj)
        if induced is None:
            raise ContextError("right action does not descend to the tensor")
        acts.append(induced)
    return RightTensor(FDModule(bop, proj.cols, acts, name=name), proj, sec)


def make_right_quadruple(ctx: MoritaContext, c: FDModule, d: FDModule,
                         h_full: Mat, k_full: Mat, name: str = "") -> RightQuadruple:
    cn = right_tensor(c, ctx.N, name=f"{c.name}(x)N")
    dm = right_tensor(d, ctx.M, name=f"{d.name}(x)M")
    h_mat = solve(cn.proj, h_full)
    if h_mat is None:
        raise ContextError("h does not factor through C (x)_A N")
    k_mat = solve(dm.proj, k_full)
    if k_mat is None:
        raise ContextError("k does not factor through D (x)_B M")
    return RightQuadruple(ctx, c, d, ModuleHom(cn.module, d, h_mat),
                          ModuleHom(dm.module, c, k_mat), cn, dm, name=name)


def right_quadruple_to_module(mr: MoritaRing, rq: RightQuadruple) -> FDModule:
    """As a left module over the opposite context ring."""
    ctx = mr.ctx
    F = mr.ring.field
    dc, dd = rq.c.dim, rq.d.dim
    dim = dc + dd
    offA, offN, offM, offB = mr.offs
    h_big = rq.cn.proj @ rq.h.mat
    k_big = rq.dm.proj @ rq.k.mat
    acts = []
    for t in range(mr.ring.dim):
        m = Mat.zeros(F, dim, dim)
        if offA <= t < offA + ctx.A.dim:
            ca = rq.c.acts[t - offA]
            for i in range(dc):
                m.data[i][:dc] = ca.data[i][:]
        elif offN <= t < offN + ctx.N.dim:
            s = t - offN
            for i in range(dc):
                m.data[i][dc:] = h_big.data[i * ctx.N.dim + s][:]
        elif offM <= t < offM + ctx.M.dim:
            s = t - offM
            for j in range(dd):
                m.data[dc + j][:dc] = k_big.data[j * ctx.M.dim + s][:]
        else:
            db = rq.d.acts[t - offB]
            for j in range(dd):
                m.data[dc + j][dc:] = db.data[j][:]
        acts.append(m)
    return FDModule(opposite_algebra(mr.ring), dim, acts, name=rq.name or "rquad")


def validate_right_quadruple(mr: MoritaRing, rq: RightQuadruple) -> list[str]:
    mod = right_quadruple_to_module(mr, rq)
    return validate_module(mod)


def regular_right_quadruples(mr: MoritaRing) -> list[RightQuadruple]:
    """The two right ideals e1.Lambda = (A, N, mult, psi) and
    e2.Lambda = (M, B, phi, mult)."""
    ctx = mr.ctx
    F = mr.ring.field
    Aop, Bop = opposite_algebra(ctx.A), opposite_algebra(ctx.B)
    a_right = FDModule(Aop, ctx.A.dim, ctx.A.rmul_mats(), name="A")
    b_right = FDModule(Bop, ctx.B.dim, ctx.B.rmul_mats(), name="B")
    m_right = rq_m = FDModule(Aop, ctx.M.dim, ctx.M.right_acts, name="M")
    n_right = FDModule(Bop, ctx.N.dim, ctx.N.right_acts, name="N")
    # e1.Lambda: C = A, D = N; h: A (x) N -> N multiplication, k = psi
    h_full_rows = []
    for i in range(ctx.A.dim):
        la = ctx.N.left_acts[i]
        for j in range(ctx.N.dim):
            h_full_rows.append(la.row(j))
    h_full = Mat.from_rows(F, h_full_rows, ctx.N.dim) if h_full_rows else \
        Mat.zeros(F, 0, ctx.N.dim)
    k_full = ctx.psi.mat
    top = make_right_quadruple(ctx, a_right, n_right, h_full, k_full, name="e1L")
    # e2.Lambda: C = M, D = B; h = phi, k: B (x) M -> M multiplication
    k2_rows = []
    for i in range(ctx.B.dim):
        lb = ctx.M.left_acts[i]
        for j in range(ctx.M.dim):
            k2_rows.append(lb.row(j))
    k2_full = Mat.from_rows(F, k2_rows, ctx.M.dim) if k2_rows else \
        Mat.zeros(F, 0, ctx.M.dim)
    bot = make_right_quadruple(ctx, m_right, b_right, ctx.phi.mat, k2_full, name="e2L")
    return [top, bot]


def tensor_over_ring(rq: RightQuadruple, q: QuadrupleModule) -> int:
    """dim of (C (x)_A X (+) D (x)_B Y) / H, with H spanned by
    c (x) (n (x) y)g - (c (x) n)h (x) y  and  d (x) (m (x) x)f - (d (x) m)k (x) x."""
    from .bimodules import balanced_tensor_space
    ctx = q.ctx
    F = ctx.A.field
    cx = balanced_tensor_space(rq.c, q.x)
    dy = balanced_tensor_space(rq.d, q.y)
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


def tensor_over_ring_oracle(mr: MoritaRing, rq: RightQuadruple,
                            q: QuadrupleModule) -> int:
    """Brute-force dim of the tensor over the whole context ring."""
    from .bimodules import balanced_tensor_space
    u = right_quadruple_to_module(mr, rq)
    v = quadruple_to_module(mr, q)
    return balanced_tensor_space(u, v).dim


def natural_maps(ctx: MoritaContext, x: FDModule, y: FDModule) -> dict:
    """The six structure maps attached to a pair of corner modules: the
    psi/phi multiplication composites, the tensor-to-hom comparison maps,
    and the two evaluation maps, each as a module hom over the right
    algebra."""
    F = ctx.A.field
    mx = tensor_module(ctx.M, x)
    ny = tensor_module(ctx.N, y)
    nmx = tensor_module(ctx.N, mx.module)
    mny = tensor_module(ctx.M, ny.module)
    hom_nx, basis_nx = hom_module(ctx.N, x)
    hom_my, basis_my = hom_module(ctx.M, y)
    zeta_mat = solve(mx.proj, zeta_full(ctx, x, basis_nx))
    if zeta_mat is None:
        raise ContextError("zeta does not factor through the tensor quotient")
    xi_mat = solve(ny.proj, xi_full(ctx, y, basis_my))
    if xi_mat is None:
        raise ContextError("xi does not factor through the tensor quotient")
    nhx = tensor_module(ctx.N, hom_nx)
    mhy = tensor_module(ctx.M, hom_my)
    ev_x = solve(nhx.proj, evaluation_full(F, ctx.N.dim, basis_nx, x.dim))
    ev_y = solve(mhy.proj, evaluation_full(F, ctx.M.dim, basis_my, y.dim))
    if ev_x is None or ev_y is None:
        raise ContextError("evaluation does not factor through the quotient")
    return {
        "psi": psi_hom(ctx, x, mx, nmx),
        "phi": phi_hom(ctx, y, ny, mny),
        "zeta": ModuleHom(mx.module, hom_nx, zeta_mat),
        "xi": ModuleHom(ny.module, hom_my, xi_mat),
        "eval_x": ModuleHom(nhx.module, x, ev_x),
        "eval_y": ModuleHom(mhy.module, y, ev_y),
    }
