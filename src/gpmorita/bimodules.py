"""Bimodules, balanced tensor products over an algebra, and Hom-modules.

A bimodule over (B, A) carries a left B-action and a right A-action that
commute.  One builder, `tensor_module`, computes every M (x)_A X: the
quotient of the full k-tensor space (row-major basis, index
(i, j) -> i * dim X + j) by the span of the middle relations
m.a (x) x - m (x) a.x, on the pivot-complement coordinates of that span,
so all bases are canonical and reproducible.  A right module U with no
bimodule at hand enters as `right_bimodule(U)`, the (k, A)-bimodule whose
left action is the identity of a one-dimensional k; a bimodule N enters
as its left module, and `bimodule_tensor` descends N's right action
through the same projection.

Each action is validated as a module (`validate_module`, on the
algebra's generators; see `modules`).  The two actions commute once the
generators' actions do: for a fixed right action R_t, the s in the left
algebra with L_s R_t = R_t L_s form a subalgebra, and so do the t with
L_s R_t = R_t L_s for a fixed s.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import (
    Algebra, MemoCache, generating_subset, memo, opposite_algebra,
    validate_algebra,
)
from .linalg import (
    Mat, coordinates, factor_through, intertwining_system, linear_combination,
    quotient_maps, row_space,
)
from .modules import FDModule, ModuleError, ModuleHom, validate_module


class BimoduleError(ValueError):
    pass


@dataclass
class Bimodule:
    left: Algebra                # acts from the left
    right: Algebra               # acts from the right
    dim: int
    left_acts: list[Mat]         # b_t . x = x @ left_acts[t]
    right_acts: list[Mat]        # x . b_t = x @ right_acts[t]
    name: str = ""
    _cache: dict = dc_field(default_factory=MemoCache, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if len(self.left_acts) != self.left.dim or len(self.right_acts) != self.right.dim:
            raise BimoduleError("one action matrix per algebra basis element required")

    def __repr__(self):
        return (f"Bimodule({self.name or '?'}, dim={self.dim} over "
                f"({self.left.name or '?'}, {self.right.name or '?'}))")

    def left_act_of(self, coeffs: list) -> Mat:
        return linear_combination(self.left.field, self.dim, self.dim, coeffs,
                                  self.left_acts)

    def right_act_of(self, coeffs: list) -> Mat:
        return linear_combination(self.right.field, self.dim, self.dim, coeffs,
                                  self.right_acts)

    def as_left_module(self, name: str = "") -> FDModule:
        return FDModule(self.left, self.dim, self.left_acts,
                        name=name or f"{self.name}|left")

    def as_right_module(self, name: str = "") -> FDModule:
        """The right action as a left module over the opposite algebra
        (same matrices; right rule R_{ab} = R_a @ R_b matches the opposite
        left rule)."""
        return FDModule(opposite_algebra(self.right), self.dim, self.right_acts,
                        name=name or f"{self.name}|right")


def validate_bimodule(m: Bimodule) -> list[str]:
    """The first violated law: the left action, then the right action (as
    a left module over the opposite algebra, so a failing pair (g, j)
    names the product b_j b_g of the right algebra), then commutation,
    checked on generator pairs (s, t) of the left and right algebras.  The
    verdict is stored on m, so each instance is checked once; every call
    returns a fresh list."""
    return _bimodule_verdict(m)[:]


@memo
def _bimodule_verdict(m: Bimodule) -> list[str]:
    return _bimodule_violations(m)


def _bimodule_violations(m: Bimodule) -> list[str]:
    for side, mod in (("left", m.as_left_module()), ("right", m.as_right_module())):
        bad = validate_module(mod)
        if bad:
            return [f"{side} {bad[0]}"]
    for s in generating_subset(m.left):
        for t in generating_subset(m.right):
            if m.left_acts[s] @ m.right_acts[t] != m.right_acts[t] @ m.left_acts[s]:
                return [f"left and right actions do not commute at ({s},{t})"]
    return []


def left_table(m: Bimodule) -> Mat:
    """The left action as one table: row t * dim M + j is b_t . m_j."""
    return Mat.vstack(m.left_acts)


def right_table(m: Bimodule) -> Mat:
    """The right action as one table: row j * dim A + t is m_j . b_t, for
    M over (B, A)."""
    return Mat.vstack(m.right_acts).swap_factors(m.right.dim, m.dim)


# -- constructions -----------------------------------------------------------


def regular_bimodule(a: Algebra, name: str = "") -> Bimodule:
    return Bimodule(a, a, a.dim, a.lmul_mats(), a.rmul_mats(),
                    name=name or a.name)


def zero_bimodule(left: Algebra, right: Algebra) -> Bimodule:
    F = left.field
    return Bimodule(left, right, 0,
                    [Mat.zeros(F, 0, 0) for _ in range(left.dim)],
                    [Mat.zeros(F, 0, 0) for _ in range(right.dim)], name="0")


def opposite_bimodule(m: Bimodule) -> Bimodule:
    """M^op over (A^op, B^op) for M over (B, A): the right action read as a
    left one and the left as a right one, on the same matrices."""
    return Bimodule(opposite_algebra(m.right), opposite_algebra(m.left), m.dim,
                    m.right_acts, m.left_acts, name=f"{m.name}^op")


def outer_bimodule(v: FDModule, w_right: FDModule, name: str = "") -> Bimodule:
    """V (x)_k W with B acting on the left factor and A on the right; the
    right module is supplied as a left module over A^op."""
    B = v.algebra
    Aop = w_right.algebra
    A = opposite_algebra(Aop)
    eye_v = Mat.identity(B.field, v.dim)
    eye_w = Mat.identity(B.field, w_right.dim)
    left_acts = [v.acts[t].kron(eye_w) for t in range(B.dim)]
    right_acts = [eye_v.kron(w_right.acts[t]) for t in range(A.dim)]
    return Bimodule(B, A, v.dim * w_right.dim, left_acts, right_acts,
                    name=name or f"{v.name}(x){w_right.name}")


def sub_bimodule_from_rows(m: Bimodule, rows: Mat, name: str = "") -> tuple[Bimodule, Mat]:
    """Sub-bimodule on the canonical basis of a two-sided invariant span."""
    basis = row_space(rows)
    k = basis.rows
    acts = []
    for side, mats in (("left", m.left_acts), ("right", m.right_acts)):
        c = coordinates(basis, Mat.vstack([basis @ a for a in mats]))
        if c is None:
            raise BimoduleError(f"span not invariant under the {side} action")
        acts.append([c.block(t * k, (t + 1) * k, 0, k) for t in range(len(mats))])
    return Bimodule(m.left, m.right, k, acts[0], acts[1], name=name), basis


def restrict_right(m: Bimodule, emb_rows: Mat, small: Algebra, name: str = "") -> Bimodule:
    """Restrict the right action along an algebra morphism small -> m.right."""
    ra = [m.right_act_of(emb_rows.row(t)) for t in range(small.dim)]
    return Bimodule(m.left, small, m.dim, m.left_acts, ra, name=name or m.name)


def restrict_left(m: Bimodule, emb_rows: Mat, small: Algebra, name: str = "") -> Bimodule:
    la = [m.left_act_of(emb_rows.row(t)) for t in range(small.dim)]
    return Bimodule(small, m.right, m.dim, la, m.right_acts, name=name or m.name)


# -- balanced tensor products ------------------------------------------------


@dataclass
class TensorModule:
    """M (x)_A X, with the projection from the full k-tensor space."""

    module: FDModule             # over M.left
    bim: Bimodule
    arg: FDModule
    proj: Mat                    # (bim.dim * arg.dim) x module.dim
    section: Mat                 # module.dim x (bim.dim * arg.dim)


@memo(on=1)
def tensor_module(m: Bimodule, x: FDModule) -> TensorModule:
    """M (x)_A X as a module over M's left algebra, named M(x)X.  When M or
    X is zero, so is the tensor product: the zero module, with 0 x 0
    projection and section, built with no relation system.  Memoized per
    (m, x) instance pair, on x, as `modules.hom_space` is."""
    if x.algebra is not m.right:
        raise BimoduleError("tensor: module must live over the right-hand algebra")
    F = m.left.field
    name = f"{m.name}(x){x.name}"
    if m.dim == 0 or x.dim == 0:
        zero = Mat.zeros(F, 0, 0)
        return TensorModule(FDModule(m.left, 0, [zero] * m.left.dim, name=name),
                            m, x, zero, zero)
    proj, sec = quotient_maps(
        intertwining_system(F, m.dim, x.dim, m.right_acts, x.acts))
    eye_x = Mat.identity(F, x.dim)
    acts = factor_through(proj, [a.kron(eye_x) @ proj for a in m.left_acts])
    if acts is None:
        raise BimoduleError("left action does not descend to the tensor quotient")
    return TensorModule(FDModule(m.left, proj.cols, acts, name=name), m, x, proj, sec)


def tensor_functor_hom(src: TensorModule, dst: TensorModule, h: ModuleHom) -> ModuleHom:
    """1_M (x) h on the tensor quotients."""
    if src.bim is not dst.bim:
        raise BimoduleError("tensor pushforward needs a common bimodule")
    if h.source.dim != src.arg.dim or h.target.dim != dst.arg.dim:
        raise ModuleError("tensor pushforward shape mismatch")
    if src.module.dim == 0 or dst.module.dim == 0:
        return ModuleHom(src.module, dst.module, Mat.zeros(
            src.proj.field, src.module.dim, dst.module.dim))
    eye_m = Mat.identity(src.proj.field, src.bim.dim)
    mat = src.section @ eye_m.kron(h.mat) @ dst.proj
    return ModuleHom(src.module, dst.module, mat)


@memo
def right_bimodule(u_op: FDModule) -> Bimodule:
    """A right A-module U, given over A^op, as the (k, A)-bimodule whose
    left action is the identity of a one-dimensional k: its
    `tensor_module` with X is U (x)_A X, a module over k.  Memoized on
    u_op, so each tensor product of U is found again."""
    F = u_op.algebra.field
    k = Algebra(F, 1, Mat.identity(F, 1), [F.one()], name="k")
    return Bimodule(k, opposite_algebra(u_op.algebra), u_op.dim,
                    [Mat.identity(F, u_op.dim)], u_op.acts, name=u_op.name)


def bimodule_tensor(m: Bimodule, n: Bimodule, name: str = "") -> tuple[Bimodule, Mat, Mat]:
    """M (x)_A N as a bimodule over (M.left, N.right): the tensor module
    M (x)_A N|left, with N's right action descended through its
    projection; returns it with the projection from and section into
    M (x)_k N."""
    t = tensor_module(m, n.as_left_module())
    eye_m = Mat.identity(m.left.field, m.dim)
    ra = factor_through(t.proj, [eye_m.kron(a) @ t.proj for a in n.right_acts])
    if ra is None:
        raise BimoduleError("right action does not descend")
    out = Bimodule(m.left, n.right, t.module.dim, t.module.acts, ra,
                   name=name or f"{m.name}(x){n.name}")
    return out, t.proj, t.section


# -- Hom-modules -------------------------------------------------------------


def hom_module(n: Bimodule, x: FDModule, name: str = "") -> tuple[FDModule, list[ModuleHom]]:
    """Hom_A(N, X) as a left module over N's right-hand algebra B, with the
    action (b.f)(n) = f(n.b); returns the module and the hom basis."""
    from .modules import hom_space
    if x.algebra is not n.left:
        raise BimoduleError("hom module: module must live over the left algebra")
    B = n.right
    basis = hom_space(n.as_left_module(), x)
    k = len(basis)
    if k == 0:
        from .modules import zero_module
        return zero_module(B), []
    # (b.f) = R_b then f, for every t and every h, in one batch
    c = coordinates(Mat.vstack([h.mat.flatten() for h in basis]),
                    Mat.vstack([(n.right_acts[t] @ h.mat).flatten()
                                for t in range(B.dim) for h in basis]))
    if c is None:
        raise BimoduleError("Hom space not closed under the action")
    acts = [c.block(t * k, (t + 1) * k, 0, k) for t in range(B.dim)]
    return FDModule(B, k, acts, name=name or f"Hom({n.name},{x.name})"), basis


# -- balanced maps (the phi and psi of a Morita context) ---------------------


@dataclass
class BalancedMap:
    """A bimodule map M (x)_A N -> C stored on the full k-tensor basis."""

    m: Bimodule                  # over (B, A)
    n: Bimodule                  # over (A, C) with target algebra C = ?
    target: Algebra
    mat: Mat                     # (m.dim * n.dim) x target.dim

    def __post_init__(self):
        if (self.mat.rows, self.mat.cols) != (self.m.dim * self.n.dim, self.target.dim):
            raise BimoduleError("balanced map matrix has wrong shape")

    def value(self, i: int, j: int) -> list:
        """Image of basis tensor m_i (x) n_j, as target coordinates."""
        return self.mat.row(i * self.n.dim + j)


def zero_balanced_map(m: Bimodule, n: Bimodule, target: Algebra) -> BalancedMap:
    return BalancedMap(m, n, target, Mat.zeros(target.field, m.dim * n.dim, target.dim))


def validate_balanced_map(f: BalancedMap) -> list[str]:
    """Middle-balancedness over the shared algebra and two-sided linearity
    over the target algebra (outer actions), naming the first failing t
    of each side.  Once both bimodules and the target are valid, the t at
    which f is left-linear form a subalgebra, as in `modules` (b_s b_t
    acts by L_t L_s on M and on the target), and likewise on the right;
    so the target's generators are checked first, and every t only to
    name a failure or when a law does not hold."""
    F = f.target.field
    if f.n.left is not f.m.right:
        return ["middle algebras of the two bimodules differ"]
    if f.m.left is not f.target or f.n.right is not f.target:
        return ["outer algebras do not match the target"]
    out = []
    rel = intertwining_system(F, f.m.dim, f.n.dim, f.m.right_acts, f.n.left_acts)
    if not (rel @ f.mat).is_zero():
        out.append("not balanced over the middle algebra")
    eye_n = Mat.identity(F, f.n.dim)
    eye_m = Mat.identity(F, f.m.dim)

    def left_linear(t):
        return f.m.left_acts[t].kron(eye_n) @ f.mat == f.mat @ f.target.lmul_mats()[t]

    def right_linear(t):
        return eye_m.kron(f.n.right_acts[t]) @ f.mat == f.mat @ f.target.rmul_mats()[t]

    # the stored verdicts, read without copying
    laws_hold = not (_bimodule_verdict(f.m) or _bimodule_verdict(f.n)
                     or validate_algebra(f.target))
    for side, linear_at in (("left", left_linear), ("right", right_linear)):
        if laws_hold and all(map(linear_at, generating_subset(f.target))):
            continue
        bad = next((t for t in range(f.target.dim) if not linear_at(t)), None)
        if bad is not None:
            out.append(f"not {side}-linear over the target at {bad}")
    return out

