"""Trivial extensions A = Lambda |x I, induction of Lambda-modules to
quadruples over the one-sided-zero context ring, the structural
factorization maps (eta, theta, m) behind the Gorenstein-projectivity
criterion, and the hom/tensor transport identities used to reduce
computations on the context ring to the corners.

Everything here assumes phi = 0 and I = im(psi), the setting where the
criterion operates; validators enforce both.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, glued_algebra, ideal_products, memo, subalgebra
from .bimodules import (
    Bimodule, TensorModule, left_table, regular_bimodule, restrict_left,
    restrict_right, right_table, sub_bimodule_from_rows, tensor_functor_hom,
    tensor_module,
)
from .linalg import (
    Mat, coordinates, factor_through, in_row_space, quotient_maps, rank,
    row_space, solve,
)
from .modules import (
    FDModule, ModuleHom, corestrict, hom_space, image_of,
    quotient_by_rows, restrict_along,
)
from .morita import (
    ContextError, MoritaContext, QuadrupleModule, build_ring, quadruple_to_module,
)


class ExtensionError(ValueError):
    pass


@dataclass
class TrivialExtension:
    Lam: Algebra
    ideal: Bimodule              # over (Lam, Lam)
    A: Algebra                   # Lambda |x I
    incl_rows: Mat               # Lam -> A
    proj_rows: Mat               # A -> Lam (the canonical surjection)
    ideal_rows: Mat              # I -> A

    def lam_module(self, x: FDModule, name: str = "") -> FDModule:
        """Restrict an A-module to Lambda along the inclusion."""
        return restrict_along(x, self.incl_rows, self.Lam, name=name)

    def inflate(self, x: FDModule, name: str = "") -> FDModule:
        """A Lambda-module as an A-module through the projection (I acts 0)."""
        return restrict_along(x, self.proj_rows, self.A, name=name)


def trivial_extension(lam: Algebra, ideal: Bimodule, name: str = "") -> TrivialExtension:
    """Build Lambda |x I on the basis Lambda ++ I with multiplication
    (l, x)(l', x') = (ll', l x' + x l')."""
    if ideal.left is not lam or ideal.right is not lam:
        raise ExtensionError("ideal must be a bimodule over (Lambda, Lambda)")
    F = lam.field
    dl, di = lam.dim, ideal.dim
    dim = dl + di
    a = glued_algebra(F, [dl, di], {
        (0, 0): (0, lam.consts), (0, 1): (1, left_table(ideal)),
        (1, 0): (1, right_table(ideal)),
    }, lam.unit + [F.zero()] * di, name=name or f"{lam.name}|x{ideal.name}")
    eye = Mat.identity(F, dim)
    return TrivialExtension(lam, ideal, a, eye.block(0, dl, 0, dim),
                            eye.block(0, dim, 0, dl), eye.block(dl, dim, 0, dim))


def recognize_trivial_extension(a: Algebra, lam_rows: Mat, ideal_rows: Mat,
                                name: str = "") -> TrivialExtension:
    """Certify that a = (span of lam_rows) |x (span of ideal_rows) and
    return the extension data on the given algebra instance."""
    F = a.field
    L = row_space(lam_rows)
    I = row_space(ideal_rows)
    if L.rows + I.rows != a.dim:
        raise ExtensionError("subring and ideal do not sum to the algebra")
    combined = Mat.vstack([L, I])
    if rank(combined) != a.dim:
        raise ExtensionError("subring and ideal overlap")
    if not in_row_space(I, ideal_products(a, I)):
        raise ExtensionError("ideal span is not a two-sided ideal")
    if not (I.kron(I) @ a.consts).is_zero():
        raise ExtensionError("ideal does not square to zero")
    lam, _ = subalgebra(a, L, name=name or "Lambda")   # checks closure and unit
    # the ideal as a (Lambda, Lambda)-bimodule: the products L_t I_r and
    # I_r L_t, both in the row order (t, r)
    k = I.rows
    acts = []
    for moved in (L.kron(I) @ a.consts,
                  (I.kron(L) @ a.consts).swap_factors(k, lam.dim)):
        c = coordinates(I, moved)
        if c is None:
            raise ExtensionError("ideal is not stable under the subring")
        acts.append([c.block(t * k, (t + 1) * k, 0, k) for t in range(lam.dim)])
    ideal = Bimodule(lam, lam, k, acts[0], acts[1], name="I")
    cinv = solve(combined, Mat.identity(F, a.dim))
    proj = cinv.block(0, cinv.rows, 0, lam.dim)
    return TrivialExtension(lam, ideal, a, L, proj, I)


def check_extension_matches(ext: TrivialExtension, ctx: MoritaContext):
    if ctx.A is not ext.A:
        raise ExtensionError("context corner A is not the extension algebra")
    if not ctx.phi_is_zero:
        raise ExtensionError("the criterion setting needs phi = 0")
    I_ctx = ctx.ideal_rows_a()
    I_ext = row_space(ext.ideal_rows)
    if I_ctx.rows != I_ext.rows or not in_row_space(I_ext, I_ctx):
        raise ExtensionError("im(psi) differs from the extension ideal")


# -- induction of Lambda-modules ---------------------------------------------


def induced_module(ext: TrivialExtension, x: FDModule, name: str = "") -> FDModule:
    """X(I) = X (+) I (x)_Lambda X as an A-module, with the action
    (l, i).(v, w) = (l v, i (x) v + l.w), the ideal block on the
    balanced-tensor quotient coordinates.  The Lambda-parts l are the
    actions of X and I (x) X inflated to A; the ideal parts of all the
    basis elements are one product."""
    if x.algebra is not ext.Lam:
        raise ExtensionError("induced module wants a Lambda-module")
    F = ext.Lam.field
    ix_t = tensor_module(ext.ideal, x)
    dX, dIX = x.dim, ix_t.module.dim
    # row t: the ideal part b_t - lambda_t of basis element t, in I's basis
    i_cs = coordinates(ext.ideal_rows, Mat.identity(F, ext.A.dim).sub(
        ext.proj_rows @ ext.incl_rows))
    if i_cs is None:
        raise ExtensionError("basis element does not split as (lambda, i)")
    # rows t * dX + v: the class of i_t (x) v
    ideal = i_cs.kron(Mat.identity(F, dX)) @ ix_t.proj
    lam_x, lam_ix = ext.inflate(x), ext.inflate(ix_t.module)
    acts = [Mat.from_blocks(F, [dX, dIX], [dX, dIX],
                            [[lam_x.acts[t], ideal.block(t * dX, (t + 1) * dX, 0, dIX)],
                             [None, lam_ix.acts[t]]])
            for t in range(ext.A.dim)]
    return FDModule(ext.A, dX + dIX, acts, name=name or f"{x.name}(I)")


@memo(on=1)
def lam_bimodules(ext: TrivialExtension, ctx: MoritaContext) -> tuple[Bimodule, Bimodule]:
    """M|Lambda and N|Lambda: M's right and N's left action restricted
    along the inclusion Lambda -> A.  Built once per (ext, ctx) pair and
    kept on ctx, so the memoized tensor products over them are found
    again."""
    return (restrict_right(ctx.M, ext.incl_rows, ext.Lam, name="M|Lam"),
            restrict_left(ctx.N, ext.incl_rows, ext.Lam, name="N|Lam"))


def psi_ideal_coords(ext: TrivialExtension, ctx: MoritaContext) -> Mat:
    """psi with values written in ideal coordinates: (N (x)_k M) -> I."""
    c = coordinates(ext.ideal_rows, ctx.psi.mat)
    if c is None:
        raise ExtensionError("im(psi) does not lie in the extension ideal")
    return c


def psi_tensor_block(ctx: MoritaContext, ext: TrivialExtension, p: FDModule) -> Mat:
    """psi (x) 1_P as a matrix N (x)_k (M (x)_Lambda P) -> I (x)_Lambda P:
    lift M (x)_Lambda P to M (x)_k P, apply psi in ideal coordinates, project."""
    F = ctx.A.field
    mp = tensor_module(lam_bimodules(ext, ctx)[0], p)
    ip = tensor_module(ext.ideal, p)
    eye_n = Mat.identity(F, ctx.N.dim)
    eye_p = Mat.identity(F, p.dim)
    return (eye_n.kron(mp.section) @ psi_ideal_coords(ext, ctx).kron(eye_p)
            @ ip.proj)


def t_lambda(ext: TrivialExtension, ctx: MoritaContext, x: FDModule,
             name: str = "") -> QuadrupleModule:
    """The induced quadruple (X(I), M (x)_Lambda X, projection, psi-action).

    f: M (x)_k X(I) -> M (x)_Lambda X is m (x) (v, w) |-> m (x) v.  The
    I (x) X block contributes nothing: phi = 0 and the second associativity
    square give M.I = 0, so m (x) (i (x) v) |-> m.i (x) v is 0."""
    check_extension_matches(ext, ctx)
    F = ext.Lam.field
    xi = induced_module(ext, x)
    mx_lam = tensor_module(lam_bimodules(ext, ctx)[0], x)
    y = mx_lam.module
    e_x = Mat.identity(F, xi.dim).block(0, x.dim, 0, xi.dim)
    f_full = Mat.identity(F, ctx.M.dim).kron(e_x.transpose()) @ mx_lam.proj
    # g: N (x)_k Y -> X(I); n (x) (m (x) v) |-> psi(n (x) m) (x) v in the
    # I (x) X block
    g_full = Mat.hstack([Mat.zeros(F, ctx.N.dim * y.dim, x.dim),
                         psi_tensor_block(ctx, ext, x)])
    return QuadrupleModule(ctx, xi, y, f_full, g_full,
                           name=name or f"T_Lam({x.name})")


# -- structural maps of a quadruple (phi = 0) --------------------------------


@dataclass
class StructuralMaps:
    u: FDModule                  # Coker(g) over A
    lambda_x: ModuleHom          # X -> U
    v: FDModule                  # Coker(f) over B
    mu_y: ModuleHom              # Y -> V
    eta: ModuleHom               # M (x)_A U -> Y,   f = (1 (x) lambda) eta
    x_mod_ix: FDModule
    p_x: ModuleHom               # X -> X/IX
    theta: ModuleHom             # N (x)_B V -> X/IX, g p = (1 (x) mu) theta
    mlt: ModuleHom               # I (x)_A X -> X multiplication
    m_x: ModuleHom               # I (x)_A U -> X,   mlt = (1 (x) lambda) m_x
    mu_t: TensorModule           # M (x)_A U
    nv_t: TensorModule           # N (x)_B V
    iu_t: TensorModule           # I (x)_A U
    ix_t: TensorModule           # I (x)_A X
    ix_rows: Mat                 # row basis of IX inside X


@memo
def ideal_bimodule_a(ctx: MoritaContext) -> Bimodule:
    bim, _ = sub_bimodule_from_rows(regular_bimodule(ctx.A),
                                    ctx.ideal_rows_a(), name="I")
    return bim


def structural_maps(ctx: MoritaContext, q: QuadrupleModule) -> StructuralMaps:
    """eta, theta and m of a valid quadruple, each solved exactly from its
    factorisation identity, so the identities hold by construction, and
    im(m) = IX because 1 (x) lambda is onto.  I Coker(g) = 0 follows
    from the first square of a quadruple (Psi_X lands in Im g), and
    I Im(g) = 0 from phi = 0 and the two squares.

    f and g are read on the full k-tensor spaces, so the balanced tensors
    of q are not built: eta solves (1_M (x) lambda) eta = f through the
    projection onto M (x)_A U, one solution since 1 (x) lambda is onto,
    and theta likewise."""
    if not ctx.phi_is_zero:
        raise ContextError("structural maps require phi = 0")
    F = ctx.A.field
    u, lambda_x = quotient_by_rows(q.x, q.g_full, name=f"Coker(g:{q.name})")
    v, mu_y = quotient_by_rows(q.y, q.f_full, name=f"Coker(f:{q.name})")
    mu_t = tensor_module(ctx.M, u)
    eta_mat = solve(Mat.identity(F, ctx.M.dim).kron(lambda_x.mat) @ mu_t.proj,
                    q.f_full)
    if eta_mat is None:
        raise ContextError("f does not factor through M (x) Coker(g)")
    eta = ModuleHom(mu_t.module, q.y, eta_mat)
    # the multiplication I (x)_k X -> X, whose rows span IX
    mlt_full = q.x.acts_of(ctx.ideal_rows_a())
    ix_rows = row_space(mlt_full) if mlt_full.rows else Mat.zeros(F, 0, q.x.dim)
    x_mod_ix, p_x = quotient_by_rows(q.x, ix_rows, name=f"{q.x.name}/IX")
    nv_t = tensor_module(ctx.N, v)
    theta_mat = solve(Mat.identity(F, ctx.N.dim).kron(mu_y.mat) @ nv_t.proj,
                      q.g_full @ p_x.mat)
    if theta_mat is None:
        raise ContextError("g p does not factor through N (x) Coker(f)")
    theta = ModuleHom(nv_t.module, x_mod_ix, theta_mat)
    ibim = ideal_bimodule_a(ctx)
    ix_t = tensor_module(ibim, q.x)
    mlt_mat = factor_through(ix_t.proj, [mlt_full])
    if mlt_mat is None:
        raise ContextError("multiplication does not factor through I (x) X")
    mlt = ModuleHom(ix_t.module, q.x, mlt_mat[0])
    iu_t = tensor_module(ibim, u)
    one_lambda_i = tensor_functor_hom(ix_t, iu_t, lambda_x)
    m_mat = solve(one_lambda_i.mat, mlt.mat)
    if m_mat is None:
        raise ContextError("multiplication does not factor through I (x) Coker(g)")
    m_x = ModuleHom(iu_t.module, q.x, m_mat)
    return StructuralMaps(u, lambda_x, v, mu_y, eta, x_mod_ix, p_x,
                          theta, mlt, m_x, mu_t, nv_t, iu_t, ix_t, ix_rows)


def pushout_check(ctx: MoritaContext, q: QuadrupleModule, sm: StructuralMaps | None = None) -> bool:
    """Whether Im(g) is the pushout of 1_N (x) eta and psi (x) 1_U.

    Raises if the two comparison isomorphism preconditions (theta and m
    injective) fail, mirroring the criterion's clause (b)."""
    sm = sm or structural_maps(ctx, q)
    if not sm.theta.is_injective() or not sm.m_x.is_injective():
        raise ContextError("pushout check precondition: clause (b2)/(b3) isos fail")
    # legs from N (x) M (x) U: psi (x) 1_U into I (x) U, 1_N (x) eta into N (x) Y
    nmu = tensor_module(ctx.N, sm.mu_t.module)
    one_eta = tensor_functor_hom(nmu, q.ny, sm.eta)
    psi_leg = _psi_tensor_one(ctx, sm, nmu)
    delta = Mat.hstack([psi_leg.mat, one_eta.mat.neg()])
    # pushout = (I (x) U (+) N (x) Y) / im(delta)
    po_proj, _ = quotient_maps(delta)
    img_g, incl_g = image_of(q.g)
    # canonical comparison: I (x) U -> Im(g) via m, N (x) Y -> Im(g) via g
    m_to_h = corestrict(ModuleHom(sm.iu_t.module, q.x, sm.m_x.mat), img_g, incl_g)
    g_to_h = corestrict(q.g, img_g, incl_g)
    legs = Mat.vstack([m_to_h.mat, g_to_h.mat])
    induced = factor_through(po_proj, [legs])
    if induced is None:
        return False
    return rank(induced[0]) == img_g.dim and po_proj.cols == img_g.dim


def _psi_tensor_one(ctx: MoritaContext, sm: StructuralMaps, nmu: TensorModule) -> ModuleHom:
    """psi (x) 1_U : N (x)_B M (x)_A U -> I (x)_A U."""
    F = ctx.A.field
    psi_i = coordinates(ctx.ideal_rows_a(), ctx.psi.mat)
    if psi_i is None:
        raise ContextError("im(psi) escapes its own row space")
    full = psi_i.kron(Mat.identity(F, sm.u.dim)) @ sm.iu_t.proj
    big_proj = Mat.identity(F, ctx.N.dim).kron(sm.mu_t.proj) @ nmu.proj
    mat = factor_through(big_proj, [full])
    if mat is None:
        raise ContextError("psi (x) 1 does not factor through the quotient")
    return ModuleHom(nmu.module, sm.iu_t.module, mat[0])


# -- hom transport identities ---------------------------------------------------
#
# The extension-of-scalars isomorphisms between hom spaces over Lambda and
# over A = Lambda |x I, and their ring-level versions between corner hom
# spaces and hom spaces over the context ring, where a quadruple map
# (alpha, beta) is the ring module map block_diag(alpha, beta).  Each
# checker realizes the displayed elementwise formula as a linear map on
# canonical hom-space coordinates and certifies that every image is a
# genuine module map and that the coordinate matrix is bijective.


@dataclass
class HomIsoCheck:
    dim_domain: int
    dim_codomain: int
    images_valid: bool
    bijective: bool

    @property
    def ok(self) -> bool:
        return self.images_valid and self.bijective


def _transport_check(F, n_dom: int, images, cod: list,
                     injective_only: bool = False) -> HomIsoCheck:
    """The check behind every identity below.  `images` yields the
    transported map of each of the n_dom domain basis elements; each must be
    a genuine module map and lie in the span of the target hom basis `cod`.
    Their coordinates form the transport matrix, which must be bijective,
    or only injective when `injective_only`."""
    targets = []
    ok = True
    for h in images:
        ok = ok and h.intertwines()
        targets.append(h.mat.flatten())
    if not targets:
        mat = Mat.zeros(F, 0, len(cod))
    elif cod:
        mat = coordinates(Mat.vstack([g.mat.flatten() for g in cod]),
                          Mat.vstack(targets))
    else:
        mat = (None if any(not t.is_zero() for t in targets)
               else Mat.zeros(F, len(targets), 0))
    if mat is None:
        return HomIsoCheck(n_dom, len(cod), False, False)
    if injective_only:
        return HomIsoCheck(n_dom, len(cod), ok, rank(mat) == n_dom)
    bij = n_dom == len(cod) and rank(mat) == n_dom
    return HomIsoCheck(n_dom, len(cod), ok, bij)


def restriction_hom_iso(ext: TrivialExtension, x: FDModule, x2: FDModule) -> HomIsoCheck:
    """Hom_Lambda(X, X') = Hom_A(X(I), X'-inflated), f |-> (f on the X part,
    zero on the ideal part)."""
    F = ext.Lam.field
    xi = induced_module(ext, x)
    x2_a = ext.inflate(x2, name=f"{x2.name}|A")
    dom = hom_space(x, x2)
    cod = hom_space(xi, x2_a)
    images = (ModuleHom(xi, x2_a, _column_alpha(F, xi.dim, f.mat)) for f in dom)
    return _transport_check(F, len(dom), images, cod)


def ideal_hom_embedding(ext: TrivialExtension, x: FDModule, x2: FDModule) -> HomIsoCheck:
    """Hom_Lambda(X, I (x) X') -> Hom_A(X-inflated, X'(I)), g |-> (0, g);
    a well-defined injective homomorphism (not claimed surjective)."""
    F = ext.Lam.field
    ix2 = tensor_module(ext.ideal, x2)
    x_a = ext.inflate(x, name=f"{x.name}|A")
    xi2 = induced_module(ext, x2)
    dom = hom_space(x, ix2.module)
    cod = hom_space(x_a, xi2)
    images = (ModuleHom(x_a, xi2, Mat.hstack([Mat.zeros(F, x.dim, x2.dim), g.mat]))
              for g in dom)
    return _transport_check(F, len(dom), images, cod, injective_only=True)


def induced_hom_iso(ext: TrivialExtension, x: FDModule, x2: FDModule) -> HomIsoCheck:
    """Hom_Lambda(X, X' (+) I (x) X') = Hom_A(X(I), X'(I)),
    (a, c) |-> [[a, c], [0, 1_I (x) a]]."""
    F = ext.Lam.field
    xi = induced_module(ext, x)
    xi2 = induced_module(ext, x2)
    ix = tensor_module(ext.ideal, x)
    ix2 = tensor_module(ext.ideal, x2)
    dom_a = hom_space(x, x2)
    dom_c = hom_space(x, ix2.module)
    cod = hom_space(xi, xi2)
    images = (ModuleHom(xi, xi2, _induced_alpha(F, ix, ix2, a_part, c_part))
              for a_part, c_part in _pair_basis(F, dom_a, dom_c, ix2))
    return _transport_check(F, len(dom_a) + len(dom_c), images, cod)


def _pair_basis(F, dom_a, dom_c, ix2: TensorModule):
    """The basis of Hom(X, X') (+) Hom(X, I (x) X'), as pairs (a, c)."""
    for f in dom_a:
        yield f.mat, Mat.zeros(F, f.mat.rows, ix2.module.dim)
    for g in dom_c:
        yield Mat.zeros(F, g.mat.rows, ix2.arg.dim), g.mat


def _induced_alpha(F, ix: TensorModule, ix2: TensorModule, a_part: Mat,
                   c_part: Mat) -> Mat:
    """[[a, c], [0, 1_I (x) a]] : X (+) I (x) X -> X' (+) I (x) X'."""
    one_i_a = tensor_functor_hom(ix, ix2, ModuleHom(ix.arg, ix2.arg, a_part)).mat
    return Mat.from_blocks(F, [ix.arg.dim, ix.module.dim],
                           [ix2.arg.dim, ix2.module.dim],
                           [[a_part, c_part], [None, one_i_a]])


def _column_alpha(F, rows: int, f_mat: Mat) -> Mat:
    """(f; 0): a map out of X (+) I (x) X vanishing on the ideal block."""
    return Mat.vstack([f_mat, Mat.zeros(F, rows - f_mat.rows, f_mat.cols)])


def column_hom_iso(ext: TrivialExtension, ctx: MoritaContext, kind: str,
                   x: FDModule | None = None, x2: FDModule | None = None,
                   y: FDModule | None = None, y2: FDModule | None = None) -> HomIsoCheck:
    """The seven corner-to-ring hom identities for the one-sided-zero
    context ring; `kind` names source and target functor columns."""
    from .morita import quotient_by_ideal, t_b, z_a, z_b
    F = ext.Lam.field
    mr = build_ring(ctx)

    def ring(q):
        return quadruple_to_module(mr, q)

    def tl(mod):
        return t_lambda(ext, ctx, mod)

    def zl(mod):
        return z_a(ctx, ext.inflate(mod, name=f"{mod.name}|A"))

    def zb(mod):
        return z_b(ctx, quotient_by_ideal(mod, ctx.ideal_rows_b(), "J")[0])

    # each kind gives the two quadruples, the domain hom basis and the
    # (alpha, beta) image of each of its elements
    if kind == "tl_tb":
        # Hom_Lambda(X, N (x) Y) = Hom(T_Lam(X), T_B(Y)), f |-> ((f; 0), 0)
        src, dst = tl(x), t_b(ctx, y)
        dom = hom_space(x, ext.lam_module(dst.x))      # dst.x = N (x)_B Y
        pairs = ((_column_alpha(F, src.x.dim, f.mat),
                  Mat.zeros(F, src.y.dim, dst.y.dim)) for f in dom)
    elif kind == "tl_zl":
        src, dst = tl(x), zl(x2)
        dom = hom_space(x, x2)
        pairs = ((_column_alpha(F, src.x.dim, f.mat),
                  Mat.zeros(F, src.y.dim, dst.y.dim)) for f in dom)
    elif kind == "tl_tl":
        # Hom_Lambda(X, X' (+) I (x) X') = Hom(T_Lam X, T_Lam X'),
        # (a, c) |-> ([[a, c], [0, 1_I (x) a]], 1_M (x) a)
        src, dst = tl(x), tl(x2)
        ix = tensor_module(ext.ideal, x)
        ix2 = tensor_module(ext.ideal, x2)
        m_lam, _ = lam_bimodules(ext, ctx)
        mx = tensor_module(m_lam, x)
        mx2 = tensor_module(m_lam, x2)
        dom_a = hom_space(x, x2)
        dom_c = hom_space(x, ix2.module)
        dom = dom_a + dom_c
        pairs = ((_induced_alpha(F, ix, ix2, a_part, c_part),
                  tensor_functor_hom(mx, mx2, ModuleHom(x, x2, a_part)).mat)
                 for a_part, c_part in _pair_basis(F, dom_a, dom_c, ix2))
    elif kind == "tb_tl":
        # Hom_B(Y, M (x) X) = Hom(T_B Y, T_Lam X), h |-> ((1_N (x) h) psi_X, h)
        src, dst = t_b(ctx, y), tl(x)
        dom = hom_space(y, dst.y)                     # Hom_B(Y, M (x)_Lambda X)
        pairs = ((tensor_functor_hom(src.ny, dst.ny,
                                     ModuleHom(y, dst.y, h.mat)).mat @ dst.g.mat,
                  h.mat) for h in dom)
    elif kind == "tb_tb":
        src, dst = t_b(ctx, y), t_b(ctx, y2)
        dom = hom_space(y, y2)
        pairs = ((tensor_functor_hom(src.ny, dst.ny, ModuleHom(y, y2, t.mat)).mat,
                  t.mat) for t in dom)
    elif kind == "tb_zb":
        src, dst = t_b(ctx, y), zb(y2)
        dom = hom_space(y, dst.y)
        pairs = ((Mat.zeros(F, src.x.dim, dst.x.dim), t.mat) for t in dom)
    elif kind == "zero_pairs":
        a = len(hom_space(ring(t_b(ctx, y)), ring(zl(x))))
        b = len(hom_space(ring(tl(x)), ring(zb(y))))
        return HomIsoCheck(0, a + b, True, a == 0 and b == 0)
    else:
        raise ExtensionError(f"unknown hom identity {kind!r}")
    src_v, dst_v = ring(src), ring(dst)
    images = (ModuleHom(src_v, dst_v, Mat.block_diag([am, bm]))
              for am, bm in pairs)
    return _transport_check(F, len(dom), images, hom_space(src_v, dst_v))
