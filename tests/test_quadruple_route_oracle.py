"""Quadruples stored as their maps on the k-tensor spaces, against the
route that factored them.

A `QuadrupleModule` keeps f and g on M (x)_k X and N (x)_k Y, and derives
f and g on the balanced tensors from them when first read.  Before, every
construction factored its maps through the balanced tensors with
`factor_through` and kept the factors: `make_quadruple` factored the
maps it was given, `t_a` solved for Psi_X (`psi_hom`), and `h_a`
factored zeta and the evaluation.  That route is kept here verbatim as
the oracle, with its own quadruple type, whose `f_full` and `g_full`
were the projections of the kept factors.

Over the catalog contexts (Q and GF(7)) and the wide context, whose M and
N have dimension 2 and whose psi is not symmetric in its two factors (Q
and GF(11)), every construction gives the same modules, the same maps on
the k-tensor spaces and the same f and g on the balanced tensors as the
oracle: T_A, T_B, H_A, H_B, Z_A, Z_B, direct sums, T_Lambda and the
reading of a ring module back as a quadruple.  Z_A, T_Lambda and
`module_to_quadruple` always wrote their maps on the k-tensor spaces and
only factored them at the end; their oracle is that factoring, on the
same maps.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from gpmorita.bimodules import TensorModule, hom_module, tensor_module
from gpmorita.catalog import (
    arrow_ideal_context, glued_psi_context, random_module, triangular_context,
    two_cycle_context, wide_psi_context,
)
from gpmorita.fields import GF, QQ
from gpmorita.homology import simple_modules
from gpmorita.linalg import Mat, factor_through
from gpmorita.modules import FDModule, ModuleHom, regular_module
from gpmorita.morita import (
    ContextError, MoritaContext, build_ring, direct_sum_quadruples,
    evaluation_full, h_a, h_b, module_to_quadruple, quadruple_to_module,
    quotient_by_ideal, swap_context, t_a, t_b, z_a, z_b, zeta_full,
)
from gpmorita.trivext import t_lambda

CATALOG = {"triangular": triangular_context, "two_cycle": two_cycle_context,
           "glued_psi": glued_psi_context, "arrow_ideal": arrow_ideal_context}
CASES = {f"{name}-{tag}": (make, field) for name, make in CATALOG.items()
         for tag, field in (("Q", QQ), ("GF7", lambda: GF(7)))}
CASES |= {"wide-Q": (wide_psi_context, QQ),
          "wide-GF11": (wide_psi_context, lambda: GF(11))}


# -- the factoring route, verbatim ----------------------------------------------


@dataclass
class OldQuadruple:
    ctx: MoritaContext
    x: FDModule                  # over A
    y: FDModule                  # over B
    f: ModuleHom                 # M (x)_A x -> y, on the quotient coordinates
    g: ModuleHom                 # N (x)_B y -> x
    mx: TensorModule
    ny: TensorModule
    name: str = ""

    @property
    def f_full(self) -> Mat:
        """f on the full k-tensor space, M (x)_k X -> Y."""
        return self.mx.proj @ self.f.mat

    @property
    def g_full(self) -> Mat:
        """g on the full k-tensor space, N (x)_k Y -> X."""
        return self.ny.proj @ self.g.mat


def old_make_quadruple(ctx: MoritaContext, x: FDModule, y: FDModule,
                       f_full: Mat, g_full: Mat, name: str = "") -> OldQuadruple:
    """Assemble a quadruple from maps given on the full k-tensor spaces
    M (x)_k X -> Y and N (x)_k Y -> X (they must kill the middle relations)."""
    mx = tensor_module(ctx.M, x)
    ny = tensor_module(ctx.N, y)
    f_mat = factor_through(mx.proj, [f_full])
    if f_mat is None:
        raise ContextError("f does not factor through M (x)_A X")
    g_mat = factor_through(ny.proj, [g_full])
    if g_mat is None:
        raise ContextError("g does not factor through N (x)_B Y")
    return OldQuadruple(ctx, x, y, ModuleHom(mx.module, y, f_mat[0]),
                        ModuleHom(ny.module, x, g_mat[0]), mx, ny, name=name)


def old_swap_quadruple(q: OldQuadruple, name: str | None = None) -> OldQuadruple:
    return OldQuadruple(swap_context(q.ctx), q.y, q.x, q.g, q.f, q.ny, q.mx,
                        name=q.name if name is None else name)


def old_psi_hom(ctx: MoritaContext, x: FDModule, mx: TensorModule,
                nmx: TensorModule) -> ModuleHom:
    """Psi_X : N (x)_B (M (x)_A X) -> X as a module map over A; on the
    full tensor space N (x)_k M (x)_k X it is n (x) m (x) v |->
    psi(n (x) m) . v, the actions of the values of psi, stacked."""
    F = ctx.A.field
    eye_n = Mat.identity(F, ctx.N.dim)
    big_proj = eye_n.kron(mx.proj) @ nmx.proj
    mat = factor_through(big_proj, [x.acts_of(ctx.psi.mat)])
    if mat is None:
        raise ContextError("Psi does not factor through the tensor quotient")
    return ModuleHom(nmx.module, x, mat[0])


def old_t_a(ctx: MoritaContext, x: FDModule, name: str = "") -> OldQuadruple:
    """(X, M (x) X, identity, Psi_X)."""
    mx = tensor_module(ctx.M, x)
    y = mx.module
    ny = tensor_module(ctx.N, y)
    f = ModuleHom(mx.module, y, Mat.identity(ctx.A.field, y.dim))
    g = old_psi_hom(ctx, x, mx, ny)
    return OldQuadruple(ctx, x, y, f, g, mx, ny,
                        name=name or f"T_A({x.name})")


def old_t_b(ctx: MoritaContext, y: FDModule, name: str = "") -> OldQuadruple:
    return old_swap_quadruple(old_t_a(swap_context(ctx), y,
                                      name=name or f"T_B({y.name})"))


def old_h_a(ctx: MoritaContext, x: FDModule, name: str = "") -> OldQuadruple:
    """(X, Hom_A(N, X), zeta_X, evaluation)."""
    y, basis = hom_module(ctx.N, x)
    mx = tensor_module(ctx.M, x)
    ny = tensor_module(ctx.N, y)
    f_mat = factor_through(mx.proj, [zeta_full(ctx, x, basis)])
    if f_mat is None:
        raise ContextError("zeta does not factor through the tensor quotient")
    g_mat = factor_through(
        ny.proj, [evaluation_full(ctx.A.field, ctx.N.dim, basis, x.dim)])
    if g_mat is None:
        raise ContextError("evaluation does not factor through the tensor quotient")
    return OldQuadruple(ctx, x, y, ModuleHom(mx.module, y, f_mat[0]),
                        ModuleHom(ny.module, x, g_mat[0]), mx, ny,
                        name=name or f"H_A({x.name})")


def old_h_b(ctx: MoritaContext, y: FDModule, name: str = "") -> OldQuadruple:
    return old_swap_quadruple(old_h_a(swap_context(ctx), y,
                                      name=name or f"H_B({y.name})"))


def old_direct_sum_quadruples(qs: list[OldQuadruple], name: str = "") -> OldQuadruple:
    from gpmorita.modules import direct_sum
    ctx = qs[0].ctx
    F = ctx.A.field
    sides = (qs, [old_swap_quadruple(q) for q in qs])
    sums = [direct_sum([q.x for q in side]) for side in sides]
    fulls = []
    for side, (src, _, projs), (dst, incls, _) in zip(sides, sums, sums[::-1]):
        eye_m = Mat.identity(F, side[0].ctx.M.dim)
        full = Mat.zeros(F, eye_m.rows * src.dim, dst.dim)
        for q, prj, inc in zip(side, projs, incls):
            part = q.f_full @ inc.mat     # M (x)_k X_i -> Y
            full = full.add(eye_m.kron(prj.mat) @ part)
        fulls.append(full)
    return old_make_quadruple(ctx, sums[0][0], sums[1][0], fulls[0], fulls[1],
                              name=name or "+".join(q.name or "?" for q in qs))


def old_factored(q) -> OldQuadruple:
    """The oracle of a construction that wrote its maps on the k-tensor
    spaces and factored them at the end, on the same maps."""
    return old_make_quadruple(q.ctx, q.x, q.y, q.f_full, q.g_full, name=q.name)


# -- the comparison ---------------------------------------------------------------


def _same(new, old):
    assert new.name == old.name
    assert (new.x.acts, new.y.acts) == (old.x.acts, old.y.acts)
    assert (new.f_full, new.g_full) == (old.f_full, old.g_full)
    assert (new.f.source.acts, new.g.source.acts) == \
        (old.f.source.acts, old.g.source.acts)
    assert (new.f.mat, new.g.mat) == (old.f.mat, old.g.mat)


def _corner_modules(a, rng):
    return [regular_module(a), *simple_modules(a),
            *(random_module(a, rng, max_cuts=1) for _ in range(2))]


@pytest.mark.parametrize("case", CASES)
def test_every_quadruple_construction_matches_the_factoring_route(case):
    make, field = CASES[case]
    ext, ctx = make(field())
    rng = random.Random(5)
    xs, ys = _corner_modules(ctx.A, rng), _corner_modules(ctx.B, rng)
    pairs = []
    for x in xs:
        pairs += [(t_a(ctx, x), old_t_a(ctx, x)), (h_a(ctx, x), old_h_a(ctx, x))]
        u = quotient_by_ideal(x, ctx.ideal_rows_a(), "I")[0]
        pairs.append((z_a(ctx, u), old_factored(z_a(ctx, u))))
    for y in ys:
        pairs += [(t_b(ctx, y), old_t_b(ctx, y)), (h_b(ctx, y), old_h_b(ctx, y))]
        v = quotient_by_ideal(y, ctx.ideal_rows_b(), "J")[0]
        sw = z_a(swap_context(ctx), v, name=f"Z_B({v.name})")
        pairs.append((z_b(ctx, v), old_swap_quadruple(old_factored(sw))))
    for lam_x in _corner_modules(ext.Lam, rng):
        new = t_lambda(ext, ctx, lam_x)
        pairs.append((new, old_factored(new)))
    for i in range(0, len(pairs) - 1, 3):
        pairs.append((direct_sum_quadruples([pairs[i][0], pairs[i + 1][0]]),
                      old_direct_sum_quadruples([pairs[i][1], pairs[i + 1][1]])))
    mr = build_ring(ctx)
    for v in [regular_module(mr.ring)] + [quadruple_to_module(mr, new)
                                          for new, _ in pairs[::4]]:
        new = module_to_quadruple(mr, v, name="read")
        pairs.append((new, old_factored(new)))
    for new, old in pairs:
        _same(new, old)

