"""Exact contexts from Morita contexts, the noncommutative tensor product
ring on A (+) N (+) M (+) (Gamma (+) M (x)_A N), and the mirrored
Gorenstein-projectivity criterion it inherits.

The mirrored criterion is one code path: the corner-swap ring isomorphism
takes the (phi, 0) ring onto the (0, phi)-style ring over the swapped
context whose glued corner is Gamma |x (M (x) N), and the criterion
engine runs there.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, validate_algebra
from .bimodules import (
    BalancedMap, Bimodule, bimodule_tensor, restrict_left, restrict_right,
    zero_balanced_map,
)
from .engine import (
    CompatVerdict, EngineError, build_total_resolution, check_conditions,
)
from .linalg import Mat, rank, solve_left
from . import morita
from .morita import (
    MoritaContext, MoritaRing, QuadrupleModule, build_ring, swap_context,
)
from .trivext import TrivialExtension, trivial_extension


class NcTensorError(ValueError):
    pass


# -- exact contexts ------------------------------------------------------------


@dataclass
class ExactContextReport:
    dim_r: int
    dim_s: int
    dim_t: int
    dim_w: int
    exact: bool

    @property
    def euler(self) -> int:
        return self.dim_r - self.dim_s - self.dim_t + self.dim_w


def build_exact_context(ctx: MoritaContext, mr: MoritaRing | None = None) -> ExactContextReport:
    """Verify that the diagonal, upper and lower triangular subrings of the
    context ring fit into the exact sequence 0 -> R -> S (+) T -> W -> 0
    with (r) |-> (r, r) and (s, t) |-> s - t."""
    mr = mr or build_ring(ctx)
    F = mr.ring.field
    W = mr.ring
    dA, dN, dM, dB = ctx.A.dim, ctx.N.dim, ctx.M.dim, ctx.B.dim
    offA, offN, offM, offB = mr.offs

    def block_rows(offsets_dims):
        rows = []
        for off, d in offsets_dims:
            for i in range(d):
                r = [F.zero()] * W.dim
                r[off + i] = F.one()
                rows.append(r)
        return Mat.from_rows(F, rows, W.dim)

    r_rows = block_rows([(offA, dA), (offB, dB)])
    s_rows = block_rows([(offA, dA), (offN, dN), (offB, dB)])
    t_rows = block_rows([(offA, dA), (offM, dM), (offB, dB)])
    rho = Mat.hstack([solve_left(s_rows, r_rows), solve_left(t_rows, r_rows)])
    delta = Mat.vstack([s_rows, t_rows.neg()])
    exact = ((rho @ delta).is_zero()
             and rank(rho) == r_rows.rows
             and rank(delta) == W.dim
             and r_rows.rows == s_rows.rows + t_rows.rows - W.dim)
    return ExactContextReport(r_rows.rows, s_rows.rows, t_rows.rows, W.dim, exact)


# -- the noncommutative tensor product ring -------------------------------------


@dataclass
class NcTensorRing:
    ctx: MoritaContext           # the source context (A, Gamma, M, N, phi, psi)
    ring: Algebra
    offs: tuple                  # offsets of A, N, M, Gamma, M(x)N blocks
    mn: Bimodule                 # M (x)_A N over (Gamma, Gamma)
    mn_proj: Mat
    mn_sec: Mat


def build_nc_tensor(ctx: MoritaContext, name: str = "") -> NcTensorRing:
    """Transcribe the displayed multiplication of the noncommutative tensor
    product; associativity is validated and any violation is reported with
    the offending basis triple (a transcription-bug detector)."""
    from .morita import require_valid_context
    require_valid_context(ctx)
    A, G, M, N = ctx.A, ctx.B, ctx.M, ctx.N
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
            put(offA + i, offN + j, offN,
                (Mat.unit_row(F, dN, j) @ N.left_acts[i]).row(0))
    for i in range(dN):
        for j in range(dM):
            put(offN + i, offM + j, offA, ctx.psi.value(i, j))
        for j in range(dG):
            put(offN + i, offG + j, offN,
                (Mat.unit_row(F, dN, i) @ N.right_acts[j]).row(0))
        for j in range(dW):
            # n . (m' (x) n') = n . phi(m' (x) n')
            gvec = phi_of_w(j)
            put(offN + i, offW + j, offN,
                (Mat.unit_row(F, dN, i) @ N.right_act_of(gvec)).row(0))
    for i in range(dM):
        for j in range(dA):
            put(offM + i, offA + j, offM,
                (Mat.unit_row(F, dM, i) @ M.right_acts[j]).row(0))
        for j in range(dN):
            # m (x) n lands in the tensor block
            put(offM + i, offN + j, offW, mn_proj.row(i * dN + j))
    for i in range(dG):
        for j in range(dG):
            put(offG + i, offG + j, offG, G.mul[i][j])
        for j in range(dM):
            put(offG + i, offM + j, offM,
                (Mat.unit_row(F, dM, j) @ M.left_acts[i]).row(0))
        for j in range(dW):
            put(offG + i, offW + j, offW,
                (Mat.unit_row(F, dW, j) @ mn.left_acts[i]).row(0))
    for i in range(dW):
        for j in range(dM):
            # (m (x) n) . m' = phi(m (x) n) . m'
            gvec = phi_of_w(i)
            put(offW + i, offM + j, offM,
                (Mat.unit_row(F, dM, j) @ M.left_act_of(gvec)).row(0))
        for j in range(dG):
            put(offW + i, offG + j, offW,
                (Mat.unit_row(F, dW, i) @ mn.right_acts[j]).row(0))
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
                    nvec = (Mat.unit_row(F, dN, jn2) @ N.left_act_of(avec)).row(0)
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
    ring = Algebra(F, dim, mul, unit, name=name or "C")
    bad = validate_algebra(ring)
    if bad:
        v = bad[0]
        raise NcTensorError(
            f"the transcribed product is not associative at {v.indices}")
    return NcTensorRing(ctx, ring, (offA, offN, offM, offG, offW), mn,
                        mn_proj, mn_sec)


# -- identification with the one-sided-zero Morita ring --------------------------


@dataclass
class NcMoritaPresentation:
    nc: NcTensorRing
    ext_b: TrivialExtension      # B = Gamma |x (M (x) N)
    ctx2: MoritaContext          # (A, B, M', N', phi', 0)
    mr2: MoritaRing
    swapped_ext: TrivialExtension
    swapped_ctx: MoritaContext   # corner-swapped, one-sided-zero form


def nc_morita_presentation(nc: NcTensorRing) -> NcMoritaPresentation:
    """B := Gamma |x (M (x) N); the context (A, B, M, N, phi', 0) with
    phi'(m (x) n) = (0, m (x) n) has context ring isomorphic to the
    noncommutative tensor product (for phi = psi = 0 the two structure
    constant tables coincide on the nose under the basis identification).
    The corner swap then presents it as a one-sided-zero ring over the
    glued corner B, ready for the criterion engine."""
    ctx = nc.ctx
    if not (ctx.phi_is_zero and ctx.psi_is_zero):
        raise NcTensorError("the Morita presentation needs phi = psi = 0")
    A, G = ctx.A, ctx.B
    F = A.field
    ext_b = trivial_extension(G, nc.mn, name="B")
    B = ext_b.A
    m2 = restrict_left(ctx.M, ext_b.proj_rows, B, name="M|B")
    n2 = restrict_right(ctx.N, ext_b.proj_rows, B, name="N|B")
    phi_mat = Mat.hstack([Mat.zeros(F, ctx.M.dim * ctx.N.dim, G.dim), nc.mn_proj])
    phi2 = BalancedMap(m2, n2, B, phi_mat)
    ctx2 = MoritaContext(A, B, m2, n2, phi2, zero_balanced_map(n2, m2, A),
                         name="Lambda_phi")
    mr2 = build_ring(ctx2)
    return NcMoritaPresentation(nc, ext_b, ctx2, mr2, ext_b, swap_context(ctx2))


def iso_with_morita(pres: NcMoritaPresentation) -> Mat:
    """The explicit basis bijection C -> Lambda_(phi', 0): the identity on
    the flat basis (A, N, M, Gamma, M (x) N); verified multiplicative and
    unital in both directions."""
    nc, mr2 = pres.nc, pres.mr2
    if nc.ring.dim != mr2.ring.dim:
        raise NcTensorError("dimension mismatch between the two rings")
    if nc.ring.mul != mr2.ring.mul or nc.ring.unit != mr2.ring.unit:
        raise NcTensorError("structure constants do not coincide")
    return Mat.identity(nc.ring.field, nc.ring.dim)


def swap_quadruple(pres: NcMoritaPresentation, q: QuadrupleModule,
                   name: str = "") -> QuadrupleModule:
    """Transport a module over the (phi', 0) presentation through the
    corner-swap isomorphism: (X, Y, f, g) |-> (Y, X, g, f)."""
    if q.ctx is not pres.ctx2:
        raise NcTensorError("quadruple lives over the wrong context")
    return morita.swap_quadruple(q, name or f"swap({q.name})")


def corollary_criterion(pres: NcMoritaPresentation, q: QuadrupleModule,
                        compat: dict[str, CompatVerdict] | None = None,
                        window: int = 6, period_bound: int = 12, seed: int = 0,
                        build: bool = False):
    """The mirrored criterion for modules over the noncommutative tensor
    product: swap corners and run the one-sided-zero engine over
    B = Gamma |x J.  Requires weak-compatibility verdicts for M, N and
    J = M (x) N; a missing or refuted verdict is an error."""
    compat = compat or default_compat_verdicts(pres, window, seed)
    for key in ("M", "N", "J"):
        v = compat.get(key)
        if v is None:
            raise EngineError(f"missing compatibility verdict for {key}")
        if v.kind != "weakly_compatible":
            raise EngineError(f"bimodule {key} lacks weak compatibility: {v.kind}")
    q_sw = swap_quadruple(pres, q)
    rep = check_conditions(pres.swapped_ext, pres.swapped_ctx, q_sw,
                           window, period_bound, seed)
    asm = None
    if build and rep.passed:
        asm = build_total_resolution(pres.swapped_ext, pres.swapped_ctx,
                                     q_sw, rep, window=min(3, window), seed=seed)
    return rep, asm


def default_compat_verdicts(pres: NcMoritaPresentation, bound: int = 6,
                            seed: int = 0) -> dict[str, CompatVerdict]:
    from .engine import check_compat
    ctx = pres.nc.ctx
    return {
        "M": check_compat(ctx.M, bound=bound, seed=seed),
        "N": check_compat(ctx.N, bound=bound, seed=seed),
        "J": check_compat(pres.nc.mn, bound=bound, seed=seed),
    }
