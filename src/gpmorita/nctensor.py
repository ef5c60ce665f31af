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

from .algebra import Algebra, glued_algebra, validate_algebra
from .bimodules import (
    BalancedMap, Bimodule, bimodule_tensor, left_table, restrict_left,
    restrict_right, right_table, zero_balanced_map,
)
from .engine import (
    CompatVerdict, EngineError, build_total_resolution, check_compat,
    check_conditions,
)
from .linalg import Mat, coordinates, rank
from .morita import (
    MoritaContext, MoritaRing, QuadrupleModule, build_ring, swap_context,
    swap_quadruple,
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


def build_exact_context(ctx: MoritaContext) -> ExactContextReport:
    """Verify that the diagonal, upper and lower triangular subrings of the
    context ring fit into the exact sequence 0 -> R -> S (+) T -> W -> 0
    with (r) |-> (r, r) and (s, t) |-> s - t."""
    mr = build_ring(ctx)
    F = mr.ring.field
    W = mr.ring
    dA, dN, dM, dB = ctx.A.dim, ctx.N.dim, ctx.M.dim, ctx.B.dim
    offA, offN, offM, offB = mr.offs

    eye = Mat.identity(F, W.dim)

    def block_rows(offsets_dims):
        return Mat.vstack([eye.block(off, off + d, 0, W.dim)
                           for off, d in offsets_dims])

    r_rows = block_rows([(offA, dA), (offB, dB)])
    s_rows = block_rows([(offA, dA), (offN, dN), (offB, dB)])
    t_rows = block_rows([(offA, dA), (offM, dM), (offB, dB)])
    rho = Mat.hstack([coordinates(s_rows, r_rows), coordinates(t_rows, r_rows)])
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
    """The noncommutative tensor product ring on A ++ N ++ M ++ Gamma ++ W,
    W = M (x)_A N, glued from the tables of its displayed multiplication:
    a product with a factor in W goes through the section `sec` of W into
    M (x)_k N, where n . (m (x) n') = n . phi(m (x) n'),
    (m (x) n) . m' = phi(m (x) n) . m' and
    (m (x) n)(m' (x) n') = m (x) (psi(n (x) m') . n').  Associativity is
    validated and any violation is reported with the offending basis
    triple."""
    from .morita import require_valid_context
    require_valid_context(ctx)
    A, G, M, N = ctx.A, ctx.B, ctx.M, ctx.N
    F = A.field
    mn, proj, sec = bimodule_tensor(M, N, name="M(x)N")
    eye_m, eye_n = Mat.identity(F, M.dim), Mat.identity(F, N.dim)
    phi_w = sec @ ctx.phi.mat                         # W -> Gamma
    # m (x) (psi(n (x) m') . n') on M (x) N (x) M (x) N, into W
    ww = sec.kron(sec) @ eye_m.kron(ctx.psi.mat.kron(eye_n) @ left_table(N)) @ proj
    dims = [A.dim, N.dim, M.dim, G.dim, mn.dim]
    z = [F.zero()]
    unit = A.unit + z * (N.dim + M.dim) + G.unit + z * mn.dim
    # blocks 0 A, 1 N, 2 M, 3 Gamma, 4 W; (s, t): (u, table of s times t)
    ring = glued_algebra(F, dims, {
        (0, 0): (0, A.consts), (0, 1): (1, left_table(N)),
        (1, 2): (0, ctx.psi.mat), (1, 3): (1, right_table(N)),
        (1, 4): (1, eye_n.kron(phi_w) @ right_table(N)),
        (2, 0): (2, right_table(M)), (2, 1): (4, proj),
        (3, 3): (3, G.consts), (3, 2): (2, left_table(M)),
        (3, 4): (4, left_table(mn)),
        (4, 2): (2, phi_w.kron(eye_m) @ left_table(M)),
        (4, 3): (4, right_table(mn)), (4, 4): (4, ww),
    }, unit, name=name or "C")
    bad = validate_algebra(ring)
    if bad:
        v = bad[0]
        raise NcTensorError(
            f"the transcribed product is not associative at {v.indices}")
    offs = tuple(sum(dims[:b]) for b in range(5))
    return NcTensorRing(ctx, ring, offs, mn, proj, sec)


# -- identification with the one-sided-zero Morita ring --------------------------


@dataclass
class NcMoritaPresentation:
    nc: NcTensorRing
    ext_b: TrivialExtension      # B = Gamma |x (M (x) N)
    ctx2: MoritaContext          # (A, B, M', N', phi', 0)
    mr2: MoritaRing
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
    return NcMoritaPresentation(nc, ext_b, ctx2, mr2, swap_context(ctx2))


def iso_with_morita(pres: NcMoritaPresentation) -> Mat:
    """The explicit basis bijection C -> Lambda_(phi', 0): the identity on
    the flat basis (A, N, M, Gamma, M (x) N); verified multiplicative and
    unital in both directions."""
    nc, mr2 = pres.nc, pres.mr2
    if nc.ring.dim != mr2.ring.dim:
        raise NcTensorError("dimension mismatch between the two rings")
    if nc.ring.consts != mr2.ring.consts or nc.ring.unit != mr2.ring.unit:
        raise NcTensorError("structure constants do not coincide")
    return Mat.identity(nc.ring.field, nc.ring.dim)


def corollary_criterion(pres: NcMoritaPresentation, q: QuadrupleModule,
                        compat: dict[str, CompatVerdict] | None = None,
                        window: int = 6, period_bound: int = 12,
                        build: bool = False):
    """The mirrored criterion for modules over the noncommutative tensor
    product: swap corners and run the one-sided-zero engine over
    B = Gamma |x J.  Requires weak-compatibility verdicts for M, N and
    J = M (x) N; a missing or refuted verdict is an error."""
    compat = compat or default_compat_verdicts(pres, window)
    for key in ("M", "N", "J"):
        v = compat.get(key)
        if v is None:
            raise EngineError(f"missing compatibility verdict for {key}")
        if v.kind != "weakly_compatible":
            raise EngineError(f"bimodule {key} lacks weak compatibility: {v.kind}")
    if q.ctx is not pres.ctx2:
        raise NcTensorError("quadruple lives over the wrong context")
    q_sw = swap_quadruple(q, f"swap({q.name})")
    rep = check_conditions(pres.ext_b, pres.swapped_ctx, q_sw,
                           window, period_bound)
    asm = None
    if build and rep.passed:
        asm = build_total_resolution(pres.ext_b, pres.swapped_ctx,
                                     q_sw, rep, window=min(3, window))
    return rep, asm


def default_compat_verdicts(pres: NcMoritaPresentation,
                            bound: int = 6) -> dict[str, CompatVerdict]:
    ctx = pres.nc.ctx
    return {
        "M": check_compat(ctx.M, bound=bound),
        "N": check_compat(ctx.N, bound=bound),
        "J": check_compat(pres.nc.mn, bound=bound),
    }
