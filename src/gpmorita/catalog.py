"""Small standard algebras and module generators used by tests, fixtures
and the randomized sweeps.  Everything here is deterministic given a seed.
"""
from __future__ import annotations

import random

from .algebra import Algebra
from .fields import Field
from .linalg import Mat, linear_combination
from .modules import (
    FDModule, ModuleHom, free_module, hom_space, quotient_by_rows,
    spanned_submodule,
)


def _monomial_algebra(F: Field, n: int, products: dict, unit: list,
                      name: str) -> Algebra:
    """The algebra on b_0..b_{n-1} with b_i b_j = b_k for each
    (i, j): k in products, and b_i b_j = 0 otherwise."""
    rows = [[0] * n for _ in range(n * n)]
    for (i, j), k in products.items():
        rows[i * n + j][k] = 1
    return Algebra(F, n, Mat(F, rows, n), unit, name=name)


def field_algebra(F: Field, name: str = "k") -> Algebra:
    return _monomial_algebra(F, 1, {(0, 0): 0}, [F.one()], name)


def product_fields(F: Field, n: int, name: str = "") -> Algebra:
    """k x ... x k with componentwise product."""
    return _monomial_algebra(F, n, {(i, i): i for i in range(n)}, [F.one()] * n,
                             name or f"k^{n}")


def truncated_poly(F: Field, n: int, name: str = "") -> Algebra:
    """k[x]/(x^n) with basis 1, x, ..., x^{n-1}."""
    unit = [F.one()] + [F.zero()] * (n - 1)
    return _monomial_algebra(F, n, {(i, j): i + j for i in range(n)
                                    for j in range(n - i)},
                             unit, name or f"k[x]/x^{n}")


def path_a2(F: Field, name: str = "kA2") -> Algebra:
    """Upper triangular 2x2 matrices; basis e1 = E11, a = E12, e2 = E22."""
    E1, A, E2 = 0, 1, 2
    # e1 * a = a = a * e2
    products = {(E1, E1): E1, (E2, E2): E2, (E1, A): A, (A, E2): A}
    return _monomial_algebra(F, 3, products, [F.one(), F.zero(), F.one()], name)


def two_cycle_rad_square(F: Field, name: str = "2cyc") -> Algebra:
    """Path algebra of 1 <-> 2 modulo paths of length 2; basis e1, e2, a, b
    with a: 1 -> 2 and b: 2 -> 1 (so e1*a = a = a*e2, e2*b = b = b*e1)."""
    E1, E2, A, B = 0, 1, 2, 3
    products = {(E1, E1): E1, (E2, E2): E2, (E1, A): A, (A, E2): A,
                (E2, B): B, (B, E1): B}
    one, z = F.one(), F.zero()
    return _monomial_algebra(F, 4, products, [one, one, z, z], name)


def nakayama(F: Field, kupisch: list[int], name: str = "") -> Algebra:
    """The cyclic Nakayama algebra N(c_0, .., c_{n-1}): the cyclic quiver
    0 -> 1 -> .. -> n-1 -> 0 modulo the paths of length c_i from vertex i
    (admissible when c_{i+1} >= c_i - 1 >= 1).  Basis element (i, l), the
    path of length l from i, sits at sum(c_0..c_{i-1}) + l, and
    (i, l)(i + l, m) = (i, l + m) while l + m < c_i."""
    n = len(kupisch)
    start = [sum(kupisch[:i]) for i in range(n)]
    products = {(start[i] + l, start[(i + l) % n] + m): start[i] + l + m
                for i, c in enumerate(kupisch) for l in range(c)
                for m in range(c - l)}
    unit = [F.one() if k in start else F.zero() for k in range(sum(kupisch))]
    return _monomial_algebra(F, sum(kupisch), products, unit,
                             name or f"N({','.join(map(str, kupisch))})")


# -- hand-built modules -----------------------------------------------------


def simple_kx2(a: Algebra, name: str = "S") -> FDModule:
    """The simple module over k[x]/(x^n): x acts as zero."""
    F = a.field
    acts = [Mat.identity(F, 1)] + [Mat.zeros(F, 1, 1) for _ in range(a.dim - 1)]
    return FDModule(a, 1, acts, name=name)


def simple_at_idempotent(a: Algebra, idx: int, name: str = "") -> FDModule:
    """One-dimensional module where basis element idx acts as 1 and the
    other basis elements act as 0.  Caller guarantees this is a module
    (true for the catalog algebras whose idx-th element is a primitive
    orthogonal idempotent summing into the unit)."""
    F = a.field
    acts = [Mat.identity(F, 1) if t == idx else Mat.zeros(F, 1, 1)
            for t in range(a.dim)]
    return FDModule(a, 1, acts, name=name or f"S{idx}")


def proj_a2(a: Algebra) -> FDModule:
    """The 2-dimensional indecomposable projective A*e2 over path_a2,
    on the basis (a, e2)."""
    F = a.field
    z, one = F.zero(), F.one()
    acts = [
        Mat.from_rows(F, [[one, z], [z, z]]),   # e1 fixes a, kills e2
        Mat.from_rows(F, [[z, z], [one, z]]),   # arrow: a.a = 0, a.e2 = a
        Mat.from_rows(F, [[z, z], [z, one]]),   # e2
    ]
    return FDModule(a, 2, acts, name="P2")


# -- randomized module generation ------------------------------------------


def random_module(a: Algebra, rng: random.Random, max_free: int = 2,
                  max_cuts: int = 2, name: str = "") -> FDModule:
    """A random quotient of a small free module; valid by construction."""
    g = rng.randint(1, max_free)
    free = free_module(a, g)
    cuts = rng.randint(0, max_cuts)
    if cuts == 0 or free.dim == 0:
        free.name = name or free.name
        return free
    F = a.field
    vecs = []
    for _ in range(cuts):
        vecs.append([F.of_int(rng.randint(-2, 2)) if F.is_rational
                     else F.of_int(rng.randrange(F.p)) for _ in range(free.dim)])
    _, incl = spanned_submodule(free, Mat.from_rows(F, vecs, free.dim))
    quo, _ = quotient_by_rows(free, incl.mat)
    quo.name = name or "rand"
    return quo


def random_hom(x: FDModule, y: FDModule, rng: random.Random) -> ModuleHom:
    """A random element of Hom(x, y) with small integer coefficients."""
    basis = hom_space(x, y)
    F = x.algebra.field
    coeffs = [F.of_int(rng.randint(-2, 2) if F.is_rational else rng.randrange(F.p))
              for _ in basis]
    return ModuleHom(x, y, linear_combination(F, x.dim, y.dim, coeffs,
                                              [h.mat for h in basis]))


def random_submodule(x: FDModule, rng: random.Random):
    F = x.algebra.field
    if x.dim == 0:
        return spanned_submodule(x, Mat.zeros(F, 0, 0))
    k = rng.randint(0, x.dim)
    vecs = [[F.of_int(rng.randint(-2, 2)) if F.is_rational
             else F.of_int(rng.randrange(F.p)) for _ in range(x.dim)]
            for _ in range(k)]
    return spanned_submodule(x, Mat.from_rows(F, vecs, x.dim) if vecs
                             else Mat.zeros(F, 0, x.dim))


# -- standard Morita contexts -------------------------------------------------


def zero_context(A, B, name=""):
    """(A, B, 0, 0, 0, 0): the triangular-with-no-glue context."""
    from .bimodules import zero_balanced_map, zero_bimodule
    from .morita import MoritaContext
    M = zero_bimodule(B, A)
    N = zero_bimodule(A, B)
    return MoritaContext(A, B, M, N, zero_balanced_map(M, N, B),
                         zero_balanced_map(N, M, A), name=name)


def triangular_over(R: Algebra, name="T2"):
    """(R, R, 0, R, 0, 0): M = 0, N = R regular, both maps zero; the ring
    is the triangular matrix ring of R, of dimension 3 dim R."""
    from .bimodules import regular_bimodule, zero_balanced_map, zero_bimodule
    from .morita import MoritaContext
    M, N = zero_bimodule(R, R), regular_bimodule(R)
    return MoritaContext(R, R, M, N, zero_balanced_map(M, N, R),
                         zero_balanced_map(N, M, R), name=name)


def triangular_context(F: Field, name="tri"):
    """A = B = k, M = 0, N = k with zero maps, together with the trivial
    extension A = k |x 0; the ring is the upper triangular 2x2 algebra."""
    from .bimodules import (Bimodule, zero_balanced_map, zero_bimodule)
    from .morita import MoritaContext
    from .trivext import trivial_extension
    lam = field_algebra(F, "k")
    ideal = zero_bimodule(lam, lam)
    ext = trivial_extension(lam, ideal, name="k")
    A = ext.A
    B = field_algebra(F, "B")
    eye = Mat.identity(F, 1)
    M = zero_bimodule(B, A)
    N = Bimodule(A, B, 1, [eye], [eye], name="N")
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B),
                        zero_balanced_map(N, M, A), name=name)
    return ext, ctx


def two_cycle_context(F: Field, name="2cyc"):
    """A = B = k, M = N = k, both maps zero; the ring is the radical-square
    -zero two-cycle algebra."""
    from .bimodules import Bimodule, zero_balanced_map
    from .morita import MoritaContext
    from .trivext import trivial_extension
    lam = field_algebra(F, "k")
    from .bimodules import zero_bimodule
    ext = trivial_extension(lam, zero_bimodule(lam, lam), name="k")
    A = ext.A
    B = field_algebra(F, "B")
    eye = Mat.identity(F, 1)
    M = Bimodule(B, A, 1, [eye], [eye], name="M")
    N = Bimodule(A, B, 1, [eye], [eye], name="N")
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B),
                        zero_balanced_map(N, M, A), name=name)
    return ext, ctx


def glued_psi_context(F: Field, name="5dim"):
    """Lambda = k, I = k, B = k, M = N = k, psi(n (x) m) = nm . x: the
    five-dimensional one-sided-zero context over A = k[x]/(x^2)."""
    from .bimodules import BalancedMap, Bimodule, zero_balanced_map
    from .morita import MoritaContext
    from .trivext import trivial_extension
    lam = field_algebra(F, "k")
    eye = Mat.identity(F, 1)
    ideal = Bimodule(lam, lam, 1, [eye], [eye], name="I")
    ext = trivial_extension(lam, ideal, name="A")
    A = ext.A                       # k[x]/(x^2) on the basis (1, x)
    B = field_algebra(F, "B")
    zero = Mat.zeros(F, 1, 1)
    M = Bimodule(B, A, 1, [eye], [eye, zero], name="M")
    N = Bimodule(A, B, 1, [eye, zero], [eye], name="N")
    psi = BalancedMap(N, M, A, Mat.from_rows(F, [[0, 1]], 2))
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B), psi, name=name)
    return ext, ctx


def full_context(R, scale=None, name="full"):
    """(R, R, R, R, phi = c.mult, psi = c.mult) for a commutative algebra R."""
    from .bimodules import BalancedMap
    from .morita import MoritaContext
    F = R.field
    c = scale if scale is not None else F.one()
    reg = regular_bimodule_of(R)
    mult = R.consts.scale(c)
    phi = BalancedMap(reg, reg, R, mult)
    psi = BalancedMap(reg, reg, R, mult)
    from .morita import MoritaContext
    return MoritaContext(R, R, reg, reg, phi, psi, name=name)


def regular_bimodule_of(R):
    from .bimodules import regular_bimodule
    return regular_bimodule(R)


def arrow_ideal_context(F: Field, name="a2glue"):
    """Lambda = k x k with the arrow bimodule as ideal, so A = Lambda |x I
    is the upper triangular 2x2 algebra; B = k, M = N = k, psi hits the
    arrow.  A one-sided-zero context whose corner Lambda is not a field."""
    from .bimodules import BalancedMap, Bimodule, zero_balanced_map
    from .morita import MoritaContext
    from .trivext import trivial_extension
    lam = product_fields(F, 2, name="kxk")
    eye = Mat.identity(F, 1)
    zero = Mat.zeros(F, 1, 1)
    # left action through the first idempotent, right through the second
    ideal = Bimodule(lam, lam, 1, [eye, zero], [zero, eye], name="arrow")
    ext = trivial_extension(lam, ideal, name="A")
    A = ext.A                     # basis (e1, e2, arrow)
    B = field_algebra(F, "B")
    # N: left A-action through e1 (pi kills the arrow), right B trivial
    N = Bimodule(A, B, 1, [eye, zero, zero], [eye], name="N")
    # M: left B trivial, right A-action through e2
    M = Bimodule(B, A, 1, [eye], [zero, eye, zero], name="M")
    psi = BalancedMap(N, M, A, Mat.from_rows(F, [[0, 0, 1]], 3))
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B), psi, name=name)
    return ext, ctx


def wide_psi_context(F: Field, name="wide"):
    """Lambda = k and I = k, so A = Lambda |x I = k[x]/(x^2); B = k and
    M = N = k^2 with x acting as 0, phi = 0, and psi(n_i (x) m_j) = c_ij x
    for c = [[1, 2], [0, 3]].  Its bimodules have dimension 2 and psi is not
    symmetric in its two factors, so a swap of the factors of N (x) M
    changes psi."""
    from .bimodules import BalancedMap, Bimodule, zero_balanced_map
    from .morita import MoritaContext
    from .trivext import trivial_extension
    lam = field_algebra(F)
    one = Mat.identity(F, 1)
    ext = trivial_extension(lam, Bimodule(lam, lam, 1, [one], [one], name="I"),
                            name="A")
    A, B = ext.A, field_algebra(F, "B")
    eye, zero = Mat.identity(F, 2), Mat.zeros(F, 2, 2)
    N = Bimodule(A, B, 2, [eye, zero], [eye], name="N")
    M = Bimodule(B, A, 2, [eye], [eye, zero], name="M")
    psi = BalancedMap(N, M, A, Mat.from_rows(F, [[0, 1], [0, 2], [0, 0], [0, 3]], 2))
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B), psi, name=name)
    return ext, ctx


def upper_triangular3_context(F: Field, n: int, name: str = ""):
    """The Peirce context of R = T_3(k[x]/(x^n)), the upper triangular
    3 x 3 matrices over k[x]/(x^n), at e = E11 + E33, with f = E22:
    A = eRe on the E11, E33 and E13 entries, B = fRf = k[x]/(x^n),
    M = fRe the E23 entries, N = eRf the E12 entries, psi(n (x) m) = nm in
    the E13 entries and phi = 0, since E23 E12 = 0.  A is written as the
    trivial extension Lambda |x I of Lambda = E11 R x E33 R by the ideal
    I = im(psi) = E13 R.  Every block has the basis x^0, .., x^{n-1}, so
    the context ring is R on the basis E11, E33, E13, E12, E23, E22 (each
    times the powers of x); unlike the catalog contexts above, psi != 0,
    M != 0 and B is not semisimple, so the horseshoes of an assembly need
    not split."""
    from .bimodules import BalancedMap, Bimodule, zero_balanced_map
    from .morita import MoritaContext
    from .trivext import trivial_extension
    B = truncated_poly(F, n, name="B")
    # shift[a]: x^c |-> x^{a + c}, the action of x^a on n powers of x
    shift = B.lmul_mats()
    zero = Mat.zeros(F, n, n)
    lam = _monomial_algebra(
        F, 2 * n, {(c * n + a, c * n + b): c * n + a + b for c in (0, 1)
                   for a in range(n) for b in range(n - a)},
        B.unit + B.unit, "E11R x E33R")
    # E13 R: E11 x^a acts on the left, E33 x^a on the right
    ideal = Bimodule(lam, lam, n, shift + [zero] * n, [zero] * n + shift,
                     name="E13R")
    ext = trivial_extension(lam, ideal, name="eRe")
    A = ext.A            # E11 x^a, then E33 x^a, then E13 x^a
    M = Bimodule(B, A, n, shift, [zero] * n + shift + [zero] * n, name="E23R")
    N = Bimodule(A, B, n, shift + [zero] * 2 * n, shift, name="E12R")
    # psi(E12 x^i (x) E23 x^j) = E13 x^{i + j}
    psi = BalancedMap(N, M, A, Mat.hstack([Mat.zeros(F, n * n, 2 * n),
                                           B.consts]))
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B), psi,
                        name=name or f"T3(k[x]/x^{n})")
    return ext, ctx


# -- randomized context generation (for the acceptance sweeps) -----------------


def _corner_pool(F: Field):
    """Small algebras with hand-listed one-dimensional characters, so the
    generator never needs radical machinery (which is unavailable over
    tiny prime fields)."""
    k = field_algebra(F, "k")
    kk = product_fields(F, 2)
    kx2 = truncated_poly(F, 2)
    chars = {
        id(k): [[F.one()]],
        id(kk): [[F.one(), F.zero()], [F.zero(), F.one()]],
        id(kx2): [[F.one(), F.zero()]],
    }
    return [k, kk, kx2], chars


def _char_module(alg, char, as_right=False):
    """The 1-dimensional module (or right module over the opposite) on
    which basis element t acts by char[t]."""
    from .algebra import opposite_algebra
    F = alg.field
    target = opposite_algebra(alg) if as_right else alg
    acts = [Mat.from_rows(F, [[char[t]]], 1) for t in range(alg.dim)]
    return FDModule(target, 1, acts, name="chi")


def random_zero_context(F: Field, rng: random.Random):
    """(A, B, M, N, 0, 0) with outer-tensor bimodules over small corners."""
    from .bimodules import outer_bimodule, zero_balanced_map, zero_bimodule
    from .morita import MoritaContext
    pool, chars = _corner_pool(F)
    A = rng.choice(pool)
    B = rng.choice(pool)

    def one_bimodule(left, right):
        if rng.random() < 0.2:
            return zero_bimodule(left, right)
        lc = rng.choice(chars[id(left)])
        rc = rng.choice(chars[id(right)])
        v = _char_module(left, lc)
        w = _char_module(right, rc, as_right=True)
        return outer_bimodule(v, w)

    M = one_bimodule(B, A)
    N = one_bimodule(A, B)
    return MoritaContext(A, B, M, N, zero_balanced_map(M, N, B),
                         zero_balanced_map(N, M, A), name="rand0")


def random_glued_context(F: Field, rng: random.Random):
    """A one-sided-zero context over a random trivial extension, with psi a
    random element of the space of admissible balanced maps."""
    from .bimodules import (
        BalancedMap, Bimodule, outer_bimodule, restrict_right, restrict_left,
        zero_balanced_map,
    )
    from .linalg import intertwining_system, kernel_basis
    from .morita import MoritaContext
    from .trivext import trivial_extension
    pool, chars = _corner_pool(F)
    lam = rng.choice(pool[:2])          # keep dim Lambda + dim I <= 3
    lc1 = rng.choice(chars[id(lam)])
    lc2 = rng.choice(chars[id(lam)])
    ideal = outer_bimodule(_char_module(lam, lc1),
                           _char_module(lam, lc2, as_right=True), name="I")
    ext = trivial_extension(lam, ideal)
    A = ext.A
    B = rng.choice(pool)
    bc = rng.choice(chars[id(B)])
    m0 = outer_bimodule(_char_module(B, bc),
                        _char_module(lam, rng.choice(chars[id(lam)]),
                                     as_right=True), name="M0")
    n0 = outer_bimodule(_char_module(lam, rng.choice(chars[id(lam)])),
                        _char_module(B, rng.choice(chars[id(B)]),
                                     as_right=True), name="N0")
    M = restrict_right(m0, ext.proj_rows, A, name="M")
    N = restrict_left(n0, ext.proj_rows, A, name="N")
    # admissible psi: B-balanced, A-A-bilinear, image inside the ideal
    dN, dM, dA = N.dim, M.dim, A.dim
    eye_n, eye_m = Mat.identity(F, dN), Mat.identity(F, dM)
    basis = kernel_basis(Mat.vstack([
        intertwining_system(F, dN, dM, N.right_acts, M.left_acts).kron(
            Mat.identity(F, dA)),
        intertwining_system(F, dN * dM, dA, [a.kron(eye_m) for a in N.left_acts],
                            [a.transpose() for a in A.lmul_mats()]),
        intertwining_system(F, dN * dM, dA, [eye_n.kron(a) for a in M.right_acts],
                            [a.transpose() for a in A.rmul_mats()]),
        Mat.identity(F, dN * dM).kron(ext.proj_rows.transpose())])).transpose()
    coeffs = [F.of_int(rng.randint(-1, 1) if F.is_rational else rng.randrange(F.p))
              for _ in range(basis.rows)]
    psi = BalancedMap(N, M, A, linear_combination(
        F, dN * dM, dA, coeffs,
        [basis.block(c, c + 1, 0, dN * dM * dA).reshape(dN * dM, dA)
         for c in range(basis.rows)]))
    ctx = MoritaContext(A, B, M, N, zero_balanced_map(M, N, B), psi,
                        name="randpsi")
    return ext, ctx


def random_context(F: Field, rng: random.Random):
    """A random valid Morita context of one of four kinds."""
    kind = rng.choice(["zero", "glued", "swapped", "full"])
    if kind == "zero":
        return kind, random_zero_context(F, rng)
    if kind == "glued":
        return kind, random_glued_context(F, rng)[1]
    if kind == "swapped":
        from .morita import swap_context
        return kind, swap_context(random_glued_context(F, rng)[1])
    R = rng.choice([truncated_poly(F, 2), product_fields(F, 2),
                    field_algebra(F)])
    c = F.of_int(rng.randrange(1, 5)) if F.is_rational else \
        F.of_int(rng.randrange(1, F.p))
    return kind, full_context(R, scale=c)


def corrupt_psi(ctx, rng: random.Random):
    """Perturb psi until validation fails; returns the corrupted context."""
    from .bimodules import BalancedMap
    from .morita import MoritaContext, validate_context
    F = ctx.A.field
    for _ in range(200):
        psi = ctx.psi.mat
        i = rng.randrange(max(1, psi.rows))
        j = rng.randrange(max(1, psi.cols))
        if psi.rows == 0 or psi.cols == 0:
            return None
        bump = F.of_int(rng.randint(1, 3)) if F.is_rational else \
            F.of_int(rng.randrange(1, F.p))
        rows = psi.to_rows()
        rows[i][j] = F.add(rows[i][j], bump)
        bad_psi = BalancedMap(ctx.N, ctx.M, ctx.A, Mat(F, rows, psi.cols))
        broken = MoritaContext(ctx.A, ctx.B, ctx.M, ctx.N, ctx.phi, bad_psi)
        if validate_context(broken):
            return broken
    return None


def random_quadruple(ctx, rng: random.Random, allow_sum: bool = True):
    """A random valid quadruple: a functor image on a random corner module,
    or a direct sum of two of them."""
    from .morita import (
        direct_sum_quadruples, h_a, h_b, quotient_by_ideal, t_a, t_b, z_a, z_b,
    )

    def one():
        kind = rng.choice(["t_a", "t_b", "h_a", "h_b", "z_a", "z_b"])
        if kind in ("t_a", "h_a", "z_a"):
            u = random_module(ctx.A, rng, max_free=1, max_cuts=1)
            if kind == "z_a":
                u, _ = quotient_by_ideal(u, ctx.ideal_rows_a(), "I")
                return z_a(ctx, u, name="rand_za")
            return (t_a if kind == "t_a" else h_a)(ctx, u, name=f"rand_{kind}")
        v = random_module(ctx.B, rng, max_free=1, max_cuts=1)
        if kind == "z_b":
            v, _ = quotient_by_ideal(v, ctx.ideal_rows_b(), "J")
            return z_b(ctx, v, name="rand_zb")
        return (t_b if kind == "t_b" else h_b)(ctx, v, name=f"rand_{kind}")

    q = one()
    if allow_sum and rng.random() < 0.4:
        q = direct_sum_quadruples([q, one()], name="rand_sum")
    return q
