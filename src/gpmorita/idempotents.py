"""Primitive orthogonal idempotents of a split finite-dimensional algebra.

Route: radical quotient -> central idempotents of the semisimple quotient
(splitting minimal polynomials of central elements) -> one minimal left
ideal per block and a decomposition of the block's regular module ->
projections give primitive idempotents -> lift through the radical by
the Newton step x -> 3x^2 - 2x^3, which stops at its fixed point, the
first x with x^2 = x, within dim.bit_length() + 1 steps: the defect
x^2 - x starts in rad and after t steps lies in rad^(2^t), while
rad^dim = 0.
Every product is a matrix product (a row times R_x, or (E (x) E) @ consts);
the polynomials serve only to find roots.

Splitness is required: any minimal polynomial with an irreducible factor
of degree > 1 over the ground field, or a simple module with endomorphism
ring bigger than k, raises SplitError.

Nothing here takes a seed.  The zero-divisor search ends with random
draws, and root finding over F_p with p > 4096 splits with random shifts;
both draw from one fixed stream, a fresh Random(0) per call, so the
idempotents of an algebra depend on the algebra alone.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .algebra import (
    Algebra, AlgebraError, corner_algebra, quotient_algebra, radical_basis,
)
from .fields import Field
from .linalg import (
    Mat, coordinates, left_kernel, linear_combination, rank, row_space, solve_left,
)
from .modules import (
    FDModule, hom_space, regular_module, submodule_from_rows,
)


class SplitError(AlgebraError):
    """The algebra is not split over the ground field (or could not be
    certified split within the search budget)."""


# -- polynomial helpers (coefficient lists, lowest degree first) -----------


def _poly_trim(F: Field, a: list) -> list:
    while a and F.is_zero(a[-1]):
        a = a[:-1]
    return a


def _poly_mul(F: Field, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _poly_trim(F, out)


def _poly_divmod(F: Field, a: list, b: list) -> tuple[list, list]:
    b = _poly_trim(F, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = a[:]
    q = [F.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b) and _poly_trim(F, a):
        a = _poly_trim(F, a)
        if len(a) < len(b):
            break
        c = F.mul(a[-1], inv_lead)
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] = F.sub(a[d + i], F.mul(c, y))
        a = _poly_trim(F, a)
    return _poly_trim(F, q), _poly_trim(F, a)


def _poly_gcd(F: Field, a: list, b: list) -> list:
    a, b = _poly_trim(F, a), _poly_trim(F, b)
    while b:
        _, r = _poly_divmod(F, a, b)
        a, b = b, r
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(inv, x) for x in a]
    return a


def _poly_powmod_xq(F: Field, modulus: list, q: int) -> list:
    """x^q mod modulus by binary powering."""
    result = [F.zero(), F.one()]
    _, result = _poly_divmod(F, result, modulus)
    # compute via repeated squaring of x
    base = result
    result = [F.one()]
    e = q
    while e:
        if e & 1:
            result = _poly_divmod(F, _poly_mul(F, result, base), modulus)[1]
        base = _poly_divmod(F, _poly_mul(F, base, base), modulus)[1]
        e >>= 1
    return result


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def linear_roots(F: Field, poly: list) -> tuple[list, bool]:
    """Distinct roots of `poly` in F, ascending, and whether their number is
    its degree: for a squarefree poly (the minimal polynomial of an element
    of a semisimple algebra), whether it splits into linear factors over F."""
    poly = _poly_trim(F, poly)
    n = len(poly) - 1
    if n <= 0:
        return [], True
    if F.is_rational:
        # poly = x^k g with g(0) != 0: 0 if k > 0, then the rational root
        # theorem on g with its denominators cleared
        k = next(i for i, c in enumerate(poly) if c)
        g = poly[k:]
        den = math.lcm(*(c.denominator for c in g))
        zc = [int(c * den) for c in g]
        cands = {Fraction(sign * a, b) for a in _int_divisors(zc[0])
                 for b in _int_divisors(zc[-1]) for sign in (1, -1)}
        roots = [F.zero()] if k else []
        roots += [c for c in sorted(cands) if _poly_eval(F, g, c) == 0]
        return sorted(roots), len(roots) == n
    p = F.p
    if p <= 4096:
        roots = [F.of_int(c) for c in range(p)
                 if F.is_zero(_poly_eval(F, poly, F.of_int(c)))]
        return roots, len(roots) == n
    # the product of the distinct linear factors: gcd(x^p - x, poly)
    xp = _poly_powmod_xq(F, poly, p)
    width = max(len(xp), 2)
    a_ = xp + [F.zero()] * (width - len(xp))
    b_ = [F.zero(), F.one()] + [F.zero()] * (width - 2)
    xpx = _poly_trim(F, [F.sub(u, v) for u, v in zip(a_, b_)])
    lin = _poly_gcd(F, xpx, poly) if xpx else poly
    roots = sorted(_cz_roots(F, lin))
    return roots, len(roots) == n


def _poly_eval(F: Field, a: list, x):
    acc = F.zero()
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _cz_roots(F: Field, lin: list) -> list:
    """Roots of a product of distinct linear factors over a large F_p
    (equal-degree splitting, drawing from the fixed stream Random(0))."""
    rng = random.Random(0)
    out = []

    def split(f):
        deg = len(f) - 1
        if deg == 0:
            return
        if deg == 1:
            out.append(F.mul(F.neg(f[0]), F.inv(f[1])))
            return
        while True:
            a = F.of_int(rng.randrange(F.p))
            # g = gcd((x + a)^((p-1)/2) - 1, f)
            base = [a, F.one()]
            e = (F.p - 1) // 2
            acc = [F.one()]
            b = _poly_divmod(F, base, f)[1]
            ee = e
            while ee:
                if ee & 1:
                    acc = _poly_divmod(F, _poly_mul(F, acc, b), f)[1]
                b = _poly_divmod(F, _poly_mul(F, b, b), f)[1]
                ee >>= 1
            acc = _poly_trim(F, [F.sub(c, F.one() if i == 0 else F.zero())
                                 for i, c in enumerate(acc + [F.zero()])])
            g = _poly_gcd(F, acc, f)
            if 0 < len(g) - 1 < deg:
                split(g)
                q, _ = _poly_divmod(F, f, g)
                split(q)
                return

    split(lin)
    return out


# -- minimal polynomials inside an algebra ---------------------------------


def _krylov(a: Algebra, el: list, unit: list | None = None) -> tuple[Mat, list]:
    """K, the rows unit*el^k for k = 0, 1, ... up to the first row that
    depends on the rows above it, and the minimal polynomial of `el` in the
    (corner) algebra with that unit.  Row k + 1 is row k times R_el."""
    F = a.field
    r = a.rmul_of(el)
    k = nxt = Mat.from_rows(F, [unit if unit is not None else a.unit], a.dim)
    while True:
        nxt = nxt @ r
        coeffs = solve_left(k, nxt)
        if coeffs is not None:
            return k, _poly_trim(F, [F.neg(x) for x in coeffs.row(0)] + [F.one()])
        k = Mat.vstack([k, nxt])


def _check_idempotents(a: Algebra, es: list[list], what: str) -> None:
    """Raise unless `es` are orthogonal idempotents that sum to 1: row
    i*k + j of (E (x) E) @ consts is delta_ij e_i, and 1 @ E is the unit."""
    F, k = a.field, len(es)
    E = Mat.from_rows(F, es, a.dim)
    prods = (E.kron(E) @ a.consts).to_rows()
    if any(prods[i * k + i] != e for i, e in enumerate(es)):
        raise AlgebraError(f"{what}: not idempotent")
    if any(not F.is_zero(c) for i in range(k) for j in range(k) if i != j
           for c in prods[i * k + j]):
        raise AlgebraError(f"{what}: not orthogonal")
    if (Mat.from_rows(F, [[F.one()] * k], k) @ E).row(0) != list(a.unit):
        raise AlgebraError(f"{what}: do not sum to 1")


# -- semisimple split structure ---------------------------------------------


def center_rows(a: Algebra) -> Mat:
    diffs = [a.rmul_mats()[t].sub(a.lmul_mats()[t]) for t in range(a.dim)]
    return left_kernel(Mat.hstack(diffs)) if diffs else Mat.identity(a.field, a.dim)


def central_primitive_idempotents(ss: Algebra) -> list[list]:
    """Central primitive idempotents of a split semisimple algebra."""
    F = ss.field
    Z = center_rows(ss)
    idems = [ss.unit]
    for zi in range(Z.rows):
        rz = ss.rmul_of(Z.row(zi))
        new = []
        for e in idems:
            w = (Mat.from_rows(F, [e], ss.dim) @ rz).row(0)
            K, mp = _krylov(ss, w, unit=e)
            roots, fully = linear_roots(F, mp)
            if not fully:
                raise SplitError("central element with a non-linear irreducible factor")
            if len(roots) <= 1:
                new.append(e)
                continue
            # the Lagrange idempotent of each eigenvalue lam of w on the
            # corner: the coefficients of prod (x - mu) / (lam - mu) times K
            lagrange = []
            for lam in roots:
                num, den = [F.one()], F.one()
                for mu in roots:
                    if mu != lam:
                        num = _poly_mul(F, num, [F.neg(mu), F.one()])
                        den = F.mul(den, F.sub(lam, mu))
                coeffs = [F.div(c, den) for c in num]
                lagrange.append(coeffs + [F.zero()] * (K.rows - len(coeffs)))
            new += (Mat.from_rows(F, lagrange, K.rows) @ K).to_rows()
        idems = new
    _check_idempotents(ss, idems, "central idempotents")
    return idems


_RANDOM_PROBES = 300     # random elements tried after the structured ones


def _singular_candidates(b: Algebra):
    """Elements to probe for zero divisors; the random ones come from Random(0)."""
    F = b.field
    for i in range(b.dim):
        yield b.basis_el(i)
    products = b.consts.to_rows()
    for i in range(b.dim):
        for j in range(b.dim):
            yield products[i * b.dim + j]
            if i < j:
                e = [F.add(x, y) for x, y in zip(b.basis_el(i), b.basis_el(j))]
                yield e
                e = [F.sub(x, y) for x, y in zip(b.basis_el(i), b.basis_el(j))]
                yield e
    for i in range(b.dim):
        el = b.basis_el(i)
        roots, _ = linear_roots(F, _krylov(b, el)[1])
        for lam in roots:
            yield [F.sub(x, F.mul(lam, u)) for x, u in zip(el, b.unit)]
    rng = random.Random(0)
    for _ in range(_RANDOM_PROBES):
        if F.is_rational:
            yield [F.of_int(rng.randint(-2, 2)) for _ in range(b.dim)]
        else:
            yield [F.of_int(rng.randrange(F.p)) for _ in range(b.dim)]


def _minimal_left_ideal(b: Algebra) -> FDModule:
    """A simple submodule of the regular module of a split simple algebra."""
    reg = regular_module(b)
    if b.dim == 1:
        return reg
    F = b.field
    current: FDModule | None = None
    current_incl = None
    for u in _singular_candidates(b):
        img = row_space(b.rmul_of(u))   # B*u = image of right multiplication
        if 0 < img.rows < b.dim:
            if current is None or img.rows < current.dim:
                current, current_incl = submodule_from_rows(reg, img)
        if current is not None and current.dim <= math.isqrt(b.dim):
            break
    if current is None:
        raise SplitError("no zero divisor found; possibly a division algebra")
    # descend to a simple submodule, certified by a 1-dimensional endo ring
    while True:
        endos = hom_space(current, current)
        if len(endos) == 1:
            return current
        descended = False
        for h in endos:
            if not h.mat.is_zero() and rank(h.mat) < current.dim:
                rows = row_space(h.mat @ current_incl.mat)
                current, current_incl = submodule_from_rows(reg, rows)
                descended = True
                break
        if descended:
            continue
        # no singular endo in the canonical basis: split the (strictly
        # smaller) endomorphism algebra recursively and use a projection
        proj = _idempotent_endo(b, endos)
        if proj is None:
            raise SplitError("simple module with endomorphism ring bigger than k")
        rows = row_space(proj @ current_incl.mat)
        current, current_incl = submodule_from_rows(reg, rows)


def _idempotent_endo(b: Algebra, endos) -> Mat | None:
    """A proper idempotent in an endomorphism algebra, as a matrix.

    The endo algebra (product = composition, source first) is strictly
    smaller than the block it came from, so the recursion terminates.
    """
    F = b.field
    k = len(endos)
    basis = Mat.vstack([h.mat.flatten() for h in endos])
    # the k*k composites in one batch, row i*k + j for endos[i] then endos[j]
    c = coordinates(basis, Mat.vstack([(f.mat @ g.mat).flatten()
                                       for f in endos for g in endos]))
    if c is None:
        raise AlgebraError("endomorphisms not closed under composition")
    ident = Mat.identity(F, endos[0].mat.rows)
    unit = coordinates(basis, ident.flatten())
    if unit is None:
        raise AlgebraError("identity endo missing from the endo space")
    E = Algebra(F, k, c, unit.row(0), name="End")
    prims = primitive_idempotents_semisimple(E)
    coeffs, _ = prims[0]
    out = linear_combination(F, ident.rows, ident.cols, coeffs,
                             [h.mat for h in endos])
    if rank(out) == ident.rows:
        return None
    return out


def primitive_idempotents_semisimple(ss: Algebra) -> list[tuple[list, int]]:
    """Primitive orthogonal idempotents of a split semisimple algebra,
    tagged with the index of their central block; they sum to 1."""
    F = ss.field
    out = []
    centrals = central_primitive_idempotents(ss)
    for block_index, eps in enumerate(centrals):
        if rank(ss.rmul_of(eps)) == 1:
            # a one-dimensional block is a copy of k: eps is primitive
            out.append((list(eps), block_index))
            continue
        block, incl = corner_algebra(ss, eps, name=f"block{block_index}")
        simple = _minimal_left_ideal(block)
        reg = regular_module(block)
        # decompose the regular module into copies of the simple
        chosen: list[Mat] = []
        span = Mat.zeros(F, 0, block.dim)
        for h in hom_space(simple, reg):
            img = h.mat
            cand = Mat.vstack([span, img]) if span.rows else img
            if rank(cand) == span.rows + simple.dim:
                chosen.append(img)
                span = row_space(cand)
                if span.rows == block.dim:
                    break
        if span.rows != block.dim:
            raise SplitError("regular module did not decompose into one simple")
        C = Mat.vstack(chosen)
        # the unit's component in copy t of the simple
        u = Mat.from_rows(F, [block.unit], block.dim) @ solve_left(
            C, Mat.identity(F, block.dim))
        off = 0
        for img in chosen:
            e = u.block(0, 1, off, off + img.rows) @ img @ incl
            out.append((e.row(0), block_index))
            off += img.rows
    _check_idempotents(ss, [e for e, _ in out], "primitive idempotents")
    return out


def primitive_idempotents(a: Algebra) -> list[tuple[list, int]]:
    """Complete list of primitive orthogonal idempotents of a split algebra,
    each tagged with its block (= isomorphism class of the projective Ae)."""
    F = a.field
    rad = radical_basis(a)
    if rad.rows == 0:
        return primitive_idempotents_semisimple(a)
    ss, proj = quotient_algebra(a, rad, name=f"{a.name}/rad")
    section = solve_left(proj, Mat.identity(F, ss.dim))
    assert section is not None
    bars = primitive_idempotents_semisimple(ss)
    lifted: list[tuple[list, int]] = []
    comp = Mat.from_rows(F, [a.unit], a.dim)    # 1 - the idempotents so far
    for k, (ebar, blk) in enumerate(bars):
        e = comp
        if k < len(bars) - 1:
            # comp x comp, then the Newton step x -> 3x^2 - 2x^3
            x = Mat.from_rows(F, [ebar], ss.dim) @ section
            e = comp @ a.rmul_of(x.row(0)) @ a.rmul_of(comp.row(0))
            # an idempotent is the step's fixed point; the module docstring
            # proves the bound
            for _ in range(a.dim.bit_length() + 1):
                r = a.rmul_of(e.row(0))
                e2 = e @ r
                if e2 == e:
                    break
                e = e2.scale(3).sub((e2 @ r).scale(2))
        lifted.append((e.row(0), blk))
        comp = comp.sub(e)
    _check_idempotents(a, [e for e, _ in lifted], "lifted idempotents")
    return lifted

