"""The whole-matrix idempotent search against the per-element code it
replaced.

`idempotents` makes every product a matrix operation: the powers of an
element are the rows of one Krylov matrix (row k + 1 is row k times R_el),
each Lagrange idempotent is a coefficient row times that matrix, the
lifting step x -> 3x^2 - 2x^3 and comp.x.comp are row-times-R_x products,
and one helper checks that the result is a list of orthogonal idempotents
that sum to 1.  The parent's functions, which multiplied single elements
with `Algebra.multiply` (now the tests' `element_products.multiply`), are
kept below verbatim apart from their names and that call.

Every golden depends on which idempotents are chosen and in what order,
so the two must agree exactly (element by element, in the same order,
with the same block tags) or raise the same error, over Q, GF(5), GF(7),
GF(11) and GF(4099), whose roots come from equal-degree splitting.  The
algebras are the catalog algebras, k[x]/(x^n) for n = 2 to 4, the rings,
corners and trivial extensions of the catalog contexts, T2(k[x]/(x^2)),
the ring of full_context(k[x]/(x^2), scale=0) and of seeded random
contexts, and each of these on a seeded random basis; each is taken with
its opposite and its corner at every primitive idempotent.

The lifting stops at the Newton step's fixed point, the first x with
x^2 = x, within dim.bit_length() + 1 steps.  The parent ran
(m - 1).bit_length() + 1 steps, m the nilpotency index of the radical; its
index is kept below as `_old_nilpotency_index`, from which the oracle
takes its round count.  The cases also include k[x]/(x^6), whose
radical asks for 4 rounds by that count, the most of any case, the ring of
T2(k[x]/(x^3)), which asks for 3, and a rebased copy of each.  On the
same algebras and their opposites over Q, GF(11) and GF(4099), the bound
itself is checked: the defect after t steps lies in rad^(2^t), and the
radical's index, by `_old_nilpotency_index`, is at most dim.
"""
from __future__ import annotations

import random

import pytest

from gpmorita.algebra import (
    Algebra, AlgebraError, UnsupportedField, corner_algebra, opposite_algebra,
    quotient_algebra, radical_basis,
)
from gpmorita.catalog import (
    arrow_ideal_context, field_algebra, full_context, glued_psi_context,
    path_a2, product_fields, random_context, random_glued_context,
    triangular_context, triangular_over, truncated_poly, two_cycle_context,
    two_cycle_rad_square, wide_psi_context,
)
from gpmorita.fields import GF, QQ, Field
from gpmorita.idempotents import (
    SplitError, _minimal_left_ideal, _poly_trim, center_rows, linear_roots,
    primitive_idempotents,
)
from gpmorita.linalg import Mat, in_row_space, rank, row_space, solve_left
from gpmorita.modules import hom_space, regular_module
from gpmorita.morita import build_ring

from element_products import multiply

FIELDS = {"Q": QQ, "GF5": lambda: GF(5), "GF7": lambda: GF(7),
          "GF11": lambda: GF(11), "GF4099": lambda: GF(4099)}
CONTEXTS = (triangular_context, two_cycle_context, glued_psi_context,
            arrow_ideal_context, wide_psi_context)


# -- oracles: the parent's per-element code, verbatim -------------------------


def _old_nilpotency_index(a: Algebra, rows: Mat, cap: int | None = None) -> int | None:
    """Least m with span^m = 0 under products, or None if not nilpotent by cap."""
    cap = cap if cap is not None else a.dim + 1
    cur = row_space(rows)
    m = 1
    while cur.rows:
        if m > cap:
            return None
        # every product of a row of cur with a row of rows, in one product
        cur = row_space(cur.kron(rows) @ a.consts)
        m += 1
    return m


def _old_element_min_poly(a: Algebra, el: list, unit: list | None = None) -> list:
    """Minimal polynomial of `el` in the (corner) algebra with the given unit."""
    F = a.field
    unit = unit if unit is not None else a.unit
    powers = [unit]
    rows = [unit]
    while True:
        nxt = multiply(a, powers[-1], el)
        coeffs = solve_left(Mat.from_rows(F, rows, a.dim),
                            Mat.from_rows(F, [nxt], a.dim))
        if coeffs is not None:
            c = coeffs.row(0)
            return _poly_trim(F, [F.neg(x) for x in c] + [F.one()])
        powers.append(nxt)
        rows.append(nxt)
        if len(rows) > a.dim + 1:
            raise AlgebraError("minimal polynomial did not terminate")


def _old_central_primitive_idempotents(ss: Algebra, seed: int = 0) -> list[list]:
    """Central primitive idempotents of a split semisimple algebra."""
    F = ss.field
    Z = center_rows(ss)
    idems = [ss.unit]
    for zi in range(Z.rows):
        z = Z.row(zi)
        new = []
        for e in idems:
            w = multiply(ss, z, e)
            mp = _old_element_min_poly(ss, w, unit=e)
            roots, fully = linear_roots(F, mp)
            if not fully:
                raise SplitError("central element with a non-linear irreducible factor")
            if len(roots) <= 1:
                new.append(e)
                continue
            for lam in roots:
                # Lagrange idempotent for the eigenvalue lam of w on the corner
                num = e
                den = F.one()
                for mu in roots:
                    if mu == lam:
                        continue
                    shift = [F.sub(x, F.mul(mu, y)) for x, y in zip(w, e)]
                    num = multiply(ss, num, shift)
                    den = F.mul(den, F.sub(lam, mu))
                piece = [F.mul(F.inv(den), x) for x in num]
                new.append(piece)
        idems = new
    for e in idems:
        if multiply(ss, e, e) != e:
            raise AlgebraError("central splitting produced a non-idempotent")
    return idems


def _old_primitive_idempotents_semisimple(ss: Algebra, seed: int = 0) -> list[tuple[list, int]]:
    """Primitive orthogonal idempotents of a split semisimple algebra,
    tagged with the index of their central block; they sum to 1."""
    F = ss.field
    out = []
    centrals = _old_central_primitive_idempotents(ss, seed)
    for block_index, eps in enumerate(centrals):
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
        Cinv = solve_left(C, Mat.identity(F, block.dim))
        off = 0
        for img in chosen:
            sel = Mat.block_diag([Mat.zeros(F, off, off), Mat.identity(F, img.rows),
                                  Mat.zeros(F, block.dim - off - img.rows,
                                            block.dim - off - img.rows)])
            P = Cinv @ sel @ C
            e_block = (Mat.from_rows(F, [block.unit], block.dim) @ P).row(0)
            e = (Mat.from_rows(F, [e_block], block.dim) @ incl).row(0)
            out.append((e, block_index))
            off += img.rows
    total = [F.zero()] * ss.dim
    for e, _ in out:
        total = [F.add(x, y) for x, y in zip(total, e)]
    if total != list(ss.unit):
        raise AlgebraError("primitive idempotents do not sum to 1")
    for i, (e, _) in enumerate(out):
        if multiply(ss, e, e) != e:
            raise AlgebraError("projection produced a non-idempotent")
        for j, (f, _) in enumerate(out):
            if i != j and any(not F.is_zero(c) for c in multiply(ss, e, f)):
                raise AlgebraError("idempotents are not orthogonal")
    return out


def _old_newton_idempotent(a: Algebra, x: list, iters: int) -> list:
    F = a.field
    for _ in range(iters):
        x2 = multiply(a, x, x)
        x3 = multiply(a, x2, x)
        x = [F.sub(F.mul(F.of_int(3), u), F.mul(F.of_int(2), v))
             for u, v in zip(x2, x3)]
    return x


def _old_primitive_idempotents(a: Algebra, seed: int = 0) -> list[tuple[list, int]]:
    """Complete list of primitive orthogonal idempotents of a split algebra,
    each tagged with its block (= isomorphism class of the projective Ae)."""
    F = a.field
    rad = radical_basis(a)
    if rad.rows == 0:
        return _old_primitive_idempotents_semisimple(a, seed)
    ss, proj = quotient_algebra(a, rad, name=f"{a.name}/rad")
    section = solve_left(proj, Mat.identity(F, ss.dim))
    assert section is not None
    bars = _old_primitive_idempotents_semisimple(ss, seed)
    # radical nilpotency index bounds the lifting iterations
    iters = max(1, (_old_nilpotency_index(a, rad) - 1).bit_length() + 1)
    lifted: list[tuple[list, int]] = []
    fsum = a.zero_el()
    for k, (ebar, blk) in enumerate(bars):
        if k == len(bars) - 1:
            e = [F.sub(u, v) for u, v in zip(a.unit, fsum)]
        else:
            x = (Mat.from_rows(F, [ebar], ss.dim) @ section).row(0)
            comp = [F.sub(u, v) for u, v in zip(a.unit, fsum)]
            x = multiply(a, multiply(a, comp, x), comp)
            e = _old_newton_idempotent(a, x, iters)
        if multiply(a, e, e) != e:
            raise AlgebraError("idempotent lifting failed")
        lifted.append((e, blk))
        fsum = [F.add(u, v) for u, v in zip(fsum, e)]
    if fsum != list(a.unit):
        raise AlgebraError("lifted idempotents do not sum to 1")
    for i in range(len(lifted)):
        for j in range(len(lifted)):
            if i != j:
                prod = multiply(a, lifted[i][0], lifted[j][0])
                if any(not F.is_zero(c) for c in prod):
                    raise AlgebraError("lifted idempotents are not orthogonal")
    return lifted


# -- the cases ------------------------------------------------------------------


def _algebras(F: Field) -> list[Algebra]:
    algs = [field_algebra(F), product_fields(F, 2), path_a2(F),
            two_cycle_rad_square(F)] + [truncated_poly(F, n) for n in (2, 3, 4)]
    ctxs = []
    for make in CONTEXTS:
        ext, ctx = make(F)
        algs += [ext.Lam, ext.A, ctx.B]
        ctxs.append(ctx)
    R = truncated_poly(F, 2)
    ctxs += [triangular_over(R), full_context(R, scale=0)]
    rng = random.Random(26)
    for _ in range(6):
        ctxs.append(random_context(F, rng)[1])
        ctxs.append(random_glued_context(F, rng)[1])
    algs += [build_ring(ctx).ring for ctx in ctxs]
    rng = random.Random(7)
    return algs + [_rebased(a, rng) for a in algs]


def _deep_radicals(F: Field) -> list[Algebra]:
    """k[x]/(x^6) and the ring of T2(k[x]/(x^3)), whose radicals have
    nilpotency index 6 and 4, and a rebased copy of each."""
    algs = [truncated_poly(F, 6), build_ring(triangular_over(truncated_poly(F, 3))).ring]
    rng = random.Random(7)
    return algs + [_rebased(a, rng) for a in algs]


def _rebased(a: Algebra, rng: random.Random) -> Algebra:
    """a on the basis of the rows of P = L U, for seeded unitriangular L
    and U, so that the basis holds no idempotents to pick and the lifts
    need more than one Newton step: its products are
    (P (x) P) @ consts @ P^-1."""
    F, n = a.field, a.dim

    def draw(i, j):
        return 1 if i == j else rng.choice((-1, 0, 1))

    L = Mat(F, [[draw(i, j) for j in range(i + 1)] + [0] * (n - 1 - i)
                for i in range(n)], n)
    U = Mat(F, [[0] * i + [draw(i, j) for j in range(i, n)] for i in range(n)], n)
    P = L @ U
    inv = solve_left(P, Mat.identity(F, n))
    unit = (Mat.from_rows(F, [a.unit], n) @ inv).row(0)
    return Algebra(F, n, P.kron(P) @ a.consts @ inv, unit, name=f"{a.name}'")


def _outcome(fn, a: Algebra):
    """fn(a), or the type and message of the AlgebraError it raised."""
    try:
        return fn(a)
    except AlgebraError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", FIELDS)
def test_primitive_idempotents_match_the_per_element_code(field):
    F = FIELDS[field]()
    compared = 0
    for alg in _algebras(F) + _deep_radicals(F):
        for a in (alg, opposite_algebra(alg)):
            new = _outcome(primitive_idempotents, a)
            assert repr(new) == repr(_outcome(_old_primitive_idempotents, a))
            if isinstance(new, tuple):
                continue
            compared += 1
            for e, _ in new:
                corner, _ = corner_algebra(a, e)
                assert repr(_outcome(primitive_idempotents, corner)) == \
                    repr(_outcome(_old_primitive_idempotents, corner))
    assert compared


@pytest.mark.parametrize("field", ["Q", "GF11", "GF4099"])
def test_the_newton_defect_lies_in_the_radical_to_the_power_two_to_the_t(field):
    """The bound of the lifting loop.  For x = e + r, e a lifted primitive
    idempotent and r a radical basis row, the defect x^2 - x after t Newton
    steps lies in rad^(2^t); rad^dim = 0, with the nilpotency index of
    `_old_nilpotency_index`; so x^2 = x within dim.bit_length() steps."""
    F = FIELDS[field]()
    most = 0
    for alg in _algebras(F) + _deep_radicals(F):
        for a in (alg, opposite_algebra(alg)):
            try:
                rad = radical_basis(a)
            except UnsupportedField:
                continue
            idems = _outcome(primitive_idempotents, a)
            if rad.rows == 0 or isinstance(idems, tuple):
                continue
            powers = [row_space(rad)]    # powers[k] spans rad^(k+1)
            while powers[-1].rows:
                powers.append(row_space(powers[-1].kron(rad) @ a.consts))
            assert len(powers) == _old_nilpotency_index(a, rad) <= a.dim
            for e, _ in idems:
                for i in {0, rad.rows - 1}:
                    x = [F.add(u, v) for u, v in zip(e, rad.row(i))]
                    for t in range(a.dim.bit_length() + 1):
                        x2 = multiply(a, x, x)
                        defect = [F.sub(u, v) for u, v in zip(x2, x)]
                        if all(F.is_zero(c) for c in defect):
                            break
                        assert 2 ** t < len(powers)
                        assert in_row_space(powers[2 ** t - 1],
                                            Mat.from_rows(F, [defect], a.dim))
                        x3 = multiply(a, x2, x)
                        x = [F.sub(F.mul(F.of_int(3), u), F.mul(F.of_int(2), v))
                             for u, v in zip(x2, x3)]
                    else:
                        raise AssertionError(f"{a.name}: no fixed point")
                    most = max(most, t)
    assert most == 3
