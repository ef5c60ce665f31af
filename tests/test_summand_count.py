"""The deterministic split of projective summands against the search it
replaced.

`homology.split_projective_summands` reads the multiplicity of each A e as
a summand of x off the rank of the composition pairing
Hom(A e, x) x Hom(x, A e) -> End(A e)/rad, per block, and splits the
summands off through a nonsingular minor of that pairing, with no search.
The strip as it was before the pairing, a seeded search to exhaustion, is
kept below verbatim apart from its name as the oracle: on every input the
two must give the same projective summands in the same order and
isomorphic cores, `overall` must be an invertible module map
x -> P_1 (+) ... (+) P_k (+) core, and the core must split off nothing
more.  The cores agree up to isomorphism only, since the split reads the
core in another basis than the search does on some inputs.

The inputs are built explicitly, since random modules are mostly
projective: per algebra and its opposite, each simple, its first syzygy,
and the sums of each with a block's projective, plus the sum of two block
projectives, over Q and GF(11).  The algebras are the catalog algebras,
k[x]/(x^n) for n = 2 to 4, and the rings of two catalog contexts, one of
them on a seeded random basis.
"""
from __future__ import annotations

import inspect
import random

import pytest

from gpmorita.algebra import opposite_algebra
from gpmorita.catalog import (
    path_a2, product_fields, triangular_over, truncated_poly,
    two_cycle_rad_square,
)
from gpmorita.complexes import solve_module_hom
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import CertifyError
from gpmorita.homology import (
    _block_reps, minimal_resolution, simple_modules, split_projective_summands,
)
from gpmorita.linalg import Mat, linear_combination, rank, solve_left
from gpmorita.modules import (
    FDModule, ModuleHom, direct_sum, hom_space, is_isomorphic, kernel_of,
)
from gpmorita.morita import build_ring

from test_idempotent_oracles import _rebased


def _searched_strip(x: FDModule, seed: int = 0):
    """Split x as (projective part) (+) (core with no detected projective
    summand).  Returns (core, projs, overall) with overall an isomorphism
    x -> P_1 (+) ... (+) P_k (+) core.  The search is seeded and bounded;
    missing a summand only costs certificate strength, never soundness."""
    a = x.algebra
    F = a.field
    rng = random.Random(seed)
    projs: list[FDModule] = []
    cur = x
    overall = Mat.identity(F, x.dim)
    collected = 0
    while cur.dim > 0:
        found = None
        for mod, _, _, _ in _block_reps(a):
            if mod.dim > cur.dim:
                continue
            # the unmemoized body: mod is kept on the algebra and cur is
            # transient, so an entry on mod would keep cur alive
            basis = inspect.unwrap(hom_space)(mod, cur)
            if not basis:
                continue
            candidates = [h.mat for h in basis]
            for _ in range(20):
                coeffs = [F.of_int(rng.randint(-2, 2) if F.is_rational
                                   else rng.randrange(F.p)) for _ in basis]
                candidates.append(linear_combination(F, mod.dim, cur.dim, coeffs,
                                                     [h.mat for h in basis]))
            for u_mat in candidates:
                if rank(u_mat) != mod.dim:
                    continue
                u = ModuleHom(mod, cur, u_mat)
                v = solve_module_hom(cur, mod, pre=u_mat,
                                     pre_rhs=Mat.identity(F, mod.dim))
                if v is not None:
                    found = (mod, u, v)
                    break
            if found:
                break
        if not found:
            break
        mod, u, v = found
        # cur = im(u) (+) ker(v); sigma projects onto the complement
        e_mat = v.mat @ u.mat
        k_mod, k_incl = kernel_of(ModuleHom(cur, mod, v.mat))
        sigma = solve_left(k_incl.mat, Mat.identity(F, cur.dim).sub(e_mat))
        if sigma is None:
            raise CertifyError("projective summand complement failed")
        step = Mat.hstack([v.mat, sigma])
        overall = overall @ Mat.block_diag([Mat.identity(F, collected), step])
        projs.append(mod)
        collected += mod.dim
        cur = k_mod
    return cur, projs, overall


def _algebras(F):
    ring = build_ring(triangular_over(truncated_poly(F, 2))).ring
    algs = [product_fields(F, 2), path_a2(F), two_cycle_rad_square(F), ring,
            _rebased(ring, random.Random(7))]
    return algs + [truncated_poly(F, n) for n in (2, 3, 4)]


def _inputs(a):
    """Simples, their first syzygies, and the sums of each with a block
    projective and of two block projectives."""
    projs = [mod for mod, _, _, _ in _block_reps(a)]
    bases = []
    for s in simple_modules(a):
        bases.append(s)
        omega = minimal_resolution(s, 1).syzygies[0]
        if omega.dim:
            bases.append(omega)
    yield from bases
    for y in bases:
        for p in projs:
            yield direct_sum([y, p])[0]
            yield direct_sum([p, y])[0]
    yield direct_sum([projs[0], projs[-1]])[0]


@pytest.mark.parametrize("F", [QQ(), GF(11)], ids=["Q", "GF11"])
def test_the_split_finds_the_summands_the_search_finds(F):
    counts = []
    for alg in _algebras(F):
        for a in (alg, opposite_algebra(alg)):
            for x in _inputs(a):
                core, projs, overall = split_projective_summands(x)
                old_core, old_projs, _ = _searched_strip(x)
                assert len(projs) == len(old_projs) and all(
                    p is q for p, q in zip(projs, old_projs)), (a, x)
                assert is_isomorphic(core, old_core) is not None
                target = direct_sum(projs + [core])[0]
                split = ModuleHom(x, target, overall)
                assert split.is_iso() and split.intertwines()
                assert split_projective_summands(core)[1] == []
                counts.append(len(projs))
    # both outcomes of the pairing are exercised, and more than one summand
    assert 0 in counts and 1 in counts and max(counts) >= 2
