"""Projectivity by counting and Hom out of a sum by summands, against
the computations they replace.

`homology.is_projective` counts the multiplicities of the projective
cover (dim e_b top(x) per block) without building it; the oracle is the
old rule, the dimension of the cover that `projective_cover` builds.
`modules.hom_space` reads Hom(x_1 (+) ... (+) x_n, y) off the Hom spaces
of the summands; the oracle is the unmemoized whole system solved on a
copy of the sum with no record, which must give the same basis matrix for
matrix.  The pieces are kept on the summands only when y is the
algebra's one regular module, so a transient y is never kept alive by a
long-lived summand such as a block representative.

`homology.projective_dimension` stops at the first syzygy that
`is_projective` accepts; the oracle is the old count, the first zero
syzygy of a minimal resolution, on draws and simples over the catalog
algebras and context rings, their first and second syzygies, at bounds
0 to 6.

The modules are the catalog algebras, their opposites and four context
rings, over Q and GF(7): random modules drawn with `max_cuts=1` (the
default draws are mostly projective), the simples, sums of them, duals
over the opposite algebra and first syzygies.
"""
from __future__ import annotations

import gc
import inspect
import random
import weakref

import pytest

from gpmorita.algebra import opposite_algebra
from gpmorita.catalog import random_module
from gpmorita.homology import (
    _block_reps, is_projective, minimal_resolution, projective_cover,
    projective_dimension, simple_modules,
)
from gpmorita.modules import (
    direct_sum, direct_summands, dual_module, free_module, hom_space, kernel_of,
    regular_module,
)

from test_direct_sums import ALGEBRAS, FIELDS, _bare, _plus


def _old_is_projective(x) -> bool:
    """The rule before counting: the cover that is built is as large as x."""
    return projective_cover(x)[0].dim == x.dim


def _draws(a, rng, n=3):
    return [random_module(a, rng, max_cuts=1, name=f"r{i}")
            for i in range(n)]


def _pool(a):
    """Modules over a: draws, simples, their sums, the duals of the
    opposite's draws and simples, and first syzygies."""
    rng = random.Random(11)
    op = opposite_algebra(a)
    base = _draws(a, rng) + simple_modules(a)
    duals = [dual_module(m, a) for m in _draws(op, rng, 2) + simple_modules(op)]
    syz = [kernel_of(projective_cover(m)[1])[0] for m in base if m.dim]
    sums = [_plus(*simple_modules(a)), _plus(base[0], regular_module(a)),
            _plus(duals[0], syz[0], base[1]), free_module(a, 2)]
    return base + duals + syz + sums


def _algebras(field):
    F = FIELDS[field]()
    for name in sorted(ALGEBRAS):
        a = ALGEBRAS[name](F)
        yield a
        yield opposite_algebra(a)


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_is_projective_counts_what_the_cover_would_build(field):
    verdicts = set()
    for a in _algebras(field):
        for x in _pool(a):
            bare = _bare(x)
            assert is_projective(bare) == _old_is_projective(bare), (a, x)
            assert is_projective(x) == is_projective(bare), (a, x)
            verdicts.add(is_projective(bare))
    assert verdicts == {True, False}


def _mats(homs):
    return [h.mat for h in homs]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_hom_out_of_a_sum_is_the_whole_system_basis(field):
    solve_whole = inspect.unwrap(hom_space)
    for a in _algebras(field):
        pool = _pool(a)
        sums = [x for x in pool if direct_summands(x) is not None]
        nested = _plus(sums[0], pool[0])
        targets = [regular_module(a), pool[0], pool[-2], simple_modules(a)[0]]
        for x in sums + [nested]:
            bare = _bare(x)
            for y in targets:
                got = hom_space(x, y)
                assert _mats(got) == _mats(solve_whole(bare, y)), (a, x, y)
                assert all(h.source is x and h.target is y for h in got)


def test_the_pieces_into_the_regular_module_are_kept_on_the_summands():
    a = ALGEBRAS["path_a2"](FIELDS["Q"]())
    reg = regular_module(a)
    assert reg is regular_module(a)
    x = free_module(a, 3)
    assert direct_summands(x) == [reg] * 3
    hom_space(x, reg)
    assert hom_space.get(reg, reg) is not None


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_transient_target_is_kept_on_no_summand(field):
    for a in _algebras(field):
        reps = [rep[0] for rep in _block_reps(a)]
        x = direct_sum(reps)[0]
        y = _bare(random_module(a, random.Random(3), max_cuts=1))
        homs = hom_space(x, y)
        assert all(hom_space.get(p, y) is None for p in reps), a
        alive = weakref.ref(y)
        del x, y, homs
        gc.collect()
        assert alive() is None, a


def _old_projective_dimension(x, bound):
    """The count before it stopped at a projective syzygy: the first empty
    syzygy of a minimal resolution of length bound."""
    if x.dim == 0:
        return 0
    res = minimal_resolution(x, bound)
    for j, s in enumerate(res.syzygies):
        if s.dim == 0:
            return j
    return None


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_projective_dimension_stops_at_the_first_projective_syzygy(field):
    values = set()
    F = FIELDS[field]()
    for name in sorted(ALGEBRAS):
        a = ALGEBRAS[name](F)
        base = _draws(a, random.Random(11)) + simple_modules(a)
        omega1 = [kernel_of(projective_cover(m)[1])[0] for m in base]
        omega2 = [kernel_of(projective_cover(m)[1])[0] for m in omega1]
        for x in base + omega1 + omega2:
            for bound in range(7):
                got = projective_dimension(_bare(x), bound)
                assert got == _old_projective_dimension(_bare(x), bound), (a, x, bound)
                values.add(got)
    assert {None, 0, 1} <= values
