"""The checker's projectivity test against the dense free-presentation
solve it replaced and against the builder's cover test."""
from __future__ import annotations

import random

import pytest

from gpmorita.catalog import (
    path_a2, random_module, simple_at_idempotent, truncated_poly,
    two_cycle_rad_square,
)
from gpmorita.complexes import solve_module_hom
from gpmorita.fields import GF, QQ
from gpmorita.homology import is_projective, simple_modules
from gpmorita.linalg import Mat
from gpmorita.modules import direct_sum, free_module, hom_space, regular_module
from gpmorita.verify import projective_by_splitting

ALGEBRAS = {
    "path_a2": path_a2,
    "truncated_poly(2)": lambda F: truncated_poly(F, 2),
    "truncated_poly(3)": lambda F: truncated_poly(F, 3),
    "two_cycle_rad_square": two_cycle_rad_square,
}
FIELDS = {"Q": QQ, "GF(5)": lambda: GF(5), "GF(7)": lambda: GF(7)}


def _splits_by_dense_solve(m) -> bool:
    """Oracle: a section of phi: A^n ->> m (n = dim m) found directly in
    Hom(m, A^n), one dense Kronecker system over all of A^n."""
    a, F = m.algebra, m.algebra.field
    rows = [m.acts[t].row(i) for i in range(m.dim) for t in range(a.dim)]
    phi = Mat.from_rows(F, rows, m.dim)
    return solve_module_hom(m, free_module(a, m.dim), post=phi,
                            post_rhs=Mat.identity(F, m.dim)) is not None


def _small_modules(a, rng):
    """The simples and 8 seeded random modules of dim 1..4; those of
    dim 1 are also summed with A (larger sums make the dense oracle's
    system slow over Q)."""
    mods = list(simple_modules(a))
    while len(mods) < len(simple_modules(a)) + 8:
        m = random_module(a, rng)
        if 1 <= m.dim <= 4:
            mods.append(m)
    reg = regular_module(a)
    return mods + [direct_sum([m, reg])[0] for m in mods if m.dim == 1]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("alg", ALGEBRAS)
def test_projective_by_splitting_matches_dense_solve_and_cover_test(alg, field):
    a = ALGEBRAS[alg](FIELDS[field]())
    seen = set()
    for m in _small_modules(a, random.Random(f"{alg}/{field}")):
        expected = _splits_by_dense_solve(m)
        assert projective_by_splitting(m) == expected == is_projective(m)
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize("field", [QQ(), GF(7)])
def test_no_homs_into_the_algebra_means_not_projective(field):
    a = path_a2(field)
    s2 = simple_at_idempotent(a, 2)
    assert hom_space(s2, regular_module(a)) == []
    assert not _splits_by_dense_solve(s2)
    assert projective_by_splitting(s2) is False
