"""Direct sums keep their summands, and the record is sound.

`modules.direct_sum` records the summands on the sum, and
`modules.direct_summands` hands them out only when they agree with the
sum's actions.  The module laws, `homology.is_projective`,
`verify.projective_by_splitting` and `modules.dual_module` then answer
from the summands.  Each answer is compared here with the one for a copy
of the same module that has no record and so is computed whole, over Q and
GF(7), on three catalog algebras and four context rings.  A record that
disagrees with the actions is ignored, so it cannot make a non-projective
module pass the checker.
"""
from __future__ import annotations

import random

import pytest

from gpmorita import verify
from gpmorita.algebra import opposite_algebra
from gpmorita.catalog import (
    arrow_ideal_context, glued_psi_context, path_a2, random_module,
    triangular_context, truncated_poly, two_cycle_context,
    two_cycle_rad_square,
)
from gpmorita.fields import GF, QQ
from gpmorita.homology import is_projective, simple_modules
from gpmorita.modules import (
    FDModule, direct_sum, direct_summands, dual_module, regular_module,
    validate_module,
)
from gpmorita.morita import build_ring
from gpmorita.verify import projective_by_splitting

FIELDS = {"Q": QQ, "GF7": lambda: GF(7)}


def _ring(context):
    return lambda F: build_ring(context(F)[1]).ring


ALGEBRAS = {
    "path_a2": path_a2,
    "truncated_poly3": lambda F: truncated_poly(F, 3),
    "two_cycle_rad_square": two_cycle_rad_square,
    "triangular_ring": _ring(triangular_context),
    "two_cycle_ring": _ring(two_cycle_context),
    "glued_psi_ring": _ring(glued_psi_context),
    "arrow_ideal_ring": _ring(arrow_ideal_context),
}


def _plus(*mods):
    return direct_sum(list(mods))[0]


def _sums(a):
    """Sums, sums of sums and the dual of a sum of simples over a, each
    with its record."""
    simples = simple_modules(a)
    reg = regular_module(a)
    rnd = random_module(a, random.Random(5), max_free=1)
    s = _plus(*simples)
    return [s, _plus(reg, reg), _plus(rnd, reg), _plus(s, _plus(rnd, reg)),
            _plus(simples[0]), dual_module(s, opposite_algebra(a)),
            dual_module(_plus(reg, rnd), opposite_algebra(a))]


def _bare(x: FDModule) -> FDModule:
    return FDModule(x.algebra, x.dim, x.acts, name=x.name)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
def test_a_sum_answers_as_the_same_module_without_its_record(field, alg):
    a = ALGEBRAS[alg](FIELDS[field]())
    verdicts = set()
    for x in _sums(a):
        bare, op = _bare(x), opposite_algebra(x.algebra)
        assert direct_summands(x) is not None and bare.summands is None
        assert validate_module(x) == validate_module(bare) == []
        assert is_projective(x) == is_projective(bare)
        assert projective_by_splitting(x) == projective_by_splitting(bare)
        assert projective_by_splitting(x) == is_projective(x)
        assert dual_module(x, op).acts == dual_module(bare, op).acts
        assert dual_module(x, op).name == dual_module(bare, op).name
        verdicts.add(is_projective(x))
    assert True in verdicts


def test_the_sums_include_non_projective_ones():
    a = path_a2(QQ())
    assert False in {is_projective(x) for x in _sums(a)}


def test_the_dual_of_a_summand_is_built_once():
    a = truncated_poly(QQ(), 3)
    op = opposite_algebra(a)
    reg = regular_module(a)
    first, second = dual_module(_plus(reg, reg), op), dual_module(_plus(reg), op)
    assert direct_summands(first)[0] is direct_summands(first)[1]
    assert direct_summands(first)[0] is direct_summands(second)[0]


def test_the_module_laws_of_a_sum_are_those_of_its_summands():
    a = path_a2(QQ())
    s1 = simple_modules(a)[0]
    broken = FDModule(a, s1.dim, [m.scale(a.field.of_int(2)) for m in s1.acts])
    assert validate_module(broken)
    x = _plus(regular_module(a), broken)
    assert direct_summands(x) is not None
    assert validate_module(x) == validate_module(broken)
    assert validate_module(_bare(x))


def _lying(x: FDModule, summands: list[FDModule]) -> FDModule:
    out = _bare(x)
    out.summands = summands
    return out


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_record_that_disagrees_with_the_actions_is_ignored(field, monkeypatch):
    a = path_a2(FIELDS[field]())
    reg, (s1, s2) = regular_module(a), simple_modules(a)
    p = next(m for m in (s1, s2) if is_projective(m))
    x = next(m for m in (s1, s2) if not is_projective(m))
    fallbacks = []
    real = verify._presentation_splits

    def counted(m):
        fallbacks.append(m)
        return real(m)

    monkeypatch.setattr(verify, "_presentation_splits", counted)
    wrong = [
        _lying(x, [p]),                          # other actions, same dim
        _lying(_plus(x, reg), [reg, x]),         # summands out of order
        _lying(_plus(x, reg), [reg]),            # a summand missing
        _lying(_plus(x, reg), [p, p, p, p]),     # the right dim, wrong blocks
    ]
    aop = opposite_algebra(a)
    wrong.append(_lying(x, [FDModule(aop, x.dim, x.acts)]))   # other algebra
    for m in wrong:
        assert direct_summands(m) is None
        assert not projective_by_splitting(m)
        assert not is_projective(m)
        assert fallbacks[-1] is m
    assert len(fallbacks) == len(wrong)
