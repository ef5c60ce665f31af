"""The module, hom and bimodule checks on algebra generators against the
all-pairs checks they replaced.

The oracles below are the earlier implementations, kept verbatim apart
from their names: `validate_module` and `validate_bimodule` on every pair
of basis elements, `ModuleHom.intertwines` on every basis element, and the linearity of
`validate_balanced_map` at every basis element of its target.
On catalog modules, homs and bimodules over Q and GF(7), and on copies with
one entry of one action or hom matrix perturbed (as `catalog.corrupt_psi`
perturbs psi), the generator checks must give the same accept/reject
verdict.  A perturbed hom keeps valid ends: `intertwines` assumes modules.
A balanced map, perturbed or over a perturbed bimodule, must get the
oracle's very list, which names the first failing basis element.
"""
from __future__ import annotations

import functools
import glob
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gpmorita.algebra import generating_subset, opposite_algebra
from gpmorita.bimodules import (
    BalancedMap, Bimodule, outer_bimodule, regular_bimodule,
    validate_balanced_map, validate_bimodule,
)
from gpmorita.catalog import (
    arrow_ideal_context, full_context, glued_psi_context, path_a2, proj_a2,
    random_module, simple_at_idempotent, simple_kx2, triangular_context,
    truncated_poly, two_cycle_context, two_cycle_rad_square, wide_psi_context,
)
from gpmorita.fields import GF, QQ
from gpmorita.jsonio import field_to_json, load_problem
from gpmorita.linalg import Mat, intertwining_system
from gpmorita.modules import (
    FDModule, ModuleHom, direct_sum, hom_space, regular_module, validate_module,
)
from gpmorita.morita import build_ring

FIELDS = {"Q": QQ, "GF7": lambda: GF(7)}


# -- oracles: the all-pairs checks, verbatim ----------------------------------


def _validate_module(x: FDModule) -> list[str]:
    out = []
    a = x.algebra
    ident = Mat.identity(a.field, x.dim)
    if x.act_of(a.unit) != ident:
        out.append("unit does not act as identity")
    for i in range(a.dim):
        for j in range(a.dim):
            # act(b_i b_j) = act(b_j) @ act(b_i) under the row convention
            if x.act_of(a.consts.row(i * a.dim + j)) != x.acts[j] @ x.acts[i]:
                out.append(f"action not multiplicative at ({i},{j})")
                return out
    return out


def _validate_bimodule(m: Bimodule) -> list[str]:
    out = _validate_left_action(m)
    if out:
        return out
    a = m.right
    F = a.field
    ident = Mat.identity(F, m.dim)
    if m.right_act_of(a.unit) != ident:
        return ["right unit does not act as identity"]
    for i in range(a.dim):
        for j in range(a.dim):
            if m.right_act_of(a.consts.row(i * a.dim + j)) != m.right_acts[i] @ m.right_acts[j]:
                return [f"right action not multiplicative at ({i},{j})"]
    for s in range(m.left.dim):
        for t in range(a.dim):
            if m.left_acts[s] @ m.right_acts[t] != m.right_acts[t] @ m.left_acts[s]:
                return [f"left and right actions do not commute at ({s},{t})"]
    return []


def _validate_left_action(m: Bimodule) -> list[str]:
    a = m.left
    F = a.field
    ident = Mat.identity(F, m.dim)
    if m.left_act_of(a.unit) != ident:
        return ["left unit does not act as identity"]
    for i in range(a.dim):
        for j in range(a.dim):
            # left rule under the row convention: act(ab) = act(b) @ act(a)
            if m.left_act_of(a.consts.row(i * a.dim + j)) != m.left_acts[j] @ m.left_acts[i]:
                return [f"left action not multiplicative at ({i},{j})"]
    return []


def _intertwines(h: ModuleHom) -> bool:
    x, y = h.source, h.target
    return all(x.acts[t] @ h.mat == h.mat @ y.acts[t]
               for t in range(x.algebra.dim))


# -- cases -----------------------------------------------------------------------


def _validate_balanced_map(f: BalancedMap) -> list[str]:
    F = f.target.field
    if f.n.left is not f.m.right:
        return ["middle algebras of the two bimodules differ"]
    if f.m.left is not f.target or f.n.right is not f.target:
        return ["outer algebras do not match the target"]
    out = []
    rel = intertwining_system(F, f.m.dim, f.n.dim, f.m.right_acts, f.n.left_acts)
    if not (rel @ f.mat).is_zero():
        out.append("not balanced over the middle algebra")
    eye_n = Mat.identity(F, f.n.dim)
    eye_m = Mat.identity(F, f.m.dim)
    for t in range(f.target.dim):
        if f.m.left_acts[t].kron(eye_n) @ f.mat != f.mat @ f.target.lmul_mats()[t]:
            out.append(f"not left-linear over the target at {t}")
            break
    for t in range(f.target.dim):
        if eye_m.kron(f.n.right_acts[t]) @ f.mat != f.mat @ f.target.rmul_mats()[t]:
            out.append(f"not right-linear over the target at {t}")
            break
    return out


@functools.cache
def _modules(field: str) -> tuple[FDModule, ...]:
    """Catalog modules over k[x]/x^3 (x^2 is no generator), k[x]/x^2,
    path_a2, the radical-square two-cycle and a Morita ring, with random
    quotients of free modules and direct sums."""
    F = FIELDS[field]()
    kx3, kx2, ka2 = truncated_poly(F, 3), truncated_poly(F, 2), path_a2(F)
    cyc, ring = two_cycle_rad_square(F), build_ring(glued_psi_context(F)[1]).ring
    mods = [simple_kx2(kx3), simple_kx2(kx2), simple_at_idempotent(ka2, 0),
            simple_at_idempotent(ka2, 2), proj_a2(ka2),
            simple_at_idempotent(cyc, 0), simple_at_idempotent(cyc, 1)]
    for a in (kx3, kx2, ka2, cyc, ring):
        mods.append(regular_module(a))
        mods += [random_module(a, random.Random(s)) for s in range(2)]
    mods.append(direct_sum([mods[0], regular_module(kx3)])[0])
    return tuple(m for m in mods if m.dim)


@functools.cache
def _homs(field: str) -> tuple[ModuleHom, ...]:
    """Hom-space basis elements between catalog modules over one algebra."""
    mods = _modules(field)
    return tuple(h for x in mods for y in mods
                 if x.algebra is y.algebra for h in hom_space(x, y))


@functools.cache
def _bimodules(field: str) -> tuple[Bimodule, ...]:
    F = FIELDS[field]()
    kx3, ka2 = truncated_poly(F, 3), path_a2(F)
    out = [regular_bimodule(kx3), regular_bimodule(ka2),
           outer_bimodule(proj_a2(ka2), regular_module(opposite_algebra(kx3)))]
    for make in (triangular_context, two_cycle_context, glued_psi_context,
                 arrow_ideal_context):
        ctx = make(F)[1]
        out += [ctx.M, ctx.N]
    return tuple(m for m in out if m.dim)


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@functools.cache
def _balanced_maps(field: str) -> tuple[BalancedMap, ...]:
    """Every map of every fixture, read over the field, and the phi and psi
    of the catalog contexts."""
    F = FIELDS[field]()
    out = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        doc["field"] = field_to_json(F)
        out += load_problem(doc).maps.values()
    contexts = [make(F)[1] for make in (triangular_context, two_cycle_context,
                                        glued_psi_context, arrow_ideal_context,
                                        wide_psi_context)]
    contexts.append(full_context(truncated_poly(F, 3)))
    for ctx in contexts:
        out += [ctx.phi, ctx.psi]
    return tuple(out)


def _bump(F, draw: int):
    """A nonzero scalar from a small integer: over Q, draw/2 or draw/3."""
    if F.is_rational:
        return Fraction(draw, 2 + draw % 2)
    return F.of_int(draw % (F.p - 1) + 1)


def _perturbed(m: Mat, i: int, j: int, bump) -> Mat:
    rows = m.to_rows()
    rows[i][j] = m.field.add(rows[i][j], bump)
    return Mat.from_rows(m.field, rows, m.cols)


def _corrupt_module(x: FDModule, t: int, i: int, j: int, bump) -> FDModule:
    acts = list(x.acts)
    acts[t] = _perturbed(acts[t], i, j, bump)
    return FDModule(x.algebra, x.dim, acts)


def _corrupt_bimodule(m: Bimodule, right: bool, t: int, i: int, j: int,
                      bump) -> Bimodule:
    la, ra = list(m.left_acts), list(m.right_acts)
    acts = ra if right else la
    acts[t] = _perturbed(acts[t], i, j, bump)
    return Bimodule(m.left, m.right, m.dim, la, ra)


def _agree(new: list[str], old: list[str]) -> bool:
    """Same verdict, and the unit law is reported by both or by neither."""
    unit = [msg for msg in new if "unit" in msg] == [msg for msg in old if "unit" in msg]
    return bool(new) == bool(old) and unit


# -- differential tests --------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_catalog_objects_pass_both_checks(field):
    for x in _modules(field):
        assert validate_module(x) == [] == _validate_module(x)
    for h in _homs(field):
        assert h.intertwines() and _intertwines(h)
    for m in _bimodules(field):
        assert validate_bimodule(m) == [] == _validate_bimodule(m)


@pytest.mark.parametrize("field", FIELDS)
def test_seeded_corruptions_get_the_oracle_verdicts(field):
    """Every module and bimodule with each action matrix perturbed once at a
    seeded entry; every hom perturbed once.  Most perturbations break a law,
    so the agreement is not vacuous."""
    F = FIELDS[field]()
    rng = random.Random(3)
    rejected = total = 0
    for x in _modules(field):
        for t in range(x.algebra.dim):
            y = _corrupt_module(x, t, rng.randrange(x.dim), rng.randrange(x.dim),
                                _bump(F, rng.randint(1, 6)))
            new, old = validate_module(y), _validate_module(y)
            assert _agree(new, old), (x, t, new, old)
            rejected, total = rejected + bool(old), total + 1
    for h in _homs(field):
        g = ModuleHom(h.source, h.target,
                      _perturbed(h.mat, rng.randrange(h.mat.rows),
                                 rng.randrange(h.mat.cols), _bump(F, rng.randint(1, 6))))
        assert g.intertwines() == _intertwines(g)
        rejected, total = rejected + (not _intertwines(g)), total + 1
    for m in _bimodules(field):
        for right, alg in ((False, m.left), (True, m.right)):
            for t in range(alg.dim):
                b = _corrupt_bimodule(m, right, t, rng.randrange(m.dim),
                                      rng.randrange(m.dim), _bump(F, rng.randint(1, 6)))
                new, old = validate_bimodule(b), _validate_bimodule(b)
                assert _agree(new, old), (m, right, t, new, old)
                rejected, total = rejected + bool(old), total + 1
    assert rejected > total // 2


@settings(max_examples=150)
@given(field=st.sampled_from(list(FIELDS)), data=st.data())
def test_module_verdicts_match_all_pairs_oracle(field, data):
    x = data.draw(st.sampled_from(_modules(field)))
    t = data.draw(st.integers(0, x.algebra.dim - 1))
    i, j = data.draw(st.integers(0, x.dim - 1)), data.draw(st.integers(0, x.dim - 1))
    y = _corrupt_module(x, t, i, j, _bump(x.algebra.field, data.draw(st.integers(1, 12))))
    assert _agree(validate_module(y), _validate_module(y))


@settings(max_examples=150)
@given(field=st.sampled_from(list(FIELDS)), data=st.data())
def test_hom_verdicts_match_all_basis_oracle(field, data):
    h = data.draw(st.sampled_from(_homs(field)))
    i = data.draw(st.integers(0, h.mat.rows - 1))
    j = data.draw(st.integers(0, h.mat.cols - 1))
    g = ModuleHom(h.source, h.target,
                  _perturbed(h.mat, i, j, _bump(h.mat.field, data.draw(st.integers(1, 12)))))
    assert g.intertwines() == _intertwines(g)


@settings(max_examples=150)
@given(field=st.sampled_from(list(FIELDS)), data=st.data())
def test_bimodule_verdicts_match_all_pairs_oracle(field, data):
    m = data.draw(st.sampled_from(_bimodules(field)))
    right = data.draw(st.booleans())
    t = data.draw(st.integers(0, (m.right if right else m.left).dim - 1))
    i, j = data.draw(st.integers(0, m.dim - 1)), data.draw(st.integers(0, m.dim - 1))
    b = _corrupt_bimodule(m, right, t, i, j,
                          _bump(m.left.field, data.draw(st.integers(1, 12))))
    assert _agree(validate_bimodule(b), _validate_bimodule(b))


@pytest.mark.parametrize("field", FIELDS)
def test_balanced_maps_get_the_oracle_lists(field):
    """Each map, each map with one entry perturbed, and each map with the
    target's action on M or on N perturbed at one basis element.  A map
    off by one entry fails at a generator; an action perturbed at a
    non-generator makes its bimodule invalid, and the first failure may
    be there."""
    F = FIELDS[field]()
    rng = random.Random(5)
    named = set()
    for f in _balanced_maps(field):
        assert validate_balanced_map(f) == _validate_balanced_map(f) == []
        mutants = [BalancedMap(f.m, f.n, f.target,
                               _perturbed(f.mat, rng.randrange(f.mat.rows),
                                          rng.randrange(f.mat.cols),
                                          _bump(F, rng.randint(1, 6))))
                   for _ in range(3) if f.mat.rows]
        for t in range(f.target.dim):
            for right, b in ((False, f.m), (True, f.n)):
                if b.dim:
                    b = _corrupt_bimodule(b, right, t, rng.randrange(b.dim),
                                          rng.randrange(b.dim), _bump(F, rng.randint(1, 6)))
                    m, n = (f.m, b) if right else (b, f.n)
                    mutants.append(BalancedMap(m, n, f.target, f.mat))
        gens = generating_subset(f.target)
        for g in mutants:
            old = _validate_balanced_map(g)
            assert validate_balanced_map(g) == old, (f, old)
            named |= {int(msg.rsplit(" ", 1)[1]) in gens
                      for msg in old if "linear" in msg}
    assert named == {True, False}


def test_validate_module_checks_each_instance_once(monkeypatch):
    a = truncated_poly(QQ(), 3)
    reg = regular_module(a)
    bad = FDModule(a, 3, [reg.acts[0], reg.acts[1], Mat.zeros(a.field, 3, 3)])
    calls = []
    matmul = Mat.matmul
    monkeypatch.setattr(Mat, "matmul",
                        lambda self, other: calls.append(1) or matmul(self, other))
    first = validate_module(bad)
    assert first == ["action not multiplicative at (1,1)"]
    made = len(calls)
    assert made
    first.append("mutated")
    second = validate_module(bad)
    assert len(calls) == made
    assert second == ["action not multiplicative at (1,1)"]
    second.clear()
    assert validate_module(bad) == ["action not multiplicative at (1,1)"]
    assert len(calls) == made
