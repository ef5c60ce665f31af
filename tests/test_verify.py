"""The checker's projectivity test against the dense free-presentation
solve it replaced and against the builder's cover test, its section
system against the pairwise build it replaced, and its one-period check
of periodic windows against the whole-window checker it replaced."""
from __future__ import annotations

import json
import random

import pytest

from gpmorita.catalog import (
    glued_psi_context, path_a2, proj_a2, random_module, simple_at_idempotent,
    simple_kx2, triangular_context, truncated_poly, two_cycle_context,
    two_cycle_rad_square,
)
from gpmorita.complexes import solve_module_hom
from gpmorita.fields import GF, QQ
from gpmorita import gpcert
from gpmorita.gpcert import GPCertificate, certify_gorenstein_projective
from gpmorita.homology import _block_reps, is_projective, simple_modules
from gpmorita.jsonio import (
    certificate_from_json, certificate_to_json, mat_from_json, mat_to_json,
    module_to_json,
)
from gpmorita.linalg import Mat, in_row_space, left_kernel, rank
from gpmorita.modules import (
    direct_sum, free_module, hom_space, quotient_by_rows, regular_module,
    validate_module,
)
from gpmorita.trivext import structural_maps
from gpmorita.verify import (
    _approximation_property, _non_module, _section_system,
    _self_injective_by_splitting, _verify_ext_witness,
    _verify_homology_obstruction, _verify_right_tail_chain, _window_exact,
    _window_is_complex, _window_totally_exact, projective_by_splitting,
    verify_certificate,
)

from test_gpcert import _functor_images, _self_injective_modules, _sweep

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


# -- the section system: one product per copy of A -----------------------------


def _pairwise_section_system(phi, homs, d):
    """Oracle: the system as the checker built it before, one product
    h_l phi_i per pair (i, l)."""
    n = phi.cols
    blocks = [phi.block(i * d, (i + 1) * d, 0, n) for i in range(n)]
    return Mat.vstack([(h.mat @ phi_i).flatten() for phi_i in blocks for h in homs])


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("alg", ALGEBRAS)
def test_the_section_system_is_the_pairwise_one(alg, field):
    a = ALGEBRAS[alg](FIELDS[field]())
    mods = _small_modules(a, random.Random(f"{alg}/{field}"))
    projectives = [rep[0] for rep in _block_reps(a)]
    mods += projectives + [free_module(a, 2), direct_sum(mods[:2])[0],
                           direct_sum([mods[0], projectives[-1]])[0]]
    built = 0
    for m in mods:
        rows = [m.acts[t].row(i) for i in range(m.dim) for t in range(a.dim)]
        phi = Mat.from_rows(a.field, rows, m.dim)
        homs = hom_space(m, regular_module(a))
        if not homs:
            continue
        system = _section_system(phi, homs)
        assert system == _pairwise_section_system(phi, homs, a.dim), m
        built += 1
    assert built >= len(projectives) + 2


# -- one period against the whole window ----------------------------------------
#
# The checker used to check every term and differential of a periodic window
# and then the window's repetition.  Its verify_certificate and
# _window_periodic are kept here verbatim, the first renamed, as the oracle of
# the one-period check: on every certificate the two give the same problems,
# but for a period that the window cannot witness, which the old checker
# accepted or stopped on with an exception.


def _window_periodic(wc, p: int) -> str | None:
    """Literal periodicity of the stored window (terms and differentials
    repeat); the builders emit genuinely repeating windows."""
    for i in range(wc.lo, wc.hi + 1 - p):
        a, b = wc.term(i), wc.term(i + p)
        if a.dim != b.dim or any(a.acts[t] != b.acts[t] for t in range(a.algebra.dim)):
            return f"terms at {i} and {i + p} differ"
    for i in range(wc.lo, wc.hi - p):
        if wc.diff(i).mat != wc.diff(i + p).mat:
            return f"differentials at {i} and {i + p} differ"
    return None


def whole_window_verify_certificate(cert, x) -> list[str]:
    """Re-check a certificate against the module it claims to describe;
    returns the list of discrepancies (empty = verified)."""
    out = []
    if cert.module.dim != x.dim or cert.module.acts != x.acts:
        return ["certificate is about a different module"]
    bad = validate_module(x)
    if bad:
        return [f"the certified module is not a module: {bad[0]}"]
    if cert.verdict == "gp":
        wc, ki = cert.window, cert.kernel_ident
        if wc is None or ki is None:
            return ["gp certificate lacks its window"]
        msg = _non_module("term", wc.terms, wc.lo) or _window_is_complex(wc)
        if msg:
            return [msg]
        for i in range(wc.lo, wc.hi + 1):
            if not projective_by_splitting(wc.term(i)):
                return [f"term {i} is not projective"]
        msg = _window_exact(wc) or _window_totally_exact(wc)
        if msg:
            return [msg]
        if cert.period is not None:
            msg = _window_periodic(wc, cert.period)
            if msg:
                return [msg]
        elif cert.reason == "self-injective":
            if not _self_injective_by_splitting(x.algebra):
                return ["algebra is not self-injective"]
        else:
            return ["gp certificate needs a period or self-injectivity"]
        if not ki.intertwines() or rank(ki.mat) != x.dim:
            return ["kernel identification is not an embedding"]
        ker_rows = left_kernel(wc.diff(0).mat)
        if ker_rows.rows != x.dim or not in_row_space(ker_rows, ki.mat):
            return ["kernel identification does not hit ker(d^0)"]
        return []
    if cert.verdict == "not_gp":
        w = cert.witness
        if w is None:
            return ["refutation lacks a witness"]
        if w.kind == "non_vanishing_ext":
            return _verify_ext_witness(x, w)
        if w.kind == "non_injective_approximation":
            msg = _verify_right_tail_chain(x, w.steps or [], len(w.steps or []))
            if msg:
                return [msg]
            stage = w.stage
            expected = x if not w.steps else w.steps[-1].coker_proj.target
            if stage.dim != expected.dim or stage.acts != expected.acts:
                return ["witness stage does not continue the chain"]
            msg = _non_module("witness stage", [stage], len(w.steps or []))
            if msg:
                return [msg]
            if not w.alpha.intertwines():
                return ["witness approximation is not a module map"]
            if not _approximation_property(w.alpha):
                return ["witness map is not a projective approximation"]
            if not projective_by_splitting(w.alpha.target):
                return ["witness target is not projective"]
            if w.kernel_row is None or w.kernel_row.is_zero():
                return ["witness kernel row is zero"]
            if not (w.kernel_row @ w.alpha.mat).is_zero():
                return ["witness kernel row is not killed"]
            return []
        if w.kind == "homology_obstruction":
            msg = _verify_right_tail_chain(x, w.steps or [], len(w.steps or []))
            if msg:
                return [msg]
            return _verify_homology_obstruction(x, w)
        return [f"unknown witness kind {w.kind}"]
    if cert.verdict == "unknown":
        return []
    return [f"unknown verdict {cert.verdict}"]


def _workload_modules(F):
    """(label, module): the certify-verify templates (split-projective and
    not_gp over kA2, self-injective over k[x]/(x^3) and the two-cycle
    algebra), and the cokernels whose certificates the criterion asks for,
    Coker(f) over B, of the functor images over three catalog contexts."""
    ka2, kx3, cyc = path_a2(F), truncated_poly(F, 3), two_cycle_rad_square(F)
    s1, s2, p2 = (simple_at_idempotent(ka2, 0, "S1"),
                  simple_at_idempotent(ka2, 2, "S2"), proj_a2(ka2))
    s, r3 = simple_kx2(kx3), regular_module(kx3)
    m2 = quotient_by_rows(r3, Mat.from_rows(F, [[F.zero(), F.zero(), F.one()]], 3))[0]
    c1, c2 = simple_at_idempotent(cyc, 0, "S1"), simple_at_idempotent(cyc, 1, "S2")
    mods = [("S1", s1), ("S2", s2), ("P2", p2), ("S1+P2", direct_sum([s1, p2])[0]),
            ("S1+S2", direct_sum([s1, s2])[0]), ("S", s), ("M2", m2),
            ("S+M2", direct_sum([s, m2])[0]), ("A", r3), ("C1", c1),
            ("C1+C2", direct_sum([c1, c2])[0])]
    for make in (triangular_context, two_cycle_context, glued_psi_context):
        ext, ctx = make(F)
        mods += [(f"{ctx.name}:{name}:Coker(f)", structural_maps(ctx, q).v)
                 for name, q in _functor_images(ext, ctx)]
    return mods


def _general_periodic(F):
    """(label, module, certificate): the period that the general path's
    search finds for the non-projective simples and a seeded random module
    over k[x]/(x^3) and the two-cycle algebra, closed up as the general
    path closes it up."""
    rng, out = random.Random(3), []
    for alg in (truncated_poly(F, 3), two_cycle_rad_square(F)):
        for m in simple_modules(alg) + [random_module(alg, rng, max_cuts=3)]:
            if not m.dim or is_projective(m):
                continue
            found = gpcert._search_period(m, [], 3, 12, 0, 600)
            wc, ki, p = found
            out.append((f"{alg.name}:{m.name}", m, GPCertificate(
                "gp", m, reason="periodic", period=p, window=wc, kernel_ident=ki)))
    return out


def _certificates(F):
    """(label, module, certificate): the workload modules at window 6, the
    gpcert sweep at window 2, general periodic certificates, and the
    self-injective modules with period bound 1 (two-sided windows with no
    period)."""
    out = [(label, m, certify_gorenstein_projective(m)) for label, m in _workload_modules(F)]
    out += [(label, m, certify_gorenstein_projective(m, window=2))
            for label, m in _sweep(F)]
    out += _general_periodic(F)
    out += [(label, m, certify_gorenstein_projective(m, window=2, period_bound=1))
            for label, m in _self_injective_modules(F)[::3]]
    return out


def _round_trip(cert, obj=None):
    a = cert.module.algebra
    return certificate_from_json(a, obj or certificate_to_json(cert, a.name or "A"))


def _bumped(F, mat_obj):
    """mat_obj (JSON) with one added to its first entry, or None if it has
    no entry."""
    m = mat_from_json(F, mat_obj)
    if not m.rows * m.cols:
        return None
    rows = m.to_rows()
    rows[0][0] = F.add(rows[0][0], F.one())
    return mat_to_json(Mat.from_rows(F, rows, m.cols))


def _tampered(cert):
    """(label, certificate) variants of a periodic gp certificate, edited in
    its JSON form as a forged report would be."""
    F = cert.module.algebra.field
    base = certificate_to_json(cert, cert.module.algebra.name or "A")
    w, p = base["window"], cert.period
    lo, last = w["lo"], len(w["diffs"]) - 1

    def bump(mats, k):
        bumped = _bumped(F, mats[k])
        if bumped is not None:
            mats[k] = bumped
        return bumped is not None

    def set_period(q):
        return lambda o: o.update(period=q) or True

    def zero_junctions(o):
        hit = False
        for k, d in enumerate(o["window"]["diffs"]):
            if (lo + k) % p == p - 1 and not mat_from_json(F, d).is_zero():
                d["entries"], hit = [0] * len(d["entries"]), True
        return hit

    edits = {"diff in the first period": lambda o: bump(o["window"]["diffs"], 0),
             "diff beyond the first period": lambda o: bump(o["window"]["diffs"], last),
             "term beyond the first period":
                 lambda o: bump(o["window"]["terms"][-1]["acts"], -1),
             "period - 1": set_period(p - 1), "period + 1": set_period(p + 1),
             "zero junctions": zero_junctions}
    out = []
    for label, edit in edits.items():
        obj = json.loads(json.dumps(base))
        if edit(obj):
            out.append((label, _round_trip(cert, obj)))
    return out


def _agree(cert, x) -> list[str]:
    """The one-period checker's problems, asserted equal to the whole-window
    checker's, but for a period the window cannot witness."""
    got = verify_certificate(cert, x)
    expected = whole_window_verify_certificate(cert, x)
    if got and got[0].startswith(f"period {cert.period!r} is not witnessed"):
        assert expected == [], (got, expected)
    else:
        assert got == expected
    return got


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_one_period_gives_the_whole_window_verdicts(F):
    kinds, caught, tampered = set(), set(), {}
    for label, m, cert in _certificates(F):
        kind = (cert.verdict, cert.reason, cert.period)
        kinds.add(kind)
        assert _agree(cert, m) == [], label
        assert _agree(_round_trip(cert), m) == [], label
        # the tampers of two certificates of each kind over each algebra
        key = (m.algebra.name, kind)
        if cert.is_gp and cert.period is not None and tampered.get(key, 0) < 2:
            tampered[key] = tampered.get(key, 0) + 1
            for what, forged in _tampered(cert):
                caught.add((what, bool(_agree(forged, m))))
    assert {("gp", "split-projective", 1), ("gp", "self-injective", 1),
            ("gp", "self-injective", 2), ("gp", "self-injective", None),
            ("gp", "periodic", 2), ("not_gp", "", None)} <= kinds, kinds
    # every tamper is caught, but a period + 1 by which the window repeats too
    assert caught == {("diff in the first period", True),
                      ("diff beyond the first period", True),
                      ("term beyond the first period", True), ("period - 1", True),
                      ("zero junctions", True), ("period + 1", True),
                      ("period + 1", False)}, caught


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_a_non_injective_approximation_crosses_json_with_its_target(F):
    # S0 (+) S1 over kA2: the one simple with a map into A is the simple
    # projective, so the minimal approximation kills the other simple and
    # its target is A*e of dim 1, which no free module of A has
    x = direct_sum(simple_modules(path_a2(F)))[0]
    steps, w = gpcert._right_tail(x, 1, 600)
    assert steps is None and w.kind == "non_injective_approximation"
    assert w.alpha.target.dim == 1
    cert = GPCertificate("not_gp", x, witness=w)
    assert verify_certificate(cert, x) == []
    back = _round_trip(cert)
    assert back.witness.alpha.target.acts == w.alpha.target.acts
    assert verify_certificate(back, back.module) == []
    # a target of the same dim that is not projective is caught
    obj = certificate_to_json(cert, "A")
    other = next(s for s in simple_modules(x.algebra) if not is_projective(s))
    obj["witness"]["fail_target"] = module_to_json(other, "A")
    assert verify_certificate(_round_trip(cert, obj), x) != []
