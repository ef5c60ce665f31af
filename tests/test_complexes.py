from __future__ import annotations

import random

import pytest

from gpmorita.catalog import (
    field_algebra, path_a2, proj_a2, random_module, simple_at_idempotent, simple_kx2,
    truncated_poly, two_cycle_rad_square,
)
from gpmorita.complexes import (
    ComplexWindow, HorseshoeError, ShortExactSequence, homology_at, horseshoe,
    is_exact, one_period, solve_module_hom, total_exactness, validate_complex,
    window_period,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import ext_dim, minimal_resolution, projective_cover
from gpmorita.linalg import Mat, rank, row_space
from gpmorita.modules import (
    FDModule, ModuleHom, direct_sum, hom_space, identity_hom, kernel_of,
    quotient_by_rows, regular_module, spanned_submodule, zero_hom, zero_module,
)


def _identity_complex(x, span=1):
    terms = [x, x]
    diffs = [identity_hom(x)]
    return ComplexWindow(0, 1, terms, diffs)


def test_identity_complex_exact():
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    c = ComplexWindow(0, 2, [x, x, zero_module(a)],
                      [identity_hom(x), zero_hom(x, zero_module(a))])
    assert validate_complex(c) == []
    assert is_exact(c)


def test_zero_differential_homology():
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    c = ComplexWindow(0, 2, [x, x, x], [zero_hom(x, x), zero_hom(x, x)])
    assert homology_at([t.dim for t in c.terms], [d.mat for d in c.diffs], 1) == x.dim


def test_periodic_complete_resolution_kx2_exact_and_total():
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    cert = certify_gorenstein_projective(s, window=3)
    assert cert.verdict == "gp"
    wc = cert.window
    assert wc.lo <= -3 and wc.hi >= 3
    assert is_exact(wc)
    assert total_exactness(wc)


def _kx_resolution(n):
    """The complete resolution of the simple module over k[x]/(x^n), Q: it
    alternates x and x^(n-1), so it repeats by 1 at n = 2 and by 2 above."""
    cert = certify_gorenstein_projective(simple_kx2(truncated_poly(QQ(), n)),
                                         window=4)
    assert cert.verdict == "gp"
    return cert.window


def _with_diff(wc, i, mat):
    diffs = list(wc.diffs)
    diffs[i - wc.lo] = ModuleHom(wc.diff(i).source, wc.diff(i).target, mat)
    return ComplexWindow(wc.lo, wc.hi, wc.terms, diffs)


@pytest.mark.parametrize("n, period", [(2, 1), (3, 2)])
def test_one_period_is_the_sub_window_of_the_least_period(n, period):
    wc = _kx_resolution(n)
    assert window_period(wc) == period
    sub = one_period(wc)
    assert (sub.lo, sub.hi) == (wc.lo, wc.lo + period + 1)
    assert sub.terms == wc.terms[:period + 2] and sub.diffs == wc.diffs[:period + 1]
    assert validate_complex(sub) == [] and is_exact(sub) and total_exactness(sub)


@pytest.mark.parametrize("n", [2, 3])
def test_a_window_repeating_but_at_its_last_differential_is_checked_whole(n):
    # a zero last differential breaks exactness at hi - 1 only, beyond the
    # first period; no period witnesses the window, so it is checked whole
    wc = _kx_resolution(n)
    last = wc.diff(wc.hi - 1)
    bad = _with_diff(wc, wc.hi - 1, Mat.zeros(last.mat.field, last.mat.rows,
                                              last.mat.cols))
    assert window_period(bad) is None and one_period(bad) is bad
    assert not is_exact(one_period(bad))
    assert is_exact(ComplexWindow(bad.lo, bad.hi - 1, bad.terms[:-1],
                                  bad.diffs[:-1]))


def test_window_period_compares_the_ends_of_the_differentials():
    # equal matrices between unequal modules do not repeat: the period
    # helper compares each differential's source and target as modules
    a = truncated_poly(QQ(), 2)
    s = simple_kx2(a)
    other = FDModule(a, 1, [Mat.identity(QQ(), 1), Mat.identity(QQ(), 1)])
    z = Mat.zeros(QQ(), 1, 1)
    wc = ComplexWindow(0, 3, [s] * 4, [ModuleHom(s, s, z), ModuleHom(s, s, z),
                                       ModuleHom(other, s, z)])
    assert window_period(wc) is None and one_period(wc) is wc
    assert validate_complex(wc) == ["differential 2 connects the wrong terms"]


def test_total_exactness_fails_for_truncated_resolution():
    # minimal resolution of the non-projective simple over the path algebra,
    # padded by zero on the right: Hom(-, A) is not exact at the augmentation
    a = path_a2(QQ())
    s2 = simple_at_idempotent(a, 2, name="S2")
    res = minimal_resolution(s2, 1)
    z = zero_module(a)
    wc = ComplexWindow(-2, 0, [res.terms[1], res.terms[0], z],
                       [res.maps[0], zero_hom(res.terms[0], z)])
    assert validate_complex(wc) == []
    assert not total_exactness(wc)


def test_solve_module_hom_with_conditions():
    a = truncated_poly(QQ(), 2)
    x = regular_module(a)
    s = simple_kx2(a)
    # factor the cover through itself
    P, cov = projective_cover(s)
    sec = solve_module_hom(P, P, post=cov.mat, post_rhs=cov.mat)
    assert sec is not None
    # a section of the cover would split the simple off the cover: impossible
    assert solve_module_hom(s, P, post=cov.mat,
                            post_rhs=Mat.identity(QQ(), 1)) is None


def _random_ses(a, rng):
    from gpmorita.catalog import random_module
    w = random_module(a, rng, max_free=2, max_cuts=1)
    sub, incl = None, None
    from gpmorita.catalog import random_submodule
    sub, incl = random_submodule(w, rng)
    quo, proj = quotient_by_rows(w, incl.mat)
    return ShortExactSequence(incl, proj), w


def test_horseshoe_over_self_injective_random():
    rng = random.Random(31)
    count = 0
    for F in [QQ(), GF(7)]:
        for alg in [truncated_poly(F, 2), two_cycle_rad_square(F)]:
            for _ in range(3):
                ses, w = _random_ses(alg, rng)
                u, v = ses.u, ses.v
                cu = certify_gorenstein_projective(u, window=3)
                cv = certify_gorenstein_projective(v, window=3)
                assert cu.verdict == "gp" and cv.verdict == "gp"
                xc, kx = cu.window, cu.kernel_ident
                yc, ky = cv.window, cv.kernel_ident
                res = horseshoe(ses, xc, kx, yc, ky)
                assert is_exact(res.zc)
                count += 1
    assert count == 12


def test_horseshoe_kernel_sequence_identity():
    # the degree-0 kernel sequence must literally restrict and project to
    # the given one
    F = QQ()
    a = truncated_poly(F, 2)
    s = simple_kx2(a)
    reg = regular_module(a)
    # 0 -> S -> A -> S' -> 0: the radical inside the regular module
    rad_rows = Mat.from_rows(F, [[0, 1]])
    sub, incl = spanned_submodule(reg, rad_rows, name="S")
    quo, proj = quotient_by_rows(reg, rad_rows, name="S'")
    ses = ShortExactSequence(incl, proj)
    assert ses.validate() == []
    cu = certify_gorenstein_projective(sub, window=3)
    cv = certify_gorenstein_projective(quo, window=3)
    res = horseshoe(ses, cu.window, cu.kernel_ident, cv.window, cv.kernel_ident)
    # middle is an extension of two simples: dims add
    assert res.zc.term(0).dim == cu.window.term(0).dim + cv.window.term(0).dim
    assert rank(res.embed.mat) == 2


def test_horseshoe_split_input():
    F = QQ()
    a = two_cycle_rad_square(F)
    s1 = simple_at_idempotent(a, 0, name="S1")
    s2 = simple_at_idempotent(a, 1, name="S2")
    w, incls, projs = direct_sum([s1, s2])
    ses = ShortExactSequence(incls[0], projs[1])
    assert ses.validate() == []
    c1 = certify_gorenstein_projective(s1, window=3)
    c2 = certify_gorenstein_projective(s2, window=3)
    res = horseshoe(ses, c1.window, c1.kernel_ident, c2.window, c2.kernel_ident)
    assert is_exact(res.zc)
    assert validate_complex(res.zc) == []


def test_horseshoe_rejects_mismatched_kernel_identification():
    # the Y-side kernel identification names S1 where the sequence ends in S2
    a = path_a2(QQ())
    s1 = simple_at_idempotent(a, 0, name="S1")   # projective simple
    s2 = simple_at_idempotent(a, 2, name="S2")
    w, incls, projs = direct_sum([s1, s2])
    ses = ShortExactSequence(incls[0], projs[1])
    c1 = certify_gorenstein_projective(s1, window=2)
    assert c1.verdict == "gp"           # projective
    assert certify_gorenstein_projective(s2, window=2).verdict == "not_gp"
    with pytest.raises(HorseshoeError):
        horseshoe(ses, c1.window, c1.kernel_ident, c1.window, c1.kernel_ident)


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_horseshoe_decides_lifts_without_ext_precheck(F):
    # over the path algebra (not self-injective) Ext^1(S2, S1) != 0, so the
    # sufficient condition Ext^1(ker d_Y^0, X^0) = 0 fails for the windows
    # X = [S1 -1-> S1 -> 0] and Y = [P2 -> S2 -> 0].  The horseshoe decides
    # each lift by solving: the split sequence weaves, the non-split one
    # 0 -> S1 -> P2 -> S2 -> 0 has no lift at degree 0.
    a = path_a2(F)
    p2 = proj_a2(a)
    rad = Mat.from_rows(F, [[1, 0]])
    s1, incl = spanned_submodule(p2, rad, name="S1")
    s2, proj = quotient_by_rows(p2, rad, name="S2")
    assert ext_dim(s2, s1, 1) != 0
    z = zero_module(a)
    xc = ComplexWindow(-1, 1, [s1, s1, z], [identity_hom(s1), zero_hom(s1, z)])
    yc = ComplexWindow(-1, 1, [p2, s2, z], [proj, zero_hom(s2, z)])
    assert validate_complex(xc) == [] and is_exact(xc)
    assert validate_complex(yc) == [] and is_exact(yc)
    w, incls, projs = direct_sum([s1, s2])
    split = ShortExactSequence(incls[0], projs[1])
    res = horseshoe(split, xc, identity_hom(s1), yc, identity_hom(s2))
    assert validate_complex(res.zc) == [] and is_exact(res.zc)
    assert split.inject.mat @ res.embed.mat == res.x_incl[1].mat
    assert res.embed.mat @ res.y_proj[1].mat == split.surject.mat
    with pytest.raises(HorseshoeError) as err:
        horseshoe(ShortExactSequence(incl, proj), xc, identity_hom(s1), yc,
                  identity_hom(s2))
    assert err.value.degree == 0


@pytest.mark.parametrize("F", [QQ(), GF(7)], ids=["Q", "GF7"])
def test_horseshoe_input_guards(F):
    # over the field k, X = [k -1-> k -> 0] on [-1, 1] and the split sequence
    # 0 -> k -> k^2 -> k -> 0 weave with X itself; each case below breaks one
    # guard.  The lifts assume an exact Y (im d_Y^{i-1} = ker d_Y^i), and a Y
    # that passes the rank count without d.d = 0 is refused on the woven
    # window.
    k = regular_module(field_algebra(F))
    z = zero_module(k.algebra)
    k2, incls, projs = direct_sum([k, k])
    split = ShortExactSequence(incls[0], projs[1])
    one = identity_hom(k)

    def window(lo, terms, rows):
        return ComplexWindow(lo, lo + len(rows), terms, [
            ModuleHom(s, t, Mat.from_rows(F, r, t.dim))
            for s, t, r in zip(terms, terms[1:], rows)])

    def x_at(lo):
        return window(lo, [k, k, z], [[[1]], [[]]])

    xc = x_at(-1)
    res = horseshoe(split, xc, one, xc, one)
    assert validate_complex(res.zc) == [] and is_exact(res.zc)
    with pytest.raises(HorseshoeError, match="the two windows must agree"):
        horseshoe(split, xc, one, x_at(0), one)
    with pytest.raises(HorseshoeError, match=r"window must contain \[0, 1\]"):
        horseshoe(split, x_at(1), one, x_at(1), one)
    inexact = window(-1, [k, k, z], [[[0]], [[]]])
    with pytest.raises(HorseshoeError, match="input complexes must be exact"):
        horseshoe(split, xc, one, inexact, one)
    # k -[1 0]-> k^2 -[1; 0]-> k: homology 0 by ranks, but d.d = 1
    not_complex = window(-1, [k, k2, k], [[[1, 0]], [[1], [0]]])
    assert is_exact(not_complex) and validate_complex(not_complex) != []
    ky = ModuleHom(k, k2, Mat.from_rows(F, [[0, 1]]))
    with pytest.raises(HorseshoeError, match="assembled complex invalid"):
        horseshoe(split, xc, one, not_complex, ky)
