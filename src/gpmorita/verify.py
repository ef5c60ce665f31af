"""Independent re-verification of Gorenstein-projectivity certificates.

This module deliberately avoids the builder's machinery: projectivity is
decided by splitting a free presentation (no idempotents, no covers),
exactness and Hom-complex exactness are recomputed from ranks (the latter
only over an algebra it cannot prove Frobenius), and periodicity is
checked against the stored window.  It keeps its own Hom-complex assembly
rather than the builder's.  Shared ground is the exact linear algebra, the
form `algebra.frobenius_form` offers, the module, hom and complex-window
containers, the dual module, the one regular module of each algebra (so
the checker and the builders share its hom_space(-, A) memo entries),
validate_module, one solver: hom_space for bases of Hom spaces, and the
verified direct-sum record: a module that `direct_sum` built keeps its
summands, and `direct_summands` hands them out only when their
block-diagonal actions are the module's, so projectivity (additive over
direct sums) is proven per summand, and hom_space reads Hom(sum, y) off
the Hom spaces of the summands.  A record that disagrees is ignored and
the module is proven whole.

Over a Frobenius algebra an exact window is totally exact.  A form
lambda whose pairing lambda(b_i b_j) is nondegenerate makes A a Frobenius
algebra, so A is injective over itself (Lam, *Lectures on Modules and
Rings*, ch. 6) and Hom(-, A) is exact: an exact complex of projectives
stays exact under it (Enochs & Jenda, *Relative Homological Algebra*,
ch. 10-11).  The checker takes lambda from `algebra.frobenius_form`, but
rebuilds the pairing and proves its rank itself (`_frobenius`), so a wrong
form can only send it back to the Hom complex.  Over such an algebra the
window's Hom(-, A) complex is not built, and self-injectivity needs no
splitting proof.  Every other algebra gets both.

`ModuleHom.intertwines` and `hom_space` work on the algebra's generators,
which is sound only between modules, so every module of a certificate is
put through validate_module before any map into or out of it is trusted.

A periodic window is checked over one period.  When a "gp" certificate
gives a period p with 1 <= p <= hi - lo - 1, the checker first compares
the window with itself shifted by p: the terms over the same algebra with
the same actions, the differentials with the same matrices.  If the window
repeats, every check at degree i is the check at degree i - p: a term's
module laws and projectivity, a differential's shape and module-map
property, the d.d pair at i, exactness and Hom(-, A)-exactness at i.  So
each check is run on the sub-window [lo, lo + p + 1] only, whose p + 2
terms and p + 1 differentials hold every residue mod p of the terms, the
differentials, the d.d pairs (lo .. lo + p - 1) and the inner degrees
(lo + 1 .. lo + p) once; the differential at lo + p, one past a period,
is the overlap that covers the junction between two periods.  The first
failure found is the one the whole window gives first, as the first
failing degree lies within a period.  A window that does not repeat, or
a period it cannot witness, gets the whole window's checks before the
periodicity message, and the kernel identification always reads the whole
window.

A certificate read from JSON (`jsonio.certificate_from_json`) has one
instance per distinct piece: window terms, resolution terms and chain
stages with equal JSON are one module, equal matrices one matrix.  Every
check here is a function of a module's algebra, dimension and actions
and of a map's matrix, so equal JSON gives equal answers, and the checks
that keep their verdict on an instance prove each distinct term once:
the module laws, projectivity and Hom(-, A) of a repeated window term
are proven at its first degree.  Such a window carries no direct-sum
record, so each distinct term is proven whole.
"""
from __future__ import annotations

from .algebra import frobenius_form, memo, opposite_algebra
from .complexes import ComplexWindow
from .linalg import Mat, coordinates, in_row_space, left_kernel, rank, solve_left
from .modules import (
    FDModule, ModuleHom, direct_summands, dual_module, hom_space, regular_module,
    validate_module,
)
from .gpcert import GPCertificate, NotGPWitness


@memo
def projective_by_splitting(m: FDModule) -> bool:
    """m is projective iff its canonical free presentation phi: A^n ->> m
    (n = dim m) splits.  A section m -> A^n is sum_{i,l} c_{i,l} h_l into
    copy i over a basis h_1..h_k of Hom(m, A), so s phi = 1_m is one linear
    system in the n*k coefficients c, with n^2 equations.  A direct sum
    whose record `direct_summands` confirms is projective iff each summand
    is, so each summand is proven once, however many sums it is part of."""
    parts = direct_summands(m)
    if parts is not None:
        return all(map(projective_by_splitting, parts))
    return m.dim == 0 or _presentation_splits(m)


def _presentation_splits(m: FDModule) -> bool:
    a, F, n = m.algebra, m.algebra.field, m.dim
    rows = [m.acts[t].row(i) for i in range(n) for t in range(a.dim)]
    phi = Mat.from_rows(F, rows, n)          # A^n ->> m
    if rank(phi) != n:
        return False
    homs = hom_space(m, regular_module(a))
    if not homs:
        return False
    return solve_left(_section_system(phi, homs), Mat.identity(F, n).flatten()) is not None


def _section_system(phi: Mat, homs: list[ModuleHom]) -> Mat:
    """The rows of s phi = 1_m in the coefficients c_{i,l}: row (i, l) is
    h_l phi_i flattened, where phi_i: A -> m is the i-th copy of A, rows
    i*dim A .. (i+1)*dim A of phi.  One product per copy: the Hom basis
    stacked, times phi_i, read as k rows of n^2."""
    d, n, k = homs[0].target.dim, phi.cols, len(homs)
    stacked = Mat.vstack([h.mat for h in homs])
    return Mat.vstack([(stacked @ phi.block(i * d, (i + 1) * d, 0, n)).reshape(k, n * n)
                       for i in range(n)])


def _non_module(label: str, mods: list[FDModule], first: int = 0) -> str | None:
    """A message naming the first of mods (labelled first, first + 1, ...)
    that breaks a module law, or None."""
    for i, m in enumerate(mods, first):
        bad = validate_module(m)
        if bad:
            return f"{label} {i} is not a module: {bad[0]}"
    return None


def _window_is_complex(wc: ComplexWindow) -> str | None:
    for i in range(wc.lo, wc.hi):
        d = wc.diff(i)
        if (d.mat.rows, d.mat.cols) != (wc.term(i).dim, wc.term(i + 1).dim):
            return f"differential {i} has wrong shape"
        if not d.intertwines():
            return f"differential {i} is not a module map"
    for i in range(wc.lo, wc.hi - 1):
        if not (wc.diff(i).mat @ wc.diff(i + 1).mat).is_zero():
            return f"d.d != 0 at {i}"
    return None


def _window_exact(wc: ComplexWindow) -> str | None:
    for i in range(wc.lo + 1, wc.hi):
        ker = wc.term(i).dim - rank(wc.diff(i).mat)
        if ker != rank(wc.diff(i - 1).mat):
            return f"not exact at {i}"
    return None


def _hom_complex(terms: list[FDModule], diffs: list[ModuleHom], y: FDModule):
    """Hom(T_., y) of the complex T_0 -> T_1 -> ... with diffs[j]: T_j ->
    T_{j+1}: the dims of Hom(T_j, y) and maps[j]: Hom(T_{j+1}, y) ->
    Hom(T_j, y) in those bases, or None if a map fails to assemble."""
    F = y.algebra.field
    bases = [hom_space(t, y) for t in terms]
    maps = []
    for j, d in enumerate(diffs):
        src, dst = bases[j + 1], bases[j]
        if not src or not dst:
            maps.append(Mat.zeros(F, len(src), len(dst)))
            continue
        m = coordinates(Mat.vstack([h.mat.flatten() for h in dst]),
                        Mat.vstack([(d.mat @ h.mat).flatten() for h in src]))
        if m is None:
            return None
        maps.append(m)
    return [len(b) for b in bases], maps


def _hom_homology(hc, j: int) -> int:
    """dim of the homology of the Hom complex hc at Hom(T_j, y)."""
    dims, maps = hc
    return dims[j] - rank(maps[j - 1]) - rank(maps[j])


def _window_totally_exact(wc: ComplexWindow) -> str | None:
    hc = _hom_complex(wc.terms, wc.diffs, regular_module(wc.algebra))
    if hc is None:
        return "hom complex failed to assemble"
    for i in range(wc.lo + 1, wc.hi):
        if _hom_homology(hc, i - wc.lo):
            return f"Hom(-, A) complex not exact at {i}"
    return None


def _period_unwitnessed(wc: ComplexWindow, p) -> str | None:
    """p must be an int (not a bool) the window can repeat by: two terms
    and two differentials p apart at least."""
    if isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= wc.hi - wc.lo - 1:
        return f"period {p!r} is not witnessed by the window [{wc.lo}, {wc.hi}]"
    return None


def _window_periodic(wc: ComplexWindow, p: int) -> str | None:
    """Literal periodicity of the stored window (terms over one algebra
    with equal actions, and differentials, repeat); the builders emit
    genuinely repeating windows."""
    for i in range(wc.lo, wc.hi + 1 - p):
        a, b = wc.term(i), wc.term(i + p)
        if a is not b and (a.algebra is not b.algebra or a.dim != b.dim
                           or any(s != t for s, t in zip(a.acts, b.acts))):
            return f"terms at {i} and {i + p} differ"
    for i in range(wc.lo, wc.hi - p):
        a, b = wc.diff(i).mat, wc.diff(i + p).mat
        if a is not b and a != b:
            return f"differentials at {i} and {i + p} differ"
    return None


@memo
def _frobenius(a) -> bool:
    """a is Frobenius, so self-injective: the form lambda that
    `algebra.frobenius_form` offers pairs the basis nondegenerately.  The
    pairing lambda(b_i b_j), consts @ lambda^T read as n x n, is rebuilt
    here and must have rank n, so a wrong form costs the proof, not its
    soundness."""
    lam, n = frobenius_form(a), a.dim
    return (lam is not None and (lam.rows, lam.cols) == (1, n)
            and rank((a.consts @ lam.transpose()).reshape(n, n)) == n)


def _self_injective_by_splitting(algebra) -> bool:
    """A Frobenius algebra is self-injective; otherwise A is injective iff
    the dual of the regular right module is projective, proven by
    splitting."""
    if _frobenius(algebra):
        return True
    aop = opposite_algebra(algebra)
    return projective_by_splitting(dual_module(regular_module(aop), algebra))


def _approximation_property(alpha: ModuleHom) -> bool:
    """Hom(alpha, A): Hom(P, A) -> Hom(stage, A) surjective."""
    reg = regular_module(alpha.source.algebra)
    src_homs = hom_space(alpha.target, reg)
    dst_homs = hom_space(alpha.source, reg)
    if not dst_homs:
        return True
    images = [alpha.mat @ h.mat for h in src_homs]
    if not images:
        return False
    img_rows = Mat.vstack([m.flatten() for m in images])
    return rank(img_rows) == len(dst_homs)


def _verify_right_tail_chain(x: FDModule, steps, upto: int) -> str | None:
    cur = x
    for j in range(upto):
        st = steps[j]
        if st.stage.dim != cur.dim or st.stage.acts != cur.acts:
            return f"chain stage {j} does not match"
        msg = (_non_module("chain stage", [st.stage], j)
               or _non_module("approximation target", [st.target], j))
        if msg:
            return msg
        if not st.alpha.intertwines():
            return f"approximation {j} is not a module map"
        if rank(st.alpha.mat) != st.stage.dim:
            return f"approximation {j} is not injective"
        if not projective_by_splitting(st.target):
            return f"approximation target {j} is not projective"
        if not _approximation_property(st.alpha):
            return f"map {j} is not a projective approximation"
        if not st.coker_proj.is_surjective():
            return f"cokernel projection {j} is not surjective"
        if not (st.alpha.mat @ st.coker_proj.mat).is_zero():
            return f"cokernel projection {j} does not kill the image"
        if rank(st.coker_proj.mat) != st.target.dim - st.stage.dim:
            return f"cokernel {j} has the wrong dimension"
        cur = st.coker_proj.target
    return None


def _window_failure(wc: ComplexWindow) -> str | None:
    """The first failure of wc as a complex of projectives that is exact
    and Hom(-, A)-exact at its inner degrees, or None.  Over a Frobenius
    algebra A, Hom(-, A) is exact, so an exact window of A-modules is
    totally exact and its Hom complex is not built."""
    msg = _non_module("term", wc.terms, wc.lo) or _window_is_complex(wc)
    if msg:
        return msg
    for i in range(wc.lo, wc.hi + 1):
        if not projective_by_splitting(wc.term(i)):
            return f"term {i} is not projective"
    msg = _window_exact(wc)
    if msg or _frobenius(wc.algebra):
        return msg
    return _window_totally_exact(wc)


def verify_certificate(cert: GPCertificate, x: FDModule) -> list[str]:
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
        p, periodic, checked = cert.period, None, wc
        if p is not None:
            periodic = _period_unwitnessed(wc, p) or _window_periodic(wc, p)
            if periodic is None:
                checked = ComplexWindow(wc.lo, wc.lo + p + 1, wc.terms[:p + 2],
                                        wc.diffs[:p + 1])
        msg = _window_failure(checked) or periodic
        if msg:
            return [msg]
        if p is None:
            if cert.reason != "self-injective":
                return ["gp certificate needs a period or self-injectivity"]
            if not _self_injective_by_splitting(x.algebra):
                return ["algebra is not self-injective"]
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
            msg = (_non_module("witness stage", [stage], len(w.steps or []))
                   or _non_module("witness target", [w.alpha.target],
                                  len(w.steps or [])))
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


def _verify_ext_witness(x: FDModule, w: NotGPWitness) -> list[str]:
    res = w.resolution
    if res is None or w.degree < 1 or w.degree >= len(res.terms):
        return ["ext witness out of range"]
    # the witness resolution must be an exact complex of projectives over x
    if not res.aug.is_surjective():
        return ["witness resolution does not surject onto the module"]
    if res.aug.source is not res.terms[0]:
        return ["witness resolution is misassembled"]
    if res.module.dim != x.dim or res.module.acts != x.acts:
        return ["witness resolution resolves a different module"]
    msg = _non_module("witness resolution term", res.terms)
    if msg:
        return [msg]
    for t in res.terms:
        if not projective_by_splitting(t):
            return ["witness resolution has a non-projective term"]
    prev = res.aug
    for d in res.maps:
        if not d.intertwines():
            return ["witness resolution map is not a module map"]
        if not (d.mat @ prev.mat).is_zero():
            return ["witness resolution is not a complex"]
        ker = prev.source.dim - rank(prev.mat)
        if rank(d.mat) != ker:
            return ["witness resolution is not exact"]
        prev = d
    i = w.degree
    if i >= len(res.maps):
        return ["ext witness degree beyond the resolution"]
    # Ext^i is the homology of Hom(P_., A) at P_i; reversed, P_n comes first
    hc = _hom_complex(res.terms[::-1], res.maps[::-1], regular_module(x.algebra))
    if hc is None:
        return ["hom complex failed to assemble"]
    if _hom_homology(hc, len(res.maps) - i) == 0:
        return ["claimed Ext group vanishes"]
    return []


def _verify_homology_obstruction(x: FDModule, w: NotGPWitness) -> list[str]:
    steps = w.steps or []
    if not steps or w.degree < 1 or w.degree >= len(steps) - 1:
        return ["homology obstruction out of range"]
    if steps[0].stage.dim != x.dim or steps[0].stage.acts != x.acts:
        return ["witness chain does not start at the module"]
    # Hom(-, A) of the right tail P^0 -> P^1 -> ... at the claimed degree
    terms = [st.target for st in steps]
    diffs = [steps[j].coker_proj.then(steps[j + 1].alpha)
             for j in range(len(steps) - 1)]
    hc = _hom_complex(terms, diffs, regular_module(x.algebra))
    if hc is None:
        return ["hom complex failed to assemble"]
    if _hom_homology(hc, w.degree) == 0:
        return ["claimed homology obstruction vanishes"]
    return []
