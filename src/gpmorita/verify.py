"""Independent re-verification of Gorenstein-projectivity certificates.

This module deliberately avoids the builder's machinery: projectivity is
decided by splitting a free presentation (no idempotents, no covers),
exactness and Hom-complex exactness are recomputed from ranks, and
periodicity is checked against the stored window.  It keeps its own
Hom-complex assembly rather than the builder's.  Shared ground is the
exact linear algebra, the module, hom and complex-window containers, the
dual and regular modules, and one solver: hom_space for bases of Hom
spaces.
"""
from __future__ import annotations

from .algebra import opposite_algebra
from .complexes import ComplexWindow
from .linalg import Mat, in_row_space, left_kernel, rank, solve_left
from .modules import (
    FDModule, ModuleHom, dual_module, hom_space, regular_module,
)
from .bimodules import _vec
from .gpcert import GPCertificate, NotGPWitness


def _regular(a) -> FDModule:
    """The checker's one regular module of a, kept in a._cache so that
    every hom_space(-, A) the checker asks for hits the same cache entry."""
    reg = a._cache.get("verify_regular")
    if reg is None:
        reg = a._cache["verify_regular"] = regular_module(a)
    return reg


def projective_by_splitting(m: FDModule) -> bool:
    """m is projective iff its canonical free presentation phi: A^n ->> m
    (n = dim m) splits.  A section m -> A^n is sum_{i,l} c_{i,l} h_l into
    copy i over a basis h_1..h_k of Hom(m, A), so s phi = 1_m is one linear
    system in the n*k coefficients c, with n^2 equations."""
    if m.dim == 0:
        return True
    if "proj_by_split" not in m._cache:
        m._cache["proj_by_split"] = _presentation_splits(m)
    return m._cache["proj_by_split"]


def _presentation_splits(m: FDModule) -> bool:
    a, F, n = m.algebra, m.algebra.field, m.dim
    rows = [m.acts[t].row(i) for i in range(n) for t in range(a.dim)]
    phi = Mat.from_rows(F, rows, n)          # A^n ->> m
    if rank(phi) != n:
        return False
    homs = hom_space(m, _regular(a))
    if not homs:
        return False
    # phi_i: the i-th copy of A -> m, rows i*dim A .. (i+1)*dim A of phi
    blocks = [Mat(F, phi.data[i * a.dim:(i + 1) * a.dim], n) for i in range(n)]
    system = Mat.vstack([_vec(h.mat @ phi_i) for phi_i in blocks for h in homs])
    return solve_left(system, _vec(Mat.identity(F, n))) is not None


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
        stacked = Mat.vstack([_vec(h.mat) for h in dst])
        rows = []
        for h in src:
            c = solve_left(stacked, _vec(d.mat @ h.mat))
            if c is None:
                return None
            rows.append(c.row(0))
        maps.append(Mat.from_rows(F, rows, len(dst)))
    return [len(b) for b in bases], maps


def _hom_homology(hc, j: int) -> int:
    """dim of the homology of the Hom complex hc at Hom(T_j, y)."""
    dims, maps = hc
    return dims[j] - rank(maps[j - 1]) - rank(maps[j])


def _window_totally_exact(wc: ComplexWindow) -> str | None:
    hc = _hom_complex(wc.terms, wc.diffs, _regular(wc.algebra))
    if hc is None:
        return "hom complex failed to assemble"
    for i in range(wc.lo + 1, wc.hi):
        if _hom_homology(hc, i - wc.lo):
            return f"Hom(-, A) complex not exact at {i}"
    return None


def _window_periodic(wc: ComplexWindow, p: int) -> str | None:
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


def _self_injective_by_splitting(algebra) -> bool:
    aop = opposite_algebra(algebra)
    return projective_by_splitting(dual_module(regular_module(aop), algebra))


def _approximation_property(alpha: ModuleHom) -> bool:
    """Hom(alpha, A): Hom(P, A) -> Hom(stage, A) surjective."""
    reg = _regular(alpha.source.algebra)
    src_homs = hom_space(alpha.target, reg)
    dst_homs = hom_space(alpha.source, reg)
    if not dst_homs:
        return True
    stacked = Mat.vstack([_vec(h.mat) for h in dst_homs])
    images = [alpha.mat @ h.mat for h in src_homs]
    if not images:
        return False
    img_rows = Mat.vstack([_vec(m) for m in images])
    return rank(img_rows) == len(dst_homs)


def _verify_right_tail_chain(x: FDModule, steps, upto: int) -> str | None:
    cur = x
    for j in range(upto):
        st = steps[j]
        if st.stage.dim != cur.dim or st.stage.acts != cur.acts:
            return f"chain stage {j} does not match"
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


def verify_certificate(cert: GPCertificate, x: FDModule) -> list[str]:
    """Re-check a certificate against the module it claims to describe;
    returns the list of discrepancies (empty = verified)."""
    out = []
    if cert.module.dim != x.dim or cert.module.acts != x.acts:
        return ["certificate is about a different module"]
    if cert.verdict == "gp":
        wc, ki = cert.window, cert.kernel_ident
        if wc is None or ki is None:
            return ["gp certificate lacks its window"]
        msg = _window_is_complex(wc)
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
    hc = _hom_complex(res.terms[::-1], res.maps[::-1], _regular(x.algebra))
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
    hc = _hom_complex(terms, diffs, _regular(x.algebra))
    if hc is None:
        return ["hom complex failed to assemble"]
    if _hom_homology(hc, w.degree) == 0:
        return ["claimed homology obstruction vanishes"]
    return []
