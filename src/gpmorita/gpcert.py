"""Bounded certification of Gorenstein-projectivity.

A module is certified Gorenstein-projective by exhibiting a window of a
total projective resolution together with data that extends it to all
degrees: either a period (the window repeats), or self-injectivity of the
algebra (any exact resolution is totally exact there).  Refutations carry
one of three independently checkable witnesses.  A bounded search that
finds neither returns an honest "unknown".

One number decides the path: the Gorenstein dimension d of the algebra
(`homology.gorenstein_dimension`).  Over a proven d, Ext^{1..d}(x, A) = 0
is the whole answer; only an unproven d builds x's right tail and a
two-sided probe, whose refutations hold over any algebra.

Windows are correct by construction and are not re-checked: the split
window X (+) X with the shift differential is contractible; a
self-injective window is a period of injective envelopes closed up by an
isomorphism, or else a minimal resolution spliced to them, exact, and its
Hom into A is exact because A is injective; split-off projective
summands add a contractible window through an isomorphism.  They are
split off with no search (`homology.split_projective_summands`), so the
core has none left, and a syzygy period of the core is a cosyzygy
period: the right tail, built one cosyzygy at a time up to the first
period, is the one place a period is looked for.  A left resolution of
the core is built only for a self-injective window with no period.  Over
d != 0 a periodic window keeps one total_exactness check, for the Hom
exactness that its construction does not prove.
verify.verify_certificate is the independent check of every certificate.
"""
from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, memo, radical_basis
from .complexes import (ComplexWindow, hom_exactness_failure, per_instance,
                        total_exactness)
from .homology import (
    Resolution, _block_reps, first_nonzero_ext, gorenstein_dimension,
    is_projective, minimal_resolution, split_projective_summands,
)
from .linalg import Mat, coordinates, left_kernel, row_space, rref
from .modules import (
    FDModule, ModuleHom, Undetermined, cokernel_of, direct_sum, free_module,
    hom_space, is_isomorphic, regular_module, zero_hom,
)


class CertifyError(RuntimeError):
    pass


@dataclass
class RightTailStep:
    stage: FDModule              # cosyzygy C^j (stage 0 is the module itself)
    alpha: ModuleHom             # C^j -> P^j
    target: FDModule             # P^j, projective
    coker_proj: ModuleHom        # P^j -> C^{j+1}


@dataclass
class NotGPWitness:
    kind: str                    # "non_vanishing_ext" | "non_injective_approximation"
    degree: int                  # | "homology_obstruction"
    resolution: Resolution | None = None
    steps: list[RightTailStep] | None = None
    stage: FDModule | None = None          # module whose approximation failed
    alpha: ModuleHom | None = None         # the non-injective approximation
    kernel_row: Mat | None = None          # nonzero row killed by alpha


@dataclass
class GPCertificate:
    verdict: str                 # "gp" | "not_gp" | "unknown"
    module: FDModule
    reason: str = ""
    period: int | None = None
    window: ComplexWindow | None = None
    kernel_ident: ModuleHom | None = None
    witness: NotGPWitness | None = None
    bound: tuple | None = None

    @property
    def is_gp(self) -> bool:
        return self.verdict == "gp"


def _split_window(x: FDModule, span: int) -> tuple[ComplexWindow, ModuleHom]:
    """The contractible periodic window (x (+) x, shift differential) for a
    projective module.  One term instance is shared across all degrees."""
    F = x.algebra.field
    s, incls, _ = direct_sum([x, x], name="P+P")
    # (u, v) |-> (v, 0)
    d_mat = Mat.from_blocks(F, [x.dim, x.dim], [x.dim, x.dim],
                            [[None, None], [Mat.identity(F, x.dim), None]])
    d = ModuleHom(s, s, d_mat)
    wc = ComplexWindow(-span, span, [s] * (2 * span + 1), [d] * (2 * span))
    ki = ModuleHom(x, s, incls[0].mat)
    return wc, ki


@memo
def _radical_right_mults(a: Algebra) -> list[tuple[int, Mat]]:
    """Per block representative (A*e, incl, e) of `_block_reps`, the number
    m of rows of a basis r_1*e .. r_m*e of rad*e, and the right
    multiplications by r_1*e, .., r_m*e and then e, side by side, an
    n x (m + 1)n matrix: facts of the algebra that each minimal
    approximation over it reads."""
    rad, out = radical_basis(a), []
    for _, _, e, _ in _block_reps(a):
        rad_e = row_space(rad @ a.rmul_of(e))
        els = [rad_e.row(r) for r in range(rad_e.rows)] + [e]
        out.append((rad_e.rows, Mat.hstack([a.rmul_of(el) for el in els])))
    return out


def _minimal_approximation(cur: FDModule) -> tuple[ModuleHom, FDModule]:
    """The minimal left add(A)-approximation of cur (Auslander, Reiten &
    Smalo, ch. I): per block representative A*e, one A*e for each map of a
    complement of span{h*r*e : r in rad A} in span{h*e}, h in Hom(cur, A).
    Over a self-injective algebra it is the injective envelope."""
    a = cur.algebra
    homs = hom_space(cur, regular_module(a))
    if not homs:
        P = free_module(a, 0)
        return zero_hom(cur, P), P
    stacked = Mat.vstack([h.mat for h in homs])
    k, n, d = len(homs), a.dim, cur.dim * a.dim
    mods, blocks = [], []
    for (mod, incl, _, _), (m, mults) in zip(_block_reps(a), _radical_right_mults(a)):
        # one flattened map a row: the h*r*e, r*e over a basis of rad*e,
        # then the h*e, whose pivots pick the complement
        prods = stacked @ mults
        maps = Mat.vstack([prods.block(0, prods.rows, t * n, (t + 1) * n).reshape(k, d)
                           for t in range(m + 1)])
        for p in (q for q in rref(maps.transpose())[1] if q >= k * m):
            g = maps.block(p, p + 1, 0, d).reshape(cur.dim, a.dim)
            blocks.append(coordinates(incl.mat, g))
            mods.append(mod)
    P = direct_sum(mods)[0]
    return ModuleHom(cur, P, Mat.hstack(blocks)), P


def _right_tail(x: FDModule, length: int, dim_budget: int,
                steps: list[RightTailStep] | None = None):
    """Extend the cosyzygy steps of x (the given ones, else none) to
    `length` steps; returns (steps, final_stage), (steps, "budget") or
    (None, NotGPWitness).  Each step is deterministic, so a tail extended
    one step at a time equals the tail built at once.  The budget is
    checked before the cokernel of a step is built, so no cokernel of a
    target above it is computed; a budget stop's steps are not used."""
    steps = [] if steps is None else steps
    cur = steps[-1].coker_proj.target if steps else x
    for j in range(len(steps), length):
        alpha, P = _minimal_approximation(cur)
        ker_rows = left_kernel(alpha.mat)
        if ker_rows.rows:
            return None, NotGPWitness("non_injective_approximation", j,
                                      steps=steps, stage=cur, alpha=alpha,
                                      kernel_row=Mat(ker_rows.field,
                                                     [ker_rows.row(0)],
                                                     ker_rows.cols))
        if P.dim > dim_budget:
            return steps, "budget"
        nxt, proj = cokernel_of(alpha, name=f"C{j + 1}")
        steps.append(RightTailStep(cur, alpha, P, proj))
        cur = nxt
    return steps, cur


def _two_sided_window(res: Resolution, steps: list[RightTailStep],
                      span: int) -> tuple[ComplexWindow, ModuleHom]:
    """Left tail ++ right tail spliced at the module."""
    terms, diffs = [], []
    for i in range(-span, span + 1):
        terms.append(res.terms[-i - 1] if i < 0 else steps[i].target)
    for i in range(-span, span):
        if i < -1:
            diffs.append(res.maps[-i - 2])
        elif i == -1:
            glue = res.aug.then(steps[0].alpha)
            diffs.append(glue)
        else:
            diffs.append(steps[i].coker_proj.then(steps[i + 1].alpha))
    wc = ComplexWindow(-span, span, terms, diffs)
    return wc, steps[0].alpha


def _periodic_window(block: list[FDModule], internal: list[ModuleHom],
                     junction: ModuleHom, span: int) -> ComplexWindow:
    """The window on [-span, span] repeating the terms block[0..p-1] with
    the differentials internal[0..p-2] inside the block and junction from
    its last term back to its first."""
    p = len(block)
    terms = [block[i % p] for i in range(-span, span + 1)]
    diffs = []
    for i in range(-span, span):
        r = i % p
        d = internal[r] if r < p - 1 else junction
        diffs.append(ModuleHom(terms[i + span], terms[i + span + 1], d.mat))
    return ComplexWindow(-span, span, terms, diffs)


def _cosyzygy_periodic_window(steps: list[RightTailStep], p: int,
                              theta: ModuleHom, span: int) -> tuple[ComplexWindow, ModuleHom]:
    """Periodic window from the block P^0..P^{p-1} and an isomorphism
    theta: C^p -> x closing it up."""
    block = [steps[j].target for j in range(p)]
    internal = [steps[j].coker_proj.then(steps[j + 1].alpha) for j in range(p - 1)]
    junction = steps[p - 1].coker_proj.then(theta).then(steps[0].alpha)
    return _periodic_window(block, internal, junction, span), steps[0].alpha


def _combine_with_split(x: FDModule, overall: Mat, projs: list[FDModule],
                        core_wc: ComplexWindow, core_ki: ModuleHom,
                        span: int) -> tuple[ComplexWindow, ModuleHom]:
    """Direct-sum a contractible window for the split-off projective part
    onto a certified window for the core."""
    psum = projs[0] if len(projs) == 1 else direct_sum(projs)[0]
    split_wc, split_ki = _split_window(psum, span)
    terms = per_instance(
        lambda i: direct_sum([split_wc.term(i), core_wc.term(i)])[0],
        range(core_wc.lo, core_wc.hi + 1),
        lambda i: (core_wc.term(i), split_wc.term(i)))
    diffs = []
    for i in range(core_wc.lo, core_wc.hi):
        mat = Mat.block_diag([split_wc.diff(i).mat, core_wc.diff(i).mat])
        diffs.append(ModuleHom(terms[i - core_wc.lo], terms[i - core_wc.lo + 1], mat))
    wc = ComplexWindow(core_wc.lo, core_wc.hi, terms, diffs)
    ki_mat = overall @ Mat.block_diag([split_ki.mat, core_ki.mat])
    return wc, ModuleHom(x, terms[-core_wc.lo], ki_mat)


def _search_period(core: FDModule, steps: list[RightTailStep], window: int,
                   period_bound: int, seed: int, dim_budget: int):
    """Look for a period of the core, building only what the search reads.

    The core's right tail in steps grows one step at a time, and
    C^p ~ core is tested after step p for p up to the reach
    min(period_bound, window + 2, 2 * window - 1), the last being the
    longest period that the window [-window, window] witnesses.  The tail
    grows to at least window + 1 steps, which the two-sided window reads;
    a budget stop past them ends the search with no period.  A hit returns
    at once: past it the tail repeats, with the same target dimensions
    and the same injectivity, so the steps left unbuilt could not have
    stopped it.  Returns (window, kernel_ident, period), the tail's stop
    ("budget" or a NotGPWitness), or None.  Raises Undetermined only when
    a decisive answer was blocked."""
    reach = min(period_bound, window + 2, 2 * window - 1)
    undetermined = False
    for p in range(1, max(window + 1, reach) + 1):
        grown, stop = _right_tail(core, p, dim_budget, steps)
        if stop == "budget" and p > window + 1:
            break
        if grown is None or stop == "budget":
            return stop
        if p > reach:
            continue
        try:
            theta = is_isomorphic(steps[p - 1].coker_proj.target, core, seed=seed)
        except Undetermined:
            undetermined = True
            continue
        if theta is not None:
            return (*_cosyzygy_periodic_window(steps, p, theta, window), p)
    if undetermined:
        raise Undetermined("periodicity search hit an undetermined isomorphism test")
    return None


def certify_gorenstein_projective(x: FDModule, window: int = 6,
                                  period_bound: int = 12, seed: int = 0,
                                  dim_budget: int = 600) -> GPCertificate:
    """Decide Gorenstein-projectivity within the given bounds.

    A projective module gets a contractible periodic window.  Any other
    module takes one path on d = `homology.gorenstein_dimension`:
    Ext^i(x, A) = 0 is checked for 1 <= i <= d, or on the window when d is
    unproven, where x's right tail (by minimal left add(A)-approximations)
    and the two-sided probe may also refute.  Then x's projective summands
    are split off and a cosyzygy period p of the core is searched for,
    p <= min(period_bound, window + 2, 2 * window - 1): a period gives
    reason "self-injective" at d = 0 and "periodic" otherwise; with none,
    d = 0 certifies the two-sided window, and any other d gives "unknown".

    The core's right tail grows one cosyzygy at a time up to the first
    period, so a period-p module over a self-injective algebra costs p
    approximations whatever the window, and its left resolution is built
    only for the two-sided window.
    """
    if window < 2:
        raise ValueError("window must be at least 2")
    a = x.algebra
    if x.dim == 0 or is_projective(x):
        wc, ki = _split_window(x, window)
        return GPCertificate("gp", x, reason="split-projective", period=1,
                             window=wc, kernel_ident=ki)

    def not_gp(witness):
        return GPCertificate("not_gp", x, witness=witness)

    def unknown(reason):
        return GPCertificate("unknown", x, bound=(window, period_bound),
                             reason=reason)

    d = gorenstein_dimension(a)
    reg = regular_module(a)
    steps: list[RightTailStep] = []
    if d != 0:
        res = minimal_resolution(x, window + 1 if d is None else d + 1)
        i = first_nonzero_ext(res, reg)
        if i is not None:
            return not_gp(NotGPWitness("non_vanishing_ext", i, resolution=res))
    if d is None:
        grown, tail = _right_tail(x, window + 1, dim_budget, steps)
        if grown is None:
            return not_gp(tail)
        if tail == "budget":
            return unknown("dimension budget exceeded")
        probe, _ = _two_sided_window(res, steps, window)
        # non-exactness of Hom(probe, A) in a positive degree refutes: the
        # right-tail terms come from projective approximations, so it
        # descends to the cosyzygies
        obstruction = hom_exactness_failure(probe, reg, lo=1)
        if obstruction is not None:
            return not_gp(NotGPWitness("homology_obstruction", obstruction,
                                       steps=steps))
    # split only now, so that a refutation pays for no split
    core, projs, overall = split_projective_summands(x)
    if projs or d is not None:
        # x's right tail is the core's only with nothing split off, and built
        # only over an unproven d
        steps = []
    found = _search_period(core, steps, window, period_bound, seed, dim_budget)
    if isinstance(found, NotGPWitness):
        if d is not None:
            raise CertifyError("non-injective approximation over a Gorenstein algebra")
        return not_gp(found)
    if found == "budget":
        return unknown("dimension budget exceeded")
    if found is None and d != 0:
        return unknown("no period found within the bound")
    # with no period (d = 0), the two-sided window on [-window, window]
    # reads the right-tail steps 0..window, which the search built, and the
    # core's left resolution up to P_{window - 1}
    wc, ki, p = found or (*_two_sided_window(minimal_resolution(core, window - 1),
                                             steps, window), None)
    # over d != 0, Hom(-, A) of the periodic window is the one fact of this
    # path that its construction does not prove
    if d != 0 and not total_exactness(wc):
        raise CertifyError("assembled window is not totally exact")
    if projs:
        wc, ki = _combine_with_split(x, overall, projs, wc, ki, window)
    return GPCertificate("gp", x, reason="self-injective" if d == 0 else "periodic",
                         period=p, window=wc, kernel_ident=ki)
