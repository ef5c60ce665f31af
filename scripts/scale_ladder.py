#!/usr/bin/env python3
"""Time the elimination-bound scale cases, over Q and over GF(31), and
print one JSON line per case.

- hom: `hom_space(A^3, A)` for A = k[x]/(x^16), a 768 x 768 system
- certify: `certify_gorenstein_projective` on S (+) S over k[x]/(x^16),
  S the simple module, which has period 2
- certify_strip: `certify_gorenstein_projective` on M (+) M over
  k[x]/(x^16), M = k[x]/(x^15), which has period 2; the regular module,
  of dimension 16, fits in M (+) M, so the certifier reads the pairing
  that would split off its projective summands (it has none) where
  `certify`'s S (+) S is too small to hold one
- certify_split: `certify_gorenstein_projective` on M (+) A (+) M over
  k[x]/(x^16), M as above, which has period 2; the certifier splits off
  the regular summand A before it searches the core M (+) M for a period
- certify_reach: `certify_gorenstein_projective` at window 3 on Z_A(S_0)
  = (S_0, 0) over T2(N(2,2,2,2,2)), a ring of dimension 30, S_0 the simple
  at vertex 0 of the cyclic Nakayama algebra, which has period 5: the one
  case whose period is window + 2, the farthest the period search reaches
- checker: `verify_certificate` on the certificate of S (+) S over
  k[x]/(x^16), a Frobenius algebra, so the checker builds no Hom complex
- assembly: `check_conditions`, then `build_total_resolution` (window 3),
  on (S, 0) (+) T_B(S) over T2(k[x]/(x^8)) = (R, R, 0, R, 0, 0), a ring
  of dimension 24
- general2 to general8: `certify_gorenstein_projective` on Z_A(S) = (S, 0)
  over T2(k[x]/(x^n)), n = 2 to 8, a ring that is neither self-injective
  nor of finite global dimension; it is 1-Gorenstein, so the certifier
  checks Ext^1(Z_A(S), A), builds no right-tail probe and searches for a
  period
- checker_general2 to checker_general5: `verify_certificate` on the
  periodic certificate of Z_A(S) over T2(k[x]/(x^n)), n = 2 to 5: the
  ring has no nondegenerate form, so the checker builds the window's
  Hom(-, A) complex
- structure: `_block_reps` of the ring of T2(k[x]/(x^8)), cold, by the
  corner path: the idempotents of its corner k[x]/(x^8) (searched once,
  as A and B are one algebra, whose radical also serves the check of
  psi), padded into the ring and checked there, and one projective A*e
  per block; the ring's own radical is left to its first reader
- structure_op: `_block_reps` of the opposite of that ring, run right
  after the ring's own: it reads the ring's idempotents and builds its
  projectives
- structure_generic: `_block_reps` of the ring of full_context(k[x]/(x^4))
  (dimension 16), cold: psi is onto, so the corner path does not apply
  and the idempotents are searched on the ring itself

Every case builds its algebra afresh, so no memo carries over from an
earlier case or repeat.  "seconds" is the minimum over the repeats of the
timed step: the hom space, the certifier, the check, the assembly or the
block representatives (check_conditions is reported apart as
"criterion_seconds").

Run from the repository root:

    python3 scripts/scale_ladder.py [--repeat N] [--case NAME]

NAME is one of hom, certify, certify_strip, certify_split, certify_reach,
checker, assembly, generalN, checker_generalN, structure, structure_op and
structure_generic; without --case every case runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gpmorita.algebra import opposite_algebra
from gpmorita.catalog import (
    full_context, nakayama, simple_at_idempotent, simple_kx2, triangular_over,
    truncated_poly,
)
from gpmorita.engine import (
    build_total_resolution, check_conditions, identity_extension,
)
from gpmorita.fields import GF, QQ
from gpmorita.gpcert import certify_gorenstein_projective
from gpmorita.homology import _block_reps
from gpmorita.linalg import Mat
from gpmorita.modules import (
    direct_sum, free_module, hom_space, quotient_by_rows, regular_module,
)
from gpmorita.morita import (
    build_ring, direct_sum_quadruples, quadruple_to_module, t_b, z_a,
)
from gpmorita.verify import verify_certificate


def _timed(f):
    t = time.perf_counter()
    out = f()
    return out, time.perf_counter() - t


def hom_case(F):
    a = truncated_poly(F, 16)
    homs, s = _timed(lambda: hom_space(free_module(a, 3), regular_module(a)))
    assert len(homs) == 3 * a.dim
    return {"seconds": s, "hom_dim": len(homs)}


def certify_case(F):
    s = simple_kx2(truncated_poly(F, 16))
    x = direct_sum([s, s])[0]
    cert, secs = _timed(lambda: certify_gorenstein_projective(x))
    assert (cert.verdict, cert.period) == ("gp", 2), (cert.verdict, cert.period)
    return {"seconds": secs, "verdict": cert.verdict, "period": cert.period}


def certify_strip_case(F):
    a = truncated_poly(F, 16)
    reg = regular_module(a)
    m, _ = quotient_by_rows(reg, Mat(F, [[0] * 15 + [1]], 16), name="M")
    x = direct_sum([m, m])[0]
    cert, secs = _timed(lambda: certify_gorenstein_projective(x))
    assert (cert.verdict, cert.period) == ("gp", 2), (cert.verdict, cert.period)
    return {"seconds": secs, "verdict": cert.verdict, "period": cert.period}


def certify_split_case(F):
    a = truncated_poly(F, 16)
    reg = regular_module(a)
    m, _ = quotient_by_rows(reg, Mat(F, [[0] * 15 + [1]], 16), name="M")
    x = direct_sum([m, reg, m])[0]
    cert, secs = _timed(lambda: certify_gorenstein_projective(x))
    assert (cert.verdict, cert.period) == ("gp", 2), (cert.verdict, cert.period)
    return {"seconds": secs, "verdict": cert.verdict, "period": cert.period}


def certify_reach_case(F):
    r = nakayama(F, [2, 2, 2, 2, 2])
    ctx = triangular_over(r)
    x = quadruple_to_module(build_ring(ctx), z_a(ctx, simple_at_idempotent(r, 0)))
    cert, secs = _timed(lambda: certify_gorenstein_projective(x, window=3))
    assert (cert.verdict, cert.period) == ("gp", 5), (cert.verdict, cert.period)
    return {"seconds": secs, "verdict": cert.verdict, "period": cert.period,
            "ring_dim": 3 * r.dim}


def checker_case(F):
    s = simple_kx2(truncated_poly(F, 16))
    x = direct_sum([s, s])[0]
    cert = certify_gorenstein_projective(x)
    bad, secs = _timed(lambda: verify_certificate(cert, x))
    assert bad == [], bad
    return {"seconds": secs, "verdict": cert.verdict}


def assembly_case(F):
    r = truncated_poly(F, 8)
    ctx = triangular_over(r)
    ext = identity_extension(ctx)
    s = simple_kx2(r)
    q = direct_sum_quadruples([z_a(ctx, s), t_b(ctx, s)])
    rep, crit_s = _timed(lambda: check_conditions(ext, ctx, q))
    assert rep.passed
    _, secs = _timed(lambda: build_total_resolution(ext, ctx, q, rep, window=3))
    return {"seconds": secs, "criterion_seconds": crit_s, "ring_dim": 3 * r.dim}


def _general_module(F, n):
    """Z_A(S) = (S, 0) over T2(k[x]/(x^n)), and the ring's dimension."""
    r = truncated_poly(F, n)
    ctx = triangular_over(r)
    return quadruple_to_module(build_ring(ctx), z_a(ctx, simple_kx2(r))), 3 * r.dim


def general_case(F, n):
    x, ring_dim = _general_module(F, n)
    cert, secs = _timed(lambda: certify_gorenstein_projective(x))
    assert cert.verdict == "gp", (cert.verdict, cert.reason)
    return {"seconds": secs, "verdict": cert.verdict, "period": cert.period,
            "ring_dim": ring_dim}


def checker_general_case(F, n):
    x, ring_dim = _general_module(F, n)
    cert = certify_gorenstein_projective(x)
    assert cert.verdict == "gp", (cert.verdict, cert.reason)
    bad, secs = _timed(lambda: verify_certificate(cert, x))
    assert bad == [], bad
    return {"seconds": secs, "verdict": cert.verdict, "period": cert.period,
            "ring_dim": ring_dim}


def structure_case(F):
    ring = build_ring(triangular_over(truncated_poly(F, 8))).ring
    reps, secs = _timed(lambda: _block_reps(ring))
    return {"seconds": secs, "blocks": len(reps), "ring_dim": ring.dim}


def structure_op_case(F):
    ring = build_ring(triangular_over(truncated_poly(F, 8))).ring
    _block_reps(ring)
    op = opposite_algebra(ring)
    reps, secs = _timed(lambda: _block_reps(op))
    return {"seconds": secs, "blocks": len(reps), "ring_dim": op.dim}


def structure_generic_case(F):
    ring = build_ring(full_context(truncated_poly(F, 4))).ring
    reps, secs = _timed(lambda: _block_reps(ring))
    return {"seconds": secs, "blocks": len(reps), "ring_dim": ring.dim}


CASES = {"hom": hom_case, "certify": certify_case,
         "certify_strip": certify_strip_case, "certify_split": certify_split_case,
         "certify_reach": certify_reach_case,
         "checker": checker_case,
         "assembly": assembly_case,
         **{f"general{n}": partial(general_case, n=n) for n in range(2, 9)},
         **{f"checker_general{n}": partial(checker_general_case, n=n)
            for n in range(2, 6)},
         "structure": structure_case, "structure_op": structure_op_case,
         "structure_generic": structure_generic_case}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--case", choices=sorted(CASES), action="append")
    args = ap.parse_args(argv)
    for name in args.case or list(CASES):
        for label, F in (("Q", QQ()), ("GF31", GF(31))):
            runs = [CASES[name](F) for _ in range(args.repeat)]
            best = min(runs, key=lambda r: r["seconds"])
            print(json.dumps({"case": name, "field": label, **best,
                              "repeats": args.repeat}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
