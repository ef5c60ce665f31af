"""Golden matrices of the B-side constructions of the Morita layer.

The B side of a Morita context is the A side of its corner swap
(A, B, M, N, phi, psi) -> (B, A, N, M, psi, phi).  This test pins what the
B-side functions (t_b, h_b, z_b, q_b, p_b, and Phi_Y as the f of t_b)
compute on catalog contexts over Q and GF(7), so that a change in how the
B side is derived cannot change a matrix.

Regenerate tests/golden/morita_mirror.json with
    PYTHONPATH=src python tests/test_morita_mirror.py
only when a change of output is intended.
"""
from __future__ import annotations

import json
import os
import random

import pytest

from gpmorita.catalog import (
    arrow_ideal_context, full_context, glued_psi_context, random_context,
    triangular_context, truncated_poly, two_cycle_context,
)
from gpmorita.fields import GF, QQ
from gpmorita.linalg import Mat, row_space
from gpmorita.modules import quotient_by_rows, regular_module
from gpmorita.morita import (
    direct_sum_quadruples, h_a, h_b, p_b, q_b, t_a, t_b,
    validate_quadruple, z_b,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "morita_mirror.json")
FIELDS = {"Q": QQ, "GF7": lambda: GF(7)}
RANDOM_SEEDS = (0, 2, 3, 7)     # full, zero, glued and swapped contexts
NAMES = ("triangular", "two_cycle", "glued_psi", "arrow_ideal", "full_kx2") + \
    tuple(f"random{s}" for s in RANDOM_SEEDS)


def _contexts(F):
    yield "triangular", triangular_context(F)[1]
    yield "two_cycle", two_cycle_context(F)[1]
    yield "glued_psi", glued_psi_context(F)[1]
    yield "arrow_ideal", arrow_ideal_context(F)[1]
    yield "full_kx2", full_context(truncated_poly(F, 2))
    for s in RANDOM_SEEDS:
        yield f"random{s}", random_context(F, random.Random(s))[1]


def _mat(m):
    return [[str(c) for c in row] for row in m.data] or [m.rows, m.cols]


def _module(m):
    return {"name": m.name, "dim": m.dim, "acts": [_mat(a) for a in m.acts]}


def _quad(q):
    return {"name": q.name, "x": _module(q.x), "y": _module(q.y),
            "f": _mat(q.f.mat), "g": _mat(q.g.mat),
            "valid": validate_quadruple(q)}


def _quotient_by_j(ctx, y):
    J = ctx.ideal_rows_b()
    if J.rows == 0 or y.dim == 0:
        return y
    rows = row_space(Mat.vstack([y.act_of(J.row(r)) for r in range(J.rows)]))
    return quotient_by_rows(y, rows, name=f"{y.name}/JY")[0]


def _snapshot_context(ctx):
    x, y = regular_module(ctx.A), regular_module(ctx.B)
    tb, hb = t_b(ctx, y), h_b(ctx, y)
    quads = [t_a(ctx, x), tb, h_a(ctx, x), hb]
    s = direct_sum_quadruples([quads[0], tb])
    out = {
        "t_b": _quad(tb),
        "h_b": _quad(hb),
        "z_b": _quad(z_b(ctx, _quotient_by_j(ctx, y))),
        "phi_hom": _mat(tb.f.mat),
        "q_b": [], "p_b": [],
    }
    for q in quads + [s]:
        mod, proj = q_b(q)
        out["q_b"].append({"module": _module(mod), "map": _mat(proj.mat)})
        mod, incl = p_b(q)
        out["p_b"].append({"module": _module(mod), "map": _mat(incl.mat)})
    return out


def snapshot() -> dict:
    return {f"{tag}/{name}": _snapshot_context(ctx)
            for tag, field in FIELDS.items()
            for name, ctx in _contexts(field())}


@pytest.mark.parametrize("tag", list(FIELDS))
@pytest.mark.parametrize("name", NAMES)
def test_b_side_matches_golden(tag, name):
    ctx = dict(_contexts(FIELDS[tag]()))[name]
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)[f"{tag}/{name}"]
    assert json.loads(json.dumps(_snapshot_context(ctx))) == expected


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(snapshot(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
