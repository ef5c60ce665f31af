#!/usr/bin/env python3
"""Regenerate the shipped JSON fixtures from the catalog constructions.

Run from the repository root:  python3 scripts/gen_fixtures.py
"""
from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gpmorita.catalog import (
    arrow_ideal_context, glued_psi_context, simple_kx2, triangular_context,
    truncated_poly, two_cycle_context,
)
from gpmorita.complexes import ComplexWindow
from gpmorita.fields import QQ
from gpmorita.jsonio import (
    algebra_to_json, bimodule_to_json, complex_to_json, field_to_json,
    mat_to_json, module_to_json,
)
from gpmorita.linalg import Mat
from gpmorita.modules import FDModule, ModuleHom, regular_module
from gpmorita.morita import t_a, t_b, z_a, z_b  # noqa: F401
from gpmorita.trivext import t_lambda

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def quadruple_entry(q, ctx_name, x_name, y_name):
    return {"context": ctx_name, "x": x_name, "y": y_name,
            "f_full": mat_to_json(q.f_full), "g_full": mat_to_json(q.g_full)}


def context_doc(ext, ctx, quad_builders):
    """Assemble a problem document for one glued context."""
    F = ctx.A.field
    doc = {"field": field_to_json(F)}
    doc["algebras"] = {"A": algebra_to_json(ctx.A), "B": algebra_to_json(ctx.B)}
    doc["bimodules"] = {"M": bimodule_to_json(ctx.M, "B", "A"),
                        "N": bimodule_to_json(ctx.N, "A", "B")}
    doc["maps"] = {"phi": {"m": "M", "n": "N", "target": "B",
                           "mat": mat_to_json(ctx.phi.mat)},
                   "psi": {"m": "N", "n": "M", "target": "A",
                           "mat": mat_to_json(ctx.psi.mat)}}
    doc["contexts"] = {"ctx": {"A": "A", "B": "B", "M": "M", "N": "N",
                               "phi": "phi", "psi": "psi"}}
    doc["extensions"] = {"ext": {"algebra": "A",
                                 "subring_rows": mat_to_json(ext.incl_rows),
                                 "ideal_rows": mat_to_json(ext.ideal_rows)}}
    doc["modules"] = {}
    doc["quadruples"] = {}
    for name, q in quad_builders:
        xn, yn = f"{name}.x", f"{name}.y"
        doc["modules"][xn] = module_to_json(q.x, "A")
        doc["modules"][yn] = module_to_json(q.y, "B")
        doc["quadruples"][name] = quadruple_entry(q, "ctx", xn, yn)
    return doc


def write(name, doc):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {path}")


def main():
    os.makedirs(OUT, exist_ok=True)
    F = QQ()

    ext, ctx = triangular_context(F)
    quads = [("P1", t_a(ctx, regular_module(ctx.A), name="P1")),
             ("P2", t_b(ctx, regular_module(ctx.B), name="P2")),
             ("S2", z_b(ctx, regular_module(ctx.B), name="S2"))]
    write("triangular.json", context_doc(ext, ctx, quads))

    ext, ctx = two_cycle_context(F)
    quads = [("P1", t_a(ctx, regular_module(ctx.A), name="P1")),
             ("P2", t_b(ctx, regular_module(ctx.B), name="P2")),
             ("S1", z_a(ctx, regular_module(ctx.A), name="S1")),
             ("S2", z_b(ctx, regular_module(ctx.B), name="S2"))]
    write("two_cycle.json", context_doc(ext, ctx, quads))

    ext, ctx = glued_psi_context(F)
    quads = [("TL", t_lambda(ext, ctx, regular_module(ext.Lam), name="TL")),
             ("P2", t_b(ctx, regular_module(ctx.B), name="P2")),
             ("ZB", z_b(ctx, regular_module(ctx.B), name="ZB"))]
    write("glued5.json", context_doc(ext, ctx, quads))

    ext, ctx = arrow_ideal_context(F)
    quads = [("TL", t_lambda(ext, ctx, regular_module(ext.Lam), name="TL")),
             ("P2", t_b(ctx, regular_module(ctx.B), name="P2"))]
    write("arrow_glue.json", context_doc(ext, ctx, quads))

    # the (phi, 0) presentation of the 5-dimensional noncommutative tensor
    # product, for the mirrored criterion
    from gpmorita.nctensor import build_nc_tensor, nc_morita_presentation
    _, base = two_cycle_context(F)
    nc = build_nc_tensor(base)
    pres = nc_morita_presentation(nc)
    ctx2, ext_b = pres.ctx2, pres.ext_b
    doc = {"field": field_to_json(F)}
    doc["algebras"] = {"A": algebra_to_json(ctx2.A), "B": algebra_to_json(ctx2.B)}
    doc["bimodules"] = {"M": bimodule_to_json(ctx2.M, "B", "A"),
                        "N": bimodule_to_json(ctx2.N, "A", "B")}
    doc["maps"] = {"phi": {"m": "M", "n": "N", "target": "B",
                           "mat": mat_to_json(ctx2.phi.mat)},
                   "psi": {"m": "N", "n": "M", "target": "A",
                           "mat": mat_to_json(ctx2.psi.mat)}}
    doc["contexts"] = {"ctx": {"A": "A", "B": "B", "M": "M", "N": "N",
                               "phi": "phi", "psi": "psi"}}
    doc["extensions"] = {"extB": {"algebra": "B",
                                  "subring_rows": mat_to_json(ext_b.incl_rows),
                                  "ideal_rows": mat_to_json(ext_b.ideal_rows)}}
    doc["modules"] = {}
    doc["quadruples"] = {}
    for name, q in [("PB", t_b(ctx2, regular_module(ctx2.B), name="PB")),
                    ("PA", t_a(ctx2, regular_module(ctx2.A), name="PA")),
                    ("SB", z_b(ctx2, _b_simple(ctx2), name="SB"))]:
        xn, yn = f"{name}.x", f"{name}.y"
        doc["modules"][xn] = module_to_json(q.x, "A")
        doc["modules"][yn] = module_to_json(q.y, "B")
        doc["quadruples"][name] = quadruple_entry(q, "ctx", xn, yn)
    write("nc_phi.json", doc)

    # a one-algebra file for certify-gp and check-compat; its window is
    # ... -> A2 -> A2 -> ... in degrees -3 to 3, A2 on the basis (x, 1) and
    # each differential 1 |-> 3x, so every kernel and image is (x)
    a2 = truncated_poly(F, 2)
    s = simple_kx2(a2)
    reg = regular_module(a2)
    free = FDModule(a2, 2, [Mat.identity(F, 2), Mat.from_ints(F, [[0, 0], [1, 0]])])
    d = ModuleHom(free, free, Mat.from_ints(F, [[0, 0], [3, 0]]))
    window = ComplexWindow(-3, 3, [free] * 7, [d] * 6)
    doc = {"field": field_to_json(F),
           "algebras": {"A2": algebra_to_json(a2)},
           "modules": {"S": module_to_json(s, "A2"),
                       "R": module_to_json(reg, "A2")},
           "bimodules": {
               "S_bim": {"left": "A2", "right": "A2", "dim": 1,
                         "left_acts": [mat_to_json(Mat.identity(F, 1)),
                                       mat_to_json(Mat.zeros(F, 1, 1))],
                         "right_acts": [mat_to_json(Mat.identity(F, 1)),
                                        mat_to_json(Mat.zeros(F, 1, 1))]}},
           "complexes": {"S_window": complex_to_json(window, "A2")}}
    write("dual_numbers.json", doc)


def _b_simple(ctx2):
    from gpmorita.homology import simple_modules
    return next(s for s in simple_modules(ctx2.B) if s.dim == 1)


if __name__ == "__main__":
    main()
