"""JSON (de)serialization for problem files and reports.

A problem file is self-contained: a field spec plus named algebras,
modules, bimodules, balanced maps, contexts, trivial-extension
declarations, quadruples and complexes.  Names are resolved eagerly and
every referenced object is validated before any command runs.  Reports
are emitted with sorted keys and no volatile content, so identical input
and seed give byte-identical output.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

from .algebra import Algebra, validate_algebra
from .bimodules import BalancedMap, Bimodule, BimoduleError, validate_bimodule
from .complexes import ComplexError, ComplexWindow, validate_complex
from .fields import Field, FieldSpec
from .gpcert import GPCertificate, NotGPWitness, RightTailStep
from .homology import Resolution
from .linalg import Mat
from .modules import FDModule, ModuleError, ModuleHom, validate_module
from .morita import (
    ContextError, MoritaContext, make_quadruple, validate_context,
    validate_quadruple,
)
from .trivext import ExtensionError, recognize_trivial_extension

SCHEMA = "gpmorita-v1"


class InputError(ValueError):
    pass


class ValidationFailure(InputError):
    """A named object parsed fine but fails its own invariants."""


# -- scalars and matrices ------------------------------------------------------


def field_to_json(F: Field):
    return "Q" if F.is_rational else {"p": F.p}


def field_from_json(obj) -> Field:
    if obj == "Q":
        return Field(FieldSpec("Q"))
    if isinstance(obj, dict) and "p" in obj:
        p = obj["p"]
        if type(p) is not int:
            raise InputError(f"field modulus must be an integer, got {p!r}")
        try:
            return Field(FieldSpec("Fp", p))
        except ValueError as e:
            raise InputError(str(e)) from None
    raise InputError(f"unrecognized field spec {obj!r}")


def mat_to_json(m: Mat):
    F = m.field
    return {"rows": m.rows, "cols": m.cols,
            "entries": [F.format(x) for row in m.to_rows() for x in row]}


def mat_from_json(F: Field, obj) -> Mat:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as e:
        raise InputError(f"malformed matrix: {e}")
    for key, n in (("rows", rows), ("cols", cols)):
        if type(n) is not int or n < 0:
            raise InputError(f"malformed matrix: {key} must be a non-negative "
                             f"integer, got {n!r}")
    if not isinstance(entries, list):
        raise InputError(f"malformed matrix: entries must be a list, got {entries!r}")
    if len(entries) != rows * cols:
        raise InputError("matrix entry count does not match its shape")
    try:
        vals = [F.parse(x) for x in entries]
    except ValueError as e:
        raise InputError(f"malformed matrix: {e}")
    data = [vals[i * cols:(i + 1) * cols] for i in range(rows)]
    return Mat(F, data, cols)


# -- named objects ---------------------------------------------------------------


def algebra_to_json(a: Algebra):
    """The nested table "mul": mul[i][j] is row i * dim + j of consts."""
    F, n = a.field, a.dim
    rows = [[F.format(c) for c in row] for row in a.consts.to_rows()]
    return {"dim": n,
            "mul": [rows[i * n:(i + 1) * n] for i in range(n)],
            "unit": [F.format(c) for c in a.unit]}


def algebra_from_json(F: Field, obj, name: str) -> Algebra:
    try:
        dim = obj["dim"]
        table = obj["mul"]
        if not isinstance(dim, int) or len(table) != dim or any(
                len(row) != dim for row in table):
            raise ValueError("structure constant table has wrong shape")
        consts = Mat(F, [[F.parse(c) for c in cell] for row in table for cell in row],
                     dim)
        unit = [F.parse(c) for c in obj["unit"]]
        return Algebra(F, dim, consts, unit, name=name)
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"malformed algebra {name!r}: {e}")


def module_to_json(x: FDModule, algebra_name: str):
    return {"algebra": algebra_name, "dim": x.dim,
            "acts": [mat_to_json(m) for m in x.acts]}


def bimodule_to_json(b: Bimodule, left_name: str, right_name: str):
    return {"left": left_name, "right": right_name, "dim": b.dim,
            "left_acts": [mat_to_json(m) for m in b.left_acts],
            "right_acts": [mat_to_json(m) for m in b.right_acts]}


def complex_to_json(wc: ComplexWindow, algebra_name: str):
    return {"algebra": algebra_name, "lo": wc.lo, "hi": wc.hi,
            "terms": [module_to_json(t, algebra_name) for t in wc.terms],
            "diffs": [mat_to_json(d.mat) for d in wc.diffs]}


# -- the problem file -------------------------------------------------------------


@dataclass
class Problem:
    field: Field
    algebras: dict = dc_field(default_factory=dict)
    modules: dict = dc_field(default_factory=dict)
    bimodules: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    contexts: dict = dc_field(default_factory=dict)
    extensions: dict = dc_field(default_factory=dict)
    quadruples: dict = dc_field(default_factory=dict)
    complexes: dict = dc_field(default_factory=dict)
    algebra_names: dict = dc_field(default_factory=dict)   # id -> name

    def algebra(self, name: str) -> Algebra:
        if name not in self.algebras:
            raise InputError(f"unknown algebra {name!r}")
        return self.algebras[name]

    def named(self, kind: str, name: str):
        table = getattr(self, kind)
        if name not in table:
            raise InputError(f"unknown {kind[:-1]} {name!r}")
        return table[name]


@contextmanager
def _building(kind: str, name: str):
    """Report a wrong shape or count met while building a named object
    (an action matrix that disagrees with `dim`, say) as an input error
    that names the object."""
    try:
        yield
    except (ModuleError, BimoduleError, ComplexError) as e:
        raise InputError(f"{kind} {name!r}: {e}") from e


def load_problem(doc: dict) -> Problem:
    if not isinstance(doc, dict) or "field" not in doc:
        raise InputError("problem file needs a field spec")
    F = field_from_json(doc["field"])
    prob = Problem(F)
    for name, obj in (doc.get("algebras") or {}).items():
        a = algebra_from_json(F, obj, name)
        bad = validate_algebra(a)
        if bad:
            raise ValidationFailure(f"algebra {name!r} invalid: {bad[0].kind} at "
                             f"{bad[0].indices}")
        prob.algebras[name] = a
        prob.algebra_names[id(a)] = name
    for name, obj in (doc.get("modules") or {}).items():
        a = prob.algebra(obj.get("algebra", ""))
        with _building("module", name):
            acts = [mat_from_json(F, m) for m in obj.get("acts", [])]
            x = FDModule(a, obj.get("dim", 0), acts, name=name)
        bad = validate_module(x)
        if bad:
            raise ValidationFailure(f"module {name!r} invalid: {bad[0]}")
        prob.modules[name] = x
    for name, obj in (doc.get("bimodules") or {}).items():
        left = prob.algebra(obj.get("left", ""))
        right = prob.algebra(obj.get("right", ""))
        with _building("bimodule", name):
            b = Bimodule(left, right, obj.get("dim", 0),
                         [mat_from_json(F, m) for m in obj.get("left_acts", [])],
                         [mat_from_json(F, m) for m in obj.get("right_acts", [])],
                         name=name)
            bad = validate_bimodule(b)
        if bad:
            raise ValidationFailure(f"bimodule {name!r} invalid: {bad[0]}")
        prob.bimodules[name] = b
    for name, obj in (doc.get("maps") or {}).items():
        m = prob.named("bimodules", obj.get("m", ""))
        n = prob.named("bimodules", obj.get("n", ""))
        target = prob.algebra(obj.get("target", ""))
        with _building("map", name):
            bm = BalancedMap(m, n, target, mat_from_json(F, obj["mat"]))
        prob.maps[name] = bm
    for name, obj in (doc.get("contexts") or {}).items():
        ctx = MoritaContext(
            prob.algebra(obj.get("A", "")), prob.algebra(obj.get("B", "")),
            prob.named("bimodules", obj.get("M", "")),
            prob.named("bimodules", obj.get("N", "")),
            prob.named("maps", obj.get("phi", "")),
            prob.named("maps", obj.get("psi", "")), name=name)
        bad = validate_context(ctx)
        if bad:
            raise ValidationFailure(f"context {name!r} invalid: {bad[0]}")
        prob.contexts[name] = ctx
    for name, obj in (doc.get("extensions") or {}).items():
        a = prob.algebra(obj.get("algebra", ""))
        lam_rows = mat_from_json(F, obj["subring_rows"])
        ideal_rows = mat_from_json(F, obj["ideal_rows"])
        try:
            ext = recognize_trivial_extension(a, lam_rows, ideal_rows, name=name)
        except ExtensionError as e:
            raise ValidationFailure(f"extension {name!r} invalid: {e}") from e
        prob.extensions[name] = ext
    for name, obj in (doc.get("quadruples") or {}).items():
        ctx = prob.named("contexts", obj.get("context", ""))
        x = prob.named("modules", obj.get("x", ""))
        y = prob.named("modules", obj.get("y", ""))
        if x.algebra is not ctx.A or y.algebra is not ctx.B:
            raise InputError(f"quadruple {name!r}: x must live over the context's "
                             f"A and y over its B")
        f_full = mat_from_json(F, obj["f_full"])
        g_full = mat_from_json(F, obj["g_full"])
        for which, m, shape in (("f_full", f_full, (ctx.M.dim * x.dim, y.dim)),
                                ("g_full", g_full, (ctx.N.dim * y.dim, x.dim))):
            if (m.rows, m.cols) != shape:
                raise InputError(f"quadruple {name!r}: {which} is {m.rows}x{m.cols}, "
                                 f"not {shape[0]}x{shape[1]}")
        try:
            q = make_quadruple(ctx, x, y, f_full, g_full, name=name)
        except ContextError as e:
            raise ValidationFailure(f"quadruple {name!r} invalid: {e}") from e
        bad = validate_quadruple(q)
        if bad:
            raise ValidationFailure(f"quadruple {name!r} invalid: {bad[0]}")
        prob.quadruples[name] = q
    for name, obj in (doc.get("complexes") or {}).items():
        a = prob.algebra(obj.get("algebra", ""))
        with _building("complex", name):
            terms = []
            for k, t in enumerate(obj.get("terms", [])):
                acts = [mat_from_json(F, m) for m in t.get("acts", [])]
                terms.append(FDModule(a, t.get("dim", 0), acts,
                                      name=f"{name}[{k}]"))
            diffs = []
            for k, d in enumerate(obj.get("diffs", [])):
                diffs.append(ModuleHom(terms[k], terms[k + 1], mat_from_json(F, d)))
            c = ComplexWindow(obj.get("lo", 0), obj.get("hi", 0), terms, diffs)
        bad = validate_complex(c)
        if bad:
            raise ValidationFailure(f"complex {name!r} invalid: {bad[0]}")
        prob.complexes[name] = c
    return prob


def load_problem_file(path: str) -> Problem:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read problem file: {e}")
    return load_problem(doc)


# -- certificates ----------------------------------------------------------------


def certificate_to_json(cert: GPCertificate, algebra_name: str):
    out = {"verdict": cert.verdict, "reason": cert.reason,
           "algebra": algebra_name,
           "module": module_to_json(cert.module, algebra_name),
           "period": cert.period}
    if cert.window is not None:
        out["window"] = complex_to_json(cert.window, algebra_name)
    if cert.kernel_ident is not None:
        out["kernel_ident"] = mat_to_json(cert.kernel_ident.mat)
    if cert.witness is not None:
        w = cert.witness
        wout = {"kind": w.kind, "degree": w.degree}
        if w.resolution is not None:
            res = w.resolution
            wout["resolution"] = {
                "terms": [module_to_json(t, algebra_name) for t in res.terms],
                "maps": [mat_to_json(d.mat) for d in res.maps],
                "aug": mat_to_json(res.aug.mat)}
        if w.steps is not None:
            wout["steps"] = [
                {"stage": module_to_json(st.stage, algebra_name),
                 "alpha": mat_to_json(st.alpha.mat),
                 "target": module_to_json(st.target, algebra_name),
                 "coker_proj": mat_to_json(st.coker_proj.mat)}
                for st in w.steps]
        if w.stage is not None:
            wout["fail_stage"] = module_to_json(w.stage, algebra_name)
            wout["fail_alpha"] = mat_to_json(w.alpha.mat)
            wout["kernel_row"] = mat_to_json(w.kernel_row)
        out["witness"] = wout
    if cert.bound is not None:
        out["bound"] = list(cert.bound)
    return out


def _require(obj, keys: tuple, what: str):
    """Raise InputError unless obj is an object with every key."""
    if not isinstance(obj, dict):
        raise InputError(f"malformed certificate: {what} is not an object")
    missing = next((k for k in keys if k not in obj), None)
    if missing is not None:
        raise InputError(f"malformed certificate: {what} has no {missing!r}")


def certificate_from_json(a: Algebra, obj) -> GPCertificate:
    """The certificate in obj, over a.  A missing key, window bounds that
    are not ints, or a window whose term and differential counts do not
    match its bounds raise InputError."""
    F = a.field

    def mod(o, what="a module"):
        _require(o, ("dim", "acts"), what)
        return FDModule(a, o["dim"], [mat_from_json(F, m) for m in o["acts"]])

    _require(obj, ("verdict", "module"), "the certificate")
    module = mod(obj["module"], "the module")
    window = None
    kernel_ident = None
    if "window" in obj:
        wobj = obj["window"]
        _require(wobj, ("lo", "hi", "terms", "diffs"), "the window")
        lo, hi = wobj["lo"], wobj["hi"]
        if type(lo) is not int or type(hi) is not int:
            raise InputError(f"malformed certificate: window bounds {lo!r}, {hi!r} "
                             "are not ints")
        if not (isinstance(wobj["terms"], list) and isinstance(wobj["diffs"], list)
                and len(wobj["terms"]) == hi - lo + 1
                and len(wobj["diffs"]) == hi - lo):
            raise InputError(f"malformed certificate: a window on [{lo}, {hi}] needs "
                             f"{hi - lo + 1} terms and {hi - lo} differentials")
        terms = [mod(t) for t in wobj["terms"]]
        diffs = [ModuleHom(terms[k], terms[k + 1], mat_from_json(F, d))
                 for k, d in enumerate(wobj["diffs"])]
        window = ComplexWindow(wobj["lo"], wobj["hi"], terms, diffs)
    if "kernel_ident" in obj and window is not None:
        kernel_ident = ModuleHom(module, window.term(0),
                                 mat_from_json(F, obj["kernel_ident"]))
    witness = None
    if "witness" in obj:
        wobj = obj["witness"]
        _require(wobj, ("kind", "degree"), "the witness")
        resolution = None
        steps = None
        stage = alpha = kernel_row = None
        if "resolution" in wobj:
            robj = wobj["resolution"]
            _require(robj, ("terms", "maps", "aug"), "the witness resolution")
            if not (isinstance(robj["terms"], list) and isinstance(robj["maps"], list)
                    and len(robj["terms"]) == len(robj["maps"]) + 1):
                raise InputError("malformed certificate: the witness resolution "
                                 "needs one term more than it has maps")
            terms = [mod(t) for t in robj["terms"]]
            maps = [ModuleHom(terms[k + 1], terms[k], mat_from_json(F, d))
                    for k, d in enumerate(robj["maps"])]
            aug = ModuleHom(terms[0], module, mat_from_json(F, robj["aug"]))
            resolution = Resolution(module, terms, maps, aug, [], False)
        if "steps" in wobj:
            steps = []
            for st in wobj["steps"]:
                _require(st, ("stage", "alpha", "target", "coker_proj"), "a witness step")
                s_mod = mod(st["stage"])
                t_mod = mod(st["target"])
                al = ModuleHom(s_mod, t_mod, mat_from_json(F, st["alpha"]))
                ck = mat_from_json(F, st["coker_proj"])
                nxt = FDModule(a, ck.cols, _induced_acts(a, t_mod, ck))
                steps.append(RightTailStep(s_mod, al, t_mod,
                                           ModuleHom(t_mod, nxt, ck)))
        if "fail_stage" in wobj:
            _require(wobj, ("fail_alpha", "kernel_row"), "the witness")
            stage = mod(wobj["fail_stage"])
            tgt_mat = mat_from_json(F, wobj["fail_alpha"])
            from .modules import free_module
            target = free_module(a, tgt_mat.cols // a.dim if a.dim else 0)
            alpha = ModuleHom(stage, target, tgt_mat)
            kernel_row = mat_from_json(F, wobj["kernel_row"])
        witness = NotGPWitness(wobj["kind"], wobj["degree"],
                               resolution=resolution, steps=steps,
                               stage=stage, alpha=alpha, kernel_row=kernel_row)
    return GPCertificate(obj["verdict"], module, reason=obj.get("reason", ""),
                         period=obj.get("period"), window=window,
                         kernel_ident=kernel_ident, witness=witness,
                         bound=tuple(obj["bound"]) if obj.get("bound") else None)


def _induced_acts(a: Algebra, src: FDModule, proj: Mat):
    from .linalg import solve
    acts = []
    for t in range(a.dim):
        induced = solve(proj, src.acts[t] @ proj)
        if induced is None:
            raise InputError("witness cokernel does not carry an action")
        acts.append(induced)
    return acts


def dumps_report(obj: dict) -> str:
    out = {"schema": SCHEMA}
    out.update(obj)
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"
