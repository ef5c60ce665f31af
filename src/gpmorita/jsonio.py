"""JSON (de)serialization for problem files and reports.

A problem file is self-contained: a field spec plus named algebras,
modules, bimodules, balanced maps, contexts, trivial-extension
declarations, quadruples and complexes.  Names are resolved eagerly and
every referenced object is validated before any command runs.  A
quadruple is kept and checked as the file gives it, its maps f and g on
the full k-tensor spaces; its balanced tensors are built only by a
command that reads f or g on them.  Reports are emitted with sorted keys
and no volatile content, so identical input gives byte-identical
output.

A certificate's pieces cross JSON once per distinct piece.  Writing, each
module and matrix instance is encoded once and its dict reused wherever
the instance recurs (a periodic window repeats one term instance and its
differential matrices); json.dumps writes a shared dict out in full at
each place, so the text is that of encoding every place on its own.
Reading, pieces with equal JSON (the same canonical text) become one
instance, and so do the equal terms of a complex in a problem file.  That
is sound for a checker that trusts nothing it reads: every check of a
module or a matrix is a function of its field, algebra, dimension and
entries, all read off the JSON, so equal JSON gives equal answers; the
checks that keep their verdict on an instance (validate_module,
projective_by_splitting, hom_space) then prove each distinct piece once.
A piece is parsed at its first occurrence, so a malformed one raises
there, as it did when every occurrence was parsed.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from functools import partial

from .algebra import Algebra, validate_algebra
from .bimodules import BalancedMap, Bimodule, BimoduleError, validate_bimodule
from .complexes import ComplexError, ComplexWindow, validate_complex
from .fields import GF, QQ, Field
from .gpcert import GPCertificate, NotGPWitness, RightTailStep
from .homology import Resolution
from .linalg import Mat
from .modules import FDModule, ModuleError, ModuleHom, validate_module
from .morita import (
    MoritaContext, QuadrupleModule, validate_context, validate_quadruple,
)
from .trivext import ExtensionError, recognize_trivial_extension

SCHEMA = "gpmorita-v1"


class InputError(ValueError):
    pass


class ValidationFailure(InputError):
    """A named object parsed fine but fails its own invariants."""


_REQUIRED = object()
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def json_field(obj, what: str, key, kind: type, default=_REQUIRED):
    """obj[key], which must be of the JSON type kind: dict, list, str, int
    (not bool) or object (any value).  When default is given, an absent
    key or a null gives it.  Anything else raises InputError naming
    `what`, the object read."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} is not an object")
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in obj:
        raise InputError(f"{what} has no {key!r}")
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(f"{what}: {key!r} is {value!r}, not {_KINDS[kind]}")
    return value


# -- scalars and matrices ------------------------------------------------------


def field_to_json(F: Field):
    return "Q" if F.is_rational else {"p": F.p}


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ()
    if isinstance(obj, dict) and "p" in obj:
        p = obj["p"]
        if type(p) is not int:
            raise InputError(f"field modulus must be an integer, got {p!r}")
        try:
            return GF(p)
        except ValueError as e:
            raise InputError(str(e)) from None
    raise InputError(f"unrecognized field spec {obj!r}")


def _encoded_once(encode):
    """encode, run once per distinct instance: a repeated instance gets the
    dict made at its first occurrence (shared, so copy it before editing
    it in place)."""
    made = {}

    def once(x):
        entry = made.get(id(x))
        if entry is None:
            entry = made[id(x)] = (x, encode(x))    # x held: its id stays its own
        return entry[1]
    return once


def _decoded_once(decode):
    """decode, run once per distinct JSON value: a value whose canonical
    text was met before gives the instance decoded then.  The text tells
    1, 1.0 and true apart, which == on parsed JSON does not."""
    made = {}

    def once(obj, *args):
        key = json.dumps(obj, sort_keys=True)
        value = made.get(key)
        if value is None:
            value = made[key] = decode(obj, *args)
        return value
    return once


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
        return _read_rows(F, [entries[i * cols:(i + 1) * cols] for i in range(rows)],
                          cols)
    except ValueError as e:
        raise InputError(f"malformed matrix: {e}")


def _read_rows(F: Field, rows: list[list], cols: int) -> Mat:
    """The matrix with the given rows of JSON scalars.  Rows of plain ints,
    as most files hold, go straight into integer storage; any other entry
    is read by F.parse, which refuses true and false."""
    if all(type(x) is int for row in rows for x in row):
        return Mat.from_ints(F, rows, cols)
    return Mat(F, [[F.parse(x) for x in row] for row in rows], cols)


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
        consts = _read_rows(F, [cell for row in table for cell in row], dim)
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
    """The window, each distinct term and differential instance encoded
    once: a periodic window's repeated term is one dict."""
    mod = _encoded_once(partial(module_to_json, algebra_name=algebra_name))
    mat = _encoded_once(mat_to_json)
    return {"algebra": algebra_name, "lo": wc.lo, "hi": wc.hi,
            "terms": [mod(t) for t in wc.terms],
            "diffs": [mat(d.mat) for d in wc.diffs]}


# -- the problem file -------------------------------------------------------------


def _noun(kind: str) -> str:
    """One object of a section: "modules" -> "module"."""
    return "complex" if kind == "complexes" else kind[:-1]


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
        """The object of the section kind called name."""
        table = getattr(self, kind)
        if type(name) is not str or name not in table:
            raise InputError(f"unknown {_noun(kind)} {name!r}")
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

    def section(kind: str):
        """(name, obj, get) for each object of a section; get(key, type,
        default) is json_field on obj, named as the object."""
        table = json_field(doc, "the problem file", kind, dict, {})
        for name in table:
            obj = json_field(table, kind, name, dict)
            yield name, obj, partial(json_field, obj, f"{_noun(kind)} {name!r}")

    for name, obj, _ in section("algebras"):
        a = algebra_from_json(F, obj, name)
        bad = validate_algebra(a)
        if bad:
            raise ValidationFailure(f"algebra {name!r} invalid: {bad[0].kind} at "
                             f"{bad[0].indices}")
        prob.algebras[name] = a
        prob.algebra_names[id(a)] = name
    for name, obj, get in section("modules"):
        a = prob.algebra(get("algebra", str, ""))
        with _building("module", name):
            acts = [mat_from_json(F, m) for m in get("acts", list, [])]
            x = FDModule(a, get("dim", int, 0), acts, name=name)
        bad = validate_module(x)
        if bad:
            raise ValidationFailure(f"module {name!r} invalid: {bad[0]}")
        prob.modules[name] = x
    for name, obj, get in section("bimodules"):
        left = prob.algebra(get("left", str, ""))
        right = prob.algebra(get("right", str, ""))
        with _building("bimodule", name):
            b = Bimodule(left, right, get("dim", int, 0),
                         [mat_from_json(F, m) for m in get("left_acts", list, [])],
                         [mat_from_json(F, m) for m in get("right_acts", list, [])],
                         name=name)
            bad = validate_bimodule(b)
        if bad:
            raise ValidationFailure(f"bimodule {name!r} invalid: {bad[0]}")
        prob.bimodules[name] = b
    for name, obj, get in section("maps"):
        m = prob.named("bimodules", get("m", str, ""))
        n = prob.named("bimodules", get("n", str, ""))
        target = prob.algebra(get("target", str, ""))
        with _building("map", name):
            bm = BalancedMap(m, n, target, mat_from_json(F, get("mat", dict)))
        prob.maps[name] = bm
    for name, obj, get in section("contexts"):
        ctx = MoritaContext(
            prob.algebra(get("A", str, "")), prob.algebra(get("B", str, "")),
            prob.named("bimodules", get("M", str, "")),
            prob.named("bimodules", get("N", str, "")),
            prob.named("maps", get("phi", str, "")),
            prob.named("maps", get("psi", str, "")), name=name)
        bad = validate_context(ctx)
        if bad:
            raise ValidationFailure(f"context {name!r} invalid: {bad[0]}")
        prob.contexts[name] = ctx
    for name, obj, get in section("extensions"):
        a = prob.algebra(get("algebra", str, ""))
        lam_rows = mat_from_json(F, get("subring_rows", dict))
        ideal_rows = mat_from_json(F, get("ideal_rows", dict))
        if lam_rows.cols != a.dim or ideal_rows.cols != a.dim:
            raise InputError(f"extension {name!r}: its rows need {a.dim} columns")
        try:
            ext = recognize_trivial_extension(a, lam_rows, ideal_rows, name=name)
        except ExtensionError as e:
            raise ValidationFailure(f"extension {name!r} invalid: {e}") from e
        prob.extensions[name] = ext
    for name, obj, get in section("quadruples"):
        ctx = prob.named("contexts", get("context", str, ""))
        x = prob.named("modules", get("x", str, ""))
        y = prob.named("modules", get("y", str, ""))
        if x.algebra is not ctx.A or y.algebra is not ctx.B:
            raise InputError(f"quadruple {name!r}: x must live over the context's "
                             f"A and y over its B")
        f_full = mat_from_json(F, get("f_full", dict))
        g_full = mat_from_json(F, get("g_full", dict))
        for which, m, shape in (("f_full", f_full, (ctx.M.dim * x.dim, y.dim)),
                                ("g_full", g_full, (ctx.N.dim * y.dim, x.dim))):
            if (m.rows, m.cols) != shape:
                raise InputError(f"quadruple {name!r}: {which} is {m.rows}x{m.cols}, "
                                 f"not {shape[0]}x{shape[1]}")
        q = QuadrupleModule(ctx, x, y, f_full, g_full, name=name)
        bad = validate_quadruple(q)
        if bad:
            raise ValidationFailure(f"quadruple {name!r} invalid: {bad[0]}")
        prob.quadruples[name] = q
    for name, obj, get in section("complexes"):
        a = prob.algebra(get("algebra", str, ""))
        with _building("complex", name):
            # equal terms share the instance named by their first degree,
            # so validate_complex checks each distinct term once
            @_decoded_once
            def term(t, k):
                t_get = partial(json_field, t, f"term {k} of complex {name!r}")
                acts = [mat_from_json(F, m) for m in t_get("acts", list, [])]
                return FDModule(a, t_get("dim", int, 0), acts, name=f"{name}[{k}]")

            terms = [term(t, k) for k, t in enumerate(get("terms", list, []))]
            diffs = get("diffs", list, [])
            if len(diffs) != len(terms) - 1:
                raise ComplexError("one differential per adjacent pair required")
            diffs = [ModuleHom(s, t, mat_from_json(F, d))
                     for s, t, d in zip(terms, terms[1:], diffs)]
            c = ComplexWindow(get("lo", int, 0), get("hi", int, 0), terms, diffs)
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
    """The certificate as JSON, each distinct module and matrix instance of
    its window, and of the rest of it, encoded once: a repeated one is the
    same dict (copy the result before editing it in place).  A window is
    part of a "gp" certificate and a witness of a "not_gp" one, so no
    instance is met in both."""
    mod = _encoded_once(partial(module_to_json, algebra_name=algebra_name))
    mat = _encoded_once(mat_to_json)
    out = {"verdict": cert.verdict, "reason": cert.reason,
           "algebra": algebra_name,
           "module": mod(cert.module),
           "period": cert.period}
    if cert.window is not None:
        out["window"] = complex_to_json(cert.window, algebra_name)
    if cert.kernel_ident is not None:
        out["kernel_ident"] = mat(cert.kernel_ident.mat)
    if cert.witness is not None:
        w = cert.witness
        wout = {"kind": w.kind, "degree": w.degree}
        if w.resolution is not None:
            res = w.resolution
            wout["resolution"] = {
                "terms": [mod(t) for t in res.terms],
                "maps": [mat(d.mat) for d in res.maps],
                "aug": mat(res.aug.mat)}
        if w.steps is not None:
            wout["steps"] = [
                {"stage": mod(st.stage), "alpha": mat(st.alpha.mat),
                 "target": mod(st.target), "coker_proj": mat(st.coker_proj.mat)}
                for st in w.steps]
        if w.stage is not None:
            wout["fail_stage"] = mod(w.stage)
            wout["fail_target"] = mod(w.alpha.target)
            wout["fail_alpha"] = mat(w.alpha.mat)
            wout["kernel_row"] = mat(w.kernel_row)
        out["witness"] = wout
    if cert.bound is not None:
        out["bound"] = list(cert.bound)
    return out


def certificate_from_json(a: Algebra, obj) -> GPCertificate:
    """The certificate in obj, over a.  A missing key, a value of the wrong
    JSON type, window bounds that are not ints, or a window whose term and
    differential counts do not match its bounds raise InputError.  Modules
    with equal JSON are one instance, and so are matrices."""
    F = a.field

    def fields(o, what):
        return partial(json_field, o, f"malformed certificate: {what}")

    @_decoded_once
    def mod(o, what="a module"):
        get = fields(o, what)
        dim = get("dim", int)
        return FDModule(a, dim, [mat_from_json(F, m) for m in get("acts", list)])

    mat = _decoded_once(partial(mat_from_json, F))

    get = fields(obj, "the certificate")
    verdict = get("verdict", str)
    module = mod(get("module", object), "the module")
    window = None
    kernel_ident = None
    if "window" in obj:
        wget = fields(obj["window"], "the window")
        lo, hi, wterms, wdiffs = (wget(k, object)
                                  for k in ("lo", "hi", "terms", "diffs"))
        if type(lo) is not int or type(hi) is not int:
            raise InputError(f"malformed certificate: window bounds {lo!r}, {hi!r} "
                             "are not ints")
        if not (isinstance(wterms, list) and isinstance(wdiffs, list)
                and len(wterms) == hi - lo + 1 and len(wdiffs) == hi - lo):
            raise InputError(f"malformed certificate: a window on [{lo}, {hi}] needs "
                             f"{hi - lo + 1} terms and {hi - lo} differentials")
        terms = [mod(t) for t in wterms]
        diffs = [ModuleHom(terms[k], terms[k + 1], mat(d))
                 for k, d in enumerate(wdiffs)]
        window = ComplexWindow(lo, hi, terms, diffs)
    if "kernel_ident" in obj and window is not None:
        kernel_ident = ModuleHom(module, window.term(0),
                                 mat(obj["kernel_ident"]))
    witness = None
    if "witness" in obj:
        wget = fields(obj["witness"], "the witness")
        kind, degree = wget("kind", str), wget("degree", int)
        resolution = None
        steps = None
        stage = alpha = kernel_row = None
        robj = wget("resolution", object, None)
        if robj is not None:
            rget = fields(robj, "the witness resolution")
            rterms, rmaps, raug = (rget(k, object) for k in ("terms", "maps", "aug"))
            if not (isinstance(rterms, list) and isinstance(rmaps, list)
                    and len(rterms) == len(rmaps) + 1):
                raise InputError("malformed certificate: the witness resolution "
                                 "needs one term more than it has maps")
            terms = [mod(t) for t in rterms]
            maps = [ModuleHom(terms[k + 1], terms[k], mat(d))
                    for k, d in enumerate(rmaps)]
            aug = ModuleHom(terms[0], module, mat(raug))
            resolution = Resolution(module, terms, maps, aug, [])
        wsteps = wget("steps", list, None)
        if wsteps is not None:
            steps = []
            for st in wsteps:
                sget = fields(st, "a witness step")
                s_mod = mod(sget("stage", object))
                t_mod = mod(sget("target", object))
                al = ModuleHom(s_mod, t_mod, mat(sget("alpha", object)))
                ck = mat(sget("coker_proj", object))
                nxt = FDModule(a, ck.cols, _induced_acts(a, t_mod, ck))
                steps.append(RightTailStep(s_mod, al, t_mod,
                                           ModuleHom(t_mod, nxt, ck)))
        fail_stage = wget("fail_stage", object, None)
        if fail_stage is not None:
            stage = mod(fail_stage)
            target = mod(wget("fail_target", object))
            alpha = ModuleHom(stage, target, mat(wget("fail_alpha", object)))
            kernel_row = mat(wget("kernel_row", object))
        witness = NotGPWitness(kind, degree, resolution=resolution, steps=steps,
                               stage=stage, alpha=alpha, kernel_row=kernel_row)
    bound = get("bound", list, None)
    return GPCertificate(verdict, module, reason=obj.get("reason", ""),
                         period=obj.get("period"), window=window,
                         kernel_ident=kernel_ident, witness=witness,
                         bound=tuple(bound) if bound else None)


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
