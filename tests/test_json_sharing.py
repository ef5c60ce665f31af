"""A certificate crosses JSON once per distinct piece.

`jsonio` used to encode every place of a certificate on its own and to
decode every place into its own instance.  That code is kept here,
renamed, as the oracle (a failing approximation's target, `fail_target`,
crosses JSON in both): on every fixture, over Q and GF(7), the
certificates of `certify-gp`, `check-gp` and `nc-tensor check` encode to
the same bytes, and the certificates it decodes verify with the same
answers, tampered ones with the same messages.  Decoded pieces are one
instance exactly when their JSON is equal, and the checker proves each
distinct term once."""
from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stdout
from functools import cache, partial
from itertools import combinations

import pytest

from gpmorita import cli, complexes, modules, verify
from gpmorita.complexes import ComplexWindow
from gpmorita.gpcert import (
    GPCertificate, NotGPWitness, RightTailStep, certify_gorenstein_projective,
)
from gpmorita.homology import Resolution
from gpmorita.jsonio import (
    InputError, _induced_acts, certificate_from_json, certificate_to_json,
    dumps_report, json_field, load_problem, load_problem_file, mat_from_json,
    mat_to_json, module_to_json,
)
from gpmorita.linalg import Mat
from gpmorita.modules import FDModule, ModuleHom
from gpmorita.morita import build_ring

FIX = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "fixtures")
FIXTURES = ["arrow_glue.json", "dual_numbers.json", "glued5.json", "nc_phi.json",
            "triangular.json", "two_cycle.json"]


# -- the per-place encoder and decoder, as jsonio had them ----------------------


def per_place_complex_to_json(wc, algebra_name: str):
    return {"algebra": algebra_name, "lo": wc.lo, "hi": wc.hi,
            "terms": [module_to_json(t, algebra_name) for t in wc.terms],
            "diffs": [mat_to_json(d.mat) for d in wc.diffs]}


def per_place_certificate_to_json(cert: GPCertificate, algebra_name: str):
    out = {"verdict": cert.verdict, "reason": cert.reason,
           "algebra": algebra_name,
           "module": module_to_json(cert.module, algebra_name),
           "period": cert.period}
    if cert.window is not None:
        out["window"] = per_place_complex_to_json(cert.window, algebra_name)
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
            wout["fail_target"] = module_to_json(w.alpha.target, algebra_name)
            wout["fail_alpha"] = mat_to_json(w.alpha.mat)
            wout["kernel_row"] = mat_to_json(w.kernel_row)
        out["witness"] = wout
    if cert.bound is not None:
        out["bound"] = list(cert.bound)
    return out


def per_place_certificate_from_json(a, obj) -> GPCertificate:
    F = a.field

    def fields(o, what):
        return partial(json_field, o, f"malformed certificate: {what}")

    def mod(o, what="a module"):
        get = fields(o, what)
        dim = get("dim", int)
        return FDModule(a, dim, [mat_from_json(F, m) for m in get("acts", list)])

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
        diffs = [ModuleHom(terms[k], terms[k + 1], mat_from_json(F, d))
                 for k, d in enumerate(wdiffs)]
        window = ComplexWindow(lo, hi, terms, diffs)
    if "kernel_ident" in obj and window is not None:
        kernel_ident = ModuleHom(module, window.term(0),
                                 mat_from_json(F, obj["kernel_ident"]))
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
            maps = [ModuleHom(terms[k + 1], terms[k], mat_from_json(F, d))
                    for k, d in enumerate(rmaps)]
            aug = ModuleHom(terms[0], module, mat_from_json(F, raug))
            resolution = Resolution(module, terms, maps, aug, [])
        wsteps = wget("steps", list, None)
        if wsteps is not None:
            steps = []
            for st in wsteps:
                sget = fields(st, "a witness step")
                s_mod = mod(sget("stage", object))
                t_mod = mod(sget("target", object))
                al = ModuleHom(s_mod, t_mod, mat_from_json(F, sget("alpha", object)))
                ck = mat_from_json(F, sget("coker_proj", object))
                nxt = FDModule(a, ck.cols, _induced_acts(a, t_mod, ck))
                steps.append(RightTailStep(s_mod, al, t_mod,
                                           ModuleHom(t_mod, nxt, ck)))
        fail_stage = wget("fail_stage", object, None)
        if fail_stage is not None:
            stage = mod(fail_stage)
            target = mod(wget("fail_target", object))
            alpha = ModuleHom(stage, target,
                              mat_from_json(F, wget("fail_alpha", object)))
            kernel_row = mat_from_json(F, wget("kernel_row", object))
        witness = NotGPWitness(kind, degree, resolution=resolution, steps=steps,
                               stage=stage, alpha=alpha, kernel_row=kernel_row)
    bound = get("bound", list, None)
    return GPCertificate(verdict, module, reason=obj.get("reason", ""),
                         period=obj.get("period"), window=window,
                         kernel_ident=kernel_ident, witness=witness,
                         bound=tuple(bound) if bound else None)


# -- the reports of every fixture -------------------------------------------------


@pytest.fixture(scope="module", params=["Q", "GF7"])
def field(request):
    return request.param


@pytest.fixture(scope="module")
def gf7_dir(tmp_path_factory):
    """A directory of the fixtures' GF(7) copies."""
    d = tmp_path_factory.mktemp("gf7")
    for name in FIXTURES:
        with open(os.path.join(FIX, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["field"] = {"p": 7}
        (d / name).write_text(json.dumps(doc))
    return d


def _path(field, gf7_dir, name):
    return os.path.join(FIX, name) if field == "Q" else str(gf7_dir / name)


def _commands(path):
    """certify-gp on every module (fixtures with no context) or quadruple,
    check-gp or nc-tensor check on every extension and quadruple."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not doc.get("contexts"):
        return [["certify-gp", path, "--module", m] for m in sorted(doc["modules"])]
    cmds = []
    for c, ctx in sorted(doc["contexts"].items()):
        for q in sorted(doc["quadruples"]):
            cmds.append(["certify-gp", path, "--context", c, "--quadruple", q])
            for e, ext in sorted(doc["extensions"].items()):
                cmd = ["check-gp"] if ext["algebra"] == ctx["A"] else ["nc-tensor", "check"]
                cmds.append(cmd + [path, "--extension", e, "--context", c,
                                   "--quadruple", q])
    return cmds


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(argv + ["--json"])
    return out.getvalue()


@cache
def _certificates(path):
    """(argv, certificate JSON) of every certificate the commands on path
    report, each command run once per pytest run (copy a certificate
    before editing it)."""
    return [(argv, cert) for argv in _commands(path)
            for key, cert in sorted(json.loads(_run(argv)).items())
            if key.endswith("certificate")]


def _algebra(prob, name):
    """The algebra a certificate names, as verify-report resolves it."""
    if name in prob.algebras:
        return prob.algebras[name]
    if name.startswith("ring("):
        return build_ring(prob.contexts[name[5:-1]]).ring
    return prob.extensions[name].Lam


def _decoded(path, decode):
    """(certificate JSON, decoded certificate) for every certificate on
    path, each decoded by decode(algebra, obj) against a fresh load of the
    problem."""
    prob = load_problem_file(path)
    return [(obj, decode(_algebra(prob, obj["algebra"]), obj))
            for _, obj in _certificates(path)]


def _key(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _pieces(obj, cert):
    """([(JSON, module)], [(JSON, matrix)]) of every piece a certificate
    reads off its JSON."""
    mods, mats = [(obj["module"], cert.module)], []
    if cert.window is not None:
        mods += zip(obj["window"]["terms"], cert.window.terms)
        mats += zip(obj["window"]["diffs"], [d.mat for d in cert.window.diffs])
        mats.append((obj["kernel_ident"], cert.kernel_ident.mat))
    w, wobj = cert.witness, obj.get("witness", {})
    if w is not None and w.resolution is not None:
        robj = wobj["resolution"]
        mods += zip(robj["terms"], w.resolution.terms)
        mats += zip(robj["maps"], [d.mat for d in w.resolution.maps])
        mats.append((robj["aug"], w.resolution.aug.mat))
    if w is not None and w.steps is not None:
        for sobj, st in zip(wobj["steps"], w.steps):
            mods += [(sobj["stage"], st.stage), (sobj["target"], st.target)]
            mats += [(sobj["alpha"], st.alpha.mat),
                     (sobj["coker_proj"], st.coker_proj.mat)]
    if w is not None and w.stage is not None:
        mods.append((wobj["fail_stage"], w.stage))
        mats += [(wobj["fail_alpha"], w.alpha.mat),
                 (wobj["kernel_row"], w.kernel_row)]
    return mods, mats


# -- encoding -----------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_reports_are_the_per_place_encoders_byte_for_byte(monkeypatch, field,
                                                         gf7_dir, name):
    pairs = []

    def both(cert, algebra_name):
        new = cli_encoder(cert, algebra_name)
        pairs.append((dumps_report(new),
                      dumps_report(per_place_certificate_to_json(cert, algebra_name))))
        return new

    cli_encoder = cli.certificate_to_json
    monkeypatch.setattr(cli, "certificate_to_json", both)
    path = _path(field, gf7_dir, name)
    for argv in _commands(path):
        _run(argv)
    assert pairs and all(new == old for new, old in pairs)


def test_a_periodic_window_encodes_each_instance_once(field, gf7_dir):
    # dual_numbers' S: a window on [-6, 6] of one term instance, whose
    # thirteen places are one dict
    prob = load_problem_file(_path(field, gf7_dir, "dual_numbers.json"))
    cert = certify_gorenstein_projective(prob.modules["S"])
    obj = certificate_to_json(cert, "A2")
    terms, diffs = obj["window"]["terms"], obj["window"]["diffs"]
    assert len(terms) == 13 and all(t is terms[0] for t in terms)
    assert all(d is diffs[0] for d in diffs)
    assert dumps_report(obj) == dumps_report(per_place_certificate_to_json(cert, "A2"))


# -- decoding -----------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_pieces_are_one_instance_exactly_when_their_json_is_equal(field, gf7_dir,
                                                                 name):
    shared = 0
    for obj, cert in _decoded(_path(field, gf7_dir, name), certificate_from_json):
        for pieces in _pieces(obj, cert):
            for (ja, xa), (jb, xb) in combinations(pieces, 2):
                assert (xa is xb) == (_key(ja) == _key(jb))
                shared += xa is xb
    assert shared


def _proofs(monkeypatch):
    """The modules whose laws and whose split presentation the checker
    proves, in order: a validate_module call counts when the module has no
    stored verdict yet."""
    laws, splits = [], []
    validate, presentation = verify.validate_module, verify._presentation_splits

    def validate_spy(x):
        if modules._module_violations.get(x) is None:
            laws.append(x)
        return validate(x)

    def presentation_spy(m):
        splits.append(m)
        return presentation(m)

    monkeypatch.setattr(verify, "validate_module", validate_spy)
    monkeypatch.setattr(verify, "_presentation_splits", presentation_spy)
    return laws, splits


def _proven_keys(obj, cert, proven):
    """The JSON texts of the certificate's modules in proven, one per proof."""
    key_of = {id(x): _key(j) for j, x in _pieces(obj, cert)[0]}
    return [key_of[id(x)] for x in proven if id(x) in key_of]


@pytest.mark.parametrize("name", FIXTURES)
def test_the_checker_proves_each_distinct_term_once(monkeypatch, field, gf7_dir,
                                                    name):
    path = _path(field, gf7_dir, name)
    laws, splits = _proofs(monkeypatch)
    fewer = 0
    for (obj, new), (_, old) in zip(_decoded(path, certificate_from_json),
                                    _decoded(path, per_place_certificate_from_json)):
        del laws[:], splits[:]
        found = verify.verify_certificate(old, old.module)
        old_laws, old_splits = (_proven_keys(obj, old, laws),
                                _proven_keys(obj, old, splits))
        del laws[:], splits[:]
        assert verify.verify_certificate(new, new.module) == found == []
        new_laws, new_splits = (_proven_keys(obj, new, laws),
                                _proven_keys(obj, new, splits))
        # the same distinct terms, each proven once
        assert sorted(new_laws) == sorted(set(old_laws))
        assert sorted(new_splits) == sorted(set(old_splits))
        fewer += len(new_laws) + len(new_splits) < len(old_laws) + len(old_splits)
    assert fewer


def _bump(F, mat_obj):
    """mat_obj with one added to its first entry."""
    rows = mat_from_json(F, mat_obj).to_rows()
    rows[0][0] = F.add(rows[0][0], F.one())
    return mat_to_json(Mat.from_rows(F, rows, len(rows[0])))


@pytest.mark.parametrize("where", ["first period", "beyond the first period"])
@pytest.mark.parametrize("name", FIXTURES)
def test_a_tampered_repeated_term_is_rejected_as_before(field, gf7_dir, name, where):
    path = _path(field, gf7_dir, name)
    prob = load_problem_file(path)
    tried = 0
    for _, obj in _certificates(path):
        terms = obj.get("window", {}).get("terms", [])
        keys = [_key(t) for t in terms]
        # the first or the last place of a nonzero term that repeats
        places = [k for k, t in enumerate(terms) if t["dim"] and keys.count(keys[k]) > 1]
        if not places:
            continue
        a = _algebra(prob, obj["algebra"])
        forged = json.loads(json.dumps(obj))
        k = places[0] if where == "first period" else places[-1]
        term = forged["window"]["terms"][k]
        term["acts"][-1] = _bump(a.field, term["acts"][-1])
        new = certificate_from_json(a, forged)
        old = per_place_certificate_from_json(a, forged)
        found = verify.verify_certificate(old, old.module)
        assert found and verify.verify_certificate(new, new.module) == found
        tried += 1
    assert tried


def _outcome(decode, a, obj):
    """What the checker says of obj decoded by decode: its problems, or the
    input error that decoding raised."""
    try:
        cert = decode(a, obj)
    except InputError as e:
        return f"input error: {e}"
    return verify.verify_certificate(cert, cert.module)


@pytest.mark.parametrize("spelling", [float, bool], ids=["float", "bool"])
def test_a_repeat_spelled_with_another_json_type_is_read_as_before(field, gf7_dir,
                                                                   spelling):
    # 1.0 and true equal 1 in Python but not as JSON: an entry or a dim of
    # the last window term so spelled is malformed, or read, as it was
    path = _path(field, gf7_dir, "dual_numbers.json")
    a = load_problem_file(path).algebras["A2"]
    obj = json.loads(_run(["certify-gp", path, "--module", "S"]))["certificate"]
    last = obj["window"]["terms"][-1]
    places = [("dim",)] + [("acts", i, "entries", k)
                           for i, m in enumerate(last["acts"])
                           for k, v in enumerate(m["entries"]) if v in (0, 1)]
    for place in places:
        forged = json.loads(json.dumps(obj))
        node = forged["window"]["terms"][-1]
        for key in place[:-1]:
            node = node[key]
        node[place[-1]] = spelling(node[place[-1]])
        assert _outcome(certificate_from_json, a, forged) == _outcome(
            per_place_certificate_from_json, a, forged)


# -- problem files ------------------------------------------------------------


def test_equal_complex_terms_of_a_problem_file_are_one_instance(monkeypatch, capsys,
                                                               field, gf7_dir):
    # S_window repeats one term; S -> R -> S (zero maps, the last S with
    # its keys in another order) has two
    path = _path(field, gf7_dir, "dual_numbers.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    s, r = doc["modules"]["S"], doc["modules"]["R"]

    def zero(m, n):
        return {"rows": m, "cols": n, "entries": [0] * (m * n)}

    doc["complexes"]["SRS"] = {
        "algebra": "A2", "lo": 0, "hi": 2,
        "terms": [s, r, dict(reversed(list(s.items())))],
        "diffs": [zero(s["dim"], r["dim"]), zero(r["dim"], s["dim"])]}
    proven = []
    validate = complexes.validate_module

    def spy(x):
        if modules._module_violations.get(x) is None:
            proven.append(x)
        return validate(x)

    monkeypatch.setattr(complexes, "validate_module", spy)
    prob = load_problem(doc)
    for name, c in prob.complexes.items():
        tobjs = doc["complexes"][name]["terms"]
        for (ja, xa), (jb, xb) in combinations(zip(tobjs, c.terms), 2):
            assert (xa is xb) == (_key(ja) == _key(jb))
    wc, srs = prob.complexes["S_window"], prob.complexes["SRS"]
    assert len(wc.terms) == 7 and all(t is wc.terms[0] for t in wc.terms)
    assert srs.terms[0] is srs.terms[2] and srs.terms[1] is not srs.terms[0]
    # each distinct term validated once, named by its first degree
    assert proven == [wc.terms[0], srs.terms[0], srs.terms[1]]
    assert [t.name for t in proven] == ["S_window[0]", "SRS[0]", "SRS[1]"]
    # no report names a term of a complex
    cli.main(["check-compat", path, "--bimodule", "S_bim", "--right-tests",
              "S_window", "--json"])
    assert "S_window[" not in capsys.readouterr().out
