from __future__ import annotations

import argparse
import json
import os
import shutil

import pytest

from gpmorita import cli
from gpmorita.cli import main
from gpmorita.linalg import NonCanonicalBasis

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    code, out = run(capsys, "validate", fx("triangular.json"))
    assert code == 0


def test_validate_rejects_malformed(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 3


def test_validate_rejects_unresolved_names(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"field": "Q", "modules":
                             {"X": {"algebra": "nope", "dim": 0, "acts": []}}}))
    assert main(["validate", str(p)]) == 3


@pytest.mark.parametrize("field, scalar", [("Q", "1/0"), ({"p": 7}, "1/7")])
def test_zero_denominator_is_an_input_error(tmp_path, capsys, field, scalar):
    doc = json.load(open(fx("dual_numbers.json")))
    doc["field"] = field
    doc["modules"]["S"]["acts"][0]["entries"][0] = scalar
    p = tmp_path / "zero_den.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error:") and repr(scalar) in err


@pytest.mark.parametrize("p, message", [
    (4, "modulus must be a prime <= 2^31, got 4"),
    (1, "modulus must be a prime <= 2^31, got 1"),
    ("7", "field modulus must be an integer, got '7'"),
    (7.0, "field modulus must be an integer, got 7.0"),
    (True, "field modulus must be an integer, got True"),
    (None, "field modulus must be an integer, got None"),
], ids=["4", "1", "str", "float", "bool", "null"])
def test_malformed_field_spec_is_an_input_error(tmp_path, capsys, p, message):
    doc = json.load(open(fx("dual_numbers.json")))
    doc["field"] = {"p": p}
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("mat", [
    {"rows": 1.5, "cols": 2, "entries": [1, 0, 0]},
    {"rows": 1, "cols": 1, "entries": 5},
    {"rows": -1, "cols": 0, "entries": []},
    {"rows": True, "cols": 1, "entries": [1]},
])
def test_malformed_matrix_shape_is_an_input_error(tmp_path, capsys, mat):
    doc = json.load(open(fx("dual_numbers.json")))
    doc["bimodules"]["S_bim"]["left_acts"][0] = mat
    p = tmp_path / "bad_shape.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 3
    assert capsys.readouterr().err.startswith("input error: malformed matrix")


@pytest.mark.parametrize("entry", [True, False, None, [1]],
                         ids=["true", "false", "null", "list"])
def test_a_boolean_matrix_entry_is_malformed_as_any_other(tmp_path, capsys, entry):
    # true and false equal 1 and 0 in Python but are no scalars in JSON: in
    # a problem file and in a certificate each is an input error worded as
    # for null or a list
    message = f"input error: malformed matrix: cannot parse scalar {entry!r}\n"
    doc = json.load(open(fx("dual_numbers.json")))
    doc["bimodules"]["S_bim"]["left_acts"][0]["entries"][0] = entry
    p = tmp_path / "bad_entry.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 3
    assert capsys.readouterr().err == message
    assert main(["certify-gp", fx("dual_numbers.json"), "--module", "S",
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    rep["certificate"]["window"]["diffs"][0]["entries"][0] = entry
    p.write_text(json.dumps(rep))
    assert main(["verify-report", fx("dual_numbers.json"), "--report", str(p)]) == 3
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("kind, name, acts", [
    ("bimodules", "S_bim", "left_acts"),
    ("modules", "S", "acts"),
])
def test_wrong_shape_action_matrix_is_an_input_error(tmp_path, capsys, kind, name,
                                                     acts):
    # a 2x2 action matrix in a 1-dimensional (bi)module
    doc = json.load(open(fx("dual_numbers.json")))
    doc[kind][name][acts][0] = {"rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}
    p = tmp_path / "wrong_shape.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {kind[:-1]} {name!r}")
    assert "wrong shape" in err


@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_short_structure_constant_cell_is_an_input_error(tmp_path, capsys, field):
    # b_1 b_1 of A2 given with one coordinate
    doc = json.load(open(fx("dual_numbers.json")))
    if field == "GF7":
        doc["field"] = {"p": 7}
    doc["algebras"]["A2"]["mul"][1][1] = doc["algebras"]["A2"]["mul"][1][1][:-1]
    p = tmp_path / "short_cell.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: malformed algebra 'A2'")
    assert "Traceback" not in err


def test_invalid_complex_fails_validation(tmp_path, capsys):
    # S_window's term 0 lets x act as the identity, so x*x = 0 acts as I
    doc = json.load(open(fx("dual_numbers.json")))
    cx = doc["complexes"]["S_window"]
    cx["terms"][-cx["lo"]]["acts"][1] = {"rows": 2, "cols": 2,
                                         "entries": [1, 0, 0, 1]}
    p = tmp_path / "bad_window.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failed: complex 'S_window' invalid: term 0")


@pytest.mark.parametrize("fixture, kind, name, key, value, code, message", [
    # triangular: A = B = k, M = 0, N = k; P1 is (k, 0), P2 is (k, k)
    ("triangular", "quadruples", "P1", "f_full",
     {"rows": 1, "cols": 0, "entries": []}, 3,
     "input error: quadruple 'P1': f_full is 1x0, not 0x0"),
    ("triangular", "quadruples", "P2", "g_full",
     {"rows": 2, "cols": 1, "entries": [1, 0]}, 3,
     "input error: quadruple 'P2': g_full is 2x1, not 1x1"),
    ("triangular", "quadruples", "P2", "g_full",
     {"rows": 1, "cols": 2, "entries": [1, 0]}, 3,
     "input error: quadruple 'P2': g_full is 1x2, not 1x1"),
    ("triangular", "quadruples", "P2", "x", "P2.y", 3,
     "input error: quadruple 'P2': x must live over the context's A and y "
     "over its B"),
    # the ideal row k.1 overlaps the subring k.1
    ("triangular", "extensions", "ext", "ideal_rows",
     {"rows": 1, "cols": 1, "entries": [1]}, 1,
     "validation failed: extension 'ext' invalid: subring and ideal do not "
     "sum to the algebra"),
    # M (x)_A X is 0 for arrow_glue's P2, so a nonzero f_full cannot factor;
    # triangular has no middle relations, so every map factors there
    ("arrow_glue", "quadruples", "P2", "f_full",
     {"rows": 1, "cols": 1, "entries": [1]}, 1,
     "validation failed: quadruple 'P2' invalid: f does not factor through "
     "M (x)_A X"),
], ids=["f_rows", "g_rows", "g_cols", "x_algebra", "extension", "f_factor"])
def test_bad_quadruple_or_extension_is_reported(tmp_path, capsys, fixture, kind,
                                                name, key, value, code, message):
    doc = json.load(open(fx(f"{fixture}.json")))
    doc[kind][name][key] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == code
    assert capsys.readouterr().err == message + "\n"


def test_corrupted_psi_fails_before_build(tmp_path, capsys):
    doc = json.load(open(fx("glued5.json")))
    # corrupt psi: send n (x) m to 1 instead of into the ideal
    doc["maps"]["psi"]["mat"]["entries"] = [1, 0]
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps(doc))
    assert main(["build-ring", str(p), "--context", "ctx"]) == 1


def test_build_ring_and_classify(capsys):
    code, out = run(capsys, "build-ring", fx("glued5.json"), "--context", "ctx",
                    "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ring_dim"] == 5
    code, out = run(capsys, "classify", fx("triangular.json"), "--context",
                    "ctx", "--json")
    assert code == 0
    rep = json.loads(out)
    dims = sorted((p["x_dim"], p["y_dim"]) for p in rep["projectives"])
    assert dims == [(1, 0), (1, 1)]


def test_check_gp_exit_codes(capsys):
    assert run(capsys, "check-gp", fx("triangular.json"), "--extension", "ext",
               "--context", "ctx", "--quadruple", "P2")[0] == 0
    code, out = run(capsys, "check-gp", fx("triangular.json"), "--extension",
                    "ext", "--context", "ctx", "--quadruple", "S2", "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["failing"] == ["iso_b2"]


def test_certify_gp_on_quadruple(capsys):
    code, out = run(capsys, "certify-gp", fx("two_cycle.json"), "--context",
                    "ctx", "--quadruple", "S1", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "gp"


def test_certify_gp_period_bound_in_report(capsys):
    code, out = run(capsys, "certify-gp", fx("dual_numbers.json"), "--module",
                    "S", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["certificate"]["period"] <= 2


def test_build_resolution(capsys):
    code, out = run(capsys, "build-resolution", fx("triangular.json"),
                    "--extension", "ext", "--context", "ctx", "--quadruple",
                    "P2", "--window", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] and rep["totally_exact"] and rep["kernel_is_module"]


def test_build_resolution_fails_on_s2(capsys):
    code, out = run(capsys, "build-resolution", fx("triangular.json"),
                    "--extension", "ext", "--context", "ctx", "--quadruple",
                    "S2")
    assert code == 1


def test_check_compat_proof_and_witness(capsys):
    # over the triangular fixture Lambda = A, so N is already corner-sided
    code, out = run(capsys, "check-compat", fx("triangular.json"),
                    "--bimodule", "N", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["proof_grade"]
    code, out = run(capsys, "check-compat", fx("dual_numbers.json"),
                    "--bimodule", "S_bim", "--right-tests", "S_window",
                    "--json")
    assert code == 1
    rep = json.loads(out)
    assert rep["reason"] == "tor_witness"
    assert rep["witness"]["test_name"] == "S_window"


def test_verify_report_checks_compat_witness(tmp_path, capsys):
    code, out = run(capsys, "check-compat", fx("dual_numbers.json"),
                    "--bimodule", "S_bim", "--right-tests", "S_window",
                    "--json")
    rep_path = tmp_path / "compat.json"
    rep_path.write_text(out)
    code, out = run(capsys, "verify-report", fx("dual_numbers.json"),
                    "--report", str(rep_path))
    assert code == 0


def test_check_compat_hom_witness_round_trips(tmp_path, capsys):
    # Hom(S_window, S) is not exact at degree -2; verify-report recomputes
    # that degree, so a report naming another one, or none, fails
    code, out = run(capsys, "check-compat", fx("dual_numbers.json"),
                    "--bimodule", "S_bim", "--left-tests", "S_window",
                    "--json")
    assert code == 1
    rep = json.loads(out)
    assert (rep["reason"], rep["proof_grade"]) == ("hom_witness", True)
    assert rep["witness"] == {"degree": -2, "side": "left", "test": 0,
                              "test_name": "S_window"}
    rep_path = tmp_path / "compat.json"
    rep_path.write_text(out)
    assert run(capsys, "verify-report", fx("dual_numbers.json"), "--report",
               str(rep_path))[0] == 0
    for degree in (-1, 0, None):
        rep["witness"]["degree"] = degree
        rep_path.write_text(json.dumps(rep))
        code, out = run(capsys, "verify-report", fx("dual_numbers.json"),
                        "--report", str(rep_path), "--json")
        assert code == 1
        assert json.loads(out)["problems"] == ["compat witness does not re-verify"]


def test_verify_report_rejects_a_hom_witness_on_an_exact_hom_complex(
        tmp_path, capsys):
    # the regular bimodule of k[x]/(x^2) has injective dimension 0, so
    # Hom(S_window, A) is exact; a refutation naming no degree must fail
    doc = json.load(open(fx("dual_numbers.json")))
    mul = doc["algebras"]["A2"]["mul"]
    acts = [{"rows": 2, "cols": 2, "entries": [e for row in mul[t] for e in row]}
            for t in range(2)]
    doc["bimodules"]["R_bim"] = {"left": "A2", "right": "A2", "dim": 2,
                                 "left_acts": acts, "right_acts": acts}
    problem = tmp_path / "dual_numbers_r.json"
    problem.write_text(json.dumps(doc))
    code, out = run(capsys, "check-compat", str(problem), "--bimodule", "R_bim",
                    "--left-tests", "S_window", "--json")
    assert (code, json.loads(out)["reason"]) == (0, "finite_injective_dimension")
    forged = {"command": "check-compat", "bimodule": "R_bim",
              "verdict": "not_compatible", "reason": "hom_witness",
              "proof_grade": True, "schema": "gpmorita-v1",
              "witness": {"side": "left", "test": 0, "test_name": "S_window"}}
    rep_path = tmp_path / "forged.json"
    rep_path.write_text(json.dumps(forged))
    assert run(capsys, "verify-report", str(problem), "--report",
               str(rep_path))[0] == 1


def test_verify_report_on_certificates(tmp_path, capsys):
    code, out = run(capsys, "certify-gp", fx("dual_numbers.json"), "--module",
                    "R", "--json")
    rep_path = tmp_path / "cert.json"
    rep_path.write_text(out)
    assert run(capsys, "verify-report", fx("dual_numbers.json"), "--report",
               str(rep_path))[0] == 0
    # tampering with the window must be detected
    rep = json.loads(rep_path.read_text())
    rep["certificate"]["window"]["diffs"][0]["entries"] = \
        [0] * len(rep["certificate"]["window"]["diffs"][0]["entries"])
    rep_path.write_text(json.dumps(rep))
    assert run(capsys, "verify-report", fx("dual_numbers.json"), "--report",
               str(rep_path))[0] == 1


def _tampered_report(tmp_path, capsys, problem, certify_args, tamper):
    """A certify-gp report, tampered in place by tamper(certificate), and
    what verify-report then says about it."""
    code, out = run(capsys, "certify-gp", problem, *certify_args, "--json")
    rep = json.loads(out)
    assert rep["verdict"] == "gp"
    tamper(rep["certificate"])
    rep_path = tmp_path / "tampered.json"
    rep_path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify-report", problem, "--report", str(rep_path),
                    "--json")
    return code, json.loads(out)["problems"]


def test_verify_report_rejects_a_non_multiplicative_window_term(tmp_path, capsys):
    # k[x]/x^3: x generates, so a module whose x^2 acts as zero breaks the
    # law act(x x) = act(x) act(x) on the pair (x, x) only
    mul = [[[int(i + j == k) for k in range(3)] for j in range(3)] for i in range(3)]
    doc = {"field": "Q", "algebras": {"A3": {"dim": 3, "mul": mul, "unit": [1, 0, 0]}},
           "modules": {"S": {"algebra": "A3", "dim": 1, "acts": [
               {"rows": 1, "cols": 1, "entries": [e]} for e in (1, 0, 0)]}}}
    problem = tmp_path / "kx3.json"
    problem.write_text(json.dumps(doc))

    def zero_x2(cert):
        for term in cert["window"]["terms"]:
            term["acts"][2]["entries"] = [0] * len(term["acts"][2]["entries"])

    code, problems = _tampered_report(tmp_path, capsys, str(problem),
                                      ["--module", "S"], zero_x2)
    assert code == 1
    assert problems == ["term -6 is not a module: action not multiplicative at (1,1)"]


def test_verify_report_rejects_a_non_unital_certificate(tmp_path, capsys):
    # basis element 3 of ring(ctx) is the unit's B-corner summand; with its
    # action zeroed on the module and every window term, every differential
    # still intertwines every basis element
    def zero_b3(cert):
        for mod in [cert["module"], *cert["window"]["terms"]]:
            mod["acts"][3]["entries"] = [0] * len(mod["acts"][3]["entries"])

    code, problems = _tampered_report(tmp_path, capsys, fx("two_cycle.json"),
                                      ["--context", "ctx", "--quadruple", "P1"],
                                      zero_b3)
    assert code == 1
    assert problems == ["the certified module is not a module: unit does not act "
                        "as identity"]


def _extension_checks(field):
    """(field, fixture, subcommand, options) for check-gp, or nc-tensor
    check where the extension lives over B, on every quadruple of every
    fixture that has an extension; over GF(7) only the fixtures the
    benchmark also runs there."""
    names = (["arrow_glue.json", "glued5.json", "nc_phi.json", "triangular.json",
              "two_cycle.json"] if field == "Q" else ["triangular.json", "two_cycle.json"])
    cases = []
    for name in names:
        with open(fx(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        for e, ext in sorted(doc["extensions"].items()):
            for c, ctx in sorted(doc["contexts"].items()):
                cmd = ["check-gp"] if ext["algebra"] == ctx["A"] else ["nc-tensor", "check"]
                cases += [(field, name, cmd, ["--extension", e, "--context", c,
                                              "--quadruple", q])
                          for q in sorted(doc["quadruples"])]
    return cases


def _problem_over(field, name, tmp_path):
    if field == "Q":
        return fx(name)
    with open(fx(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["field"] = {"p": 7}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("field, name, cmd, opts",
                         _extension_checks("Q") + _extension_checks("GF7"),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_verify_report_round_trips_extension_checks(tmp_path, capsys, field, name,
                                                    cmd, opts):
    problem = _problem_over(field, name, tmp_path)
    code, out = run(capsys, *cmd, problem, *opts, "--json")
    assert code in (0, 1), out
    rep_path = tmp_path / "report.json"
    rep_path.write_text(out)
    code, out = run(capsys, "verify-report", problem, "--report", str(rep_path),
                    "--json")
    assert (code, json.loads(out)["problems"]) == (0, [])


def test_verify_report_rejects_a_tampered_extension_certificate(tmp_path, capsys):
    code, out = run(capsys, "check-gp", fx("two_cycle.json"), "--extension", "ext",
                    "--context", "ctx", "--quadruple", "S1", "--json")
    rep = json.loads(out)
    rep["coker_g_certificate"]["module"]["acts"] = [
        {"rows": 1, "cols": 1, "entries": [5]}]
    rep_path = tmp_path / "tampered.json"
    rep_path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify-report", fx("two_cycle.json"), "--report",
                    str(rep_path), "--json")
    assert code == 1
    assert json.loads(out)["problems"] == [
        "the certified module is not a module: unit does not act as identity"]


@pytest.mark.parametrize("period", [0, 12, 13, 100, True, -1, "1", 1.5],
                         ids=repr)
@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_verify_report_rejects_a_period_the_window_cannot_witness(tmp_path, capsys,
                                                                  field, period):
    # the window is [-6, 6], so a period must be an int from 1 to 11: 0 and
    # 12 compare nothing or each term with itself, 13 and 100 compare nothing
    problem = _problem_over(field, "dual_numbers.json", tmp_path)

    def forge(cert):
        cert["period"] = period

    code, problems = _tampered_report(tmp_path, capsys, problem, ["--module", "S"],
                                      forge)
    assert (code, problems) == (
        1, [f"period {period!r} is not witnessed by the window [-6, 6]"])


def _drop(key):
    return lambda d: d.pop(key)


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


@pytest.mark.parametrize("part, tamper, message", [
    ("window", _set("lo", "x"), "window bounds 'x', 6 are not ints"),
    ("window", _set("hi", True), "window bounds -6, True are not ints"),
    ("window", lambda w: w["terms"].pop(),
     "a window on [-6, 6] needs 13 terms and 12 differentials"),
    ("window", lambda w: w["diffs"].append(w["diffs"][0]),
     "a window on [-6, 6] needs 13 terms and 12 differentials"),
    ("window", _drop("lo"), "the window has no 'lo'"),
    ("certificate", _drop("module"), "the certificate has no 'module'"),
    ("certificate", _drop("verdict"), "the certificate has no 'verdict'"),
    ("module", _drop("acts"), "the module has no 'acts'"),
], ids=["lo-str", "hi-bool", "terms-short", "diffs-long", "no-lo", "no-module",
        "no-verdict", "no-acts"])
@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_verify_report_names_a_malformed_certificate(tmp_path, capsys, field, part,
                                                      tamper, message):
    problem = _problem_over(field, "dual_numbers.json", tmp_path)
    code, out = run(capsys, "certify-gp", problem, "--module", "S", "--json")
    rep = json.loads(out)
    cert = rep["certificate"]
    tamper(cert if part == "certificate" else cert[part])
    rep_path = tmp_path / "malformed.json"
    rep_path.write_text(json.dumps(rep))
    code = main(["verify-report", problem, "--report", str(rep_path), "--json"])
    err = capsys.readouterr().err
    assert (code, err) == (3, f"input error: malformed certificate: {message}\n")


@pytest.mark.parametrize("tamper, message", [
    (lambda w: w.pop("kind"), "the witness has no 'kind'"),
    (lambda w: w["resolution"].pop("aug"), "the witness resolution has no 'aug'"),
    (lambda w: w["resolution"]["maps"].append(w["resolution"]["maps"][0]),
     "the witness resolution needs one term more than it has maps"),
], ids=["no-kind", "no-aug", "maps-long"])
@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_verify_report_names_a_malformed_witness(tmp_path, capsys, field, tamper,
                                                  message):
    problem = _problem_over(field, "triangular.json", tmp_path)
    code, out = run(capsys, "certify-gp", problem, "--context", "ctx", "--quadruple",
                    "S2", "--json")
    rep = json.loads(out)
    assert rep["verdict"] == "not_gp"
    tamper(rep["certificate"]["witness"])
    rep_path = tmp_path / "malformed.json"
    rep_path.write_text(json.dumps(rep))
    code = main(["verify-report", problem, "--report", str(rep_path), "--json"])
    err = capsys.readouterr().err
    assert (code, err) == (3, f"input error: malformed certificate: {message}\n")


@pytest.mark.parametrize("key, message", [
    ("coker_g_certificate",
     "coker_g_certificate is not about the quadruple's Coker(g) restricted to Lambda"),
    ("coker_f_certificate", "coker_f_certificate is not about the quadruple's Coker(f)"),
], ids=["coker_g", "coker_f"])
@pytest.mark.parametrize("name, cmd, opts, mine, other", [
    ("triangular.json", ["check-gp"], ["--extension", "ext", "--context", "ctx"],
     "P1", "P2"),
    ("nc_phi.json", ["nc-tensor", "check"], ["--extension", "extB", "--context", "ctx"],
     "PA", "PB"),
], ids=["check-gp", "nc-tensor-check"])
@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_verify_report_binds_the_certificates_to_the_quadruple(
        tmp_path, capsys, field, name, cmd, opts, mine, other, key, message):
    # the two quadruples' cokernels differ in dimension (0 against 1), and
    # each certificate verifies on its own
    problem = _problem_over(field, name, tmp_path)
    reports = {}
    for q in (mine, other):
        code, out = run(capsys, *cmd, problem, *opts, "--quadruple", q, "--json")
        assert code == 0, out
        reports[q] = json.loads(out)
    rep = reports[mine]
    assert rep[key]["module"]["dim"] != reports[other][key]["module"]["dim"]
    rep[key] = reports[other][key]
    rep_path = tmp_path / "tampered.json"
    rep_path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify-report", problem, "--report", str(rep_path),
                    "--json")
    assert (code, json.loads(out)["problems"]) == (1, [message])


def _certify_gp_reports(capsys, problem):
    """tag -> the certify-gp report of every quadruple of a fixture with a
    context, or of every module of one without."""
    with open(problem, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("contexts"):
        opts = {q: ["--context", c, "--quadruple", q]
                for c in sorted(doc["contexts"]) for q in sorted(doc["quadruples"])}
    else:
        opts = {m: ["--module", m] for m in sorted(doc["modules"])}
    return {tag: json.loads(run(capsys, "certify-gp", problem, *o, "--json")[1])
            for tag, o in opts.items()}


@pytest.mark.parametrize("name", ["arrow_glue.json", "dual_numbers.json",
                                  "glued5.json", "nc_phi.json", "triangular.json",
                                  "two_cycle.json"])
@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_verify_report_binds_a_certify_gp_report_to_its_module(tmp_path, capsys,
                                                               field, name):
    # a report relabelled to another module or quadruple, or with another
    # verdict than its certificate's, is rejected; a label of the wrong
    # type is an input error
    problem = _problem_over(field, name, tmp_path)
    reports = _certify_gp_reports(capsys, problem)
    rep_path = tmp_path / "report.json"

    def verdict_of(rep):
        rep_path.write_text(json.dumps(rep))
        code, out = run(capsys, "verify-report", problem, "--report", str(rep_path),
                        "--json")
        return code, json.loads(out)["problems"]

    relabelled = 0
    for tag, rep in reports.items():
        assert verdict_of(rep) == (0, [])
        what = "quadruple" if rep["certificate"]["algebra"].startswith("ring(") \
            else "module"
        for other, other_rep in reports.items():
            if other_rep["certificate"]["module"] != rep["certificate"]["module"]:
                relabelled += 1
                assert verdict_of({**rep, "module": other}) == (
                    1, [f"the certificate is not about {what} {other}"])
        for verdict in {"gp", "not_gp", "unknown"} - {rep["verdict"]}:
            assert verdict_of({**rep, "verdict": verdict}) == (
                1, [f"the report's verdict \"{verdict}\" is not the certificate's "
                    f"\"{rep['verdict']}\""])
        for label in (7, [1], {"k": 1}, None, "nope"):
            rep_path.write_text(json.dumps({**rep, "module": label}))
            code = main(["verify-report", problem, "--report", str(rep_path)])
            err = capsys.readouterr().err
            assert code == 3 and err.startswith(f"input error: unknown {what}"), err
    assert relabelled


def test_nc_tensor_build_and_iso(capsys):
    code, out = run(capsys, "nc-tensor", "build", fx("two_cycle.json"),
                    "--context", "ctx", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ring_dim"] == 5 and rep["exact_context"]["exact"]
    code, out = run(capsys, "nc-tensor", "iso", fx("two_cycle.json"),
                    "--context", "ctx", "--json")
    assert code == 0


def test_nc_tensor_check_mirrored_criterion(capsys):
    code, out = run(capsys, "nc-tensor", "check", fx("nc_phi.json"),
                    "--context", "ctx", "--extension", "extB", "--quadruple",
                    "PB", "--json")
    assert code == 0
    code, out = run(capsys, "nc-tensor", "check", fx("nc_phi.json"),
                    "--context", "ctx", "--extension", "extB", "--quadruple",
                    "SB", "--json")
    assert code == 1
    rep = json.loads(out)
    assert "iso_b1" in rep["failing"]


def test_audit_exit_codes(capsys):
    code, out = run(capsys, "audit", fx("triangular.json"), "--extension",
                    "ext", "--context", "ctx", "--quadruples", "P1", "P2",
                    "S2", "--json")
    assert code == 0
    rep = json.loads(out)
    assert all(e["classification"] == "consistent" for e in rep["entries"])
    code, out = run(capsys, "audit", fx("two_cycle.json"), "--extension",
                    "ext", "--context", "ctx", "--quadruples", "S1", "S2",
                    "--json")
    assert code == 0
    rep = json.loads(out)
    assert all(e["classification"] == "expected_divergence"
               for e in rep["entries"])


def test_reports_are_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "audit", fx("two_cycle.json"), "--extension",
                        "ext", "--context", "ctx", "--quadruples", "S1", "S2",
                        "--seed", "7", "--json")
        outs.append(out)
    assert outs[0] == outs[1]
    outs = []
    for _ in range(2):
        code, out = run(capsys, "certify-gp", fx("dual_numbers.json"),
                        "--module", "S", "--seed", "3", "--json")
        outs.append(out)
    assert outs[0] == outs[1]


def test_build_resolution_horseshoe_failure_exits_1(monkeypatch, capsys):
    # a horseshoe that finds no lift is an assembly failure, not an input error
    from gpmorita import engine
    from gpmorita.complexes import HorseshoeError

    def no_lift(*args):
        raise HorseshoeError("no equivariant lift for rho^1", degree=1)

    monkeypatch.setattr(engine, "horseshoe", no_lift)
    code = main(["build-resolution", fx("triangular.json"), "--extension", "ext",
                 "--context", "ctx", "--quadruple", "P2", "--json"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("failed: first horseshoe failed at degree 1: ")
    assert "no equivariant lift for rho^1" in err


def _flip_overall(rep):
    rep["overall"] = "pass" if rep["overall"] == "fail" else "fail"


def _bogus_failing(rep):
    rep["failing"] = ["bogus"]


def _drop_failing(rep):
    rep["failing"] = rep["failing"][1:]


@pytest.mark.parametrize("tamper", [_flip_overall, _bogus_failing, _drop_failing],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("name, cmd, opts", [
    ("triangular.json", ["check-gp"],
     ["--extension", "ext", "--context", "ctx", "--quadruple", "S2"]),
    ("nc_phi.json", ["nc-tensor", "check"],
     ["--extension", "extB", "--context", "ctx", "--quadruple", "SB"]),
], ids=["check-gp", "nc-tensor-check"])
@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_verify_report_reconciles_the_criterion_verdict(tmp_path, capsys, field,
                                                        name, cmd, opts, tamper):
    problem = _problem_over(field, name, tmp_path)
    code, out = run(capsys, *cmd, problem, *opts, "--json")
    rep = json.loads(out)
    assert code == 1 and rep["failing"], out
    tamper(rep)
    rep_path = tmp_path / "tampered.json"
    rep_path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify-report", problem, "--report", str(rep_path),
                    "--json")
    assert code == 1
    [problem_text] = json.loads(out)["problems"]
    assert problem_text.startswith("the verdict does not follow")


@pytest.mark.parametrize("clause", [0, 1, 2], ids=["iso_b1", "iso_b2", "iso_b3"])
@pytest.mark.parametrize("name, cmd, opts", [
    ("triangular.json", ["check-gp"],
     ["--extension", "ext", "--context", "ctx", "--quadruple", "S2"]),
    ("nc_phi.json", ["nc-tensor", "check"],
     ["--extension", "extB", "--context", "ctx", "--quadruple", "SB"]),
], ids=["check-gp", "nc-tensor-check"])
@pytest.mark.parametrize("field", ["Q", "GF7"])
def test_verify_report_recomputes_each_clause(tmp_path, capsys, field, name, cmd,
                                              opts, clause):
    """A flipped clause, with overall, failing and verdict made to follow
    from it, fails: the clause is recomputed from the problem file."""
    from gpmorita.engine import criterion_verdict
    problem = _problem_over(field, name, tmp_path)
    code, out = run(capsys, *cmd, problem, *opts, "--json")
    rep = json.loads(out)
    c = rep["clauses"][clause]
    c["holds"] = not c["holds"]
    overall, failing = criterion_verdict(
        [(c["name"], c["holds"]) for c in rep["clauses"]],
        rep["coker_g_certificate"]["verdict"], rep["coker_f_certificate"]["verdict"])
    rep.update(overall=overall, failing=failing, verdict=overall)
    rep_path = tmp_path / "tampered.json"
    rep_path.write_text(json.dumps(rep))
    code, out = run(capsys, "verify-report", problem, "--report", str(rep_path),
                    "--json")
    assert code == 1
    assert json.loads(out)["problems"] == [
        f"clause {c['name']} does not recompute: holds is {json.dumps(not c['holds'])}"]


@pytest.mark.parametrize("exc", [IndexError("list index out of range"),
                                 NonCanonicalBasis("row 0 has no unit\ncolumn")],
                         ids=["IndexError", "NonCanonicalBasis"])
def test_unmapped_exception_is_an_internal_error(monkeypatch, capsys, exc):
    # an exception no other exit code covers exits 4 with one stderr line,
    # never 1, which means a mathematical "fail"
    def broken(args, prob):
        raise exc

    monkeypatch.setitem(cli.HANDLERS, "validate", broken)
    assert main(["validate", fx("triangular.json")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    message = " ".join(str(exc).splitlines())
    assert captured.err == f"internal error: {type(exc).__name__}: {message}\n"


# -- each call builds the parser of its own command only ----------------------

PARSER_SWEEP = [
    [], ["-h"], ["--help"], ["bogus"], ["-x"], ["--nope", "-h"],
    ["--json", "validate", fx("glued5.json")],
    ["--", "validate", fx("glued5.json")],
    ["validate"], ["validate", "-h"], ["nc-tensor", "--help"],
    ["validate", fx("glued5.json"), "-h"],
    ["validate", fx("glued5.json"), "--nope"],
    ["validate", fx("glued5.json"), "extra"],
    ["validate", fx("glued5.json"), "--window", "x"],
    ["validate", fx("glued5.json"), "--window=3"],
    ["build-ring", fx("glued5.json"), "--window"],
    ["check-gp", fx("triangular.json")],
    ["audit", fx("two_cycle.json"), "--extension", "ext", "--context", "ctx"],
    ["nc-tensor", "bogus", fx("two_cycle.json"), "--context", "ctx"],
    ["nc-tensor", fx("two_cycle.json"), "--context", "ctx"],
    ["validate", "--", fx("glued5.json")],
    ["build-ring", fx("glued5.json"), "--context", "ctx", "--json"],
    ["check-gp", fx("triangular.json"), "--ext", "ext", "--cont", "ctx",
     "--quad", "S2"],
    ["certify-gp", fx("dual_numbers.json"), "--module", "S", "--json"],
    ["check-compat", fx("dual_numbers.json"), "--bimodule", "S_bim",
     "--right-tests", "S_window", "--json"],
    ["check-compat", fx("dual_numbers.json"), "--bimodule", "S_bim",
     "--right-tests"],
    ["nc-tensor", "build", fx("two_cycle.json"), "--context", "ctx", "--json"],
    ["verify-report", fx("dual_numbers.json"), "--report",
     fx("no_such_report.json")],
]


def _outcome(monkeypatch, capsys, argv, full):
    """(exit code or SystemExit code, stdout, stderr, parsed namespaces) of
    main(argv); full=True parses every argv with the full parser."""
    namespaces = []
    with monkeypatch.context() as m:
        run_args = cli._run

        def recorded(args):
            namespaces.append(vars(args))
            return run_args(args)

        m.setattr(cli, "_run", recorded)
        if full:
            m.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = ("SystemExit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespaces


@pytest.mark.parametrize("columns", [None, "40", "200"],
                         ids=["COLUMNS unset", "COLUMNS=40", "COLUMNS=200"])
@pytest.mark.parametrize("argv", PARSER_SWEEP,
                         ids=lambda a: " ".join(os.path.basename(w) for w in a))
def test_narrowed_parser_behaves_as_the_full_one(monkeypatch, capsys, argv, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    narrowed = _outcome(monkeypatch, capsys, argv, full=False)
    assert narrowed == _outcome(monkeypatch, capsys, argv, full=True)


@pytest.mark.parametrize("argv, built, widths", [
    (["validate", fx("glued5.json")], 1, 1),
    (["--help"], 1 + len(cli.HANDLERS), 1),
    (["validate", fx("glued5.json"), "--nope"], 2 + len(cli.HANDLERS), 2),
], ids=["command", "help", "unrecognized"])
def test_a_command_builds_only_its_own_parser(monkeypatch, capsys, argv, built,
                                              widths):
    """A command's call constructs one ArgumentParser, its own; help and an
    unrecognized argument also build the full one, a root parser and one
    subparser per command.  Each of the two reads the terminal width once."""
    parsers, reads = [], []
    init, size = argparse.ArgumentParser.__init__, shutil.get_terminal_size

    def counted(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: reads.append(args) or size(*args))
    try:
        main(argv)
    except SystemExit:
        pass
    assert (len(parsers), len(reads)) == (built, widths)


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
], ids=["none", "unknown"])
def test_top_level_errors_name_the_command_argument(capsys, argv, error):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"gpmorita: error: {error}" in capsys.readouterr().err
