"""Golden CLI reports: every README command on its README fixture with
--json, plus the criterion-9 commands with --seed 5, certify-gp, check-gp
and build-resolution on GF(7) copies of three fixtures, and the audit of
each fixture over all its quadruples (over GF(7) too for two of them),
must reproduce the stored stdout byte for byte and the stored exit code.

Regenerate the files under tests/golden/ with
    PYTHONPATH=src python tests/test_cli_golden.py
only when a change of output is intended.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from gpmorita.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIX = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden")


def fx(name):
    return os.path.join(FIX, name)


def gold(name):
    return os.path.join(GOLDEN, f"{name}.json")


GF7 = "gf7:"


def gf7(name):
    """A fixture's GF(7) copy, made in the temp dir of the run."""
    return GF7 + name


def _gf7_copy(name, tmp):
    # the same document over {"p": 7}, as the benchmark's GF(7) copies
    with open(fx(name)) as fh:
        doc = json.load(fh)
    doc["field"] = {"p": 7}
    dst = os.path.join(tmp, name)
    with open(dst, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return dst


# name -> (argv, exit code).  verify-report re-checks the stored
# certify-gp report, so that case must come after it.
CASES = {
    "validate": (["validate", fx("glued5.json")], 0),
    "build-ring": (["build-ring", fx("glued5.json"), "--context", "ctx"], 0),
    "classify": (["classify", fx("triangular.json"), "--context", "ctx"], 0),
    "check-gp": (["check-gp", fx("triangular.json"), "--extension", "ext",
                  "--context", "ctx", "--quadruple", "S2"], 1),
    "certify-gp": (["certify-gp", fx("dual_numbers.json"), "--module", "S"], 0),
    "build-resolution": (["build-resolution", fx("triangular.json"),
                          "--extension", "ext", "--context", "ctx",
                          "--quadruple", "P2"], 0),
    "check-compat": (["check-compat", fx("dual_numbers.json"), "--bimodule",
                      "S_bim", "--right-tests", "S_window"], 1),
    "nc-tensor-build": (["nc-tensor", "build", fx("two_cycle.json"),
                         "--context", "ctx"], 0),
    "nc-tensor-check": (["nc-tensor", "check", fx("nc_phi.json"), "--context",
                         "ctx", "--extension", "extB", "--quadruple", "PB"], 0),
    "audit": (["audit", fx("two_cycle.json"), "--extension", "ext",
               "--context", "ctx", "--quadruples", "S1", "S2"], 0),
    "verify-report": (["verify-report", fx("dual_numbers.json"), "--report",
                       gold("certify-gp")], 0),
    "seed5-check-gp": (["check-gp", fx("triangular.json"), "--extension",
                        "ext", "--context", "ctx", "--quadruple", "S2",
                        "--seed", "5"], 1),
    "seed5-certify-gp": (["certify-gp", fx("dual_numbers.json"), "--module",
                          "S", "--seed", "5"], 0),
    "seed5-audit": (["audit", fx("two_cycle.json"), "--extension", "ext",
                     "--context", "ctx", "--quadruples", "S1", "S2", "--seed",
                     "5"], 0),
    "seed5-nc-tensor-build": (["nc-tensor", "build", fx("two_cycle.json"),
                               "--context", "ctx", "--seed", "5"], 0),
    "seed5-classify": (["classify", fx("glued5.json"), "--context", "ctx",
                        "--seed", "5"], 0),
    # both corners of the Morita layer: classify and assemble over contexts
    # with nonzero B-side data, and the corner-swapped criterion
    "classify-two_cycle": (["classify", fx("two_cycle.json"), "--context",
                            "ctx"], 0),
    "classify-nc_phi": (["classify", fx("nc_phi.json"), "--context", "ctx"], 0),
    "classify-arrow_glue": (["classify", fx("arrow_glue.json"), "--context",
                             "ctx"], 0),
    "build-resolution-glued5": (["build-resolution", fx("glued5.json"),
                                 "--extension", "ext", "--context", "ctx",
                                 "--quadruple", "P2"], 0),
    "build-resolution-arrow_glue": (["build-resolution", fx("arrow_glue.json"),
                                     "--extension", "ext", "--context", "ctx",
                                     "--quadruple", "P2"], 0),
    "nc-tensor-check-SB": (["nc-tensor", "check", fx("nc_phi.json"),
                            "--context", "ctx", "--extension", "extB",
                            "--quadruple", "SB"], 1),
    "audit-glued5": (["audit", fx("glued5.json"), "--extension", "ext",
                      "--context", "ctx", "--quadruples", "P2", "ZB"], 0),
    # the audits of every fixture over all its quadruples, as the
    # benchmark's cli-roundtrip runs them: each semi-weak verdict and witness
    "audit-two_cycle-all": (["audit", fx("two_cycle.json"), "--extension",
                             "ext", "--context", "ctx", "--quadruples", "P1",
                             "P2", "S1", "S2"], 0),
    "audit-triangular-all": (["audit", fx("triangular.json"), "--extension",
                              "ext", "--context", "ctx", "--quadruples", "P1",
                              "P2", "S2"], 0),
    "audit-arrow_glue-all": (["audit", fx("arrow_glue.json"), "--extension",
                              "ext", "--context", "ctx", "--quadruples", "P2",
                              "TL"], 0),
    "audit-glued5-all": (["audit", fx("glued5.json"), "--extension", "ext",
                          "--context", "ctx", "--quadruples", "P2", "TL",
                          "ZB"], 0),
    # the F_p kernels end to end: GF(7) copies of three fixtures
    "gf7-certify-gp-dual_numbers": (["certify-gp", gf7("dual_numbers.json"),
                                     "--module", "S"], 0),
    "gf7-certify-gp-triangular": (["certify-gp", gf7("triangular.json"),
                                   "--context", "ctx", "--quadruple", "S2"], 1),
    "gf7-certify-gp-two_cycle": (["certify-gp", gf7("two_cycle.json"),
                                  "--context", "ctx", "--quadruple", "S1"], 0),
    "gf7-check-gp-triangular": (["check-gp", gf7("triangular.json"),
                                 "--extension", "ext", "--context", "ctx",
                                 "--quadruple", "S2"], 1),
    "gf7-check-gp-two_cycle": (["check-gp", gf7("two_cycle.json"),
                                "--extension", "ext", "--context", "ctx",
                                "--quadruple", "S1"], 1),
    "gf7-build-resolution-triangular": (["build-resolution",
                                         gf7("triangular.json"), "--extension",
                                         "ext", "--context", "ctx",
                                         "--quadruple", "P2"], 0),
    "gf7-build-resolution-two_cycle": (["build-resolution",
                                        gf7("two_cycle.json"), "--extension",
                                        "ext", "--context", "ctx",
                                        "--quadruple", "P1"], 0),
    "gf7-audit-two_cycle-all": (["audit", gf7("two_cycle.json"), "--extension",
                                 "ext", "--context", "ctx", "--quadruples",
                                 "P1", "P2", "S1", "S2"], 0),
    "gf7-audit-triangular-all": (["audit", gf7("triangular.json"),
                                  "--extension", "ext", "--context", "ctx",
                                  "--quadruples", "P1", "P2", "S2"], 0),
}


def run_case(name) -> tuple[int, str]:
    argv, _ = CASES[name]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [_gf7_copy(a[len(GF7):], tmp) if a.startswith(GF7) else a
                for a in argv]
        with contextlib.redirect_stdout(out):
            code = main(argv + ["--json"])
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name):
    code, out = run_case(name)
    with open(gold(name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert out == expected
    assert code == CASES[name][1]


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in CASES:
        code, out = run_case(name)
        with open(gold(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(out)
        print(f"{name}: exit {code}", file=sys.stderr)
