"""Batch front end: read a self-contained JSON problem file, dispatch to
the engine, emit a deterministic report.

Exit codes: 0 pass/ok, 1 fail (with an embedded witness), 2 unknown or
undetermined, 3 input error, 4 internal error (an exception no other code
covers, reported as one `internal error: <Type>: <message>` line on stderr
with nothing on stdout).  Identical input gives byte-identical reports:
no command takes a seed.  `verify-report` re-checks the witnesses
embedded in a previous report against the same problem file.  A call's
arguments are read by a parser of its command's options alone; the full
parser, with every command, is built only for a call that names no
command or has an argument its command does not take, and prints the
usage and errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys

from .engine import (
    EngineError, audit_equivalence, build_total_resolution, check_compat,
    check_conditions, criterion_verdict, recheck_compat_witness,
)
from .gpcert import certify_gorenstein_projective
from .jsonio import (
    InputError, ValidationFailure, certificate_from_json, certificate_to_json,
    dumps_report, json_field, load_problem_file, mat_to_json,
)
from .modules import Undetermined
from .morita import (
    build_ring, classify_injectives, classify_projectives, quadruple_to_module,
    swap_quadruple,
)
from .nctensor import (
    NcTensorError, build_exact_context, build_nc_tensor, iso_with_morita,
    nc_morita_presentation,
)
from .trivext import ExtensionError, check_extension_matches, structural_maps
from .verify import verify_certificate

OK, FAIL, UNKNOWN, BAD_INPUT, INTERNAL = 0, 1, 2, 3, 4


def _emit(args, payload: dict) -> None:
    text = dumps_report(payload)
    if args.json:
        sys.stdout.write(text)
    else:
        _pretty(payload)


def _pretty(payload: dict) -> None:
    for key in sorted(payload):
        if key in ("schema",):
            continue
        print(f"{key}: {json.dumps(payload[key], sort_keys=True)}")


def _clause(c) -> dict:
    return {"name": c.name, "holds": c.holds, "detail": c.detail}


def _criterion_payload(prob, rep) -> dict:
    a_name = _alg_name(prob, rep.coker_g_cert.module.algebra)
    b_name = _alg_name(prob, rep.coker_f_cert.module.algebra)
    return {
        "overall": rep.overall,
        "failing": rep.failing,
        "clauses": [_clause(rep.iso_b1), _clause(rep.iso_b2), _clause(rep.iso_b3)],
        "coker_g_certificate": certificate_to_json(rep.coker_g_cert, a_name),
        "coker_f_certificate": certificate_to_json(rep.coker_f_cert, b_name),
    }


def _alg_name(prob, algebra) -> str:
    return prob.algebra_names.get(id(algebra), algebra.name or "anonymous")


def _register(prob, name, algebra):
    prob.algebras[name] = algebra
    prob.algebra_names[id(algebra)] = name
    return name


def cmd_validate(args, prob) -> int:
    payload = {"command": "validate",
               "counts": {k: len(getattr(prob, k)) for k in
                          ("algebras", "modules", "bimodules", "maps",
                           "contexts", "extensions", "quadruples",
                           "complexes")},
               "verdict": "ok"}
    _emit(args, payload)
    return OK


def cmd_build_ring(args, prob) -> int:
    ctx = prob.named("contexts", args.context)
    mr = build_ring(ctx)
    payload = {"command": "build-ring", "context": args.context,
               "ring_dim": mr.ring.dim,
               "blocks": {"A": ctx.A.dim, "N": ctx.N.dim, "M": ctx.M.dim,
                          "B": ctx.B.dim},
               "verdict": "ok"}
    _emit(args, payload)
    return OK


def cmd_classify(args, prob) -> int:
    ctx = prob.named("contexts", args.context)
    mr = build_ring(ctx)
    projs = classify_projectives(ctx)
    injs = classify_injectives(ctx)
    payload = {"command": "classify", "context": args.context,
               "ring_dim": mr.ring.dim,
               "projectives": [{"name": q.name, "x_dim": q.x.dim,
                                "y_dim": q.y.dim} for q in projs],
               "injectives": [{"name": q.name, "x_dim": q.x.dim,
                               "y_dim": q.y.dim} for q in injs],
               "verdict": "ok"}
    _emit(args, payload)
    return OK


def cmd_check_gp(args, prob) -> int:
    ext = prob.named("extensions", args.extension)
    ctx = prob.named("contexts", args.context)
    q = prob.named("quadruples", args.quadruple)
    rep = check_conditions(ext, ctx, q, args.window, args.period_bound)
    payload = {"command": "check-gp", "quadruple": args.quadruple,
               "verdict": rep.overall}
    payload.update(_criterion_payload(prob, rep))
    _emit(args, payload)
    return {"pass": OK, "fail": FAIL, "unknown": UNKNOWN}[rep.overall]


def cmd_certify_gp(args, prob) -> int:
    if args.module:
        mod = prob.named("modules", args.module)
        a_name = _alg_name(prob, mod.algebra)
        tag = args.module
    else:
        ctx = prob.named("contexts", args.context)
        q = prob.named("quadruples", args.quadruple)
        mr = build_ring(ctx)
        mod = quadruple_to_module(mr, q)
        a_name = _register(prob, f"ring({args.context})", mr.ring)
        tag = args.quadruple
    cert = certify_gorenstein_projective(mod, args.window, args.period_bound,
                                         args.budget)
    payload = {"command": "certify-gp", "module": tag,
               "verdict": cert.verdict,
               "certificate": certificate_to_json(cert, a_name)}
    _emit(args, payload)
    return {"gp": OK, "not_gp": FAIL, "unknown": UNKNOWN}[cert.verdict]


def cmd_build_resolution(args, prob) -> int:
    ext = prob.named("extensions", args.extension)
    ctx = prob.named("contexts", args.context)
    q = prob.named("quadruples", args.quadruple)
    rep = check_conditions(ext, ctx, q, args.window, args.period_bound)
    if not rep.passed:
        payload = {"command": "build-resolution", "quadruple": args.quadruple,
                   "verdict": "fail",
                   "detail": f"criterion verdict {rep.overall}",
                   "failing": rep.failing}
        _emit(args, payload)
        return FAIL if rep.overall == "fail" else UNKNOWN
    span = min(args.window, 3)
    asm = build_total_resolution(ext, ctx, q, rep, window=span)
    # build_total_resolution has already required both exactness claims
    payload = {"command": "build-resolution", "quadruple": args.quadruple,
               "verdict": "ok", "window": [asm.tcx.lo, asm.tcx.hi],
               "term_dims": [t.dim for t in asm.tcx.terms],
               "exact": True, "totally_exact": True,
               "kernel_is_module": asm.kernel_iso.is_iso()}
    _emit(args, payload)
    return OK


def cmd_check_compat(args, prob) -> int:
    bim = prob.named("bimodules", args.bimodule)
    left = [prob.named("complexes", n) for n in (args.left_tests or [])]
    right = [prob.named("complexes", n) for n in (args.right_tests or [])]
    v = check_compat(bim, left, right, bound=args.window)
    witness = dict(v.witness) if v.witness else None
    if witness is not None and "test" in witness:
        names = args.left_tests if witness.get("side") == "left" else args.right_tests
        witness["test_name"] = names[witness["test"]]
    payload = {"command": "check-compat", "bimodule": args.bimodule,
               "verdict": v.kind, "reason": v.reason,
               "proof_grade": v.proof_grade,
               "inj_dims": list(v.inj_dims) if v.inj_dims else None,
               "witness": witness, "tests_used": v.tests_used}
    _emit(args, payload)
    if v.kind == "not_compatible":
        return FAIL
    if v.kind == "weakly_compatible":
        return OK
    return UNKNOWN


def _nc_tensor_payload(prob, context: str, mode: str) -> dict:
    """The report of `nc-tensor build` on the named context, or of
    `nc-tensor iso` for any other mode."""
    ctx = prob.named("contexts", context)
    nc = build_nc_tensor(ctx)
    if mode == "build":
        exact = build_exact_context(ctx)
        return {"command": "nc-tensor", "mode": "build", "context": context,
                "ring_dim": nc.ring.dim, "tensor_block_dim": nc.mn.dim,
                "exact_context": {"dims": [exact.dim_r, exact.dim_s,
                                           exact.dim_t, exact.dim_w],
                                  "exact": exact.exact, "euler": exact.euler},
                "verdict": "ok" if exact.exact else "fail"}
    bij = iso_with_morita(nc_morita_presentation(nc))
    return {"command": "nc-tensor", "mode": "iso", "context": context,
            "ring_dim": nc.ring.dim, "bijection": mat_to_json(bij),
            "verdict": "ok"}


def cmd_nc_tensor(args, prob) -> int:
    if args.mode != "check":
        payload = _nc_tensor_payload(prob, args.context, args.mode)
        _emit(args, payload)
        return OK if payload["verdict"] == "ok" else FAIL
    # mode == "check": the mirrored criterion over a (phi, 0) context
    ctx = prob.named("contexts", args.context)
    if not args.extension or not args.quadruple:
        raise InputError("nc-tensor check needs --extension and --quadruple")
    q = prob.named("quadruples", args.quadruple)
    ext = prob.named("extensions", args.extension)
    if q.ctx is not ctx:
        raise InputError(f"quadruple {args.quadruple} lives over another context")
    q_sw = swap_quadruple(q, f"swap({q.name})")
    rep = check_conditions(ext, q_sw.ctx, q_sw, args.window, args.period_bound)
    payload = {"command": "nc-tensor", "mode": "check",
               "quadruple": args.quadruple, "verdict": rep.overall}
    payload.update(_criterion_payload(prob, rep))
    _emit(args, payload)
    return {"pass": OK, "fail": FAIL, "unknown": UNKNOWN}[rep.overall]


def cmd_audit(args, prob) -> int:
    ext = prob.named("extensions", args.extension)
    ctx = prob.named("contexts", args.context)
    family = [prob.named("quadruples", n) for n in args.quadruples]
    report = audit_equivalence(ext, ctx, family, args.window, args.period_bound)
    payload = {"command": "audit",
               "entries": [{"name": e.name, "criterion": e.criterion,
                            "failing": e.failing, "certificate": e.certificate,
                            "classification": e.classification,
                            "detail": e.detail} for e in report.entries],
               "bimodules": {k: {"verdict": v.kind, "reason": v.reason,
                                 "proof_grade": v.proof_grade}
                             for k, v in report.bimodule_verdicts.items()},
               "semi_weak": {k: {"verdict": v.kind, "reason": v.reason,
                                 "witness": v.witness}
                             for k, v in report.semi_weak_verdicts.items()},
               "verdict": "ok" if report.consistent else "fail"}
    _emit(args, payload)
    if not report.consistent:
        return FAIL
    if any(e.classification == "undetermined" for e in report.entries):
        return UNKNOWN
    return OK


def cmd_verify_report(args, prob) -> int:
    try:
        with open(args.report) as fh:
            rep = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"input error: cannot read report: {e}", file=sys.stderr)
        return BAD_INPUT
    if not isinstance(rep, dict):
        raise InputError("the report is not an object")
    cmd = rep.get("command")
    problems: list[str] = []
    if cmd == "certify-gp":
        problems, cert = _verify_cert_json(prob, rep.get("certificate", {}))
        if not problems:
            problems = _unbound_certify_gp(prob, rep, cert)
    elif cmd == "nc-tensor" and rep.get("mode") != "check":
        expected = json.loads(dumps_report(
            _nc_tensor_payload(prob, rep.get("context", ""), rep.get("mode"))))
        problems = [f"{key} does not recompute: expected "
                    f"{json.dumps(expected.get(key))}"
                    for key in sorted(expected.keys() | rep.keys())
                    if expected.get(key) != rep.get(key)]
    elif cmd in ("check-gp", "nc-tensor"):
        certs = {}
        for key in ("coker_g_certificate", "coker_f_certificate"):
            if key in rep:
                found, certs[key] = _verify_cert_json(prob, rep[key])
                problems += found
        clauses = rep.get("clauses", [])
        for clause in clauses if isinstance(clauses, list) else [clauses]:
            if not isinstance(clause, dict):
                problems.append(f"clause {clause!r} malformed")
            elif not isinstance(clause.get("holds"), bool):
                problems.append(f"clause {clause.get('name')} malformed")
        if not problems:
            problems += _reconcile_criterion(prob, rep, certs)
    elif cmd == "check-compat":
        v = rep.get("verdict")
        if v == "not_compatible":
            w = rep.get("witness") or {}
            if not isinstance(w, dict) or "test_name" not in w:
                problems.append("refutation without a named witness")
            else:
                bim = prob.named("bimodules", rep.get("bimodule", ""))
                wc = prob.named("complexes", w["test_name"])
                if not recheck_compat_witness(bim, wc, rep.get("reason", ""), w):
                    problems.append("compat witness does not re-verify")
    else:
        print(f"input error: no verifier for command {cmd!r}", file=sys.stderr)
        return BAD_INPUT
    payload = {"command": "verify-report", "target": cmd,
               "problems": problems,
               "verdict": "ok" if not problems else "fail"}
    _emit(args, payload)
    return OK if not problems else FAIL


def _reconcile_criterion(prob, rep: dict, parsed: dict) -> list[str]:
    """Each clause must be what the problem file gives, the injectivity of
    eta, theta or m of the report's quadruple (swapped for `nc-tensor
    check`), and overall, failing and verdict what the clauses and the
    two certificate verdicts imply; the two certificates must be about
    the quadruple's Coker(g)|Lambda and Coker(f)."""
    clauses = rep.get("clauses", [])
    certs = [rep.get(f"coker_{s}_certificate") for s in "gf"]
    if [c.get("name") for c in clauses] != ["iso_b1", "iso_b2", "iso_b3"] \
            or None in certs:
        return ["the report lacks a clause or a certificate of the criterion"]
    q = prob.named("quadruples", rep.get("quadruple", ""))
    if rep["command"] == "nc-tensor":
        q = swap_quadruple(q, f"swap({q.name})")
    sm = structural_maps(q.ctx, q)
    holds = [sm.eta.is_injective(), sm.theta.is_injective(), sm.m_x.is_injective()]
    problems = _unbound_certificates(prob, q, sm, parsed["coker_g_certificate"],
                                     parsed["coker_f_certificate"])
    problems += [f"clause {c['name']} does not recompute: holds is {json.dumps(h)}"
                 for c, h in zip(clauses, holds) if c["holds"] != h]
    overall, failing = criterion_verdict(
        [(c["name"], c["holds"]) for c in clauses],
        certs[0].get("verdict"), certs[1].get("verdict"))
    if (rep.get("overall"), rep.get("failing"), rep.get("verdict")) != \
            (overall, failing, overall):
        problems.append(f"the verdict does not follow from the clauses and "
                        f"certificates: expected {overall} failing {failing}")
    return problems


def _unbound_certificates(prob, q, sm, cert_g, cert_f) -> list[str]:
    """cert_g must be about Coker(g) restricted to Lambda, where Lambda is
    its algebra and must be that of an extension matching the quadruple's
    context, and cert_f about Coker(f); "about" as verify_certificate
    compares its module, over the same algebra."""
    out = []
    ext = next((e for e in prob.extensions.values()
                if e.Lam is cert_g.module.algebra), None)
    try:
        if ext is not None:
            check_extension_matches(ext, q.ctx)
    except ExtensionError:
        ext = None
    if ext is None or not _about(cert_g, ext.lam_module(sm.u)):
        out.append("coker_g_certificate is not about the quadruple's "
                   "Coker(g) restricted to Lambda")
    if not _about(cert_f, sm.v):
        out.append("coker_f_certificate is not about the quadruple's Coker(f)")
    return out


def _unbound_certify_gp(prob, rep: dict, cert) -> list[str]:
    """A certify-gp certificate that verifies must be about the module the
    report names, as _about compares them: the problem's module, or, for a
    certificate over ring(ctx), the quadruple as a module over its
    context's ring; and the report's verdict must be the certificate's."""
    tag = rep.get("module")
    if rep["certificate"]["algebra"] in prob.algebras:
        x, what = prob.named("modules", tag), "module"
    else:
        q = prob.named("quadruples", tag)
        x, what = quadruple_to_module(build_ring(q.ctx), q), "quadruple"
    out = [] if _about(cert, x) else [f"the certificate is not about {what} {tag}"]
    if rep.get("verdict") != cert.verdict:
        out.append(f"the report's verdict {json.dumps(rep.get('verdict'))} is not "
                   f"the certificate's {json.dumps(cert.verdict)}")
    return out


def _about(cert, x) -> bool:
    m = cert.module
    return m.algebra is x.algebra and m.dim == x.dim and m.acts == x.acts


def _verify_cert_json(prob, cert_obj):
    """The problems verify_certificate finds with a certificate in JSON,
    and the certificate (None when its algebra is unknown)."""
    name = json_field(cert_obj, "malformed certificate: the certificate",
                      "algebra", str, "")
    algebra = prob.algebras.get(name)
    if algebra is None and name.startswith("ring(") and name.endswith(")"):
        ctx_name = name[5:-1]
        if ctx_name in prob.contexts:
            algebra = build_ring(prob.contexts[ctx_name]).ring
    if algebra is None and name in prob.extensions:
        algebra = prob.extensions[name].Lam
    if algebra is None:
        return [f"certificate references unknown algebra {name!r}"], None
    cert = certificate_from_json(algebra, cert_obj)
    return verify_certificate(cert, cert.module), cert


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    """The arguments of command `name`, in help order."""
    # the options of each command beyond the common ones
    options = {
        "validate": [],
        "build-ring": [("--context", {"required": True})],
        "classify": [("--context", {"required": True})],
        "check-gp": [("--extension", {"required": True}),
                     ("--context", {"required": True}),
                     ("--quadruple", {"required": True})],
        "certify-gp": [("--module", {}), ("--context", {}), ("--quadruple", {})],
        "build-resolution": [("--extension", {"required": True}),
                             ("--context", {"required": True}),
                             ("--quadruple", {"required": True})],
        "check-compat": [("--bimodule", {"required": True}),
                         ("--left-tests", {"nargs": "*", "default": []}),
                         ("--right-tests", {"nargs": "*", "default": []})],
        "nc-tensor": [("--context", {"required": True}), ("--extension", {}),
                      ("--quadruple", {})],
        "audit": [("--extension", {"required": True}),
                  ("--context", {"required": True}),
                  ("--quadruples", {"nargs": "+", "required": True})],
        "verify-report": [("--report", {"required": True})],
    }
    if name == "nc-tensor":
        parser.add_argument("mode", choices=["build", "iso", "check"])
    parser.add_argument("problem", help="JSON problem file")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    parser.add_argument("--window", type=int, default=6)
    parser.add_argument("--period-bound", type=int, default=12)
    parser.add_argument("--budget", type=int, default=600)
    for flag, kwargs in options[name]:
        parser.add_argument(flag, **kwargs)


def _formatter():
    """argparse's help formatter at the terminal width, read once: each
    formatter it makes would read it again."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every command's subparser."""
    fmt = _formatter()
    p = argparse.ArgumentParser(prog="gpmorita", description=__doc__,
                                formatter_class=fmt)
    sub = p.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        _add_options(sub.add_parser(name, formatter_class=fmt), name)
    return p


def _parse_args(argv) -> argparse.Namespace:
    """argv read by its command's own parser, the one the full parser runs
    for that command.  When argv starts with no command, or leaves
    arguments that parser does not know, the full parser reads it, for
    its usage, help and messages."""
    if argv and argv[0] in HANDLERS:
        p = argparse.ArgumentParser(prog=f"gpmorita {argv[0]}",
                                    formatter_class=_formatter())
        _add_options(p, argv[0])
        args, rest = p.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


HANDLERS = {
    "validate": cmd_validate,
    "build-ring": cmd_build_ring,
    "classify": cmd_classify,
    "check-gp": cmd_check_gp,
    "certify-gp": cmd_certify_gp,
    "build-resolution": cmd_build_resolution,
    "check-compat": cmd_check_compat,
    "nc-tensor": cmd_nc_tensor,
    "audit": cmd_audit,
    "verify-report": cmd_verify_report,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    try:
        return _run(args)
    except Exception as e:
        message = " ".join(str(e).splitlines())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return INTERNAL


def _run(args) -> int:
    try:
        prob = load_problem_file(args.problem)
    except ValidationFailure as e:
        print(f"validation failed: {e}", file=sys.stderr)
        return FAIL
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT
    try:
        return HANDLERS[args.command](args, prob)
    except ValidationFailure as e:
        print(f"validation failed: {e}", file=sys.stderr)
        return FAIL
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT
    except Undetermined as e:
        print(f"undetermined: {e}", file=sys.stderr)
        return UNKNOWN
    except (EngineError, NcTensorError) as e:
        print(f"failed: {e}", file=sys.stderr)
        return FAIL
    except ValueError as e:
        # mismatched or malformed mathematical inputs surface here
        print(f"input error: {e}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
