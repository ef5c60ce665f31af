"""The three benchmark workloads.

Each workload turns a seed into a fixed list of `Op`s.  An op has three
phases: `prepare` builds fresh input objects (untimed, untraced, so no
object-level cache carries over from an earlier pass), `run` is the timed
call into gpmorita, and `check` is the oracle, which returns None or the
reason the op failed.  Shared algebras and contexts are built once per
(algebra, field) and their caches are warmed during set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random

from gpmorita.catalog import (
    arrow_ideal_context, glued_psi_context, path_a2, proj_a2, random_module,
    random_quadruple, simple_at_idempotent, simple_kx2, triangular_context,
    truncated_poly, two_cycle_context, two_cycle_rad_square,
)
from gpmorita.fields import GF, QQ
from gpmorita.homology import is_projective
from gpmorita.linalg import Mat
from gpmorita.modules import (
    FDModule, direct_sum, quotient_by_rows, regular_module, validate_module,
)
from gpmorita.morita import (
    ContextError, h_a, h_b, make_quadruple, t_a, t_b, z_a, z_b,
)
from gpmorita.trivext import t_lambda
# Timed calls go through module attributes, so that the tracer's
# replacements of those attributes see them.
from gpmorita import cli, complexes, engine, gpcert, verify

FIELDS = (("Q", QQ), ("Fp", lambda: GF(7)))


class Wrong(str):
    """A failure reason that proves an output wrong (it contradicts a known
    answer or the program's own report), not just an op that failed."""


class Op:
    """One operation of a workload: `key` names it, `field` is "Q" or "Fp"."""

    def __init__(self, key: str, field: str, prepare, run, check):
        self.key, self.field = key, field
        self.prepare, self.run, self.check = prepare, run, check


def fresh_module(m: FDModule) -> FDModule:
    return FDModule(m.algebra, m.dim, [a.copy() for a in m.acts], name=m.name)


def _twist(m: FDModule, rng: random.Random) -> FDModule:
    """An isomorphic copy of m in a randomly rescaled basis (signs over Q,
    nonzero scalars over F_p): the seed changes the input while the
    verdict, the zero pattern and so the work stay those of m."""
    F = m.algebra.field
    d = [F.of_int(rng.choice((1, -1)) if F.is_rational else rng.randrange(1, F.p))
         for _ in range(m.dim)]
    acts = [Mat(F, [[F.div(F.mul(d[i], v), d[j]) for j, v in enumerate(row)]
                    for i, row in enumerate(a.data)], a.cols) for a in m.acts]
    out = FDModule(m.algebra, m.dim, acts, name=f"{m.name}~")
    bad = validate_module(out)
    if bad:
        raise RuntimeError(f"twisted module invalid: {bad[0]}")
    return out


# -- certify-verify -------------------------------------------------------------


def _cv_templates(F):
    """(algebra tag, algebra, [(name, module)]) per catalog algebra, all of
    dimension at most 4: split-projective and not_gp verdicts over the
    hereditary path_a2, self-injective ones over the other two."""
    ka2, kx3, cyc = path_a2(F), truncated_poly(F, 3), two_cycle_rad_square(F)
    s1, s2, p2 = (simple_at_idempotent(ka2, 0, "S1"),
                  simple_at_idempotent(ka2, 2, "S2"), proj_a2(ka2))
    s, r3 = simple_kx2(kx3), regular_module(kx3)
    x2 = Mat.from_rows(F, [[F.zero(), F.zero(), F.one()]], 3)
    m2 = quotient_by_rows(r3, x2)[0]                    # k[x]/(x^2)
    c1, c2 = simple_at_idempotent(cyc, 0, "S1"), simple_at_idempotent(cyc, 1, "S2")

    def plus(*parts):
        return direct_sum(list(parts))[0]

    return [
        ("path_a2", ka2, [("S1", s1), ("S2", s2), ("P2", p2),
                          ("S1+S1", plus(s1, s1)), ("S1+P2", plus(s1, p2)),
                          ("S2+S2", plus(s2, s2)), ("S1+S2", plus(s1, s2)),
                          ("P2+S2", plus(p2, s2)),
                          ("S1+S1+S2", plus(s1, s1, s2))]),
        ("truncated_poly3", kx3, [("S", s), ("M2", m2), ("S+S", plus(s, s)),
                                  ("A", r3), ("S+M2", plus(s, m2)),
                                  ("M2+M2", plus(m2, m2))]),
        ("two_cycle", cyc, [("S1", c1), ("S2", c2), ("S1+S2", plus(c1, c2)),
                            ("S1+S1", plus(c1, c1)), ("S2+S2", plus(c2, c2)),
                            ("A", regular_module(cyc))]),
    ]


def _certify_verify(m):
    cert = gpcert.certify_gorenstein_projective(m)
    return cert, verify.verify_certificate(cert, m)


def _cv_op(tag: str, field: str, name: str, m: FDModule) -> Op:
    def check(x, out):
        cert, problems = out
        if problems:
            return f"checker rejected the certificate: {problems[0]}"
        if cert.verdict == "unknown":
            return None
        if tag == "path_a2":
            if (cert.verdict == "gp") != is_projective(fresh_module(m)):
                return Wrong(f"verdict {cert.verdict} contradicts projectivity")
        elif cert.verdict == "not_gp":
            return Wrong("not_gp over a self-injective algebra")
        return None

    return Op(f"{tag}:{name} [{field}]", field, lambda: fresh_module(m),
              _certify_verify, check)


def certify_verify(seed: int, root: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for field, make_field in FIELDS:
        for tag, alg, templates in _cv_templates(make_field()):
            # warm the algebra-level caches shared by every op
            _certify_verify(simple_at_idempotent(alg, 0))
            for name, m in templates:
                ops.append(_cv_op(tag, field, name, _twist(m, rng)))
            # A fixed reference draw in a seeded basis: a module drawn with
            # the seed's own stream would change the work from seed to seed.
            ref = random.Random(0)
            while True:
                m = random_module(alg, ref)
                if m.dim == 2:
                    break
            ops.append(_cv_op(tag, field, "random2", _twist(m, rng)))
    rng.shuffle(ops)
    return ops


# -- criterion-assembly ---------------------------------------------------------

CONTEXTS = (("triangular", triangular_context), ("two_cycle", two_cycle_context),
            ("glued_psi", glued_psi_context), ("arrow_ideal", arrow_ideal_context))


def _signature(q):
    return q.name, q.x.dim, q.y.dim


def _ca_quadruples(ext, ctx, rng):
    """Functor images of regular modules in a seeded basis, then two seeded
    random quadruples of dimension 1 to 3.  The random ones are single
    functor images that match the functor and dimensions of two fixed
    reference draws, so the seed changes the inputs but not the work."""
    def reg(alg):
        return _twist(regular_module(alg), rng)

    images = [("P1", lambda: t_a(ctx, reg(ctx.A))),
              ("P2", lambda: t_b(ctx, reg(ctx.B))),
              ("ZA", lambda: z_a(ctx, reg(ctx.A))),
              ("ZB", lambda: z_b(ctx, reg(ctx.B))),
              ("HA", lambda: h_a(ctx, reg(ctx.A))),
              ("HB", lambda: h_b(ctx, reg(ctx.B))),
              ("TL", lambda: t_lambda(ext, ctx, reg(ext.Lam)))]
    out = []
    for name, build in images:
        try:
            out.append((name, build()))
        except ContextError:
            pass            # Z_A needs I to kill the module: not every context
    ref = random.Random(0)
    targets = []
    while len(targets) < 2:
        q = random_quadruple(ctx, ref, allow_sum=False)
        if 1 <= q.dim <= 3:
            targets.append(_signature(q))
    for i, target in enumerate(targets):
        for _ in range(2000):
            q = random_quadruple(ctx, rng, allow_sum=False)
            if _signature(q) == target:
                break
        else:
            raise RuntimeError(f"no random quadruple matching {target}")
        out.append((f"random{i}:{q.name}", q))
    return out


def _criterion_assembly(ext, ctx, q):
    rep = engine.check_conditions(ext, ctx, q)
    if not rep.passed:
        return rep.overall, None
    return rep.overall, engine.build_total_resolution(ext, ctx, q, rep, window=3)


def _ca_op(tag, field, name, ext, ctx, q) -> Op:
    f_full = q.mx.proj @ q.f.mat
    g_full = q.ny.proj @ q.g.mat

    def prepare():
        return make_quadruple(ctx, fresh_module(q.x), fresh_module(q.y),
                              f_full, g_full, name=q.name)

    def check(fresh, out):
        overall, asm = out
        if asm is None:
            return None
        if not complexes.is_exact(asm.tcx):
            return Wrong("assembled complex is not exact")
        if not complexes.total_exactness(asm.tcx):
            return Wrong("assembled complex is not totally exact")
        if not asm.kernel_iso.is_iso():
            return Wrong("kernel_iso is not an isomorphism")
        return None

    return Op(f"{tag}:{name} [{field}]", field, prepare,
              lambda fresh: _criterion_assembly(ext, ctx, fresh), check)


def criterion_assembly(seed: int, root: str) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for field, make_field in FIELDS:
        F = make_field()
        for tag, make in CONTEXTS:
            ext, ctx = make(F)
            # warm the context-level caches (ring, ideal bimodule, ...)
            _criterion_assembly(ext, ctx, t_b(ctx, regular_module(ctx.B)))
            for name, q in _ca_quadruples(ext, ctx, rng):
                ops.append(_ca_op(tag, field, name, ext, ctx, q))
    rng.shuffle(ops)
    return ops


# -- cli-roundtrip --------------------------------------------------------------

# Exit codes by report verdict, as the README's table states them.
EXIT = {"ok": 0, "pass": 0, "gp": 0, "weakly_compatible": 0,
        "fail": 1, "not_gp": 1, "not_compatible": 1, "unknown": 2}
VERIFIED = ("certify-gp", "check-gp", "nc-tensor", "check-compat")
# The smallest fixtures also run as GF(7) copies.  They give the F_p median
# its ops; copies of the other three would add half a pass.
FP_FIXTURES = ("dual_numbers.json", "triangular.json", "two_cycle.json")


def _zero(mat) -> bool:
    return all(v in (0, "0") for row in mat for v in row)


def _fixture_commands(path: str, doc: dict) -> list[list[str]]:
    """Every README command that applies to one problem file."""
    cmds = [["validate", path]]
    for c in doc.get("contexts", {}):
        ctx = doc["contexts"][c]
        maps = doc["maps"]
        cmds += [["build-ring", path, "--context", c],
                 ["classify", path, "--context", c],
                 ["nc-tensor", "build", path, "--context", c]]
        if _zero(maps[ctx["phi"]]["mat"]) and _zero(maps[ctx["psi"]]["mat"]):
            cmds.append(["nc-tensor", "iso", path, "--context", c])
        quads = sorted(doc.get("quadruples", {}))
        for e, ext in sorted(doc.get("extensions", {}).items()):
            if ext["algebra"] == ctx["A"]:
                for q in quads:
                    cmds += [["check-gp", path, "--extension", e, "--context", c,
                              "--quadruple", q],
                             ["build-resolution", path, "--extension", e,
                              "--context", c, "--quadruple", q]]
                cmds.append(["audit", path, "--extension", e, "--context", c,
                             "--quadruples", *quads])
            else:
                for q in quads:
                    cmds.append(["nc-tensor", "check", path, "--context", c,
                                 "--extension", e, "--quadruple", q])
        for q in quads:
            cmds.append(["certify-gp", path, "--context", c, "--quadruple", q])
    if not doc.get("contexts"):
        for m in sorted(doc.get("modules", {})):
            cmds.append(["certify-gp", path, "--module", m])
        for b in sorted(doc.get("bimodules", {})):
            for wc in sorted(doc.get("complexes", {})):
                cmds.append(["check-compat", path, "--bimodule", b,
                             "--right-tests", wc])
    return cmds


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:            # argparse rejected the command line
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _expected_exit(payload: dict):
    verdict = payload.get("verdict")
    if payload.get("command") == "build-resolution" and verdict == "fail":
        return 2 if "unknown" in payload.get("detail", "") else 1
    if payload.get("command") == "audit" and verdict == "ok":
        undetermined = any(e.get("classification") == "undetermined"
                           for e in payload.get("entries", []))
        return 2 if undetermined else 0
    if payload.get("command") == "check-compat" and verdict not in EXIT:
        return 2
    return EXIT.get(verdict)


def _check_cli(out) -> str | None:
    code, text, err = out
    try:
        payload = json.loads(text)
    except ValueError:
        return f"no JSON report (exit {code}): {err.strip()[:120]}"
    if payload.get("command") == "verify-report" and payload.get("problems"):
        return ("verify-report rejected an untampered report: "
                f"{payload['problems'][0]}")
    want = _expected_exit(payload)
    if code != want:
        return Wrong(f"exit code {code} disagrees with verdict "
                     f"{payload.get('verdict')!r}")
    return None


def _label(argv) -> str:
    return " ".join(os.path.basename(a) if a.endswith(".json") else a for a in argv)


def _fp_copy(src: str, dst_dir: str) -> str:
    with open(src) as fh:
        doc = json.load(fh)
    doc["field"] = {"p": 7}
    dst = os.path.join(dst_dir, os.path.basename(src))
    with open(dst, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return dst


def cli_roundtrip(seed: int, root: str) -> list[Op]:
    rng = random.Random(seed)
    fixtures = os.path.join(root, "fixtures")
    work = os.path.join(root, ".bench_build", "gpbench")
    fp_dir = os.path.join(work, "fixtures_gf7")
    reports = os.path.join(work, "reports")
    os.makedirs(fp_dir, exist_ok=True)
    os.makedirs(reports, exist_ok=True)
    groups, n_reports = [], 0
    for fname in sorted(os.listdir(fixtures)):
        if not fname.endswith(".json"):
            continue
        src = os.path.join(fixtures, fname)
        variants = [("Q", src)]
        if fname in FP_FIXTURES:
            variants.append(("Fp", _fp_copy(src, fp_dir)))
        for field, path in variants:
            with open(path) as fh:
                doc = json.load(fh)
            for cmd in _fixture_commands(path, doc):
                report = os.path.join(reports, f"{n_reports}.json")
                n_reports += 1
                groups.append(_cli_group(field, cmd, path, report))
    # The seed sets the order of the commands.  Each command runs with the
    # CLI's default --seed, as the README gives it: the CLI seed steers
    # randomized searches, whose work differs by up to 4x from one CLI
    # seed to the next, and that would show as noise between runs.
    rng.shuffle(groups)
    return [op for g in groups for op in g]


def _cli_group(field, cmd, path, report) -> list[Op]:
    """The command, then verify-report on its report where a verifier
    exists.  Keys name the command and the field, so the excluded-op
    ledger can name an op whatever seed ordered it."""
    key = f"{_label(cmd)} [{field}]"
    argv = cmd + ["--json"]
    last = {}

    def run_cmd(_):
        last["out"] = _call_cli(argv)
        return last["out"]

    ops = [Op(key, field, lambda: None, run_cmd, lambda _, out: _check_cli(out))]
    if cmd[0] not in VERIFIED:
        return ops
    vargv = ["verify-report", path, "--report", report, "--json"]

    def prepare():
        with open(report, "w") as fh:
            fh.write(last.get("out", (None, "", ""))[1])

    ops.append(Op(f"verify-report after {key}", field, prepare,
                  lambda _: _call_cli(vargv), lambda _, out: _check_cli(out)))
    return ops


WORKLOADS = {
    "certify-verify": certify_verify,
    "criterion-assembly": criterion_assembly,
    "cli-roundtrip": cli_roundtrip,
}
