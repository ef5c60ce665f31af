#!/usr/bin/env python3
"""The gpmorita benchmark.

Run from the root of a checkout:

    python3 gpbench/run.py --workload certify-verify --seed 1 --seconds 22 --trace 0

One process runs the workload's ops in a single-threaded closed loop, one
op in flight.  The seed fixes the op list; the loop repeats whole passes
over it, and each op's latency is its median over the passes.  Every
latency is scaled to a reference host speed, read by a fixed stdlib
kernel run just before and just after the op (see hostspeed.py), so that
the drifting speed of a shared host does not show as a change of the
program.  The number of passes follows from --seconds and the workload's
nominal pass length, never from the speed measured, so every commit is
measured over the same number of samples.  Every op's output is checked.  With
--trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.
The metric names and units come from BENCHMARK.json at the checkout root.
The line before it holds the run's details: provenance, op counts, the
tail percentile and the failure reasons.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import REF_S, probe, probe_median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "gpbench")
SETUP_SAMPLES = 3        # fresh processes timed from spawn to first op
MIN_PASSES = 2           # per-op medians are taken over at least this many
TAIL_BEYOND = 10         # the tail percentile has this many ops beyond it
# Seconds per pass that turn --seconds into a pass count, chosen so that
# a 22 s run makes 5, 4 and 3 passes: enough for per-op medians that one
# slow spell cannot move, few enough that all the runs of the benchmark
# fit their time limit.  A run takes longer than --seconds when the host
# is slow.
NOMINAL_PASS_S = {"certify-verify": 4.4, "criterion-assembly": 5.5,
                  "cli-roundtrip": 7.5}


def fail(msg: str) -> None:
    print(f"gpbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import gpmorita from the checkout's src/, never from elsewhere;
    returns the import time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "gpmorita", "__init__.py")):
        fail(f"no gpmorita sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t = time.perf_counter()
    import gpmorita
    import workloads  # noqa: F401  (imports every gpmorita layer it drives)
    took = time.perf_counter() - t
    where = os.path.dirname(os.path.abspath(gpmorita.__file__))
    if where != os.path.join(SRC, "gpmorita"):
        fail(f"gpmorita was imported from {gpmorita.__file__}, not from {SRC}")
    return took


def build_ops(name: str, seed: int):
    import workloads
    if name not in workloads.WORKLOADS:
        fail(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    with open(os.path.join(HERE, "excluded_ops.json")) as fh:
        excluded = {e["op"] for e in json.load(fh) if e["workload"] == name}
    ops = workloads.WORKLOADS[name](seed, ROOT)
    stale = excluded - {op.key for op in ops}
    if stale:
        fail(f"excluded_ops.json names ops {name} does not generate: {sorted(stale)}")
    return [op for op in ops if op.key not in excluded], sorted(excluded)


# -- measurement -------------------------------------------------------------------


def run_pass(ops, tracer=None, first_id: int = 0) -> list:
    """One pass over the op list; returns (op, seconds, failure, wall
    seconds) records.  Seconds are at the reference host speed: each op
    sits between two probes of `hostspeed`, and its wall time is scaled by
    REF_S over their mean.  With a tracer, spans carry op ids counted from
    `first_id`."""
    records = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        args = op.prepare()
        # As in timeit: collect before the op and not during it, so that no
        # op pays for the garbage or the heap size that earlier ops left.
        gc.collect()
        gc.disable()
        before = probe()
        if tracer is not None:
            tracer.op = first_id + i
            tracer.on = True
        start = clock()
        try:
            out = op.run(args)
            err = None
        except Exception as e:      # a failed op is recorded, never fatal
            err = f"raised {type(e).__name__}: {e}"
        took = clock() - start
        if tracer is not None:
            tracer.on = False
        after = probe()
        gc.enable()
        if err is None:
            try:
                err = op.check(args, out)
            except Exception as e:
                err = f"oracle raised {type(e).__name__}: {e}"
        records.append((op, took * 2 * REF_S / (before + after), err, took))
    return records


def busy(passes) -> float:
    return sum(r[3] for records in passes for r in records)


def per_op(passes, at: int = 1) -> list:
    """Per op: (op, median latency over the passes, failure of any pass),
    with the latency from field `at` of the records (1: at the reference
    speed, 3: wall).  Every pass runs the same op list."""
    return [(recs[0][0], statistics.median(r[at] for r in recs),
             next((r[2] for r in recs if r[2]), None))
            for recs in zip(*passes)]


def ops_per_s(best) -> float:
    """Completed ops per second of a pass at each op's median latency."""
    return sum(1 for r in best if r[2] is None) / sum(r[1] for r in best)


def tail(lat: list[float]):
    """(latency, percentile, ops beyond) at the highest percentile with
    TAIL_BEYOND ops beyond it."""
    lat = sorted(lat)
    k = max(0, len(lat) - TAIL_BEYOND - 1)
    return lat[k], 100.0 * (k + 1) / len(lat), len(lat) - 1 - k


def end_to_end(passes) -> tuple[dict, dict]:
    best = per_op(passes)
    ok = [r for r in best if r[2] is None]
    lat = [r[1] for r in ok]
    tail_s, tail_pct, beyond = tail(lat)
    values = {
        "ops_per_s": ops_per_s(best),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for field in ("Q", "Fp"):
        per = [r[1] for r in ok if r[0].field == field]
        if per:
            values[f"op_p50_s.{field}"] = statistics.median(per)
    wall = [r[1] for r in per_op(passes, at=3) if r[2] is None]
    info = {"op_tail_s": {"percentile": round(tail_pct, 2), "ops": len(lat),
                          "ops_beyond": beyond},
            "wall": {"op_p50_s": statistics.median(wall),
                     "ops_per_s": len(wall) / sum(wall)}}
    return values, info


EXACT = ("calls", "counters")


def per_layer(layers: list[dict], error_rate: float, overhead: float,
              import_s: float) -> dict:
    """Counts from the first traced pass (every traced pass repeats them);
    seconds as the least over the traced passes."""
    first = layers[0]
    values = {}
    for kind in ("s", "self_s"):
        for n in set().union(*(p[kind] for p in layers)):
            values[f"{n}.{kind}"] = min(p[kind].get(n, 0.0) for p in layers)
    for n, c in first["calls"].items():
        values[f"{n}.calls"] = c
    values.update(first["counters"])
    values["linalg.self_s"] = sum(v for k, v in values.items()
                                  if k.startswith("linalg.") and k.endswith(".self_s"))
    iso = first["calls"].get("modules.is_isomorphic", 0)
    values["modules.is_isomorphic.found_ratio"] = (
        first["counters"].get("modules.is_isomorphic.found", 0) / iso if iso else 0.0)
    values["error_rate"] = error_rate
    values["trace.overhead_ratio"] = overhead
    values["setup.import_s"] = import_s
    return values


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill `seconds` at the workload's nominal pass length."""
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def measure(ops, passes: int) -> list:
    return [run_pass(ops) for _ in range(passes)]


def measure_traced(ops, passes: int, spans_path: str):
    """`passes` untraced and `passes` traced passes in turn.  The untraced
    passes are the baseline of the tracing overhead."""
    from tracing import Tracer, diff
    tracer = Tracer()
    plain, traced, layers = [], [], []
    for _ in range(passes):
        plain.append(run_pass(ops))
        tracer.install()
        try:
            before = tracer.snapshot()
            traced.append(run_pass(ops, tracer, len(traced) * len(ops)))
            layers.append(diff(tracer.snapshot(), before))
        finally:
            tracer.uninstall()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    n_spans = tracer.write_spans(spans_path)
    repeat = all({k: p[k] for k in EXACT} == {k: layers[0][k] for k in EXACT}
                 for p in layers[1:])
    overhead = ops_per_s(per_op(traced)) / ops_per_s(per_op(plain))
    return plain + traced, layers, overhead, {
        "traced_passes": len(traced), "spans": n_spans,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "exact_counters_repeat": repeat}


class SetupSteps:
    """The set-up of a --setup-only process, timed in steps.  Each step
    ends with a host speed reading, whose own time is left out."""

    def __init__(self, t0: float):
        self.start, self.steps = t0, []

    def end(self) -> None:
        took = time.perf_counter() - self.start
        self.steps.append((took, probe_median(3)))
        self.start = time.perf_counter()


def setup_samples(args) -> list[tuple[float, float]]:
    """Time SETUP_SAMPLES fresh processes from spawn to their first op.
    Returns (seconds at the reference host speed, wall seconds) pairs.
    Host speed changes within a second, so each step of the set-up (start
    and import, building the inputs) is scaled by the mean of the readings
    that bracket it; the first reading is taken just before the spawn."""
    out = []
    for _ in range(SETUP_SAMPLES):
        speed = probe_median(3)
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--t0", repr(time.perf_counter())]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
        if done.returncode != 0:
            fail(f"set-up process failed: {done.stderr.strip()[-400:]}")
        scaled = wall = 0.0
        for took, after in json.loads(done.stdout.strip().splitlines()[-1])["steps"]:
            scaled += took * 2 * REF_S / (speed + after)
            wall += took
            speed = after
        out.append((scaled, wall))
    return out


# -- provenance --------------------------------------------------------------------


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gpmorita")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def holdout_seed(seed: int) -> int:
    """A second seed for checking a claim on inputs not used while the
    change was written."""
    return (seed + 1) * 1_000_003 % (2 ** 31 - 1)


def provenance(seed: int) -> dict:
    return {"git_commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "seed": seed, "holdout_seed": holdout_seed(seed)}


# -- main --------------------------------------------------------------------------


def failures(records) -> dict:
    out: dict[str, dict] = {}
    for op, _, err, _ in records:
        if err:
            e = out.setdefault(err, {"count": 0, "ops": []})
            e["count"] += 1
            if op.key not in e["ops"] and len(e["ops"]) < 5:
                e["ops"].append(op.key)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_file):
        fail(f"missing {bench_file}")
    with open(bench_file) as fh:
        bench = json.load(fh)
    steps = SetupSteps(args.t0) if args.setup_only else None
    import_s = import_program()
    if steps:
        steps.end()
    ops, excluded = build_ops(args.workload, args.seed)
    if steps:
        steps.end()
        print(json.dumps({"steps": steps.steps}))
        return 0
    if not ops:
        fail("the workload has no ops")
    n_passes = pass_count(args.workload, args.seconds)
    # Set-up objects live for the whole run: keep them out of every
    # collection, so the collection before each op costs almost nothing.
    gc.freeze()

    details = {"workload": args.workload, "provenance": provenance(args.seed),
               "ops_per_pass": len(ops), "excluded_ops": excluded,
               "loop": "closed, single-threaded, one op in flight"}
    if args.trace:
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.csv.gz")
        passes, layers, overhead, info = measure_traced(
            ops, max(MIN_PASSES, round(n_passes / 2)), spans_path)
        details.update(info)
        records = [r for p in passes for r in p]
        values = per_layer(layers, sum(1 for r in records if r[2]) / len(records),
                           overhead, import_s)
        wanted = bench["per_layer"]
    else:
        passes = measure(ops, n_passes)
        records = [r for p in passes for r in p]
        details["passes"] = len(passes)
        values, info = end_to_end(passes)
        samples = setup_samples(args)
        values["setup_s"] = statistics.median(x[0] for x in samples)
        details.update(info)
        details["setup_s_samples"] = samples
        details["wall"]["setup_s"] = statistics.median(x[1] for x in samples)
        wanted = bench["end_to_end"]
    details["measured_s"] = busy(passes)
    details["failures"] = failures(records)
    if args.trace:
        # a layer the workload never calls reads 0
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {missing}")
    from workloads import Wrong
    correct = not any(isinstance(r[2], Wrong) for r in records)
    result = {"correct": correct, "attempted": len(records),
              "failed": sum(1 for r in records if r[2]),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
