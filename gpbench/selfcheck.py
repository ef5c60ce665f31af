#!/usr/bin/env python3
"""Check that two traced runs with the same seed give identical exact
counters, and print each workload's tracing overhead.

Run from the root of a checkout:

    python3 gpbench/selfcheck.py [--workload NAME ...] [--seed N]

Exact counters are the per-layer metrics counted per pass (`*.calls`,
`*.cells`, `*.madds`, `*_bytes`, `gpcert.verdict.*`).  They come from
argument shapes and results, so they must repeat; a mismatch means the
benchmark or the program is not deterministic, and the exit code is 1.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count/pass", "B/pass")


def traced_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.exit(f"{workload}: traced run failed: {done.stderr.strip()[-400:]}")
    lines = done.stdout.strip().splitlines()
    return {"details": json.loads(lines[-2])["details"],
            "result": json.loads(lines[-1])}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", nargs="*",
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    exact = [m["name"] for m in bench["per_layer"] if m["unit"] in EXACT_UNITS]
    ok = True
    for w in args.workload:
        a, b = (traced_run(w, args.seed, bench["run_seconds"]) for _ in range(2))
        ma, mb = a["result"]["metrics"], b["result"]["metrics"]
        differ = [n for n in exact if ma[n]["value"] != mb[n]["value"]]
        within = all(r["details"]["exact_counters_repeat"] for r in (a, b))
        ok = ok and not differ and within
        print(json.dumps({
            "workload": w, "seed": args.seed, "exact_counters": len(exact),
            "differ_between_runs": differ, "repeat_within_runs": within,
            "trace.overhead_ratio": [ma["trace.overhead_ratio"]["value"],
                                     mb["trace.overhead_ratio"]["value"]]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
