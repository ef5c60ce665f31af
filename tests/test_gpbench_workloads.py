"""The benchmark's in-memory workloads build and run.

`gpbench/workloads.py` drives the package through its public names
(`make_quadruple`, the functors, `check_conditions`,
`build_total_resolution`, the certifier and the checker), so a change to
one of them can break the benchmark before any benchmark run shows it.
This imports the file as it stands, builds the certify-verify and
criterion-assembly op lists at seed 1, and runs every op once through its
own oracle, which must find nothing wrong.
"""
from __future__ import annotations

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PATH = os.path.join(ROOT, "gpbench", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("gpbench_workloads", PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["certify-verify", "criterion-assembly"])
def test_every_op_of_an_in_memory_workload_passes_its_oracle(name):
    ops = _workloads().WORKLOADS[name](1, ROOT)
    assert ops
    for op in ops:
        args = op.prepare()
        assert op.check(args, op.run(args)) is None, op.key
