"""`scripts/gen_fixtures.py` writes the shipped fixtures byte for byte."""
from __future__ import annotations

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
FIXTURES = os.path.join(ROOT, "fixtures")


def test_the_generator_reproduces_every_shipped_fixture(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", os.path.join(ROOT, "scripts", "gen_fixtures.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.OUT = str(tmp_path)
    script.main()
    shipped = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".json"))
    assert sorted(os.listdir(tmp_path)) == shipped and len(shipped) == 6
    for name in shipped:
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            want = fh.read()
        assert (tmp_path / name).read_bytes() == want, name
