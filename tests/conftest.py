"""Test-suite settings and shared fixtures.

One hypothesis profile, loaded for every run: examples are drawn from a
fixed seed, so the suite replays the same examples each time, and no
example has a deadline, so a slow host cannot fail a test by timing.
"""
import sys

import pytest
from hypothesis import settings

settings.register_profile("gpmorita", deadline=None, derandomize=True,
                          print_blob=True)
settings.load_profile("gpmorita")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) counts the calls of fn through every gpmorita module
    that binds it, for the rest of the test; returns the list of calls, each
    recorded as its tuple of positional arguments."""
    def count(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("gpmorita") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
        return calls

    return count
