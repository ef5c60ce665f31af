"""Test-suite settings.

One hypothesis profile, loaded for every run: examples are drawn from a
fixed seed, so the suite replays the same examples each time, and no
example has a deadline, so a slow host cannot fail a test by timing.
"""
from hypothesis import settings

settings.register_profile("gpmorita", deadline=None, derandomize=True,
                          print_blob=True)
settings.load_profile("gpmorita")
