"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a VM on a shared machine whose speed drifts by up
to 2x over tens of seconds, in process CPU time as much as in wall time
(almost no steal time shows in /proc/stat).  Every timed op is
therefore bracketed by two runs of `probe`, and its latency is reported
at the reference speed:

    latency = wall seconds * REF_S / mean(probe before, probe after)

The kernel uses only the standard library and never calls gpmorita, so a
change to the program cannot speed it up or slow it down.  It does the
kind of work gpmorita does: row reduction of small matrices over Q
(`fractions.Fraction`) and over F_7 (ints), through a small field object
with one method call per element operation, as `linalg` does.
"""
from __future__ import annotations

import time
from fractions import Fraction

# One probe's wall seconds on the host at its fast speed (2-core x86 VM,
# Python 3.11).  Only a scale: any constant gives the same spreads.
REF_S = 0.0021


class _Field:
    def __init__(self, p: int):
        self.p = p

    def mul(self, a, b):
        return a * b % self.p if self.p else a * b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def inv(self, a):
        return pow(a, -1, self.p) if self.p else 1 / a


def _rref(F: _Field, rows: list[list]) -> list[list]:
    rows = [list(r) for r in rows]
    m, r = len(rows), 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        iv = F.inv(rows[r][c])
        rows[r] = [F.mul(iv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return rows


def _kernel() -> int:
    n, seen = 7, {}
    for p in (0, 7):
        F = _Field(p)
        rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(n + 3)] for i in range(n)]
        if p:
            rows = [[v % p for v in row] for row in rows]
        else:
            rows = [[Fraction(v, 1 + (i + j) % 3) for j, v in enumerate(row)]
                    for i, row in enumerate(rows)]
        for row in _rref(F, rows):
            for v in row:
                seen[v] = seen.get(v, 0) + 1
    return len(seen)


_EXPECT = _kernel()


def probe() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    got = _kernel()
    took = time.perf_counter() - start
    if got != _EXPECT:
        raise RuntimeError("reference kernel gave a different result")
    return took


def probe_median(n: int = 5) -> float:
    """Median of `n` probes in a row, for a speed reading that one
    interrupt cannot skew."""
    return sorted(probe() for _ in range(n))[n // 2]
