"""Span tracing of gpmorita's layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced layer
modules with a wrapper that records one span per call: name, start, end,
parent span and op id.  A function is replaced in every `gpmorita.*`
namespace that holds it, because modules bind each other's functions at
import time (`from .linalg import rank`); `Mat` methods are replaced on
the class.  Spans stay in memory; `write_spans` writes them out when the
run ends.  Per-name call counts, inclusive time (outermost call of a
name only, so recursion is not counted twice) and self time (duration
minus the time covered by child spans) are aggregated as spans close.
"""
from __future__ import annotations

import functools
import gzip
from array import array
import inspect
import sys
import time

# The layers whose public functions are wrapped.  `fields` is left out:
# its calls are per scalar, and their cost shows in the linalg self time.
LAYERS = ("linalg", "algebra", "modules", "bimodules", "idempotents",
          "homology", "complexes", "gpcert", "verify", "morita", "trivext",
          "engine", "nctensor", "jsonio", "cli")

# Mat methods that do arithmetic or reshape data; constructors and
# accessors are too small to trace without the tracer dominating them.
MAT_METHODS = ("add", "sub", "scale", "neg", "matmul", "transpose", "kron",
               "hstack", "vstack", "block_diag")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rref_cells(c, args, kwargs, out):
    m = _arg(args, kwargs, 0, "m")
    c["linalg.rref.cells"] = c.get("linalg.rref.cells", 0) + m.rows * m.cols


def _kron_cells(c, args, kwargs, out):
    c["linalg.kron.cells"] = c.get("linalg.kron.cells", 0) + out.rows * out.cols


def _matmul_madds(c, args, kwargs, out):
    a, b = args[0], _arg(args, kwargs, 1, "other")
    c["linalg.matmul.madds"] = (c.get("linalg.matmul.madds", 0)
                                + a.rows * a.cols * b.cols)


def _problem_bytes(c, args, kwargs, out):
    import os
    path = _arg(args, kwargs, 0, "path")
    c["jsonio.problem_bytes"] = (c.get("jsonio.problem_bytes", 0)
                                 + os.path.getsize(path))


def _report_bytes(c, args, kwargs, out):
    c["jsonio.report_bytes"] = (c.get("jsonio.report_bytes", 0)
                                + len(out.encode()))


def _verdict(c, args, kwargs, out):
    key = f"gpcert.verdict.{out.verdict}"
    c[key] = c.get(key, 0) + 1


def _iso_found(c, args, kwargs, out):
    if out is not None:
        c["modules.is_isomorphic.found"] = (
            c.get("modules.is_isomorphic.found", 0) + 1)


# Counters derived from argument shapes and results, by span name.
COUNTERS = {
    "linalg.rref": _rref_cells,
    "linalg.Mat.kron": _kron_cells,
    "linalg.Mat.matmul": _matmul_madds,
    "jsonio.load_problem_file": _problem_bytes,
    "jsonio.dumps_report": _report_bytes,
    "gpcert.certify_gorenstein_projective": _verdict,
    "modules.is_isomorphic": _iso_found,
}


class Tracer:
    """Records spans while `on` is true; does nothing but forward calls
    while it is false."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        # One entry per span in each column; arrays keep a span to 28 bytes.
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stats: list[list] = []     # per name id: [calls, incl_s, self_s]
        self.depth: list[int] = []      # per name id: open spans of that name
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []    # open spans: [span index, child_s]
        self._undo: list = []
        self._wrappers: dict = {}       # name -> wrapper, reused on reinstall

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"gpmorita.{name}"] for name in LAYERS}
        replace = {}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    replace[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("gpmorita"):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))
        mat = mods["linalg"].Mat
        for meth in MAT_METHODS:
            raw = mat.__dict__[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(f"linalg.Mat.{meth}", raw.__func__))
            else:
                new = self._wrap(f"linalg.Mat.{meth}", raw)
            setattr(mat, meth, new)
            self._undo.append((mat, meth, raw))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        if name in self._wrappers:
            return self._wrappers[name]
        nid = len(self.names)
        self.names.append(name)
        self.stats.append([0, 0.0, 0.0])
        self.depth.append(0)
        count = COUNTERS.get(name)
        tracer = self
        stack, stats, depth = self._stack, self.stats, self.depth
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tracer.op)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[nid] += 1
            start = clock()
            s_start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                depth[nid] -= 1
                st = stats[nid]
                st[0] += 1
                st[2] += dur - frame[1]
                if depth[nid] == 0:
                    st[1] += dur
                s_end[idx] = end
            if count is not None:
                count(tracer.counters, args, kwargs, out)
            return out

        self._wrappers[name] = traced
        return traced

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far: {"calls": {...}, "s": {...}, "self_s": {...},
        "counters": {...}}, keyed by span name."""
        snap = {"calls": {}, "s": {}, "self_s": {}, "counters": dict(self.counters)}
        for name, (calls, incl, self_s) in zip(self.names, self.stats):
            if calls:
                snap["calls"][name] = calls
                snap["s"][name] = incl
                snap["self_s"][name] = self_s
        return snap

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as gzipped CSV; returns the count."""
        t0 = self.span_start[0] if self.span_start else 0.0
        rows = zip(self.span_name, self.span_start, self.span_end,
                   self.span_parent, self.span_op)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_us,end_us,parent,op\n")
            for i, (nid, start, end, parent, op) in enumerate(rows):
                fh.write(f"{i},{self.names[nid]},{(start - t0) * 1e6:.1f},"
                         f"{(end - t0) * 1e6:.1f},{parent},{op}\n")
        return len(self.span_start)


def diff(after: dict, before: dict) -> dict:
    """Per-pass totals: the difference of two snapshots."""
    out = {}
    for kind in ("calls", "s", "self_s", "counters"):
        a, b = after[kind], before[kind]
        out[kind] = {k: v - b.get(k, 0) for k, v in a.items() if v != b.get(k, 0)}
    return out
