"""Per-layer tracing for the benchmark's traced runs.

The program is traced from outside: each public function listed in TRACED
is replaced by a wrapper that records a span (name, start, end, parent
span, op id) while a traced op runs. The wrapper is rebound in every
sidecast module namespace that holds the original, because
``from .x import f`` copies the binding. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# (module, function) pairs traced, one layer per module. README.md has the
# table of which end-to-end metric each group should move, and where.
TRACED = (
    ("cli", "main"),
    ("harness", "run_experiment"),
    ("harness", "perturb"),
    ("harness", "sinc_deviation"),
    ("harness", "_symbol_rows"),
    ("harness", "identity_residual"),
    ("harness", "kappa_calibration"),
    ("regularizer", "reconstruct"),
    ("regularizer", "reconstruct_spectrum"),
    ("regularizer", "assemble_rhs"),
    ("regularizer", "spectral_division"),
    ("regularizer", "tail_energy"),
    ("transform", "convolve2_causal"),
    ("transform", "dft2_forward"),
    ("transform", "idft2_windowed"),
    ("transform", "idft2_windowed_at"),
    ("sinc", "build_expansion"),
    ("sinc", "eval_expansion"),
    ("sinc", "write_expansion"),
    ("fields", "sample"),
    ("fields", "read_field"),
    ("fields", "write_field"),
    ("fields", "write_csv"),
    ("fields", "l2_distance"),
    ("kernels", "kernel_eval"),
    ("kernels", "kernel_l1_norm"),
    ("kernels", "s_hat"),
)


def _points(a) -> int:
    return int(np.broadcast(np.asarray(a["x"]), np.asarray(a["t"])).size)


def _dft_flops(a) -> int:
    # two complex matrix products: (nz x nx)(nx x nt), then (nz x nt)(nt x nr)
    g, s = a["field"].grid, a["spectral_grid"]
    return 8 * s.nx * g.nt * (g.nx + s.nt)


def _file_bytes(a) -> int:
    return os.path.getsize(a["path"])


# Work counts computed from argument shapes or output sizes, not measured:
# function -> (count name, unit, count from the bound arguments).
COUNTED = {
    "transform.dft2_forward": ("flops", "flop", _dft_flops),
    "transform.idft2_windowed_at": ("points", "count", _points),
    "sinc.eval_expansion": (
        "terms", "count", lambda a: _points(a) * a["exp"].values.size),
    "fields.sample": ("nodes", "count", lambda a: a["grid"].nx * a["grid"].nt),
    "fields.read_field": ("bytes", "byte", _file_bytes),
    "fields.write_field": ("bytes", "byte", _file_bytes),
    "fields.write_csv": ("bytes", "byte", _file_bytes),
}
# Points of the full linear convolution each oaconvolve call inside
# convolve2_causal forms, from the shapes of its two inputs.
FFT_POINTS = "transform.convolve2_causal.fft_points"
COUNTED_METRICS = {"%s.%s" % (fn, c[0]) for fn, c in COUNTED.items()} | {
    FFT_POINTS}


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fn in TRACED:
        name = "%s.%s" % (mod, fn)
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
        if name in COUNTED:
            count, unit, _ = COUNTED[name]
            out.append(("%s.%s" % (name, count), unit))
        if name == "transform.convolve2_causal":
            out.append((FFT_POINTS, "count"))
    out.append(("trace_overhead", "ratio"))
    return out


class Tracer:
    """Spans and counts for the ops run while ``op`` is set."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op = None      # id of the traced op running now, else None
        self.missing = []   # TRACED entries the program no longer has
        self._stack = []
        self._undo = []

    def install(self) -> None:
        mods = {name[len("sidecast."):]: m for name, m in sys.modules.items()
                if name.startswith("sidecast.") and m is not None}
        for mod, fn in TRACED:
            orig = getattr(mods.get(mod), fn, None)
            if orig is None:
                self.missing.append("%s.%s" % (mod, fn))
                continue
            self._rebind(mods.values(), orig,
                         self._wrap("%s.%s" % (mod, fn), orig))
        conv = getattr(mods.get("transform"), "oaconvolve", None)
        if conv is not None:
            self._rebind([mods["transform"]], conv, self._count_fft(conv))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    def _rebind(self, modules, orig, wrapper) -> None:
        for module in modules:
            for attr, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, orig))

    def _wrap(self, name, fn):
        counted = COUNTED.get(name)
        sig = inspect.signature(fn) if counted else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counted:
                key = "%s.%s" % (name, counted[0])
                self.counts[key] += counted[2](
                    sig.bind(*args, **kwargs).arguments)
            return result

        return traced

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(a, b, *args, **kwargs):
            if self.op is not None:
                self.counts[FFT_POINTS] += int(np.prod(
                    [p + q - 1 for p, q in zip(np.shape(a), np.shape(b))]))
            return fn(a, b, *args, **kwargs)

        return counted

    def layer_totals(self):
        """Per function: (calls, self seconds, total seconds). Self time is
        the span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s, total_s = Counter(), Counter(), Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[k]
            total_s[name] += end - start
        return calls, self_s, total_s

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
