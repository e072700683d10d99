"""Outside-in span tracer for the benchmark's traced runs.

The tracer changes no file of the package.  ``install`` replaces each traced
public function by a timing wrapper under every name it is looked up by: the
attribute of its defining module, the package namespace, and every module
that imported it by name (``tvdeblur.solvers.shrink``,
``tvdeblur.harness.write_pgm``, ...).  numpy's 2-D FFTs are wrapped as
attributes of ``numpy.fft``, which is how the package calls them.
``uninstall`` puts the originals back, so untraced work runs unwrapped.

Every call becomes a span (id, name, parent, start, end, bytes).  Spans
stay in memory; the caller writes them out when the run ends.  ``bytes`` is
the summed ``nbytes`` of the call's array arguments and array results: it is
computed from the shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

TRACED = {
    "grid_ops": ("forward_diff", "convolve_periodic"),
    "spectral": ("solve_u", "apply_kernel", "build_cache"),
    "shrinkage": ("shrink",),
    "solvers": (
        "ftvd3_solve",
        "ftvd4_solve",
        "penalty_inner_loop",
        "_make_record",
        "eval_tv_objective",
        "eval_penalty_objective",
        "constraint_residual",
    ),
    "metrics": ("snr_db", "rel_change", "best_iterate"),
    "decomposition": ("decompose", "gradient_residual"),
    "harness": ("degrade", "write_trace_csv", "run_experiment"),
    "pgm": ("write_pgm", "load_image"),
    "cli": ("main",),
}
FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2")
SOLVE_SPANS = ("solvers.ftvd3_solve", "solvers.ftvd4_solve")


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return 0


class Tracer:
    """Records nested spans around calls into the package's public functions.

    ``on_solve``, if given, receives the trace each solver call returns,
    after its span closes.
    """

    def __init__(self, on_solve=None):
        self.spans: list[tuple] = []
        self.on_solve = on_solve
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self.on_solve if name in SOLVE_SPANS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            size = sum(_nbytes(a) for a in args) + sum(_nbytes(a) for a in kwargs.values())
            spans.append((span_id, name, parent, t0, t1, size + _nbytes(result)))
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("tvdeblur")]
        for module_name in TRACED:
            try:
                modules.append(importlib.import_module(f"tvdeblur.{module_name}"))
            except ModuleNotFoundError:
                pass  # a layer the package no longer has is simply not traced
        targets = []
        for home in modules[1:]:
            module_name = home.__name__.rsplit(".", 1)[1]
            targets += [
                (f"{module_name}.{f}", getattr(home, f), modules)
                for f in TRACED[module_name]
                if hasattr(home, f)
            ]
        targets += [(f"fft.{f}", getattr(np.fft, f), [np.fft]) for f in FFT_FUNCTIONS]
        for name, original, sites in targets:
            wrapper = self._wrap(name, original)
            for module in sites:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def span_table(spans):
    """Per span name: calls, inclusive seconds, self seconds, computed bytes.

    Self time is a span's duration minus the durations of its direct
    children; calls on one thread nest, so children never overlap.
    """
    child_time = defaultdict(float)
    for _, _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
    for span_id, name, _, t0, t1, size in spans:
        row = table[name]
        row["calls"] += 1
        row["total_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time[span_id]
        row["bytes"] += size
    return dict(table)
