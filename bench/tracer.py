"""In-memory span tracer for the traced benchmark run.

The tracer wraps qent's public functions from the outside: every module of
the package that binds one of the listed functions (under any name) gets a
wrapper, so calls between modules are seen too.  A span is
``(name, start, end, parent, op_id, size)``; ``size`` is the matrix side for
``linalg.herm_eigenvalues`` and ``-1`` otherwise.  Spans stay in a list
until the run ends.  The tracer also counts calls to numpy's LAPACK
eigen/singular-value routines made while an op is running, so a solver that
bypasses ``herm_eigenvalues`` is still counted.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

import numpy as np

# Public functions timed per layer, keyed by the module that defines them.
TRACED = {
    "linalg": ("herm_eigenvalues", "validate_density", "partial_transpose",
               "partial_transpose_qubit", "partial_trace", "realign",
               "trace_norm", "expectation"),
    "spa": ("spa_pt_dd", "spa_pt_two_qubit", "spa_pt_three_qubit",
            "spa_pt_qutrit_qubit", "spa_witness"),
    "detect": ("ppt_check", "realignment_check", "reduction_check",
               "criterion1", "criterion2", "criterion3"),
    "measures": ("negativity", "structured_negativity", "concurrence_2q",
                 "concurrence_lb_chen", "tangle_pure", "three_pi",
                 "l1_coherence"),
    "classify3": ("slocc_classify", "ghz_w_mixture_analysis",
                  "classify_ghz_subclass", "subclass_fidelities",
                  "correlation_tensors"),
    "cli": ("parse_state_file", "reproduce", "load_golden", "document_bytes",
            "build_parser"),
}

# Every matrix side at which some workload solves an eigenproblem.
EIG_SIDES = (2, 3, 4, 6, 8, 9, 16)

LAPACK = ("eigh", "eigvalsh", "eigvals", "svd")

EIG_NAME = "linalg.herm_eigenvalues"


def traced_names():
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def per_layer_units():
    """Unit of every per-layer metric, in report order."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for k in EIG_SIDES:
        units[f"{EIG_NAME}.n{k}.calls"] = "count"
        units[f"{EIG_NAME}.n{k}.us"] = "us"
    units.update({"linalg.lapack_calls": "count", "cli.import_ms": "ms",
                  "trace.overhead_ratio": "ratio"})
    return units


class Tracer:
    """Records spans of the wrapped functions while an op is active."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self.lapack_calls = 0
        self._stack = []
        self._active = False

    def install(self):
        """Wrap the listed functions in every loaded qent module, and the
        numpy LAPACK entry points.  Call once, after qent is imported."""
        wrappers = {}
        for mod, fns in TRACED.items():
            home = sys.modules[f"qent.{mod}"]
            for fn in fns:
                orig = getattr(home, fn)
                wrappers[id(orig)] = self._wrap(f"{mod}.{fn}", orig)
        for modname, module in list(sys.modules.items()):
            if modname != "qent" and not modname.startswith("qent."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        for fn in LAPACK:
            setattr(np.linalg, fn, self._count(getattr(np.linalg, fn)))

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        sized = name == EIG_NAME

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            size = int(np.shape(args[0])[0]) if sized else -1
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id, size)

        return wrapper

    def _count(self, fn):
        @functools.wraps(fn)
        def counter(*args, **kwargs):
            if self._active:
                self.lapack_calls += 1
            return fn(*args, **kwargs)

        return counter

    def run_op(self, op_id, kind, fn):
        """Run one op under a root span ``op:<kind>``."""
        self.op_id = op_id
        self._active = True
        try:
            return self._wrap(f"op:{kind}", fn)()
        finally:
            self._active = False

    def metrics(self, n_ops, scale):
        """Per-op calls and self time per function, plus solve counts by side.

        Times are multiplied by ``scale``, which brings them to the
        reference speed of ``speed.Gauge``.
        """
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        calls = {name: 0 for name in traced_names()}
        self_s = {name: 0.0 for name in traced_names()}
        eig_us = {k: [] for k in EIG_SIDES}
        for i, (name, t0, t1, _, _, size) in enumerate(self.spans):
            if name not in calls:
                continue
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[i]
            if size >= 0:
                eig_us.setdefault(size, []).append((t1 - t0) * 1e6 * scale)
        out = {}
        for name in traced_names():
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = self_s[name] * 1e3 * scale / n_ops
        for k in EIG_SIDES:
            us = eig_us[k]
            out[f"{EIG_NAME}.n{k}.calls"] = len(us) / n_ops
            out[f"{EIG_NAME}.n{k}.us"] = statistics.median(us) if us else 0.0
        extra = sorted(set(eig_us) - set(EIG_SIDES))
        out["linalg.lapack_calls"] = self.lapack_calls / n_ops
        return out, extra

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op_id, size) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": t0, "end": t1,
                       "parent": parent, "op": op_id}
                if size >= 0:
                    rec["n"] = size
                fh.write(json.dumps(rec) + "\n")
