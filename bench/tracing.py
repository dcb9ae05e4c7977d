"""Span tracing of gaussgem's public functions, installed from outside the package.

Every listed function is wrapped at every name it is bound under at run time:
``from .core import require_pure`` copies the binding into ``measure``,
``graphs``, ``lattice``, ``cli`` and the package ``__init__``, so wrapping
only the defining module would miss the nested calls.  Spans stay in flat
in-memory arrays (name, start, end, parent span, op id, flags) and are
aggregated or written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: Layer (package module) -> public functions timed in it.
LAYERS = {
    "core": (
        "matrix_exponential",
        "symplectic_from_hamiltonian",
        "evolve_covariance",
        "check_pure",
        "require_pure",
        "purity",
        "reduced_covariance",
        "build_omega",
    ),
    "measure": (
        "gem_from_purity",
        "gem_from_metric",
        "metric_g",
        "metric_h",
        "moments_from_covariance",
        "metric_from_moments",
        "killing_contraction",
        "killing_form_sp2",
        "mode_purities",
    ),
    "graphs": (
        "hamiltonian_from_graph",
        "graph_state_covariance",
        "log_negativity_two_mode",
        "gem_two_mode_closed",
        "gem_three_mode_g1",
        "gem_three_mode_g2",
    ),
    "lattice": (
        "gem_field_exact",
        "field_covariance",
        "gem_field_pipeline",
        "bogoliubov_matrices",
        "bogoliubov_residuals",
        "reduced_det_from_xy",
        "gem_field_asymptotic",
        "complete_elliptic",
    ),
    "cli": ("main", "cmd_gem", "cmd_scan2", "cmd_scan3", "cmd_field"),
}

#: Calls per workload op of functions whose repeats are wasted work.
PER_OP = ("core.require_pure", "measure.killing_form_sp2", "core.matrix_exponential")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

_FAILED = 1
_OUTERMOST = 2


class Tracer:
    """Records one span per call of each listed function while installed."""

    def __init__(self):
        self.op_id = 0
        self.fid = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("b")
        self._stack: list[int] = []
        self._depth = [0] * len(SPAN_NAMES)
        self._patched: list | None = None

    def _wrap(self, fid: int, fn):
        fids, starts, ends, parents, ops, flags = (
            self.fid, self.start, self.end, self.parent, self.op, self.flags
        )
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            flags.append(0 if depth[fid] else _OUTERMOST)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            depth[fid] += 1
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                depth[fid] -= 1
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if raised:
                    flags[idx] |= _FAILED

        return traced

    def _bindings(self) -> list:
        """(module, attribute, original, wrapper) for every gaussgem binding of a listed function."""
        if self._patched is None:
            wrappers = {}
            for fid, name in enumerate(SPAN_NAMES):
                layer, fn_name = name.split(".")
                fn = getattr(importlib.import_module(f"gaussgem.{layer}"), fn_name, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(fid, fn))
            self._patched = []
            for mod_name, module in list(sys.modules.items()):
                if mod_name == "gaussgem" or mod_name.startswith("gaussgem."):
                    for attr, value in list(vars(module).items()):
                        hit = wrappers.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._patched.append((module, attr, value, hit[1]))
        return self._patched

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings():
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings():
            setattr(module, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def arrays(self) -> dict:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
        }


def missing_functions() -> list[str]:
    """Listed functions the package no longer has; their metrics read 0."""
    return [
        name for name in SPAN_NAMES
        if not hasattr(importlib.import_module("gaussgem." + name.split(".")[0]), name.split(".")[1])
    ]


def save_spans(path, spans: dict) -> None:
    np.savez(path, names=np.array(SPAN_NAMES), **spans)


def load_spans(path) -> dict:
    with np.load(path) as data:
        if tuple(data["names"]) != SPAN_NAMES:
            raise ValueError(f"{path}: span names differ from this tracer's list")
        return {key: data[key] for key in ("fid", "start", "end", "parent", "op", "flags")}


def concat_spans(parts: list[dict]) -> dict:
    """Join span sets recorded in separate processes, re-basing parent indices."""
    out = {key: [] for key in ("fid", "start", "end", "parent", "op", "flags")}
    offset = 0
    for spans in parts:
        for key in out:
            values = spans[key]
            if key == "parent":
                values = np.where(values >= 0, values + offset, -1)
            out[key].append(values)
        offset += len(spans["fid"])
    if not parts:
        return Tracer().arrays()
    return {key: np.concatenate(values) for key, values in out.items()}


def summarize(spans: dict, num_ops: int) -> dict:
    """Per-function calls, self and busy time; per-layer self time and failures.

    Self time is a span's duration minus the durations of its direct child
    spans (which cover its grandchildren); busy time sums only the outermost
    span of each function, so recursion is not counted twice.  Both include
    time in unlisted helpers the function calls.
    """
    n_fn = len(SPAN_NAMES)
    fid = spans["fid"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    parent = spans["parent"].astype(np.int64)
    flags = spans["flags"]
    has_parent = parent >= 0
    child_cover = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child_cover
    outer = (flags & _OUTERMOST) != 0
    calls = np.bincount(fid, minlength=n_fn)
    self_ms = np.bincount(fid, weights=self_s, minlength=n_fn) * 1e3
    busy_ms = np.bincount(fid[outer], weights=dur[outer], minlength=n_fn) * 1e3
    failed = np.bincount(fid[(flags & _FAILED) != 0], minlength=n_fn)

    metrics = {}
    for k, name in enumerate(SPAN_NAMES):
        metrics[f"{name}.calls"] = int(calls[k])
        metrics[f"{name}.self_ms"] = float(self_ms[k])
        metrics[f"{name}.busy_ms"] = float(busy_ms[k])
    for layer in LAYERS:
        ks = [k for k, name in enumerate(SPAN_NAMES) if name.startswith(layer + ".")]
        metrics[f"{layer}.self_ms"] = float(self_ms[ks].sum())
        metrics[f"{layer}.failed"] = int(failed[ks].sum())
    for name in PER_OP:
        metrics[f"{name}.per_op"] = metrics[f"{name}.calls"] / max(num_ops, 1)
    return metrics
