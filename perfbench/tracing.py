"""Span tracing of tfm's layers from outside the package.

`Tracer.install()` wraps the public functions listed in LAYERS and
rebinds every module-level name in tfm's modules that refers to one of
them (the `from ... import` copies included), so calls made inside the
package are caught too.  Each wrapped call records a span (name, start,
end, parent, operation id) in memory while the tracer is active; a
layer's self time is its span time minus the time of its child spans.
Counters that describe work (LP rows, scanned cells, distinct masks)
are taken from the call's arguments and results, so they repeat exactly
between runs of the same inputs.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import NamedTuple


class Layer(NamedTuple):
    module: str     # module that defines the function
    function: str
    metrics: tuple  # per-layer metric suffixes reported for it
    moves: str      # end-to-end metric and workload it should move


LAYERS = (
    Layer("tfm.polyhedra", "lp_feasible", ("calls", "self_s", "rows"),
          "ops_per_s and op_ms_p90 on cone_check and mmp; no change on cohomology"),
    Layer("tfm.polyhedra", "dd_vrep", ("calls", "self_s"),
          "ops_per_s on cone_check and mmp"),
    Layer("tfm.fan", "is_projective", ("calls", "self_s"),
          "ops_per_s on cone_check and mmp"),
    Layer("tfm.divisor", "curve_class_space", ("calls", "self_s"),
          "ops_per_s on cone_check and mmp"),
    Layer("tfm.divisor", "divisor_polytope", ("calls", "self_s"),
          "ops_per_s on cone_check and mmp"),
    Layer("tfm.lattice", "smith_normal_form", ("calls", "self_s"),
          "op_ms_p50 on cone_check and mmp"),
    Layer("tfm.lattice", "rational_rank", ("calls", "self_s"),
          "op_ms_p50 on cone_check and mmp"),
    Layer("tfm.lattice", "solve_linear", ("calls", "self_s"),
          "op_ms_p50 on cone_check and mmp"),
    Layer("tfm.moricone", "mori_cone", ("calls", "self_s"),
          "ops_per_s on cone_check and mmp"),
    Layer("tfm.moricone", "supporting_divisor", ("calls", "self_s"),
          "ops_per_s on cone_check and mmp"),
    Layer("tfm.moricone", "contraction", ("calls", "self_s", "calls_per_ray"),
          "ops_per_s on cone_check and mmp; calls_per_ray is the repeated-contraction waste"),
    Layer("tfm.moricone", "detect_pr_bundle", ("calls", "self_s"),
          "ops_per_s on cone_check and mmp"),
    Layer("tfm.fan", "validate_fan", ("calls", "self_s"), "ops_per_s on mmp only"),
    Layer("tfm.mmp", "mmp_step", ("calls", "self_s"), "ops_per_s on mmp only"),
    Layer("tfm.kernel", "scan_weight_masks", ("calls", "self_s", "cells", "masks"),
          "ops_per_s and op_ms_p90 on cohomology; no change on mmp"),
    Layer("tfm.kernel", "bareiss_rank", ("calls", "self_s"),
          "ops_per_s and op_ms_p90 on cohomology; no change on mmp"),
    Layer("tfm.cohomology", "weil_cohomology", (),
          "carries cohomology.contributing_cell_frac: ops_per_s and op_ms_p90 on cohomology"),
    Layer("tfm.foliation", "is_log_canonical", ("calls", "self_s"), "ops_per_s on mmp and cohomology"),
    Layer("tfm.foliation", "klt_perturbation", ("calls", "self_s"), "ops_per_s on mmp and cohomology"),
    Layer("tfm.fan", "qfactorialize", ("calls", "self_s"), "ops_per_s and op_ms_p50 on cli"),
    Layer("tfm.jsonio", "fan_from_json", ("self_s",), "ops_per_s and op_ms_p50 on cli"),
    Layer("tfm.jsonio", "pair_from_json", ("self_s",), "ops_per_s and op_ms_p50 on cli"),
    Layer("tfm.jsonio", "divisor_from_json", ("self_s",), "ops_per_s and op_ms_p50 on cli"),
    Layer("tfm.jsonio", "dump_json", ("self_s",), "ops_per_s and op_ms_p50 on cli"),
    Layer("tfm.cli", "main", ("self_s",), "ops_per_s and op_ms_p50 on cli"),
)


def _label(layer: Layer) -> str:
    return "%s.%s" % (layer.module.rsplit(".", 1)[1], layer.function)


# Metrics the traced run adds on top of the per-function ones.
EXTRA_METRICS = (
    ("cohomology.contributing_cell_frac", "frac", "higher"),
    ("trace.ops", "count", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)

_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "rows": ("count", "lower"),
    "cells": ("count", "lower"),
    "masks": ("count", "lower"),
    "calls_per_ray": ("ratio", "lower"),
}


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for layer in LAYERS:
        for suffix in layer.metrics:
            unit, better = _UNITS[suffix]
            out.append(("%s.%s" % (_label(layer), suffix), unit, better))
    return out + list(EXTRA_METRICS)


def moves():
    """Which end-to-end metric, on which workload, each layer should move."""
    return {_label(layer): layer.moves for layer in LAYERS}


class Tracer:
    """In-memory span recorder; records only between begin_op/end_op."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, op id]
        self.stack: list = []
        self.op = None
        self.counts: Counter = Counter()
        self.contracted: set = set()
        self._scanned: set = set()  # spans with a direct scan child
        self._saved: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "tfm" or name.startswith("tfm."))
        ]
        for layer in LAYERS:
            orig = getattr(importlib.import_module(layer.module), layer.function)
            wrapped = self._wrap(_label(layer), orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, label: str, fn):
        tracer = self
        hook = getattr(self, "_on_" + label.replace(".", "_"), None)
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append([label, perf_counter(), 0.0, parent, tracer.op])
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.spans[idx][2] = perf_counter()
            if hook is not None:
                hook(idx, sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- per-layer work counters --------------------------------------------

    def _on_polyhedra_lp_feasible(self, idx, args, result):
        self.counts["polyhedra.lp_feasible.rows"] += len(args.get("eqs", ())) + len(
            args.get("ineqs", ())
        )

    def _on_kernel_scan_weight_masks(self, idx, args, result):
        self.counts["kernel.scan_weight_masks.cells"] += (2 * args["box"] + 1) ** args["n"]
        self.counts["kernel.scan_weight_masks.masks"] += len(result)
        self._scanned.add(self.spans[idx][3])

    def _on_moricone_contraction(self, idx, args, result):
        f = args["f"]
        self.contracted.add(
            (f.dim, f.rays, tuple(sorted(f.max_cones)), args["ray"].generator)
        )

    def _on_cohomology_weil_cohomology(self, idx, args, result):
        # a call on a non-simplicial fan delegates the scan to a nested call
        if idx in self._scanned:
            self.counts["cohomology.contributing_cells"] += sum(
                count for _, count, _ in result.contributions
            )

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id, kind: str) -> None:
        self.op = op_id
        self.stack = [len(self.spans)]
        self.spans.append(["op:" + kind, perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self.stack[0]][2] = perf_counter()
        self.stack = []
        self.op = None

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out = {}
        for layer in LAYERS:
            label = _label(layer)
            for suffix in layer.metrics:
                name = "%s.%s" % (label, suffix)
                if suffix == "calls":
                    value = calls[label]
                elif suffix == "self_s":
                    value = float(self_s[label])
                elif suffix == "calls_per_ray":
                    rays = len(self.contracted)
                    value = calls[label] / rays if rays else 0.0
                else:
                    value = self.counts[name]
                out[name] = (value, _UNITS[suffix][0])
        cells = self.counts["kernel.scan_weight_masks.cells"]
        out["cohomology.contributing_cell_frac"] = (
            self.counts["cohomology.contributing_cells"] / cells if cells else 0.0,
            "frac",
        )
        return out
