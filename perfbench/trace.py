"""Span tracing around fuzzyshadow's public functions, from outside the package.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and the counts the layer
metrics need; ``Tracer.uninstall()`` puts the originals back.  Nothing under
``src/`` changes: a module-level function is rebound in every fuzzyshadow
module that imported it, and a method is replaced on its class.

A span's self time is its duration minus the time its child spans cover.
Scalar evaluations (``IntervalMap.eval``, ``FuzzyMetric.eval``) run up to a
million times per pass, so they are timed and counted like any other span but
not stored one record per call.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from fuzzyshadow import cli, fuzzy_metric, orbits, reports, shadowing, systems, tnorm

# Span names grouped into the layers the per-layer metrics report.
LAYER_SPANS = {
    "orbits.generate": ("orbits.perturbed_orbit", "orbits.build_transitivity_orbit",
                        "orbits.interleave_for_power", "orbits.transitivity_skeleton"),
    "orbits.validate": ("orbits.validate_f_pseudo_orbit", "orbits.classical_validate",
                        "orbits.npo_set", "orbits.ns_set", "orbits.classical_ns_set",
                        "orbits.density"),
    "orbits.csv": ("orbits.to_csv", "orbits.from_csv"),
}


# Count hooks run after a span closes, so their own cost is not in the span.
# Hooks that read call arguments get them bound by name (``arguments``);
# result-only hooks get None, which keeps the per-call cost of the kernels low.


def _points(arguments, result) -> dict:
    return {"points": int(getattr(result, "size", 1))}


def _json_bytes(arguments, result) -> dict:
    return {"bytes": len(result.encode())}


def _csv_bytes(arguments, result) -> dict:
    return {"bytes": os.path.getsize(arguments["path"])}


def _shadow_counts(arguments, result) -> dict:
    return {"candidates": result.candidates,
            "candidate_index_pairs": result.candidates * len(arguments["seq"])}


def _chain_nodes(arguments, result) -> dict:
    # the graph nodes chain_search documents: the metric grid plus both endpoints
    m = arguments["m"]
    nodes = np.unique(np.concatenate([m.grid(arguments["resolution"]),
                                      [arguments["x"], arguments["y"]]]))
    return {"nodes": int(nodes.size)}


_csv_bytes.needs_args = _shadow_counts.needs_args = _chain_nodes.needs_args = True


# (owner, attribute, span name, count hook, store each span, measure tracemalloc peak)
TARGETS = (
    (systems.IntervalMap, "eval_array", "systems.eval_array", _points, True, False),
    (systems.IntervalMap, "eval", "systems.eval", None, False, False),
    (fuzzy_metric.FuzzyMetric, "eval_array", "fuzzy_metric.eval_array", _points, True, False),
    (fuzzy_metric.FuzzyMetric, "eval", "fuzzy_metric.eval", None, False, False),
    (fuzzy_metric, "check_axioms", "fuzzy_metric.check_axioms", None, True, False),
    (fuzzy_metric, "uniform_horizon", "fuzzy_metric.uniform_horizon", None, True, False),
    (fuzzy_metric, "certify_fuzzy_continuity", "fuzzy_metric.certify", None, True, False),
    (fuzzy_metric, "check_ratio_modulus", "fuzzy_metric.certify", None, True, False),
    (fuzzy_metric, "check_metric_domination", "fuzzy_metric.certify", None, True, False),
    (tnorm.TNorm, "apply", "tnorm.apply", None, True, False),
    (tnorm.TNorm, "residuate", "tnorm.residuate", None, True, False),
    (tnorm.TNorm, "square_root", "tnorm.square_root", None, True, False),
    (tnorm, "check_axioms", "tnorm.check_axioms", None, True, False),
    (orbits, "perturbed_orbit", "orbits.perturbed_orbit", None, True, False),
    (orbits, "build_transitivity_orbit", "orbits.build_transitivity_orbit", None, True, False),
    (orbits, "interleave_for_power", "orbits.interleave_for_power", None, True, False),
    (orbits, "transitivity_skeleton", "orbits.transitivity_skeleton", None, True, False),
    (orbits, "validate_f_pseudo_orbit", "orbits.validate_f_pseudo_orbit", None, True, False),
    (orbits, "classical_validate", "orbits.classical_validate", None, True, False),
    (orbits, "npo_set", "orbits.npo_set", None, True, False),
    (orbits, "ns_set", "orbits.ns_set", None, True, False),
    (orbits, "classical_ns_set", "orbits.classical_ns_set", None, True, False),
    (orbits, "density", "orbits.density", None, True, False),
    (orbits.OrbitSequence, "to_csv", "orbits.to_csv", _csv_bytes, True, False),
    (orbits.OrbitSequence, "from_csv", "orbits.from_csv", _csv_bytes, True, False),
    (orbits, "chain_search", "orbits.chain_search", _chain_nodes, True, False),
    (orbits, "chain_mixing_check", "orbits.chain_mixing", None, True, True),
    (shadowing, "shadow_search", "shadowing.shadow_search", _shadow_counts, True, False),
    (shadowing, "classical_shadow_search", "shadowing.classical_shadow_search", None, True, False),
    (shadowing, "topological_mixing_probe", "shadowing.mixing_probe", None, True, False),
    (shadowing, "build_nonshadowable_orbit", "shadowing.build_nonshadowable_orbit", None, True, False),
    (shadowing, "ergodic_shadow_search", "shadowing.ergodic_shadow_search", None, True, False),
    (reports, "json_text", "reports.json_text", _json_bytes, True, False),
    (cli, "render_map_svg", "cli.render_map_svg", None, True, False),
    (cli, "main", "cli.main", None, True, False),
)

# Points passed to these two kernels are also credited to every enclosing span.
_PROPAGATED = {"systems.eval_array": "map_points", "fuzzy_metric.eval_array": "kernel_points"}


class _Frame:
    __slots__ = ("name", "start", "child", "counts", "span_id")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.counts = None
        self.span_id = span_id


class Tracer:
    """Records spans while installed; accumulates per-name totals across passes
    until ``reset``."""

    def __init__(self):
        self._installed = []
        self.reset()

    def reset(self) -> None:
        self.spans = []  # (span_id, parent_id, name, start, end)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.peak_mb = defaultdict(float)
        self._stack = []
        self._next_id = 0

    # -- span bookkeeping ------------------------------------------------------

    def open(self, name: str) -> _Frame:
        self._next_id += 1
        frame = _Frame(name, time.perf_counter(), self._next_id)
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame, store: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.self_s[frame.name] += duration - frame.child
        self.total_s[frame.name] += duration
        self.calls[frame.name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if frame.counts:
            into = self.counts[frame.name]
            for key, value in frame.counts.items():
                into[key] += value
        if store:
            self.spans.append((frame.span_id, parent.span_id if parent else 0,
                               frame.name, frame.start, end))

    def count(self, frame: _Frame, values: dict) -> None:
        into = self.counts[frame.name]
        for key, value in values.items():
            into[key] += value
        key = _PROPAGATED.get(frame.name)
        if key is not None:
            points = values["points"]
            for outer in self._stack:
                if outer.counts is None:
                    outer.counts = {}
                outer.counts[key] = outer.counts.get(key, 0) + points

    # -- installation ------------------------------------------------------------

    def _wrap(self, fn, name, hook, store, measure_peak):
        tracer = self
        signature = inspect.signature(fn) if getattr(hook, "needs_args", False) else None

        def traced(*args, **kwargs):
            frame = tracer.open(name)
            if measure_peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer.close(frame, store)
            if measure_peak:
                tracer.peak_mb[name] = max(tracer.peak_mb[name], peak / 2**20)
            if hook is not None:
                arguments = None
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                tracer.count(frame, hook(arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if n == "fuzzyshadow" or n.startswith("fuzzyshadow.")]
        for owner, attr, name, hook, store, peak in TARGETS:
            raw = owner.__dict__[attr]
            is_classmethod = isinstance(raw, classmethod)
            wrapper = self._wrap(raw.__func__ if is_classmethod else raw, name, hook, store, peak)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
            if isinstance(owner, type):
                continue
            # rebind copies made by "from .module import name"
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw and not (module is owner and key == attr):
                        self._installed.append((module, key, raw))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    # -- summaries -----------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        """Self time of a group in LAYER_SPANS, or of every span named
        ``layer`` or ``layer.*``."""
        names = LAYER_SPANS.get(layer)
        if names is None:
            names = [n for n in self.self_s if n == layer or n.startswith(layer + ".")]
        return sum(self.self_s.get(n, 0.0) for n in names)

    def covered_s(self, names) -> float:
        """Time inside the outermost spans whose name is in ``names``."""
        wanted = set(names)
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for span_id, parent, name, start, end in self.spans:
            if name not in wanted:
                continue
            outer = False
            while parent:
                pspan = by_id.get(parent)
                if pspan is None:
                    break
                if pspan[2] in wanted:
                    outer = True
                    break
                parent = pspan[1]
            if not outer:
                total += end - start
        return total
