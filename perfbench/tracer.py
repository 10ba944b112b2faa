"""Per-layer spans for the traced run, recorded from outside the program.

``Tracer.install`` replaces each public layer function named in ``TARGETS``
by a wrapper in every loaded ``scenforest`` module that holds it, so calls
through re-exports and ``from`` imports are seen too. A wrapper returns the
wrapped function's value and re-raises its exception unchanged. A target
that no longer exists is recorded as missing, and the metrics that need it
are left out of the report instead of stopping the run.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field


def _nodes(forest) -> dict:
    return {"nodes": sum(len(t.nodes) for t in forest.trees)}


def _oob(th) -> dict:
    return {"oob_rows": sum(k is not None for k in th.kappas), "rows": len(th.kappas)}


# (layer, module, function, work counts taken from the call's bound
# arguments and its result). Counts are optional. The spans of the matrix
# functions are named by their ``fmt`` argument, which decides the work done.
TARGETS = [
    ("sim", "scenforest.sim.engine", "run_scene", lambda a, r: {"vehicle_steps": r.n_ts * r.n_vehicles}),
    ("sim", "scenforest.sim.engine", "run_simulation", None),
    ("sim", "scenforest.sim.io", "save_trace", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("sim", "scenforest.sim.io", "load_trace", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("scenarios", "scenforest.scenarios", "scenarios_to_dataset", lambda a, r: {"count": r[0].n_rows}),
    ("scenarios", "scenforest.scenarios", "thw_series", lambda a, r: {"ego_steps": len(r)}),
    ("scenarios", "scenforest.scenarios", "extract_features", None),
    ("scenarios", "scenforest.scenarios", "dtw_distance", None),
    ("xmurf", "scenforest.xmurf.forest", "fit", lambda a, r: _nodes(r)),
    (
        "xmurf",
        "scenforest.xmurf.forest",
        "proximity_matrix",
        lambda a, r: {"pair_trees": r.size * r.size * a["forest"].n_trees},
    ),
    ("xmurf", "scenforest.xmurf.forest", "save_forest", None),
    ("ordering", "scenforest.ordering", "linkage", lambda a, r: {"m2_merges": r.n_leaves**2 * (r.n_leaves - 1)}),
    ("ordering", "scenforest.ordering", "leaf_order", None),
    ("ordering", "scenforest.ordering", "optimal_leaf_order", None),
    ("ordering", "scenforest.ordering", "reorder", None),
    ("ordering", "scenforest.ordering", "render_heatmap", None),
    ("ordering", "scenforest.ordering", "save_dendrogram", None),
    ("ordering", "scenforest.ordering", "save_permutation", None),
    ("ordering", "scenforest.ordering", "load_permutation", None),
    ("ordering", "scenforest.ordering", "load_cluster_ranges", None),
    ("ordering", "scenforest.ordering", "range_report", None),
    ("ordering", "scenforest.ordering", "apply_cluster_ranges", None),
    ("dataset", "scenforest.dataset", "load_dataset", None),
    ("dataset", "scenforest.dataset", "save_dataset", None),
    ("dataset", "scenforest.dataset", "load_labeled_dataset", None),
    ("dataset", "scenforest.dataset", "save_labeled_dataset", None),
    ("dataset", "scenforest.dataset", "save_matrix", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("dataset", "scenforest.dataset", "load_matrix", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("classify", "scenforest.classify", "fit_classifier", lambda a, r: _nodes(r)),
    ("classify", "scenforest.classify", "oob_thresholds", lambda a, r: _oob(r)),
    ("classify", "scenforest.classify", "predict_detail", lambda a, r: {"row_trees": a["f"].n_trees}),
    ("classify", "scenforest.classify", "load_model", None),
    ("classify", "scenforest.classify", "save_model", None),
    ("cli", "scenforest.cli", "build_parser", None),
    ("cli", "scenforest.cli", "load_config", None),
]
LAYERS = ("sim", "scenarios", "xmurf", "ordering", "dataset", "classify")
SUFFIXED = {"save_matrix", "load_matrix"}
UNCOUNTED = object()


@dataclass
class Span:
    """Totals of one wrapped function within one stage."""

    calls: int = 0
    errors: int = 0
    seconds: float = 0.0
    counts: dict = field(default_factory=dict)
    uncounted: int = 0  # calls whose work count could not be taken


class Tracer:
    """Aggregates spans per stage; only calls made inside a stage count."""

    def __init__(self):
        self.stage = None
        self.spans: dict = {}       # (stage, layer, name) -> Span
        self.covered: dict = {}     # stage -> seconds inside outermost wrapped calls
        self.overhead: dict = {}    # stage -> seconds outermost wrappers spent on bookkeeping
        self.missing: list = []     # "module.function" targets not found
        self._depth = 0
        self._restore: list = []

    def install(self) -> None:
        for layer, module_name, func_name, count in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), func_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(layer, func_name, original, count)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("scenforest"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, layer, name, func, count):
        tracer = self
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):
            signature = None  # counts of this target are then left out
        suffixed = name in SUFFIXED

        def wrapper(*args, **kwargs):
            if tracer.stage is None:
                return func(*args, **kwargs)
            tracer._depth += 1
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                seconds = time.perf_counter() - t0
                tracer._depth -= 1
                tracer._record(layer, name, seconds, error=True)
                raise
            seconds = time.perf_counter() - t0
            tracer._depth -= 1
            span_name, work = name, None
            if count is not None or suffixed:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    if suffixed:
                        span_name = f"{name}.{bound.arguments['fmt']}"
                    if count is not None:
                        work = count(bound.arguments, result)
                except Exception:  # the program's signatures or types changed: leave the count out
                    work = UNCOUNTED
            tracer._record(layer, span_name, seconds, error=False, work=work)
            if tracer._depth == 0:  # bookkeeping of nested calls lies inside the outer span
                spent = time.perf_counter() - t0 - seconds
                tracer.overhead[tracer.stage] = tracer.overhead.get(tracer.stage, 0.0) + spent
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = func.__doc__
        return wrapper

    def _record(self, layer, name, seconds, error, work=None) -> None:
        span = self.spans.setdefault((self.stage, layer, name), Span())
        span.calls += 1
        span.seconds += seconds
        span.errors += error
        if self._depth == 0:
            self.covered[self.stage] = self.covered.get(self.stage, 0.0) + seconds
        if work is UNCOUNTED:
            span.uncounted += 1
            return
        for key, value in (work or {}).items():
            span.counts[key] = span.counts.get(key, 0) + value

    def to_json(self) -> dict:
        return {
            "missing": self.missing,
            "covered": self.covered,
            "overhead": self.overhead,
            "spans": [
                {"stage": s, "layer": l, "name": n, "calls": sp.calls, "errors": sp.errors,
                 "seconds": sp.seconds, "counts": sp.counts, "uncounted": sp.uncounted}
                for (s, l, n), sp in self.spans.items()
            ],
        }
