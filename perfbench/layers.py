"""Per-layer metrics of one traced run, derived from the tracer's spans.

Work counts are normalised to each kernel's natural unit (vehicle-steps,
THW ego-steps, tree nodes, M^2 * B pairs x trees, M^2 per merge, rows x
trees). A layer that does no work in a workload reports zero time, zero
work and a zero ratio. A metric whose wrapped function no longer exists,
or whose work count could not be taken, is left out and named as missing.
"""

from __future__ import annotations

from tracer import LAYERS
from workloads import ALL_STAGES


class Missing(Exception):
    """A metric's source span is gone from the program."""


class Spans:
    """Sums over the spans of one traced run, by function name."""

    def __init__(self, trace: dict):
        self.missing = {target.rsplit(".", 1)[1] for target in trace["missing"]}
        self.spans = trace["spans"]

    def _of(self, name):
        if name.split(".")[0] in self.missing:
            raise Missing(name)
        return [s for s in self.spans if s["name"] == name]

    def t(self, *names) -> float:
        return sum(s["seconds"] for name in names for s in self._of(name))

    def c(self, name, key) -> int:
        spans = self._of(name)
        if any(s["uncounted"] for s in spans):
            raise Missing(name)
        return sum(s["counts"].get(key, 0) for s in spans)

    def layer(self, layer, field) -> int:
        return sum(s[field] for s in self.spans if s["layer"] == layer)


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, value from Spans)
METRICS = {
    "sim.run_scene_s": ("s", lambda s: s.t("run_scene")),
    "sim.vehicle_steps": ("count", lambda s: s.c("run_scene", "vehicle_steps")),
    "sim.us_per_vehicle_step": ("us", lambda s: _ratio(1e6 * s.t("run_scene"), s.c("run_scene", "vehicle_steps"))),
    "sim.save_trace_s": ("s", lambda s: s.t("save_trace")),
    "sim.load_trace_s": ("s", lambda s: s.t("load_trace")),
    "sim.trace_mb": ("MB", lambda s: (s.c("save_trace", "bytes") + s.c("load_trace", "bytes")) / 1e6),
    "scenarios.thw_s": ("s", lambda s: s.t("thw_series")),
    "scenarios.thw_ego_steps": ("count", lambda s: s.c("thw_series", "ego_steps")),
    "scenarios.us_per_ego_step": ("us", lambda s: _ratio(1e6 * s.t("thw_series"), s.c("thw_series", "ego_steps"))),
    "scenarios.features_s": ("s", lambda s: s.t("extract_features")),
    "scenarios.dtw_s": ("s", lambda s: s.t("dtw_distance")),
    "scenarios.count": ("count", lambda s: s.c("scenarios_to_dataset", "count")),
    "xmurf.fit_s": ("s", lambda s: s.t("fit")),
    "xmurf.nodes": ("count", lambda s: s.c("fit", "nodes")),
    "xmurf.us_per_node": ("us", lambda s: _ratio(1e6 * s.t("fit"), s.c("fit", "nodes"))),
    "xmurf.proximity_s": ("s", lambda s: s.t("proximity_matrix")),
    "xmurf.ns_per_pair_tree": (
        "ns",
        lambda s: _ratio(1e9 * s.t("proximity_matrix"), s.c("proximity_matrix", "pair_trees")),
    ),
    "xmurf.save_forest_s": ("s", lambda s: s.t("save_forest")),
    "ordering.linkage_s": ("s", lambda s: s.t("linkage")),
    "ordering.ns_per_m2_merge": ("ns", lambda s: _ratio(1e9 * s.t("linkage"), s.c("linkage", "m2_merges"))),
    "ordering.reorder_s": ("s", lambda s: s.t("reorder")),
    "ordering.render_s": ("s", lambda s: s.t("render_heatmap")),
    "dataset.matrix_csv_s": ("s", lambda s: s.t("save_matrix.csv", "load_matrix.csv")),
    "dataset.matrix_csv_mb": (
        "MB",
        lambda s: (s.c("save_matrix.csv", "bytes") + s.c("load_matrix.csv", "bytes")) / 1e6,
    ),
    "dataset.matrix_raw_s": ("s", lambda s: s.t("save_matrix.raw", "load_matrix.raw")),
    "dataset.load_s": ("s", lambda s: s.t("load_dataset", "load_labeled_dataset")),
    "dataset.save_s": ("s", lambda s: s.t("save_dataset", "save_labeled_dataset")),
    "classify.fit_s": ("s", lambda s: s.t("fit_classifier")),
    "classify.nodes": ("count", lambda s: s.c("fit_classifier", "nodes")),
    "classify.us_per_node": ("us", lambda s: _ratio(1e6 * s.t("fit_classifier"), s.c("fit_classifier", "nodes"))),
    "classify.oob_s": ("s", lambda s: s.t("oob_thresholds")),
    "classify.oob_coverage": (
        "ratio",
        lambda s: _ratio(s.c("oob_thresholds", "oob_rows"), s.c("oob_thresholds", "rows")),
    ),
    "classify.predict_s": ("s", lambda s: s.t("predict_detail")),
    "classify.ns_per_row_tree": (
        "ns",
        lambda s: _ratio(1e9 * s.t("predict_detail"), s.c("predict_detail", "row_trees")),
    ),
    "classify.load_model_s": ("s", lambda s: s.t("load_model")),
    "classify.save_model_s": ("s", lambda s: s.t("save_model")),
    "cli.parse_s": ("s", lambda s: s.t("build_parser", "load_config")),
}
for _layer in LAYERS:
    METRICS[f"{_layer}.calls"] = ("count", lambda s, _l=_layer: s.layer(_l, "calls"))
    METRICS[f"{_layer}.errors"] = ("count", lambda s, _l=_layer: s.layer(_l, "errors"))

# Metrics of the CLI glue and of the tracing itself, taken from the stage
# timings rather than from spans.
CLI_UNITS = {f"cli.{stage}.self_s": "s" for stage in ALL_STAGES}
CLI_UNITS.update({"cli.calls": "count", "cli.errors": "count", "cli.min_coverage": "ratio", "trace.overhead_s": "s"})
UNITS = {name: unit for name, (unit, _) in METRICS.items()} | CLI_UNITS


def layer_metrics(result: dict) -> tuple:
    """(metric -> value, names of missing metrics, stage -> share of its
    wall time spent inside wrapped calls) for one traced child run."""
    spans = Spans(result["trace"])
    values, missing = {}, []
    for name, (_, value) in METRICS.items():
        try:
            values[name] = value(spans)
        except Missing:
            missing.append(name)
    covered, overhead = result["trace"]["covered"], result["trace"]["overhead"]
    coverage = {}
    for stage in ALL_STAGES:
        values[f"cli.{stage}.self_s"] = 0.0
    for st in result["stages"]:
        inside = covered.get(st["name"], 0.0)
        # the wrappers' own bookkeeping is tracing overhead, not CLI work
        seconds = st["seconds"] - overhead.get(st["name"], 0.0)
        values[f"cli.{st['name']}.self_s"] = seconds - inside
        coverage[st["name"]] = _ratio(inside, seconds)
    values["cli.calls"] = len(result["stages"])
    values["cli.errors"] = sum(st["rc"] != 0 for st in result["stages"])
    values["cli.min_coverage"] = min(coverage.values(), default=0.0)
    return values, missing, coverage
