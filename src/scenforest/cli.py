"""Pipeline command line: simulate -> extract -> cluster -> order -> label
-> train -> classify.

Every subcommand consumes and produces files only, so any stage can be
rerun in isolation. One master seed fans out into per-stage seeds by
hashing the stage name, so changing one stage's structure never perturbs
another stage's randomness. Exit codes: 0 ok, 2 configuration,
validation or unreadable-file error, 3 empty result (no scenarios found).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import classify as clf
from . import ordering, scenarios, xmurf
from .dataset import (
    ParseError,
    load_dataset,
    load_labeled_dataset,
    load_matrix,
    read_json,
    save_dataset,
    save_labeled_dataset,
    save_matrix,
)
from .sim import (
    RoadConfig,
    SimParams,
    TraceReader,
    TraceWriter,
    meta_path,
    run_simulations,
    trace_path,
    trace_paths,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EMPTY = 3

DEFAULT_CONFIG = {
    "road": {"n_l": 3, "lane_width": 3.5, "n_vpl": 10, "speed_limit": 33.3, "d_il_max": 80.0},
    # runs: ~200 scenarios at ~27 per 400 s run on the 3 x 10 road; acceptance criterion 9 checks M >= 100
    "sim": {"dt": 0.05, "duration": 400.0, "runs": 8, "seed": None, "target_resample_mean": 20.0},
    "xmurf": {"b_trees": 100, "seed": None},
    "ordering": {"linkage": "average", "optimal_leaf_order": False},
    "classify": {"b_trees": 100, "ratio": 0.75, "seed": None},
    "paths": {"workdir": "out"},
}


def stage_seed(master: int, label: str, k: int | None = None) -> int:
    """Derive a stage seed from the master seed and a fixed stage label."""
    word = int.from_bytes(hashlib.sha256(label.encode("ascii")).digest()[:4], "big")
    key = (word,) if k is None else (word, k)
    ss = np.random.SeedSequence(entropy=master, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _config_type(key: str, default):
    """(accepted value types, what the message says is expected) of a
    config key: the default's type, any number for a float, and an integer
    or null for a seed. A bool is never a number."""
    if key == "seed":
        return (int, type(None)), "an integer or null"
    if type(default) is float:
        return (int, float), "a number"
    return (type(default),), {int: "an integer", bool: "true or false", str: "a string"}[type(default)]


# the least value of each bounded key (a null seed is always valid)
MINIMA = {("sim", "runs"): 1, ("xmurf", "b_trees"): 1, ("classify", "b_trees"): 1, ("classify", "ratio"): 0,
          ("sim", "seed"): 0, ("xmurf", "seed"): 0, ("classify", "seed"): 0}


def _sim_params(sim: dict, seed: int) -> SimParams:
    """The run parameters of the config's sim section, with ``seed``."""
    return SimParams(dt=float(sim["dt"]), duration=float(sim["duration"]), seed=seed,
                     target_resample_mean=float(sim["target_resample_mean"]))


def load_config(path: str | None) -> dict:
    """The default config overlaid with the JSON object of sections at
    ``path``. Raises ParseError naming the file and the key path of an
    unknown section or key, a value of the wrong type, a non-finite number
    (JSON's NaN and Infinity), a count below 1, a seed or ratio below 0 or
    an unknown linkage method, or naming the file and the section of a road
    or simulation the simulator rejects, before any stage runs."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        user = read_json(path)
        if not isinstance(user, dict):
            raise ParseError(f"{path}: expected an object of config sections")
        for section, values in user.items():
            if section not in cfg:
                raise ParseError(f"{path}: unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ParseError(f"{path}: {section}: config section must be an object")
            for key, val in values.items():
                if key not in cfg[section]:
                    raise ParseError(f"{path}: unknown config key {section}.{key}")
                types, want = _config_type(key, cfg[section][key])
                if type(val) not in types:
                    raise ParseError(f"{path}: {section}.{key}: expected {want}, got {json.dumps(val)}")
                if type(val) is float and not math.isfinite(val):
                    raise ParseError(f"{path}: {section}.{key}: expected a finite number, got {json.dumps(val)}")
                least = MINIMA.get((section, key))
                if least is not None and val is not None and val < least:
                    kind = "a number" if type(cfg[section][key]) is float else "an integer"
                    raise ParseError(f"{path}: {section}.{key}: {json.dumps(val)} is not {kind} >= {least}")
                if (section, key) == ("ordering", "linkage") and val not in ordering.LINKAGE_METHODS:
                    raise ParseError(f"{path}: ordering.linkage: {json.dumps(val)} is not one of {', '.join(ordering.LINKAGE_METHODS)}")
                cfg[section][key] = val
        _located(f"{path}: road", lambda: RoadConfig(**cfg["road"]))
        _located(f"{path}: sim", _sim_params, cfg["sim"], 0)
    return cfg


def _workdir(cfg: dict, args) -> Path:
    out = Path(args.out or cfg["paths"]["workdir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _master_seed(cfg: dict, args, stage: str) -> int:
    if args.seed is not None:
        return args.seed
    configured = cfg[stage].get("seed")
    if configured is not None:
        return int(configured)
    return 0


def _b_trees(cfg: dict, args, section: str) -> int:
    """The forest size: the --b-trees flag whenever it is given, else the config's."""
    if args.b_trees is not None and args.b_trees < 1:
        raise ParseError(f"--b-trees: {args.b_trees} is not an integer >= 1")
    return cfg[section]["b_trees"] if args.b_trees is None else args.b_trees


def cmd_simulate(cfg: dict, args) -> int:
    out = _workdir(cfg, args)
    road = RoadConfig(**cfg["road"])
    sim_cfg = cfg["sim"]
    master = _master_seed(cfg, args, "sim")
    runs = int(sim_cfg["runs"])
    # extract reads every trace in the workdir: drop those this run does not write
    current = {trace_path(out, k) for k in range(runs)}
    for stale in trace_paths(out):
        if stale not in current:
            stale.unlink()
            meta_path(stale).unlink(missing_ok=True)
    params = [_sim_params(sim_cfg, stage_seed(master, "sim", k)) for k in range(runs)]

    def writer(k: int, dt: float, n_ts: int, n_vehicles: int) -> TraceWriter:
        return TraceWriter(trace_path(out, k), dt, road, n_ts, n_vehicles)

    # each run's trace goes to its files as it is simulated, never whole in memory
    for _ in run_simulations(road, params, writer):
        pass
    print(f"simulated {sim_cfg['runs']} run(s) into {out}")
    return EXIT_OK


def cmd_extract(cfg: dict, args) -> int:
    out = _workdir(cfg, args)
    paths = trace_paths(out)
    # each trace is checked as it is opened, then read a block of steps at a time
    dataset, meta = scenarios.scenarios_to_dataset((p.stem, TraceReader(p)) for p in paths)
    if dataset.n_rows == 0:
        print("no scenarios found", file=sys.stderr)
        return EXIT_EMPTY
    save_dataset(dataset, out / "scenarios.csv")
    (out / "scenarios_meta.json").write_text(json.dumps(meta) + "\n")
    print(f"extracted {dataset.n_rows} scenarios from {len(paths)} trace(s)")
    return EXIT_OK


def cmd_cluster(cfg: dict, args) -> int:
    b_trees = _b_trees(cfg, args, "xmurf")
    out = _workdir(cfg, args)
    in_path = args.input or out / "scenarios.csv"
    dataset = load_dataset(in_path)
    if dataset.n_rows < 2:
        raise ParseError(f"{in_path}: need at least 2 scenarios to cluster, got {dataset.n_rows}")
    seed = stage_seed(_master_seed(cfg, args, "xmurf"), "xmurf")
    forest = xmurf.fit(dataset, b_trees, seed)
    matrix = xmurf.proximity_matrix(forest, dataset)
    save_matrix(matrix, out / "proximity.raw")
    xmurf.save_forest(forest, out / "forest.json")
    print(f"clustered M={dataset.n_rows} with B={forest.n_trees}")
    return EXIT_OK


def cmd_order(cfg: dict, args) -> int:
    """Seriate the proximity matrix at about one M x M float64 array: the
    linkage runs on d = 1 - P made in the loaded matrix's own buffer, and
    the matrix is read again for the leaf order and the heatmap, which is
    rendered through the permutation a row block at a time."""
    out = _workdir(cfg, args)
    in_path = args.input or out / "proximity.raw"
    matrix = load_matrix(in_path)
    if matrix.size < 2:
        raise ParseError(f"{in_path}: need at least 2 scenarios to order, got {matrix.size}")
    dend = ordering._agglomerate(np.subtract(1.0, matrix.values, out=matrix.values), cfg["ordering"]["linkage"])
    del matrix  # its buffer is the linkage's spent working matrix: free it before P is read again
    matrix = load_matrix(in_path)
    if cfg["ordering"]["optimal_leaf_order"]:
        perm = ordering.optimal_leaf_order(dend, matrix)
    else:
        perm = ordering.leaf_order(dend)
    ordering.save_dendrogram(dend, out / "dendrogram.json")
    ordering.save_permutation(perm, out / "permutation.json")
    ordering.render_heatmap(matrix, out / "heatmap.ppm", perm)
    print(f"seriation done for M={matrix.size}")
    return EXIT_OK


def _located(path, check, *args) -> None:
    """Run check(*args), turning its ValueError into a ParseError naming path."""
    try:
        check(*args)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cmd_label(cfg: dict, args) -> int:
    out = _workdir(cfg, args)
    in_path = args.input or out / "scenarios.csv"
    dataset = load_dataset(in_path)
    perm_path, matrix_path = out / "permutation.json", out / "proximity.raw"
    perm = ordering.load_permutation(perm_path)
    ranges = ordering.load_cluster_ranges(args.ranges)
    matrix = load_matrix(matrix_path)
    m = dataset.n_rows
    if matrix.size != m:
        raise ParseError(f"{matrix_path}: M={matrix.size}, but {in_path} holds {m} scenarios")
    for k, (got, want) in enumerate(zip(matrix.ids, dataset.ids)):
        if got != want:
            raise ParseError(f"{matrix_path}.json: ids[{k}] is {got!r}, but scenario {k} of {in_path} is {want!r}")
    _located(perm_path, ordering.check_permutation, perm, m)
    _located(args.ranges, ordering.check_ranges, ranges, m)
    for entry in ordering.range_report(matrix, perm, ranges):
        print(
            f"range [{entry['start']}, {entry['end']}] label={entry['label']} "
            f"size={entry['size']} mean_similarity={entry['mean_similarity']:.3f}"
        )
    labeled = ordering.apply_cluster_ranges(dataset, perm, ranges)
    save_labeled_dataset(labeled, out / "labeled.csv")
    print(f"labeled {labeled.base.n_rows} of {dataset.n_rows} scenarios")
    return EXIT_OK


def cmd_train(cfg: dict, args) -> int:
    b_trees = _b_trees(cfg, args, "classify")
    out = _workdir(cfg, args)
    in_path = args.input or out / "labeled.csv"
    labeled = load_labeled_dataset(in_path)
    seed = stage_seed(_master_seed(cfg, args, "classify"), "clf")
    try:
        forest = clf.fit_classifier(labeled, b_trees, seed)
        thresholds = clf.oob_thresholds(forest, labeled)
    except clf.LabelError as exc:
        raise ParseError(f"{in_path}: {exc}") from None
    clf.save_model(forest, thresholds, out / "model.json")
    kb = ", ".join(f"{c}={v:.3f}" for c, v in thresholds.kappa_bar.items())
    print(f"trained B={forest.n_trees} on {labeled.base.n_rows} rows; kappa_bar: {kb}")
    return EXIT_OK


def _check_features(path, names: list[str], forest: xmurf.Forest, model_path) -> None:
    """Raise ParseError naming both files and the first feature column that
    differs from the model's (only the count is known for a model without
    feature names)."""
    expected = forest.feature_names
    if expected is None:
        if len(names) != forest.q:
            raise ParseError(f"{path}: {len(names)} feature columns, the model {model_path} expects Q={forest.q}")
        return
    for k, (got, want) in enumerate(itertools.zip_longest(names, expected)):
        if got != want:
            got, want = ("missing" if v is None else repr(v) for v in (got, want))
            raise ParseError(f"{path}: feature column {k + 1} is {got}, the model {model_path} expects {want}")


def cmd_classify(cfg: dict, args) -> int:
    out = _workdir(cfg, args)
    model_path = args.model or out / "model.json"
    forest, thresholds = clf.load_model(model_path)
    in_path = args.input or out / "scenarios.csv"
    dataset = load_dataset(in_path)
    _check_features(in_path, dataset.feature_names, forest, model_path)
    ratio = float(args.ratio if args.ratio is not None else cfg["classify"]["ratio"])
    out_path = Path(args.output) if args.output else out / "predictions.csv"
    predictions = clf.predict_batch(forest, thresholds, dataset.values, ratio)
    n_assigned = 0
    with open(out_path, "w", newline="\n") as fh:
        fh.write("id,label,vote_fraction,threshold_used\n")
        for rid, (label, fraction, threshold) in zip(dataset.ids, predictions):
            n_assigned += label is not None
            fh.write(f"{rid},{label if label is not None else clf.UNASSIGNED},{fraction:.17g},{threshold:.17g}\n")
    print(f"assigned {n_assigned}/{dataset.n_rows} at ratio {ratio}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scenforest", description=__doc__)
    parser.add_argument("--config", help="JSON config file (defaults built in)")
    parser.add_argument("--seed", type=int, help="master seed overriding configured stage seeds")
    parser.add_argument("--out", help="working directory for pipeline artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="run seeded traffic simulations")
    sub.add_parser("extract", help="detect scenarios in traces and emit the feature CSV")

    p = sub.add_parser("cluster", help="fit the unsupervised forest and write the proximity matrix")
    p.add_argument("--input", help="scenario CSV (default <out>/scenarios.csv)")
    p.add_argument("--b-trees", type=int, dest="b_trees")

    p = sub.add_parser("order", help="seriate the proximity matrix and render the heatmap")
    p.add_argument("--input", help="raw matrix path (default <out>/proximity.raw)")

    p = sub.add_parser("label", help="materialize cluster labels from a range file")
    p.add_argument("--input", help="scenario CSV (default <out>/scenarios.csv)")
    p.add_argument("--ranges", required=True, help="JSON list of {start, end, label}")

    p = sub.add_parser("train", help="train the classifier on the labeled CSV")
    p.add_argument("--input", help="labeled CSV (default <out>/labeled.csv)")
    p.add_argument("--b-trees", type=int, dest="b_trees")

    p = sub.add_parser("classify", help="predict labels with the withdraw rule")
    p.add_argument("--input", help="feature CSV to classify (default <out>/scenarios.csv)")
    p.add_argument("--model", help="model JSON (default <out>/model.json)")
    p.add_argument("--ratio", type=float, help="threshold ratio (default from config)")
    p.add_argument("--output", help="predictions CSV (default <out>/predictions.csv)")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "extract": cmd_extract,
    "cluster": cmd_cluster,
    "order": cmd_order,
    "label": cmd_label,
    "train": cmd_train,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ParseError(f"--seed: {args.seed} is not an integer >= 0")
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ValueError as exc:  # ParseError and SimConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
