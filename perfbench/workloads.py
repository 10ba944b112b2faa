"""Workload definitions and seeded input generators.

Every input a workload feeds the program is made here, from the benchmark
seed alone, so a change to the program's defaults cannot change what a
workload measures.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The pipeline configuration of the ROADMAP baseline and acceptance
# criterion 9, copied rather than read from the program, so that a later
# change of the program's defaults leaves this workload as it is.
PINNED_CONFIG = {
    "road": {"n_l": 3, "lane_width": 3.5, "n_vpl": 10, "speed_limit": 33.3, "d_il_max": 80.0},
    "sim": {"dt": 0.05, "duration": 400.0, "runs": 5, "seed": None, "target_resample_mean": 20.0},
    "xmurf": {"b_trees": 100, "seed": None},
    "ordering": {"linkage": "average", "optimal_leaf_order": False},
    "classify": {"b_trees": 100, "ratio": 0.75, "seed": None},
    "paths": {"workdir": "out"},
}
PIPELINE_SEED = 4242
GROUP_SEED = 2004  # fixes the latent groups of the synthetic scenario rows

# The program's 47-feature scenario layout (scenforest.scenarios), copied for
# the same reason.
ZONES = ("front", "rear", "left_front", "left_rear", "right_front", "right_rear")
INSTANTS = ("start", "changepoint", "end")
FEATURE_NAMES = (
    [f"dist_{z}_{i}" for z in ZONES for i in INSTANTS]
    + [f"relv_{z}_{i}" for z in ZONES for i in INSTANTS]
    + [
        "thw_min",
        "duration_s",
        "dtw_gap_desired",
        "ego_lane_start",
        "ego_lane_changepoint",
        "ego_lane_end",
        "lane_count",
        "ego_lane_changes",
        "cut_in",
        "collision",
        "ego_speed_changepoint",
    ]
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the CLI stages it times and its input sizes."""

    name: str
    stages: tuple
    rows: int = 0          # synthetic scenario rows (cluster-large) or rows to classify
    train_rows: int = 0    # classify-batch: labeled rows of the untimed training set
    b_trees: int = 0       # forest size passed with --b-trees; 0 keeps the config's
    analyst_k: int = 0     # clusters the analyst stand-in cuts the dendrogram into
    config: dict = field(default_factory=lambda: PINNED_CONFIG)


ALL_STAGES = ("simulate", "extract", "cluster", "order", "label", "train", "classify")

# Stage groups the analyst waits for; a workload reports a group's time only
# when it runs at least one of the group's stages.
GROUPS = {
    "data_s": ("simulate", "extract"),
    "heatmap_s": ("cluster", "order"),
    "relabel_s": ("label", "train", "classify"),
}

# Blocks below this size stay unlabeled (see child.analyst_ranges).
MIN_BLOCK = 5

_TINY_PIPELINE = json.loads(json.dumps(PINNED_CONFIG))
_TINY_PIPELINE["sim"].update(duration=150.0, runs=2)
_TINY_PIPELINE["xmurf"]["b_trees"] = 10
_TINY_PIPELINE["classify"]["b_trees"] = 10

WORKLOADS = {
    "full": {
        "pipeline-default": Workload("pipeline-default", ALL_STAGES, analyst_k=3),
        "cluster-large": Workload("cluster-large", ALL_STAGES[2:], rows=1000, b_trees=10, analyst_k=4),
        "classify-batch": Workload("classify-batch", ("classify",), rows=6000, train_rows=400, b_trees=100),
    },
    # Small enough for the benchmark's own tests.
    "tiny": {
        "pipeline-default": Workload("pipeline-default", ALL_STAGES, analyst_k=5, config=_TINY_PIPELINE),
        "cluster-large": Workload("cluster-large", ALL_STAGES[2:], rows=120, b_trees=5, analyst_k=4),
        "classify-batch": Workload("classify-batch", ("classify",), rows=300, train_rows=80, b_trees=10),
    },
}


@dataclass
class Inputs:
    """Files and arguments a workload's stages read, made before timing."""

    config: Path
    program_seed: int
    files: list            # every input file, for the recorded input digest
    scenarios: Path | None = None   # feature CSV the forest stages read
    model: Path | None = None       # classify-batch: model trained in preparation
    labels: set | None = None       # classify-batch: the model's label set


def prepare(w: Workload, seed: int, prep_dir: Path, log) -> Inputs:
    """Write the workload's inputs for ``seed`` and read each back with the
    program's own loader, so a malformed input fails before timing starts."""
    from scenforest import cli
    from scenforest.dataset import load_dataset, load_labeled_dataset

    config = prep_dir / "config.json"
    config.write_text(json.dumps(w.config) + "\n")
    if w.name == "pipeline-default":
        return Inputs(config=config, program_seed=PIPELINE_SEED, files=[config])
    rng = np.random.default_rng(seed)
    if w.name == "cluster-large":
        values, _ = scenario_rows(rng, w.rows)
        scenarios = prep_dir / "scenarios_in.csv"
        write_scenarios_csv(scenarios, values, "s")
        load_dataset(scenarios)
        return Inputs(config=config, program_seed=seed, files=[config, scenarios], scenarios=scenarios)
    values, group = scenario_rows(rng, w.train_rows + w.rows)
    labeled = prep_dir / "train.csv"
    write_scenarios_csv(labeled, values[: w.train_rows], "t", [f"g{g}" for g in group[: w.train_rows]])
    scenarios = prep_dir / "new.csv"
    write_scenarios_csv(scenarios, values[w.train_rows :], "n")
    load_labeled_dataset(labeled)
    load_dataset(scenarios)
    argv = ["--config", str(config), "--seed", str(seed), "--out", str(prep_dir)]
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = cli.main(argv + ["train", "--input", str(labeled), "--b-trees", str(w.b_trees)])
    if rc != 0:
        raise RuntimeError(f"training the classify-batch model failed with exit code {rc}")
    model = prep_dir / "model.json"
    return Inputs(
        config=config,
        program_seed=seed,
        files=[config, labeled, scenarios, model],
        scenarios=scenarios,
        model=model,
        labels={f"g{g}" for g in group[: w.train_rows]},
    )


def stage_argv(w: Workload, stage: str, inputs: Inputs, out: Path, ranges: Path) -> list:
    """The CLI arguments of one stage of a workload run."""
    argv = ["--config", str(inputs.config), "--seed", str(inputs.program_seed), "--out", str(out), stage]
    if stage in ("cluster", "label", "classify") and inputs.scenarios is not None:
        argv += ["--input", str(inputs.scenarios)]
    if stage in ("cluster", "train") and w.b_trees:
        argv += ["--b-trees", str(w.b_trees)]
    if stage == "label":
        argv += ["--ranges", str(ranges)]
    if stage == "classify" and inputs.model is not None:
        argv += ["--model", str(inputs.model)]
    return argv


def scenario_rows(rng: np.random.Generator, m: int, n_groups: int = 4):
    """``m`` synthetic rows in the 47-feature scenario layout, drawn from
    ``rng``, and the latent group of each row.

    The rows carry what real extractions carry: a few overlapping latent
    groups, absent neighbours encoded as the speed-dependent zone ceiling
    with zero relative speed (ego speeds are quantised, so ceilings tie),
    integer lane columns, a constant lane count and binary flags.
    """
    # The groups themselves are part of the workload and do not vary with
    # the seed, so every seed asks the forests for trees of similar size.
    shape = np.random.default_rng(GROUP_SEED)
    occupancy = shape.uniform(0.15, 0.9, size=(n_groups, len(ZONES)))
    gap_mean = shape.uniform(8.0, 45.0, size=(n_groups, len(ZONES)))
    relv_mean = shape.normal(0.0, 3.0, size=(n_groups, len(ZONES)))
    speed_mean = shape.uniform(18.0, 32.0, size=n_groups)
    thw_mean = shape.uniform(0.3, 0.7, size=n_groups)
    lane_change_p = shape.uniform(0.05, 0.5, size=n_groups)

    group = rng.integers(0, n_groups, size=m)
    values = np.empty((m, len(FEATURE_NAMES)))
    for r in range(m):
        g = group[r]
        speed = np.round(np.clip(rng.normal(speed_mean[g], 3.0, size=3), 5.0, 33.3) * 4.0) / 4.0
        ceiling = np.clip(2.0 * speed, 20.0, 120.0)
        dists, relvs = [], []
        for z in range(len(ZONES)):
            present = rng.random() < occupancy[g, z]
            for k in range(3):
                if present and rng.random() < 0.9:
                    dists.append(min(abs(rng.normal(gap_mean[g, z], 8.0)), ceiling[k]))
                    relvs.append(rng.normal(relv_mean[g, z], 2.0))
                else:
                    dists.append(ceiling[k])
                    relvs.append(0.0)
        lane0 = int(rng.integers(1, 4))
        changes = int(rng.random() < lane_change_p[g]) + int(rng.random() < lane_change_p[g] / 4)
        lane_mid = min(3, max(1, lane0 + (changes > 0) * int(rng.choice((-1, 1)))))
        values[r] = dists + relvs + [
            float(np.clip(rng.normal(thw_mean[g], 0.12), 0.05, 0.8)),
            float(np.round(rng.gamma(2.0, 1.5) / 0.05) * 0.05),
            float(abs(rng.normal(60.0 * (g + 1), 25.0))),
            float(lane0),
            float(lane_mid),
            float(lane_mid),
            3.0,
            float(changes),
            float(rng.random() < 0.1 + 0.1 * g),
            float(rng.random() < 0.01),
            float(speed[1]),
        ]
    return values, group


def write_scenarios_csv(path, values, prefix: str, labels=None) -> None:
    """Write rows in the program's CSV layout (17 significant digits, which
    round-trips doubles), with a trailing label column when given."""
    header = ["id"] + FEATURE_NAMES + (["label"] if labels is not None else [])
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(values):
            cells = [f"{prefix}{i:06d}"] + [format(v, ".17g") for v in row]
            if labels is not None:
                cells.append(labels[i])
            fh.write(",".join(cells) + "\n")
