"""Forest kernel trajectory: the unsupervised fit, the path proximity and the
classifier fit, each timed per its natural unit on rows this file seeds.

Run it by path; its name keeps it out of the tier-1 run:

    python -m pytest bench/forest_kernels.py

It times ``xmurf.fit`` (µs per node), ``xmurf.proximity_matrix`` (ns per
M²·B, M rows and B trees) and ``classify.fit_classifier`` (µs per node), at
M = 91, B = 100 (the default pipeline's forests) and at M = 1000, B = 10
(the cluster-large workload's). Each run appends one entry to
``BENCH_forest.json`` at the repository root: ``git describe --always
--dirty`` and a sha256 of the imported source, the machine, and per kernel
the median seconds over the rounds, the time per unit and the sha256 of
what the kernel made (the forest and model JSON as the CLI writes them, the
proximity matrix as ``proximity.raw`` holds it). Two entries from one
machine compare the kernels, and show whether the artifacts changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

import scenforest
from scenforest import classify, xmurf
from scenforest.dataset import Dataset, LabeledDataset

TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_forest.json"
SIZES = [(91, 100), (1000, 10)]  # (M, B)
ROUNDS = 5
ROW_SEED, FOREST_SEED = 2004, 7
ENTRY: dict = {}


def rows(m: int) -> LabeledDataset:
    """M rows of 47 features from four latent groups, half of the columns
    rounded so that nodes hold ties; the group is the class label."""
    rng = np.random.default_rng(ROW_SEED)
    group = rng.integers(0, 4, size=m)
    centers = rng.normal(0.0, 3.0, size=(4, 47))
    values = centers[group] + rng.normal(size=(m, 47))
    values[:, ::2] = np.round(values[:, ::2], 1)
    base = Dataset([f"f{k}" for k in range(47)], [f"r{i}" for i in range(m)], values)
    return LabeledDataset(base, [f"g{g}" for g in group])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cpu_model() -> str:
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), platform.processor())


def record(benchmark, kernel: str, m: int, b: int, units: float, scale: float, unit: str, digest: str) -> None:
    if benchmark.stats is None:  # --benchmark-disable
        return
    seconds = benchmark.stats.stats.median
    ENTRY.setdefault("kernels", {})[f"{kernel} M={m} B={b}"] = {
        "median_s": round(seconds, 6),
        f"{unit}_per_unit": round(seconds / units * scale, 3),
        "units": units,
        "rounds": ROUNDS,
        "sha256": digest,
    }


@pytest.fixture(scope="module", autouse=True)
def trajectory():
    yield
    if not ENTRY:
        return
    source = Path(scenforest.__file__).resolve().parent
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=source, capture_output=True, text=True)
    entry = {
        "commit": describe.stdout.strip() or None,
        "src_sha256": sha256(b"".join(p.read_bytes() for p in sorted(source.rglob("*.py")))),
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        **ENTRY,
    }
    entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    TRAJECTORY.write_text(json.dumps(entries + [entry], indent=1) + "\n")


@pytest.mark.parametrize("m, b", SIZES)
def test_fit(benchmark, tmp_path, m, b):
    data = rows(m).base
    forest = benchmark.pedantic(xmurf.fit, args=(data, b, FOREST_SEED), rounds=ROUNDS, warmup_rounds=1)
    xmurf.save_forest(forest, tmp_path / "forest.json")
    nodes = sum(len(t.nodes) for t in forest.trees)
    record(benchmark, "xmurf.fit", m, b, nodes, 1e6, "us", sha256((tmp_path / "forest.json").read_bytes()))


@pytest.mark.parametrize("m, b", SIZES)
def test_proximity(benchmark, m, b):
    data = rows(m).base
    forest = xmurf.fit(data, b, FOREST_SEED)
    matrix = benchmark.pedantic(xmurf.proximity_matrix, args=(forest, data), rounds=ROUNDS, warmup_rounds=1)
    record(benchmark, "xmurf.proximity_matrix", m, b, m * m * b, 1e9, "ns", sha256(matrix.values.tobytes()))


@pytest.mark.parametrize("m, b", SIZES)
def test_fit_classifier(benchmark, tmp_path, m, b):
    data = rows(m)
    forest = benchmark.pedantic(classify.fit_classifier, args=(data, b, FOREST_SEED), rounds=ROUNDS, warmup_rounds=1)
    classify.save_model(forest, None, tmp_path / "model.json")
    nodes = sum(len(t.nodes) for t in forest.trees)
    record(benchmark, "classify.fit_classifier", m, b, nodes, 1e6, "us", sha256((tmp_path / "model.json").read_bytes()))
