"""Forest kernel trajectory: the unsupervised fit, the path proximity, the
classifier fit, the linkage of the proximity and the feature CSV reader,
each timed per its natural unit on rows this file seeds.

Run it by path from anywhere; it imports the ``src`` tree of the checkout it
sits in, and its name keeps it out of the tier-1 run:

    python bench/forest_kernels.py

It times ``xmurf.fit`` (µs per node), ``xmurf.proximity_matrix`` (ns per
M²·B, M rows and B trees) and ``classify.fit_classifier`` (µs per node), at
M = 91, B = 100 (the default pipeline's forests) and at M = 1000, B = 10
(the cluster-large workload's). The classifier cases draw their labeled
rows as the classify-batch workload does, from
``perfbench.workloads.scenario_rows`` with the latent group as the label:
its overlapping groups grow deep trees, where the four far-apart groups
of ``rows`` give a classifier a few nodes a tree. It times
``ordering.linkage`` (ns per M²·(M − 1), M² per merge) at M = 1000 and
2000 on the proximity of a B = 10 forest, which it fits and computes
untimed. It times ``dataset.load_dataset`` (ns per value cell, M·47) at
M = 1000 and 6000 on the rows as ``save_dataset`` writes them. It times
``classify.load_model`` (µs per node) on the model that ``train`` writes
for M = 400 labeled rows and B = 100, the classify-batch workload's
model, which it fits and saves untimed, and records the model's bytes.
It times ``classify.predict_batch`` (ns per row × tree) of that model on
N = 6000 new rows of the same groups, drawn with the next seed, with its
fitted thresholds and the ratio 0.75, and hashes the vote counts of every
row.
The memory cases read the interpreter's peak resident set
(``ru_maxrss``): ``memory.cluster`` over ``xmurf.proximity_matrix`` and
``save_matrix`` of a fitted forest, at M = 2000 and 5000 with B = 10;
``memory.cluster_stage`` over the CLI's ``cluster`` stage, fit and forest
save included, on the rows as ``save_dataset`` writes them, at M = 5000
and B = 100; and ``memory.order`` over the CLI's ``order`` stage on the
``proximity.raw`` that a ``memory.cluster`` child leaves in a directory
it is given as a fourth argument, at all three sizes; and
``memory.simulate_stage`` over the CLI's ``simulate`` stage on the
benchmark's pinned config (``perfbench.workloads.PINNED_CONFIG``, 400 s
runs) with its seed 4242, at 5 runs; and ``memory.extract_stage`` over the
CLI's ``extract`` stage on the traces that a ``memory.simulate_stage``
child leaves in its directory, at 5 runs.
The pipeline cases run on that pinned config and seed too: ``sim.run_simulations``
streams its runs through ``sim.io.TraceWriter`` as the ``simulate`` stage
does, at 5 runs (µs per vehicle-step) and on the smallest of them alone,
by vehicles (µs per step, the fixed cost of a step), with the median CPU
seconds beside the wall and the sha256 of the files written; and
``scenarios.scenarios_to_dataset`` extracts the 5 runs' saved traces,
which it simulates untimed, through the ``extract`` stage's reader (ns
per trace-step × vehicle), with the sha256 of the scenario CSV and the
metadata as the stage writes them. Each case runs in
a fresh interpreter (``python bench/forest_kernels.py KERNEL M B`` prints
its reading as JSON; B is 0 for the reader), so no reading depends on the
cases run before it. Each run appends one entry to ``BENCH_forest.json``
at the repository root: ``git describe --always --dirty`` and a sha256 of
the imported source, the machine, and per case the median seconds over the
rounds (after one warm-up round), the time per unit and the sha256 of what
the kernel made (the forest, model and dendrogram JSON as the CLI writes
them, the proximity matrix as ``proximity.raw`` holds it, the values
read). A memory case records the peak before and after the step in MiB,
with the sha256 of the files it wrote, and a matrix case also what the
step added in M x M float64 matrices. Two entries from one machine compare the kernels, and show
whether the artifacts changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRAJECTORY = ROOT / "BENCH_forest.json"
FOREST_SIZES = [(91, 100), (1000, 10)]  # (M, B)
KERNELS = {  # kernel -> (unit, sizes)
    "xmurf.fit": ("us", FOREST_SIZES),
    "xmurf.proximity_matrix": ("ns", FOREST_SIZES),
    "classify.fit_classifier": ("us", FOREST_SIZES),
    "ordering.linkage": ("ns", [(1000, 10), (2000, 10)]),  # B: the trees of the proximity it clusters
    "dataset.load_dataset": ("ns", [(1000, 0), (6000, 0)]),  # no trees
    "classify.load_model": ("us", [(400, 100)]),
    "classify.predict_batch": ("ns", [(6000, 100)]),  # N rows to classify
    "memory.cluster": ("MiB", [(2000, 10), (5000, 10)]),
    "memory.cluster_stage": ("MiB", [(5000, 100)]),
    "memory.order": ("MiB", [(2000, 10), (5000, 10), (5000, 100)]),
    "memory.simulate_stage": ("MiB", [(5, 0)]),  # M: the runs of the pinned config; no trees
    "memory.extract_stage": ("MiB", [(5, 0)]),
    "sim.run_simulations": ("us", [(5, 0), (1, 0)]),  # 1: the smallest of the 5 runs alone
    "scenarios.scenarios_to_dataset": ("ns", [(5, 0)]),
}
ROUNDS = 5
MODEL_ROWS = 400  # the labeled rows of the model that classify.load_model and classify.predict_batch use
PIPELINE_KERNELS = ("sim.run_simulations", "scenarios.scenarios_to_dataset")
ROWS_NAME = {"classify.predict_batch": "N", "memory.simulate_stage": "runs", "memory.extract_stage": "runs",
             **dict.fromkeys(PIPELINE_KERNELS, "runs")}  # the size's name in a case name, when it is not M
CLASSIFIER_KERNELS = ("classify.fit_classifier", "classify.load_model", "classify.predict_batch")
ROW_SEED, FOREST_SEED, SIM_SEED = 2004, 7, 4242


def rows(m: int):
    """M rows of 47 features from four latent groups, half of the columns
    rounded so that nodes hold ties; the group is the class label."""
    from scenforest.dataset import Dataset, LabeledDataset

    rng = np.random.default_rng(ROW_SEED)
    group = rng.integers(0, 4, size=m)
    centers = rng.normal(0.0, 3.0, size=(4, 47))
    values = centers[group] + rng.normal(size=(m, 47))
    values[:, ::2] = np.round(values[:, ::2], 1)
    base = Dataset([f"f{k}" for k in range(47)], [f"r{i}" for i in range(m)], values)
    return LabeledDataset(base, [f"g{g}" for g in group])


def scenario_rows(m: int, seed: int = ROW_SEED):
    """M labeled rows of the scenario layout from
    ``perfbench.workloads.scenario_rows``, the latent group as the class
    label, as the classify-batch workload trains on them."""
    from perfbench.workloads import FEATURE_NAMES, scenario_rows as draw
    from scenforest.dataset import Dataset, LabeledDataset

    values, group = draw(np.random.default_rng(seed), m)
    return LabeledDataset(Dataset(list(FEATURE_NAMES), [f"r{i}" for i in range(m)], values), [f"g{g}" for g in group])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cpu_model() -> str:
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.exists() else []
    return next((line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")), platform.processor())


def peak_mib() -> float:
    """This interpreter's peak resident set so far (Linux counts in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_memory(kernel: str, m: int, b: int, workdir: str | None) -> dict:
    """One memory case's reading: the peak resident set of this interpreter
    before and after its step, which ``memory.cluster`` runs in ``workdir``
    (a temporary directory when None). For ``memory.simulate_stage``, m is
    the number of runs."""
    from scenforest import cli, dataset, xmurf

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(workdir or tmp)
        if kernel == "memory.cluster":
            data = rows(m).base
            forest = xmurf.fit(data, b, FOREST_SEED)
            before = peak_mib()
            dataset.save_matrix(xmurf.proximity_matrix(forest, data), out / "proximity.raw")
            made = ["proximity.raw"]
        elif kernel == "memory.cluster_stage":
            dataset.save_dataset(rows(m).base, out / "scenarios.csv")
            before = peak_mib()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--seed", str(FOREST_SEED), "--out", str(out), "cluster", "--b-trees", str(b)]) != 0:
                    raise RuntimeError(f"cluster failed in {out}")
            made = ["proximity.raw", "forest.json"]
        elif kernel == "memory.simulate_stage":
            config = pinned_config(out, m)
            before = peak_mib()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--config", str(config), "--seed", str(SIM_SEED), "--out", str(out), "simulate"]) != 0:
                    raise RuntimeError(f"simulate failed in {out}")
            made = [f"trace_{k}{ext}" for k in range(m) for ext in (".raw", ".meta.json")]
        elif kernel == "memory.extract_stage":
            subprocess.run([sys.executable, __file__, "memory.simulate_stage", str(m), "0", str(out)], check=True,
                           stdout=subprocess.DEVNULL)
            before = peak_mib()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--out", str(out), "extract"]) != 0:
                    raise RuntimeError(f"extract failed in {out}")
            made = ["scenarios.csv", "scenarios_meta.json"]
        else:
            subprocess.run([sys.executable, __file__, "memory.cluster", str(m), str(b), str(out)], check=True,
                           stdout=subprocess.DEVNULL)
            before = peak_mib()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--out", str(out), "order"]) != 0:
                    raise RuntimeError(f"order failed in {out}")
            made = ["dendrogram.json", "permutation.json", "heatmap.ppm"]
        after = peak_mib()
        digest = sha256(b"".join((out / name).read_bytes() for name in made))
    reading = {"before_mib": round(before, 1), "maxrss_mib": round(after, 1)}
    if kernel not in ("memory.simulate_stage", "memory.extract_stage"):
        reading["matrices"] = round((after - before) * 2**20 / (8 * m * m), 2)
    return {**reading, "sha256": digest}


def pinned_config(out: Path, runs: int) -> Path:
    """The benchmark's pinned config with ``runs`` runs, written into ``out``."""
    from perfbench.workloads import PINNED_CONFIG

    config = out / "config.json"
    config.write_text(json.dumps({**PINNED_CONFIG, "sim": {**PINNED_CONFIG["sim"], "runs": runs}}))
    return config


def sim_batch(out: Path, runs: int):
    """A function that runs the pinned config's 5-run batch on SIM_SEED,
    or with ``runs`` 1 its run of the fewest vehicles (the first of them on
    a tie), streaming each run's trace into ``out`` through
    ``sim.TraceWriter`` as the ``simulate`` stage does. It takes the
    ``scenforest`` that is importable when it is built."""
    from scenforest import cli, sim

    config = cli.load_config(str(pinned_config(out, 5)))
    road = sim.RoadConfig(**config["road"])
    params = [cli._sim_params(config["sim"], cli.stage_seed(SIM_SEED, "sim", k)) for k in range(5)]
    if runs == 1:
        params = [min(params, key=lambda p: len(sim.init_scene(road, p.seed)[1]))]

    def run():
        def writer(k, dt, n_ts, n_vehicles):
            return sim.TraceWriter(sim.trace_path(out, k), dt, road, n_ts, n_vehicles)
        for _ in sim.run_simulations(road, params, writer):
            pass
    return run


def trace_digest(out: Path) -> str:
    """The sha256 of the traces in ``out`` and their sidecars."""
    from scenforest import sim

    return sha256(b"".join(p.read_bytes() for path in sim.trace_paths(out) for p in (path, sim.meta_path(path))))


def measure_pipeline(kernel: str, runs: int) -> dict:
    """One pipeline case's reading on the pinned config and seed, timed in
    this interpreter: the wall and CPU seconds of each round."""
    from scenforest import cli, scenarios, sim

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if kernel == "sim.run_simulations":
            run = sim_batch(out, runs)
        else:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(["--config", str(pinned_config(out, 5)), "--seed", str(SIM_SEED), "--out", str(out),
                             "simulate"]) != 0:
                    raise RuntimeError(f"simulate failed in {out}")
            paths = sim.trace_paths(out)
            reader = getattr(sim, "TraceReader", sim.load_trace)  # the extract stage's (load_trace in older trees)

            def run():
                return scenarios.scenarios_to_dataset((p.stem, reader(p)) for p in paths)
        seconds, cpu = [], []
        for _ in range(1 + ROUNDS):  # the first is the warm-up
            start, start_cpu = time.perf_counter(), time.process_time()
            made = run()
            seconds.append(time.perf_counter() - start)
            cpu.append(time.process_time() - start_cpu)
        metas = [json.loads(sim.meta_path(p).read_text()) for p in sim.trace_paths(out)]
        vehicle_steps = sum(meta["n_ts"] * meta["n_vehicles"] for meta in metas)
        if kernel == "sim.run_simulations":
            units, scale = (vehicle_steps, 1e6) if runs > 1 else (metas[0]["n_ts"], 1e6)
            digest = trace_digest(out)
        else:
            units, scale = vehicle_steps, 1e9
            dataset, meta = made
            cli.save_dataset(dataset, out / "scenarios.csv")
            digest = sha256((out / "scenarios.csv").read_bytes() + (json.dumps(meta) + "\n").encode())
    median = statistics.median(seconds[1:])
    return {
        "median_s": round(median, 6),
        "median_cpu_s": round(statistics.median(cpu[1:]), 6),
        f"{KERNELS[kernel][0]}_per_unit": float(f"{median / units * scale:.5g}"),
        "units": units,
        "rounds": ROUNDS,
        "sha256": digest,
    }


def measure(kernel: str, m: int, b: int) -> dict:
    """One case's reading, timed in this interpreter."""
    from scenforest import classify, dataset, ordering, xmurf

    if kernel == "classify.predict_batch":
        data = scenario_rows(m, ROW_SEED + 1)  # new rows of the model's groups
    else:
        data = scenario_rows(m) if kernel in CLASSIFIER_KERNELS else rows(m)
    forest = xmurf.fit(data.base, b, FOREST_SEED) if kernel in ("xmurf.proximity_matrix", "ordering.linkage") else None
    p = xmurf.proximity_matrix(forest, data.base) if kernel == "ordering.linkage" else None
    extra = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, made_path = Path(tmp) / "rows.csv", Path(tmp) / "made.json"
        if kernel == "dataset.load_dataset":
            dataset.save_dataset(data.base, csv_path)
        if kernel in ("classify.load_model", "classify.predict_batch"):
            train = scenario_rows(MODEL_ROWS)
            model = classify.fit_classifier(train, b, FOREST_SEED)
            thresholds = classify.oob_thresholds(model, train)
            classify.save_model(model, thresholds, made_path)
        run = {
            "xmurf.fit": lambda: xmurf.fit(data.base, b, FOREST_SEED),
            "xmurf.proximity_matrix": lambda: xmurf.proximity_matrix(forest, data.base),
            "classify.fit_classifier": lambda: classify.fit_classifier(data, b, FOREST_SEED),
            "ordering.linkage": lambda: ordering.linkage(p),
            "dataset.load_dataset": lambda: dataset.load_dataset(csv_path),
            "classify.load_model": lambda: classify.load_model(made_path),
            "classify.predict_batch": lambda: classify.predict_batch(model, thresholds, data.base.values, 0.75),
        }[kernel]
        seconds = []
        for _ in range(1 + ROUNDS):  # the first is the warm-up
            start = time.perf_counter()
            made = run()
            seconds.append(time.perf_counter() - start)
        if kernel == "xmurf.proximity_matrix":
            units, scale, digest = m * m * b, 1e9, sha256(made.values.tobytes())
        elif kernel == "dataset.load_dataset":
            units, scale, digest = made.values.size, 1e9, sha256(made.values.tobytes())
        elif kernel == "classify.predict_batch":
            units, scale, digest = m * b, 1e9, sha256(classify._count_votes(model, data.base.values).tobytes())
        elif kernel == "classify.load_model":
            extra = {"bytes": made_path.stat().st_size}
            units, scale, digest = sum(len(t.nodes) for t in made[0].trees), 1e6, sha256(made_path.read_bytes())
        else:
            if kernel == "xmurf.fit":
                xmurf.save_forest(made, made_path)
            elif kernel == "classify.fit_classifier":
                classify.save_model(made, classify.oob_thresholds(made, data), made_path)
            else:
                ordering.save_dendrogram(made, made_path)
            digest = sha256(made_path.read_bytes())
            if kernel == "ordering.linkage":
                units, scale = m * m * (m - 1), 1e9
            else:
                units, scale = sum(len(t.nodes) for t in made.trees), 1e6
    median = statistics.median(seconds[1:])
    return {
        **extra,
        "median_s": round(median, 6),
        f"{KERNELS[kernel][0]}_per_unit": float(f"{median / units * scale:.5g}"),
        "units": units,
        "rounds": ROUNDS,
        "sha256": digest,
    }


def main() -> None:
    kernels = {}
    for kernel, (_, sizes) in KERNELS.items():
        for m, b in sizes:
            case = subprocess.run([sys.executable, __file__, kernel, str(m), str(b)], check=True,
                                  stdout=subprocess.PIPE, text=True)
            name = f"{kernel} {ROWS_NAME.get(kernel, 'M')}={m}" + (f" B={b}" if b else "")
            kernels[name] = json.loads(case.stdout)
            print(name, kernels[name])
    describe = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True, text=True)
    entry = {
        "commit": describe.stdout.strip() or None,
        "src_sha256": sha256(b"".join(p.read_bytes() for p in sorted((SRC / "scenforest").rglob("*.py")))),
        "machine": {"cpu": cpu_model(), "nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "kernels": kernels,
    }
    entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    TRAJECTORY.write_text(json.dumps(entries + [entry], indent=1) + "\n")


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(ROOT)]
    if len(sys.argv) in (4, 5) and sys.argv[1].startswith("memory."):
        workdir = sys.argv[4] if len(sys.argv) == 5 else None
        print(json.dumps(measure_memory(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), workdir)))
    elif len(sys.argv) == 4 and sys.argv[1] in PIPELINE_KERNELS:
        print(json.dumps(measure_pipeline(sys.argv[1], int(sys.argv[2]))))
    elif len(sys.argv) == 4:
        print(json.dumps(measure(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))))
    else:
        main()
