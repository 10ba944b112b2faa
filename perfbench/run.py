"""Pipeline benchmark of scenforest.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload run is a fresh child interpreter that imports the program from
``src`` and calls ``scenforest.cli.main`` once per stage (child.py). Runs go
one after another (a closed loop with one client) until ``--seconds`` have
passed, and at least twice, so that every run's artifacts can be compared
with the first run's. The parent checks every stage's outputs (checks.py).

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` runs alternate between untraced and traced, and the last line
reports the per-layer metrics of the traced runs (layers.py). Lines before
it give every metric with its median, top sample and sample count, and a
record of the machine, versions and input and artifact digests.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy  # noqa: E402
from checks import digest, read_ids, read_labels, stage_problems  # noqa: E402
from child import _kernel  # noqa: E402
from workloads import GROUPS, MIN_BLOCK, WORKLOADS, Workload, prepare, stage_argv  # noqa: E402

# The children run single-threaded: one client, no library thread pools.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_PROBES = 4      # children that only import the CLI, for setup_s, before the runs
PROBES_PER_RUN = 2    # and after each run, so that they sample the whole measurement
MIN_RUNS = 2          # the first run is the reference for the determinism check
DEADLINE_S = 165.0    # no run is started that would end past this
# Gated end-to-end metrics: every workload reports each of them. The stage
# group times (workloads.GROUPS) apply to some workloads only and are printed
# for information.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SPEED_PERIOD_S = 0.25  # between the child's speedometer readings
KERNEL_REF_S = 2.0e-3  # the speedometer kernel's time at the reference speed


class Bench:
    """State of one benchmark invocation: inputs, runs and their checks."""

    def __init__(self, w: Workload, seed: int, root: Path, work: Path, log):
        self.w, self.root, self.work = w, root, work
        prep = work / "inputs"
        prep.mkdir(parents=True)
        self.inputs = prepare(w, seed, prep, log)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)
        self.reference: dict = {}  # stage -> artifact digest of the first run
        self.attempted = self.failed = 0
        self.problems: list = []
        self.artifact_sha256 = None
        self.n_runs = 0

    def child(self, spec: dict, run_dir: Path, timeout: float) -> dict | None:
        spec["result"] = str(run_dir / "result.json")
        spec["period"] = SPEED_PERIOD_S
        (run_dir / "spec.json").write_text(json.dumps(spec))
        t_spawn = time.monotonic()
        with open(run_dir / "child.log", "w") as log:
            try:
                subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(run_dir / "spec.json")],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root,
                    timeout=max(timeout, 1.0), check=False,
                )
            except subprocess.TimeoutExpired:
                return None
        try:
            result = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            return None
        result["setup_s"] = result["t_ready"] - t_spawn
        return result

    def probe(self) -> tuple | None:
        """(measured, reference-speed) set-up time of a child that only
        imports the CLI, scaled by kernel readings taken just before and
        just after it."""
        run_dir = self.work / "probe"
        run_dir.mkdir(exist_ok=True)
        before = kernel_seconds()
        result = self.child({"stages": []}, run_dir, 60.0)
        if result is None:
            return None
        return result["setup_s"], result["setup_s"] * 2 * KERNEL_REF_S / (before + kernel_seconds())

    def spec(self, run_dir: Path, trace: bool) -> dict:
        """What one child runs: every stage's CLI arguments, and the analyst
        stand-in before ``label``."""
        out = run_dir / "out"
        out.mkdir(parents=True)
        ranges = run_dir / "ranges.json"
        return {
            "out": str(out),
            "trace": trace,
            "stages": [{"name": s, "argv": stage_argv(self.w, s, self.inputs, out, ranges)} for s in self.w.stages],
            "analyst": {"k": self.w.analyst_k, "min_block": MIN_BLOCK, "ranges": str(ranges)}
            if "label" in self.w.stages else None,
        }

    def run(self, trace: bool, timeout: float) -> dict | None:
        """One measured workload run; checks its outputs and removes them."""
        self.n_runs += 1
        run_dir = self.work / f"run{self.n_runs}"
        result = self.child(self.spec(run_dir, trace), run_dir, timeout)
        self.check(result, run_dir)
        shutil.rmtree(run_dir)
        return result

    def check(self, result: dict | None, run_dir: Path) -> None:
        out = run_dir / "out"
        log = run_dir / "child.log"
        tail = log.read_text()[-1500:] if log.exists() else ""
        if result is None:
            self.attempted += len(self.w.stages)
            self.failed += len(self.w.stages)
            self.problems.append(f"run {self.n_runs}: child ended without a result\n{tail}")
            return
        outputs = []
        for st in result["stages"]:
            self.attempted += 1
            name = st["name"]
            if st["rc"] != 0:
                problems = [f"exit code {st['rc']}", st.get("error") or tail]
            else:
                context = self.prediction_context(out) if name == "classify" else ([], set())
                problems = stage_problems(name, out, *context)
                outputs += st["outputs"]
                sha = digest(out, st["outputs"])
                if self.reference.setdefault(name, sha) != sha:
                    problems.append("artifacts differ from the first run")
            if problems:
                self.failed += 1
                self.problems.append(f"run {self.n_runs} {name}: " + "; ".join(problems))
        if self.artifact_sha256 is None and not self.failed:
            self.artifact_sha256 = digest(out, outputs)

    def prediction_context(self, out: Path) -> tuple:
        """Input ids and admissible labels for the predictions check."""
        source = self.inputs.scenarios or out / "scenarios.csv"
        if self.inputs.labels is not None:
            labels = self.inputs.labels
        elif (out / "labeled.csv").exists():
            labels = read_labels(out / "labeled.csv")
        else:
            labels = set()
        return (read_ids(source) if source.exists() else []), labels


def kernel_seconds() -> float:
    """The speedometer kernel's time in this process: the median of nine."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        _kernel(numpy)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def summary(samples: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it
    (the maximum while that percentile would not lie above the median),
    and the sample count."""
    s = sorted(samples)
    n = len(s)
    top = f"p{100 * (n - 10) / n:.0f} {s[n - 11]:.6g}" if n >= 20 else f"max {s[-1]:.6g}"
    return f"median {statistics.median(s):.6g}  {top}  (n={n})"


def record(bench: Bench, args) -> dict:
    """What a before/after comparison needs to show the same machine,
    versions and artifacts."""
    import scipy

    commit = None
    if (bench.root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    h = hashlib.sha256()
    for path in sorted((bench.root / "src").rglob("*.py")):
        h.update(str(path.relative_to(bench.root)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: bench.env.get(k) for k in THREAD_ENV},
        "input_sha256": digest(bench.work / "inputs", [p.name for p in bench.inputs.files]),
        "artifact_sha256": bench.artifact_sha256,
    }


def stage_seconds(result: dict) -> list:
    """(measured, reference-speed) seconds of each stage of a run.

    Measured seconds leave out the speedometer's own ticks. Reference-speed
    seconds scale them by the kernel's reference time over its mean time
    in readings taken during the stage and one period either side of it.
    """
    samples = result["speed"]
    out = []
    for st in result["stages"]:
        start, end = st["start"], st["start"] + st["seconds"]
        measured = st["seconds"] - sum(k for t, k in samples if start <= t < end)
        near = [k for t, k in samples if start - SPEED_PERIOD_S <= t <= end + SPEED_PERIOD_S]
        if not near:  # a long native call held the timer signal back
            near = [min(samples, key=lambda s: abs(s[0] - start))[1]]
        out.append((measured, measured * KERNEL_REF_S * statistics.fmean(1.0 / k for k in near)))
    return out


def end_to_end(runs: list, setups: list, w: Workload) -> dict:
    """Samples of every end-to-end metric that applies to the workload;
    ``setups`` holds the probes' (measured, reference-speed) set-up times."""
    stages = [stage_seconds(r) for r in runs]
    samples = {
        "wall_s": [sum(ref for _, ref in s) for s in stages],
        "wall_raw_s": [sum(measured for measured, _ in s) for s in stages],
    }
    for group, names in GROUPS.items():
        if any(name in w.stages for name in names):
            samples[group] = [
                sum(ref for st, (_, ref) in zip(r["stages"], s) if st["name"] in names) for r, s in zip(runs, stages)
            ]
    samples["setup_s"] = [ref for _, ref in setups]
    samples["setup_raw_s"] = [measured for measured, _ in setups]
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in runs]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(WORKLOADS), default="full", help="tiny: for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scenforest" / "cli.py").is_file():
        print(f"error: no scenforest source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    w = WORKLOADS[args.size][args.workload]
    t_start = time.monotonic()
    work = root / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    log = io.StringIO()
    try:
        bench = Bench(w, args.seed, root, work, log)
        bench.probe()  # warm-up: byte-compilation and file caches, not timed
        setups = [bench.probe() for _ in range(SETUP_PROBES)]
        plain, traced, durations = [], [], []
        t_loop = time.monotonic()
        while True:
            n = len(plain) + len(traced)
            elapsed = time.monotonic() - t_loop
            if n >= MIN_RUNS and elapsed >= args.seconds:
                break
            left = DEADLINE_S - (time.monotonic() - t_start)
            if n and left < 1.2 * max(durations):
                break
            use_trace = bool(args.trace) and n % 2 == 1
            t0 = time.monotonic()
            result = bench.run(use_trace, left)
            durations.append(time.monotonic() - t0)
            if result is None or len(result["stages"]) < len(w.stages):
                break
            (traced if use_trace else plain).append(result)
            setups += [bench.probe() for _ in range(PROBES_PER_RUN)]
        ok = bench.failed == 0 and plain and (traced or not args.trace)
        print(f"workload {w.name} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced runs")
        for problem in bench.problems:
            print(f"FAILED {problem}")
        fail_frac = bench.failed / max(bench.attempted, 1)
        print(f"fail_frac [ratio]: {fail_frac:.6g}  ({bench.failed} of {bench.attempted} stage invocations)")
        metrics = {}
        if plain:
            samples = end_to_end(plain, [s for s in setups if s is not None], w)
            samples = {name: values for name, values in samples.items() if values}
            for name, values in samples.items():
                unit = END_TO_END_UNITS.get(name, "s")
                print(f"{name} [{unit}]: {summary(values)}")
            if not args.trace:
                metrics = {
                    name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()
                    if name in samples
                }
        if args.trace and traced:
            metrics, missing = traced_metrics(plain, traced)
            for name, m in metrics.items():
                print(f"{name} [{m['unit']}]: {m['value']:.6g}")
            if missing:
                print(f"missing per-layer metrics: {', '.join(missing)}")
        print(json.dumps({"record": record(bench, args)}))
        print(json.dumps({"correct": bool(ok), "attempted": max(bench.attempted, 1), "failed": bench.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def traced_metrics(plain: list, traced: list) -> tuple:
    from layers import UNITS, layer_metrics

    per_run, missing = [], set()
    for result in traced:
        values, gone, coverage = layer_metrics(result)
        per_run.append(values)
        missing.update(gone)
        print("stage time inside wrapped calls: " + ", ".join(f"{k} {v:.3f}" for k, v in coverage.items()))
    wall = lambda r: sum(ref for _, ref in stage_seconds(r))  # noqa: E731
    metrics = {}
    for name, unit in UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(map(wall, traced)) - statistics.median(map(wall, plain))
        elif name in missing:
            continue
        else:
            value = statistics.median(v[name] for v in per_run)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, sorted(missing)


if __name__ == "__main__":
    sys.exit(main())
