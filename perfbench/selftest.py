"""Tests of the benchmark itself, kept out of the program's test suite.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from child import analyst_ranges  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS["full"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS["tiny"]))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert any(line.startswith(f"{m['name']} [{m['unit']}]: ") for line in lines), m["name"]
    assert any(line.startswith("fail_frac [ratio]: 0 ") for line in lines)
    record = json.loads(lines[-2])["record"]
    assert record["seed"] == 3 and record["nproc"] >= 1 and record["artifact_sha256"]
    assert set(record["thread_env"]) == set(run.THREAD_ENV)


@pytest.fixture(scope="module")
def checked_run(tmp_path_factory):
    """One tiny cluster-large run whose artifacts stay on disk."""
    work = tmp_path_factory.mktemp("bench")
    bench = run.Bench(WORKLOADS["tiny"]["cluster-large"], 5, ROOT, work / "w", io.StringIO())
    run_dir = work / "run"
    result = bench.child(bench.spec(run_dir, trace=False), run_dir, 120.0)
    assert result is not None and [st["rc"] for st in result["stages"]] == [0] * 5
    bench.check(result, run_dir)
    assert bench.failed == 0 and bench.attempted == 5, bench.problems
    return bench, result, run_dir / "out"


def _corrupt_proximity(out):
    p = np.fromfile(out / "proximity.raw", dtype="<f8")
    m = int(round(p.size**0.5))
    p = p.reshape(m, m)
    p[0, 1] = p[0, 1] / 2
    p.astype("<f8").tofile(out / "proximity.raw")


def _corrupt_permutation(out):
    perm = json.loads((out / "permutation.json").read_text())
    perm[1] = perm[0]
    (out / "permutation.json").write_text(json.dumps(perm))


def _drop_prediction_row(out):
    lines = (out / "predictions.csv").read_text().splitlines(keepends=True)
    (out / "predictions.csv").write_text("".join(lines[:-1]))


@pytest.mark.parametrize(
    "corrupt, stage, message",
    [
        (_corrupt_proximity, "cluster", "not exactly symmetric"),
        (_corrupt_permutation, "order", "not a bijection"),
        (_drop_prediction_row, "classify", "not the 120 input ids"),
    ],
)
def test_corrupted_artifact_counts_as_failed_stage(checked_run, corrupt, stage, message):
    bench, result, out = checked_run
    name = {"cluster": "proximity.raw", "order": "permutation.json", "classify": "predictions.csv"}[stage]
    original = (out / name).read_bytes()
    failed, attempted = bench.failed, bench.attempted
    try:
        corrupt(out)
        bench.check(result, out.parent)
    finally:
        (out / name).write_bytes(original)
    assert bench.attempted == attempted + 5
    assert bench.failed == failed + 1
    assert f" {stage}: " in bench.problems[-1] and message in bench.problems[-1]


def test_wrappers_pass_results_and_exceptions_through():
    from scenforest import ordering
    from scenforest.dataset import ProximityMatrix

    original = ordering.reorder
    p = ProximityMatrix(values=np.array([[1.0, 0.5], [0.5, 1.0]]), ids=["a", "b"])
    t = tracer.Tracer()
    t.install()
    try:
        assert ordering.reorder is not original
        t.stage = "order"
        assert ordering.reorder(p, [1, 0]).ids == original(p, [1, 0]).ids
        with pytest.raises(ValueError, match="bijection") as raised:
            ordering.reorder(p, [0, 0])
        assert raised.traceback[-1].name == "reorder"
    finally:
        t.uninstall()
    assert ordering.reorder is original
    span = t.spans[("order", "ordering", "reorder")]
    assert span.calls == 2 and span.errors == 1


def test_missing_target_is_reported_and_its_metrics_left_out(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [("scenarios", "scenforest.scenarios", "gone", None)])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["scenforest.scenarios.gone"]

    result = {
        "stages": [{"name": "extract", "rc": 0, "seconds": 1.0}],
        "trace": {"missing": ["scenforest.scenarios.thw_series"], "spans": [], "covered": {}, "overhead": {}},
    }
    values, missing, _ = layers.layer_metrics(result)
    assert missing == ["scenarios.thw_s", "scenarios.thw_ego_steps", "scenarios.us_per_ego_step"]
    assert "scenarios.features_s" in values and not set(missing) & set(values)


def test_analyst_leaves_small_blocks_unlabeled(tmp_path):
    from scenforest import ordering
    from scenforest.dataset import ProximityMatrix

    # two tight groups of five rows and one outlier row
    group = [0] * 5 + [1] * 5 + [2]
    values = np.array([[1.0 if i == j else 0.9 if a == b else 0.1 for j, b in enumerate(group)]
                       for i, a in enumerate(group)])
    p = ProximityMatrix(values=values, ids=[f"r{i}" for i in range(len(group))])
    ordering.save_dendrogram(ordering.linkage(p), tmp_path / "dendrogram.json")
    ranges = analyst_ranges(tmp_path / "dendrogram.json", k=3, min_block=5)
    assert sorted(r["end"] - r["start"] + 1 for r in ranges) == [5, 5]
    assert len({r["label"] for r in ranges}) == 2


def test_stage_times_leave_out_ticks_and_scale_to_the_reference_speed():
    # one 2-second stage during which the kernel ran at half the reference speed
    ref = run.KERNEL_REF_S
    ticks = [(10.0 + 0.25 * i, 2 * ref) for i in range(-1, 10)]
    result = {"speed": ticks, "stages": [{"name": "cluster", "start": 10.0, "seconds": 2.0}]}
    ((measured, at_reference),) = run.stage_seconds(result)
    assert measured == pytest.approx(2.0 - 8 * 2 * ref)
    assert at_reference == pytest.approx(measured / 2)
