"""Subcommand contracts: files in, files out, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from scenforest import cli, scenarios
from scenforest.classify import UNASSIGNED, fit_classifier, load_model, oob_thresholds, predict_batch, save_model
from scenforest.dataset import Dataset, LabeledDataset, load_dataset, load_matrix, save_dataset
from scenforest.ordering import linkage, optimal_leaf_order, render_heatmap, reorder
from scenforest.scenarios import FEATURE_NAMES
from scenforest.sim import CHANNELS, engine
from scenforest.sim import io as trace_io
from scenforest.sim.engine import lane_overflow

FAST_SIM = {"sim": {"duration": 120.0, "runs": 2}, "xmurf": {"b_trees": 20}}


def write_config(tmp_path, overrides):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(overrides))
    return cfg


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small pipeline run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root, FAST_SIM)
    out = root / "out"
    base = ["--config", str(cfg), "--seed", "11", "--out", str(out)]
    assert cli.main(base + ["simulate"]) == 0
    assert cli.main(base + ["extract"]) == 0
    assert cli.main(base + ["cluster"]) == 0
    assert cli.main(base + ["order"]) == 0
    perm = json.loads((out / "permutation.json").read_text())
    m = len(perm)
    ranges = [
        {"start": 0, "end": m // 2, "label": "A"},
        {"start": m // 2 + 1, "end": m - 1, "label": "B"},
    ]
    rp = root / "ranges.json"
    rp.write_text(json.dumps(ranges))
    assert cli.main(base + ["label", "--ranges", str(rp)]) == 0
    assert cli.main(base + ["train"]) == 0
    assert cli.main(base + ["classify", "--ratio", "0.5"]) == 0
    return root, out, base, rp


def test_simulate_writes_named_traces(pipeline):
    _, out, _, _ = pipeline
    assert (out / "trace_0.raw").exists()
    assert (out / "trace_1.raw").exists()
    assert (out / "trace_0.meta.json").exists()


def test_simulate_rerun_byte_identical(pipeline, tmp_path):
    root, out, _, _ = pipeline
    cfg = write_config(tmp_path, FAST_SIM)
    out2 = tmp_path / "out2"
    assert cli.main(["--config", str(cfg), "--seed", "11", "--out", str(out2), "simulate"]) == 0
    for name in ("trace_0.raw", "trace_0.meta.json", "trace_1.raw", "trace_1.meta.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_removes_traces_beyond_runs(tmp_path, capsys):
    out = tmp_path / "o"
    for runs in (3, 2):
        cfg = write_config(tmp_path, {"sim": {"duration": 120.0, "runs": runs}})
        assert cli.main(["--config", str(cfg), "--seed", "11", "--out", str(out), "simulate"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "trace_0.meta.json", "trace_0.raw", "trace_1.meta.json", "trace_1.raw"
    ]
    capsys.readouterr()
    assert cli.main(["--out", str(out), "extract"]) == 0
    assert "from 2 trace(s)" in capsys.readouterr().out


def test_simulate_failing_mid_batch_leaves_no_file_of_its_runs(tmp_path, monkeypatch, capsys):
    # one run a batch; the second batch raises after its first flushed
    # block: the first batch's trace stands, and of the second run neither
    # the half-written raw file nor its older sidecar is left, nor anything else
    out = tmp_path / "o"
    cfg = write_config(tmp_path, {"sim": {"duration": 30.0, "runs": 2}})
    argv = ["--config", str(cfg), "--seed", "11", "--out", str(out), "simulate"]
    assert cli.main(argv) == 0  # the older traces of both runs
    monkeypatch.setattr(engine, "BATCH_RUNS", 1)
    blocks = []

    def check_then_fail(lane, road):
        blocks.append(len(lane))
        if len(blocks) == 5:  # 600 steps flush in 3 blocks; the second run's first is in its file
            assert (out / "trace_1.raw").stat().st_size > 0
            assert not (out / "trace_1.meta.json").exists()
            raise RuntimeError("engine failure")
        return lane_overflow(lane, road)

    monkeypatch.setattr(engine, "lane_overflow", check_then_fail)
    with pytest.raises(RuntimeError, match="engine failure"):
        cli.main(argv)
    assert blocks == [256, 256, 88, 256, 256]
    assert sorted(p.name for p in out.iterdir()) == ["trace_0.meta.json", "trace_0.raw"]
    capsys.readouterr()
    assert cli.main(["--out", str(out), "extract"]) == 0
    assert "from 1 trace(s)" in capsys.readouterr().out


def test_invalid_lane_count_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"road": {"n_l": 4}})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 2


def test_extract_empty_exits_3(tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    assert cli.main(["--out", str(out), "extract"]) == 3


def test_scenarios_csv_schema(pipeline):
    _, out, _, _ = pipeline
    header = (out / "scenarios.csv").read_text().splitlines()[0].split(",")
    assert len(header) == 48  # id + 47 features
    assert header[0] == "id"
    assert header[1:] == list(FEATURE_NAMES)
    ds = load_dataset(out / "scenarios.csv")
    assert len(set(ds.ids)) == ds.n_rows
    assert {i.split("_s")[0] for i in ds.ids} == {"trace_0", "trace_1"}


def test_cluster_outputs_valid_matrix(pipeline):
    _, out, _, _ = pipeline
    p = load_matrix(out / "proximity.raw")
    assert p.size >= 2
    forest = json.loads((out / "forest.json").read_text())
    assert forest["B"] == 20  # config b_trees respected


def test_cluster_and_order_write_exactly_their_artifacts(tmp_path):
    source = tmp_path / "in.csv"
    save_dataset(Dataset(["f0", "f1", "f2"], [f"r{i}" for i in range(12)], np.random.default_rng(5).normal(size=(12, 3))), source)
    out = tmp_path / "out"
    assert cli.main(["--seed", "3", "--out", str(out), "cluster", "--input", str(source), "--b-trees", "5"]) == 0
    assert cli.main(["--seed", "3", "--out", str(out), "order"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "dendrogram.json", "forest.json", "heatmap.ppm", "permutation.json", "proximity.raw", "proximity.raw.json",
    ]


def test_cluster_rejects_tiny_input(tmp_path):
    (tmp_path / "scenarios.csv").write_text("id,f\na,1\n")
    code = cli.main(["--out", str(tmp_path), "cluster", "--input", str(tmp_path / "scenarios.csv")])
    assert code == 2


def test_cluster_seed_changes_matrix(pipeline, tmp_path):
    root, out, _, _ = pipeline
    cfg = write_config(tmp_path, FAST_SIM)
    out2 = tmp_path / "alt"
    out2.mkdir()
    code = cli.main(
        ["--config", str(cfg), "--seed", "12", "--out", str(out2), "cluster",
         "--input", str(out / "scenarios.csv")]
    )
    assert code == 0
    p1 = load_matrix(out / "proximity.raw")
    p2 = load_matrix(out2 / "proximity.raw")
    assert not np.array_equal(p1.values, p2.values)


def test_order_outputs(pipeline):
    _, out, _, _ = pipeline
    perm = json.loads((out / "permutation.json").read_text())
    m = load_matrix(out / "proximity.raw").size
    assert sorted(perm) == list(range(m))
    ppm = (out / "heatmap.ppm").read_bytes()
    assert ppm.startswith(f"P6\n{m} {m}\n255\n".encode())
    assert (out / "dendrogram.json").exists()


def test_order_heatmap_is_the_reordered_matrix(pipeline, tmp_path):
    # order renders through the permutation; the heatmap is not pinned
    _, out, _, _ = pipeline
    p = load_matrix(out / "proximity.raw")
    perm = json.loads((out / "permutation.json").read_text())
    render_heatmap(reorder(p, perm), tmp_path / "heatmap.ppm")
    assert (out / "heatmap.ppm").read_bytes() == (tmp_path / "heatmap.ppm").read_bytes()


def test_order_optimal_leaf_order_equals_in_process(pipeline, tmp_path):
    # the branch runs on the matrix read again after the in-place linkage
    _, out, _, _ = pipeline
    cfg = write_config(tmp_path, {"ordering": {"optimal_leaf_order": True}})
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path), "order", "--input", str(out / "proximity.raw")])
    assert code == 0
    p = load_matrix(out / "proximity.raw")
    want = optimal_leaf_order(linkage(p), p)
    assert json.loads((tmp_path / "permutation.json").read_text()) == want.tolist()
    assert (tmp_path / "dendrogram.json").read_bytes() == (out / "dendrogram.json").read_bytes()


@pytest.mark.parametrize("stage", ["cluster", "order", "label", "train", "classify"])
def test_rerun_alone_leaves_every_file_byte_identical(pipeline, stage):
    root, _, base, rp = pipeline
    args = {"label": ["--ranges", str(rp)], "classify": ["--ratio", "0.5"]}.get(stage, [])

    def snapshot():
        files = (p for p in root.rglob("*") if p.is_file())
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}

    before = snapshot()
    assert cli.main(base + [stage] + args) == 0
    assert snapshot() == before


# the fixture's pipeline, all seven stages in one fresh interpreter
PIPELINE_SCRIPT = """
import sys
from scenforest import cli
config, out, ranges = sys.argv[1:]
base = ["--config", config, "--seed", "11", "--out", out]
for stage in (["simulate"], ["extract"], ["cluster"], ["order"], ["label", "--ranges", ranges], ["train"],
              ["classify", "--ratio", "0.5"]):
    assert cli.main(base + stage) == 0, stage
"""


def run_pipeline_script(root, rp, out, **env):
    """PIPELINE_SCRIPT in a fresh interpreter, writing to ``out``, with
    ``env`` added to the environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", PIPELINE_SCRIPT, str(root / "config.json"), str(out), str(rp)],
                   env=env, check=True, capture_output=True)


def differing_files(a, b) -> list:
    """The names of the files of directory ``a`` whose bytes differ in
    ``b``; every name must be in both."""
    names = sorted(p.name for p in a.iterdir())
    assert "predictions.csv" in names and names == sorted(p.name for p in b.iterdir())
    return [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


def test_pipeline_bytes_do_not_depend_on_thread_count(pipeline, tmp_path):
    root, _, _, rp = pipeline
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads-{threads}")
        run_pipeline_script(root, rp, outs[-1], OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                            MKL_NUM_THREADS=threads)
    assert differing_files(*outs) == []


def test_pipeline_bytes_do_not_depend_on_numpy_cpu_dispatch(pipeline, tmp_path):
    """Every file of a run with each of numpy's run-time dispatch targets
    disabled equals a default run's. numpy picks some float64 kernels by
    CPU feature (its real exp and power among them), and they can differ in
    the last bit; the pipeline's bytes must not. Its exps are the C
    library's (``scenforest.libm.exp``) and its powers are the C library's
    pow (``np.float_power``), so none of them runs a dispatched kernel. This
    covers numpy's dispatch only: the C library's ``math`` functions are
    not switched here."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    root, _, _, rp = pipeline
    outs = [tmp_path / "default", tmp_path / "dispatch-off"]
    run_pipeline_script(root, rp, outs[0])
    run_pipeline_script(root, rp, outs[1], NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__))
    assert differing_files(*outs) == []


def test_label_full_cover_and_verbatim_labels(pipeline, tmp_path):
    root, out, base, _ = pipeline
    m = len(json.loads((out / "permutation.json").read_text()))
    rp = tmp_path / "full.json"
    rp.write_text(json.dumps([{"start": 0, "end": m - 1, "label": "everything"}]))
    assert cli.main(base + ["label", "--ranges", str(rp)]) == 0
    text = (out / "labeled.csv").read_text().splitlines()
    assert len(text) == m + 1
    assert all(line.endswith(",everything") for line in text[1:])
    # restore the two-class labeling for downstream fixtures
    assert cli.main(base + ["label", "--ranges", str(root / "ranges.json")]) == 0
    assert cli.main(base + ["train"]) == 0


def test_label_overlap_rejected(pipeline, tmp_path):
    _, out, base, _ = pipeline
    rp = tmp_path / "overlap.json"
    rp.write_text(json.dumps([
        {"start": 0, "end": 3, "label": "a"},
        {"start": 2, "end": 5, "label": "b"},
    ]))
    assert cli.main(base + ["label", "--ranges", str(rp)]) == 2


def test_label_range_without_end_exits_2(pipeline, tmp_path, capsys):
    _, _, base, _ = pipeline
    rp = tmp_path / "ranges.json"
    rp.write_text(json.dumps([{"start": 0, "label": "a"}]))
    assert cli.main(base + ["label", "--ranges", str(rp)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {rp}: [0].end: missing key\n"


def test_classify_outputs_and_ratio_monotonicity(pipeline):
    _, out, base, _ = pipeline
    ds = load_dataset(out / "scenarios.csv")
    unassigned = {}
    for ratio in (0.0, 0.25, 0.5, 0.75, 1.0):
        dest = out / f"pred_{ratio}.csv"
        assert cli.main(base + ["classify", "--ratio", str(ratio), "--output", str(dest)]) == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "id,label,vote_fraction,threshold_used"
        assert len(lines) == ds.n_rows + 1
        unassigned[ratio] = sum(",UNASSIGNED," in line for line in lines[1:])
    assert unassigned[0.0] == 0
    assert (
        unassigned[0.0] <= unassigned[0.25] <= unassigned[0.5]
        <= unassigned[0.75] <= unassigned[1.0]
    )


@pytest.mark.parametrize("ratio", ["-0.5", "nan", "inf"])
def test_classify_ratio_not_finite_and_nonnegative_exits_2(pipeline, tmp_path, capsys, ratio):
    _, _, base, _ = pipeline
    dest = tmp_path / "pred.csv"
    assert cli.main(base + ["classify", "--ratio", ratio, "--output", str(dest)]) == 2
    assert capsys.readouterr().err == f"error: ratio must be a finite number >= 0, got {float(ratio)}\n"
    assert not dest.exists()


def test_classify_matches_predict_detail_row_by_row(pipeline, tmp_path):
    _, out, base, _ = pipeline
    dest = tmp_path / "pred.csv"
    assert cli.main(base + ["classify", "--ratio", "0.75", "--output", str(dest)]) == 0
    forest, th = load_model(out / "model.json")
    ds = load_dataset(out / "scenarios.csv")
    expected = ["id,label,vote_fraction,threshold_used"]
    for rid, row in zip(ds.ids, ds.values):
        label, fraction, threshold = predict_batch(forest, th, row[None], 0.75)[0]
        expected.append(f"{rid},{label or UNASSIGNED},{fraction:.17g},{threshold:.17g}")
    assert dest.read_text().splitlines() == expected


@pytest.mark.parametrize("bag", ["100000000000000000000", "1e999"], ids=["int-beyond-int64", "float-inf"])
def test_classify_ignores_a_model_bag(pipeline, tmp_path, bag):
    # an older model.json holds each tree's bootstrap bag before its nodes:
    # classify does not read it, whatever it holds
    _, out, base, _ = pipeline
    model = json.loads((out / "model.json").read_text())
    assert all("bag" not in t for t in model["trees"])
    model["trees"] = [{"bag": "BAG", **t} for t in model["trees"]]
    old = tmp_path / "model.json"
    old.write_text(json.dumps(model).replace('"BAG"', f"[{bag}]"))
    dest = tmp_path / "p.csv"
    assert cli.main(base + ["classify", "--ratio", "0.5", "--model", str(old), "--output", str(dest)]) == 0
    assert dest.read_bytes() == (out / "predictions.csv").read_bytes()


@pytest.mark.parametrize(
    "edit, column",
    [
        (lambda header: header[:10], "10"),  # too few columns: the first missing one
        (lambda header: header + ["extra"], "48"),  # one column too many
        (lambda header: header[:5] + ["x"] + header[6:], "5"),  # a renamed column
    ],
    ids=["too-few", "too-many", "renamed"],
)
def test_classify_rejects_feature_columns_unlike_the_model(pipeline, tmp_path, capsys, edit, column):
    _, out, base, _ = pipeline
    ds = load_dataset(out / "scenarios.csv")
    header = edit(["id"] + list(ds.feature_names))
    bad = tmp_path / "bad.csv"
    bad.write_text(",".join(header) + "\n" + ",".join(["r0"] + ["0.5"] * (len(header) - 1)) + "\n")
    capsys.readouterr()
    assert cli.main(base + ["classify", "--input", str(bad), "--output", str(tmp_path / "p.csv")]) == 2
    assert f"feature column {column} is" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"sim": {"wheels": 3}})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 2


def test_stage_seed_stability():
    a = cli.stage_seed(42, "sim", 0)
    assert a == cli.stage_seed(42, "sim", 0)
    assert a != cli.stage_seed(42, "sim", 1)
    assert a != cli.stage_seed(42, "xmurf")
    assert cli.stage_seed(42, "xmurf") != cli.stage_seed(43, "xmurf")


# ------------------------------------------------------- malformed inputs

@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """(raw bytes, sidecar text) of one 5 s run (100 steps, 3 vehicles) on a
    2-lane road holding at most 2 vehicles per lane."""
    root = tmp_path_factory.mktemp("small_trace")
    cfg = write_config(root, {"road": {"n_l": 2, "n_vpl": 2}, "sim": {"duration": 5.0, "runs": 1}})
    assert cli.main(["--config", str(cfg), "--seed", "11", "--out", str(root), "simulate"]) == 0
    return (root / "trace_0.raw").read_bytes(), (root / "trace_0.meta.json").read_text()


def set_lanes(step, lanes):
    """A corruption writing ``lanes`` (one per vehicle) into one step's lane row."""
    def corrupt(data, meta):
        n_v, n = json.loads(meta)["n_vehicles"], len(data) // 41
        lane = bytearray(data[40 * n:])  # after the five float64 channels
        lane[step * n_v:(step + 1) * n_v] = bytes(lanes(n_v))
        return data[:40 * n] + bytes(lane), meta
    return corrupt


def set_value(channel, step, vehicle, value):
    """A corruption writing ``value`` into one float channel at one step and vehicle."""
    def corrupt(data, meta):
        n_v, n = json.loads(meta)["n_vehicles"], len(data) // 41
        floats = np.frombuffer(data, "<f8", count=5 * n).reshape(5, -1, n_v).copy()
        floats[CHANNELS.index(channel), step, vehicle - 1] = value
        return floats.tobytes() + data[40 * n:], meta
    return corrupt


def drop_last_step(data, meta):
    """The file of the same run one step shorter, under the unchanged sidecar."""
    n_v, n = json.loads(meta)["n_vehicles"], len(data) // 41
    floats = np.frombuffer(data, "<f8", count=5 * n).reshape(5, -1, n_v)[:, :-1]
    lane = np.frombuffer(data, "i1", offset=40 * n).reshape(-1, n_v)[:-1]
    return floats.tobytes() + lane.tobytes(), meta


def edit_meta(edit):
    def corrupt(data, meta):
        return data, edit(meta)
    return corrupt


def set_meta(key, value):
    def edit(meta):
        return json.dumps({**json.loads(meta), key: value}) + "\n"
    return edit_meta(edit)


def both(first, second):
    """The corruption ``first`` followed by ``second``."""
    def corrupt(data, meta):
        return second(*first(data, meta))
    return corrupt


def assert_exits_2_located(argv, where, message, capsys):
    """The CLI exits 2 with one ``error: <where>: ...`` line naming ``message``
    and no traceback."""
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ")
    assert message in err
    assert "Traceback" not in err
    return err


MALFORMED_TRACES = pytest.mark.parametrize(
    "corrupt, where, message",
    [
        (lambda data, meta: (data[:-1], meta), ".raw", "12299 bytes, the sidecar's n_ts=100 and n_vehicles=3 make 12300"),
        (lambda data, meta: (data + b"\0", meta), ".raw", "12301 bytes"),
        (drop_last_step, ".raw", "12177 bytes, the sidecar's n_ts=100"),
        (set_lanes(2, lambda n_v: [3] + [1] * (n_v - 1)), ".raw", "step 2, vehicle 1: lane 3 is not in [1, 2]"),
        (set_lanes(2, lambda n_v: [1] * n_v), ".raw", "step 2: lane 1 holds 3 vehicles, over n_vpl=2"),
        (set_value("x", 4, 2, np.nan), ".raw", "step 4, vehicle 2: x nan is not finite"),
        (set_value("v", 99, 1, np.inf), ".raw", "step 99, vehicle 1: v inf is not finite"),
        (set_value("psi", 0, 3, -np.inf), ".raw", "step 0, vehicle 3: psi -inf is not finite"),
        (set_meta("collisions", [[3, 1, 99]]), ".meta.json", "collisions[0]: [3, 1, 99] is not [t, id_a, id_b]"),
        (set_meta("collisions", [[100, 1, 2]]), ".meta.json", "collisions[0]: [100, 1, 2] is not [t, id_a, id_b] with t in [0, 99]"),
        (set_meta("collisions", [[3, 1]]), ".meta.json", "collisions[0]: [3, 1] is not"),
        (set_meta("lane_change_starts", [[3, 1, 3]]), ".meta.json", "lane_change_starts[0]: [3, 1, 3] is not"),
        (edit_meta(lambda meta: meta[:-3]), ".meta.json:1", "invalid JSON"),
        (edit_meta(lambda meta: meta.replace('"n_ts"', '"steps"')), ".meta.json", "n_ts: missing key"),
        (edit_meta(lambda meta: meta.replace('"n_l": 2', '"n_l": 5')), ".meta.json", "road: lane count must be 2 or 3"),
        (set_meta("n_vehicles", 4), ".raw", "n_vehicles=4 make 16400, so this file or "),
        (set_meta("n_ts", 99), ".raw", "/trace_0.meta.json is damaged"),
        (set_meta("dt", math.inf), ".meta.json", "dt: dt must be in (0, 0.1], got inf"),
        (set_meta("dt", 1e308), ".meta.json", "dt: dt must be in (0, 0.1], got 1e+308"),
        (edit_meta(lambda meta: meta.replace('"lane_width": 3.5', '"lane_width": Infinity')), ".meta.json",
         "road: lane_width must be finite, got inf"),
        # the first defect in the order of the checks, whichever block holds it
        (set_value("v", 50, 2, np.nan), ".raw", "step 50, vehicle 2: v nan is not finite"),
        (both(set_value("y", 3, 1, np.nan), set_value("x", 60, 3, np.inf)), ".raw",
         "step 60, vehicle 3: x inf is not finite"),
        (both(set_lanes(2, lambda n_v: [1] * n_v), set_lanes(80, lambda n_v: [1, 0] + [1] * (n_v - 2))), ".raw",
         "step 80, vehicle 2: lane 0 is not in [1, 2]"),
    ],
    ids=[
        "short-by-one-byte", "extra-byte", "step-count", "lane-out-of-range", "lane-over-capacity",
        "x-nan", "v-inf", "psi-minus-inf",
        "id-out-of-range", "collision-step-out-of-range", "collision-not-a-triple", "lane-change-start-bad-lane",
        "meta-invalid-json", "meta-missing-key", "meta-bad-road", "sidecar-n-vehicles", "sidecar-n-ts", "dt-infinity",
        "dt-1e308", "lane-width-infinity", "nan-in-a-later-block", "y-before-x", "range-after-overflow",
    ],
)


def assert_extract_rejects(small_trace, tmp_path, capsys, corrupt, where, message):
    data, meta = corrupt(*small_trace)
    (tmp_path / "trace_0.raw").write_bytes(data)
    (tmp_path / "trace_0.meta.json").write_text(meta)
    assert_exits_2_located(["--out", str(tmp_path), "extract"], f"{tmp_path / 'trace_0'}{where}", message, capsys)


@MALFORMED_TRACES
def test_extract_rejects_malformed_trace(small_trace, tmp_path, capsys, corrupt, where, message):
    assert_extract_rejects(small_trace, tmp_path, capsys, corrupt, where, message)


@MALFORMED_TRACES
def test_extract_rejects_malformed_trace_read_in_blocks_of_7(small_trace, tmp_path, capsys, monkeypatch, corrupt,
                                                             where, message):
    # the 100 steps in 15 blocks of the reader's check and of the sweeps
    monkeypatch.setattr(scenarios, "THW_BLOCK", 7)
    monkeypatch.setattr(trace_io, "CHECK_BLOCK", 7)
    assert_extract_rejects(small_trace, tmp_path, capsys, corrupt, where, message)


MATRIX_2 = np.array([[1.0, 0.5], [0.5, 1.0]]).tobytes()
SIDECAR_2 = '{"M": 2, "ids": ["a", "b"]}\n'
SIDECAR_3 = '{"M": 3, "ids": ["a", "b", "c"]}\n'
ORDER = ["--out", ".", "order"]
LABEL = ["--out", ".", "label", "--ranges", "ranges.json"]
SCENARIOS_2 = {"scenarios.csv": "id,f\na,1\nb,2\n"}
# a two-scenario workdir that ``label`` accepts: the faults are put in one at a time
RANGES = '[{"start": 0, "end": 1, "label": "A"}, {"start": %s, "end": %s, "label": "B"}]'
LABEL_2 = {
    **SCENARIOS_2,
    "permutation.json": "[1, 0]",
    "proximity.raw": MATRIX_2,
    "proximity.raw.json": SIDECAR_2,
    "ranges.json": '[{"start": 0, "end": 1, "label": "A"}]',
}



def one_feature_model(kappa_bar_a=None) -> str:
    """The model.json of a B = 10 classifier, with its thresholds, fitted on
    eight rows of one feature ``f``; label A's threshold set to
    ``kappa_bar_a`` when given."""
    data = LabeledDataset(Dataset(["f"], [f"r{i}" for i in range(8)], [[i] for i in range(8)]), ["A"] * 4 + ["B"] * 4)
    forest = fit_classifier(data, 10, 0)
    thresholds = oob_thresholds(forest, data)
    if kappa_bar_a is not None:
        thresholds.kappa_bar["A"] = kappa_bar_a
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(forest, thresholds, path)
        return path.read_text()


@pytest.mark.parametrize(
    "files, argv, where, message",
    [
        ({"proximity.raw": MATRIX_2, "proximity.raw.json": '{"M": 2,'}, ORDER, "proximity.raw.json:1", "invalid JSON"),
        ({"proximity.raw": MATRIX_2, "proximity.raw.json": '{"ids": ["a", "b"]}'}, ORDER, "proximity.raw.json",
         "M: missing key"),
        ({"proximity.raw": MATRIX_2, "proximity.raw.json": '{"M": 2.0, "ids": ["a", "b"]}'}, ORDER, "proximity.raw.json",
         "M: 2.0 is not a non-negative integer"),
        ({"proximity.raw": MATRIX_2, "proximity.raw.json": '{"M": 2, "ids": ["a", 2]}'}, ORDER, "proximity.raw.json",
         "ids: expected a list of M=2 strings"),
        ({"proximity.raw": MATRIX_2[:-1], "proximity.raw.json": SIDECAR_2}, ORDER, "proximity.raw",
         "31 bytes, the sidecar's M=2 makes 32"),
        ({"proximity.raw": np.array([[1.0, 0.5], [0.4, 1.0]]).tobytes(), "proximity.raw.json": SIDECAR_2}, ORDER,
         "proximity.raw", "asymmetric at (0, 1)"),
        ({"proximity.raw": np.ones((1, 1)).tobytes(), "proximity.raw.json": '{"M": 1, "ids": ["a"]}'}, ORDER,
         "proximity.raw", "need at least 2 scenarios to order, got 1"),
        ({"proximity.raw": b"", "proximity.raw.json": '{"M": 0, "ids": []}'}, ORDER, "proximity.raw",
         "need at least 2 scenarios to order, got 0"),
        ({**SCENARIOS_2, "permutation.json": "[0.5, 1.7]"}, LABEL, "permutation.json", "[0]: 0.5 is not an integer"),
        ({**SCENARIOS_2, "permutation.json": "[true, false]"}, LABEL, "permutation.json", "[0]: True is not an integer"),
        ({**SCENARIOS_2, "permutation.json": "[0,"}, LABEL, "permutation.json:1", "invalid JSON"),
        ({**LABEL_2, "permutation.json": "[0, 0]"}, LABEL, "permutation.json", "perm is not a bijection on [0, 2)"),
        ({**LABEL_2, "permutation.json": "[0, 1, 2]"}, LABEL, "permutation.json", "perm is not a bijection on [0, 2)"),
        ({**LABEL_2, "ranges.json": RANGES % (0, 5)}, LABEL, "ranges.json", "[1]: range [0, 5] outside [0, 2)"),
        ({**LABEL_2, "ranges.json": RANGES % (0, 0)}, LABEL, "ranges.json",
         "[1]: range [0, 0] overlaps [0]: range [0, 1]"),
        ({**LABEL_2, "proximity.raw": np.ones((3, 3)).tobytes(), "proximity.raw.json": SIDECAR_3}, LABEL,
         "proximity.raw", "M=3, but scenarios.csv holds 2 scenarios"),
        ({**LABEL_2, "proximity.raw.json": '{"M": 2, "ids": ["a", "c"]}'}, LABEL, "proximity.raw.json",
         "ids[1] is 'c', but scenario 1 of scenarios.csv is 'b'"),
        ({"labeled.csv": "id,f,label\na,1,A\nb,x,B\n"}, ["--out", ".", "train"], "labeled.csv:3",
         "non-numeric cell 'x' in column 'f'"),
        ({"labeled.csv": "id,f,label\na,inf,A\n"}, ["--out", ".", "train"], "labeled.csv:2",
         "non-finite cell 'inf' in column 'f'"),
        ({}, ["--out", "out", "cluster", "--input", "."], ".", "Is a directory"),
        ({"scenarios.csv": b"id,f\na,1\nb,\xff\n"}, ["--out", ".", "cluster"], "scenarios.csv",
         "not UTF-8 text: byte 0xff"),
        ({**LABEL_2, "ranges.json": b'[{"label": "\xff"}]'}, LABEL, "ranges.json", "not UTF-8 text: byte 0xff"),
        ({**LABEL_2, "ranges.json": '[{"start": 0, "end": 1, "label": "a,b"}]'}, LABEL, "ranges.json",
         "[0].label: 'a,b' holds ','"),
        ({"scenarios.csv": "id,f\na," + "x" * 200_000 + "\n"}, ["--out", ".", "cluster"], "scenarios.csv:2",
         "non-numeric cell '" + "x" * 40 + "…' (200000 characters) in column 'f'"),
        ({"scenarios.csv": 'id,f\na,1\nb,"2"\n'}, ["--out", ".", "cluster"], "scenarios.csv:3",
         "quoted cell: cells are read unquoted"),
        ({"scenarios.csv": "id\na\nb\n"}, ["--out", ".", "cluster"], "scenarios.csv", "no feature columns"),
        ({"labeled.csv": "id,label\na,A\nb,B\n"}, ["--out", ".", "train"], "labeled.csv", "no feature columns"),
        ({"model.json": one_feature_model(), "scenarios.csv": "id\na\n"}, ["--out", ".", "classify"], "scenarios.csv",
         "no feature columns"),
        *[({"model.json": one_feature_model(kappa_bar_a=value), "scenarios.csv": "id,f\na,1\n"}, ["--out", ".", "classify"],
           "model.json", "kappa_bar: expected a number for every label, in [0, 1]")
          for value in (math.nan, math.inf, 1e300, -1)],
        ({"scenarios.csv": "id,f\na,1\n"}, ["--out", ".", "cluster"], "scenarios.csv",
         "need at least 2 scenarios to cluster, got 1"),
        ({"labeled.csv": "id,f,label\na,1,A\nb,2,A\n"}, ["--out", ".", "train"], "labeled.csv", "need at least 2 classes"),
        ({"model.json": json.dumps({**json.loads(one_feature_model()), "kappa_bar": None}), "scenarios.csv": "id,f\na,1\n"},
         ["--out", ".", "classify"], "model.json", "kappa_bar: expected a number for every label, in [0, 1]"),
    ],
    ids=[
        "raw-sidecar-invalid-json", "raw-sidecar-missing-M", "raw-sidecar-M-not-int", "raw-sidecar-ids-not-strings",
        "raw-data-short", "raw-asymmetric", "order-one-row", "order-empty", "permutation-floats", "permutation-bools",
        "permutation-invalid-json", "permutation-repeats", "permutation-too-long", "range-outside",
        "range-overlap", "matrix-size", "matrix-other-scenarios", "labeled-non-numeric", "labeled-non-finite",
        "input-is-a-directory", "scenarios-not-utf8", "ranges-not-utf8",
        "label-holds-comma", "scenarios-oversized-cell", "scenarios-quoted-cell", "cluster-no-feature-column",
        "train-no-feature-column", "classify-no-feature-column",
        "kappa-bar-nan", "kappa-bar-infinity", "kappa-bar-1e300", "kappa-bar-minus-1",
        "cluster-one-row", "train-one-class", "classify-no-thresholds",
    ],
)
def test_reader_rejects_malformed_input(tmp_path, monkeypatch, capsys, files, argv, where, message):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    err = assert_exits_2_located(argv, where, message, capsys)
    assert len(err) < 300  # an oversized cell is echoed cut, with its length


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"road": {"n_vpl": "x"}}, 'road.n_vpl: expected an integer, got "x"'),
        ({"sim": {"runs": [2]}}, "sim.runs: expected an integer, got [2]"),
        ({"sim": {"duration": True}}, "sim.duration: expected a number, got true"),
    ],
    ids=["string-for-int", "list-for-int", "bool-for-float"],
)
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, overrides)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: {message}\n"


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("sim", "runs", -1, "sim.runs: -1 is not an integer >= 1"),
        ("xmurf", "b_trees", 0, "xmurf.b_trees: 0 is not an integer >= 1"),
        ("classify", "b_trees", 0, "classify.b_trees: 0 is not an integer >= 1"),
        ("ordering", "linkage", "ward", 'ordering.linkage: "ward" is not one of average, single, complete'),
        ("road", "lane_width", math.inf, "road.lane_width: expected a finite number, got Infinity"),
        ("sim", "duration", math.nan, "sim.duration: expected a finite number, got NaN"),
        ("road", "speed_limit", math.nan, "road.speed_limit: expected a finite number, got NaN"),
        ("sim", "target_resample_mean", math.nan, "sim.target_resample_mean: expected a finite number, got NaN"),
        ("classify", "ratio", -math.inf, "classify.ratio: expected a finite number, got -Infinity"),
        ("classify", "ratio", -1, "classify.ratio: -1 is not a number >= 0"),
        ("sim", "seed", -3, "sim.seed: -3 is not an integer >= 0"),
        ("xmurf", "seed", -1, "xmurf.seed: -1 is not an integer >= 0"),
        ("classify", "seed", -1, "classify.seed: -1 is not an integer >= 0"),
        ("sim", "dt", 0.5, "sim: dt must be in (0, 0.1], got 0.5"),
        ("sim", "duration", 0, "sim: duration must be positive"),
        ("sim", "target_resample_mean", -2.0, "sim: target_resample_mean must be positive"),
        ("road", "n_l", 4, "road: lane count must be 2 or 3, got 4"),
        ("road", "n_vpl", 1, "road: need n_vpl >= 2, got 1"),
        ("road", "d_il_max", 0, "road: d_il_max must be positive"),
    ],
    ids=[
        "sim-runs-negative", "xmurf-b-trees-zero", "classify-b-trees-zero", "unknown-linkage", "lane-width-infinity",
        "duration-nan", "speed-limit-nan", "resample-mean-nan", "ratio-minus-infinity", "ratio-negative",
        "sim-seed-negative", "xmurf-seed-negative", "classify-seed-negative", "dt-too-large", "duration-zero",
        "resample-mean-negative", "lane-count-four", "n-vpl-one", "d-il-max-zero",
    ],
)
def test_config_value_out_of_range_exits_2_before_any_file_is_touched(tmp_path, capsys, section, key, value, message):
    # trace_1 lies beyond the one run configured: a valid config would delete it
    overrides = {"sim": {"duration": 1.0, "runs": 1}}
    overrides.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "o"
    out.mkdir()
    kept = ["trace_0.raw", "trace_1.meta.json", "trace_1.raw"]
    for name in kept:
        (out / name).write_bytes(b"kept")
    assert cli.main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert sorted(p.name for p in out.iterdir()) == kept
    assert all((out / name).read_bytes() == b"kept" for name in kept)


def test_seed_flag_below_zero_exits_2_before_any_file_is_touched(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "trace_1.raw").write_bytes(b"kept")
    assert cli.main(["--seed", "-5", "--out", str(out), "simulate"]) == 2
    assert capsys.readouterr().err == "error: --seed: -5 is not an integer >= 0\n"
    assert [p.name for p in out.iterdir()] == ["trace_1.raw"]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "stage, name, text",
    [
        ("cluster", "scenarios.csv", "id,f\na,1\nb,2\nc,3\n"),
        ("train", "labeled.csv", "id,f,label\na,1,A\nb,2,B\nc,3,A\n"),
    ],
)
def test_b_trees_flag_below_one_exits_2(tmp_path, capsys, stage, name, text, value):
    # the flag is used whenever it is given: 0 is not replaced by the config's count
    (tmp_path / name).write_text(text)
    assert cli.main(["--out", str(tmp_path), stage, "--b-trees", str(value)]) == 2
    assert capsys.readouterr().err == f"error: --b-trees: {value} is not an integer >= 1\n"
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_config_accepts_int_for_float_and_int_or_null_seed(tmp_path):
    cfg = write_config(tmp_path, {"sim": {"duration": 5, "runs": 1, "seed": 3}, "xmurf": {"seed": None}})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 0


# ------------------------------------------------------- artifact pins

# sha256 of the artifacts of all seven stages on a 2-run, 60 s config at
# seed 4242, labelled in two halves: any byte change to the traces, the
# features, the forest, the seriation, the labels or the model shows here
PINNED_SHA256 = {
    "trace_0.raw": "90d14ff6322a3841a8be64b64425f844867d508a9d951e54c71c4dfc7d7e56aa",
    "trace_0.meta.json": "60fbdd6110bfe1a8dabdc259751dd475d85631a33a25989215282335d9fcbbf4",
    "trace_1.raw": "9a38ec56de2f4138d61238d6f2683bc99eab9336426191a6effbb348df3f04c8",
    "trace_1.meta.json": "489cec7a02dd8948fa14499fb25e9395da7a1dc935cd5b73495def7176218f3b",
    "scenarios.csv": "4776cdd167ab549cc8e8fb1c70e552ae103e491b324da198877d824ac1f6ca92",
    "forest.json": "5c6321b1380d7ad62b511f096ab4af6812cea81416fd3eacf86331256c7692db",
    "proximity.raw": "5a19e190124948123dd364df09eb74f7e39f9f4fb684864d3a12cd8a212b6a89",
    "dendrogram.json": "38c4bc9f0e9bbb9c636ac5efea15d59b375d770d3e52620b71fb200d322f2e79",
    "permutation.json": "a4404177320cbf069a2fd9f9a8251305f9549de2721d25eed22e9991bea203e0",
    "labeled.csv": "fe3508d9c2f51f315bf43c412413f062253c8db5ce38915179bf854467d02511",
    "model.json": "30d65a362d57996166f129c46be8a2dbf7c5dea769026a9d1e8a52cecaaff6a9",
    "predictions.csv": "6891af5fe62d98cb9a322577de1a07f90b15ead264beb6309a815f989cbd7437",
}


def test_simulate_extract_artifacts_pinned(tmp_path):
    cfg = write_config(tmp_path, {"sim": {"duration": 60.0, "runs": 2}})
    out = tmp_path / "out"
    base = ["--config", str(cfg), "--seed", "4242", "--out", str(out)]
    for stage in ("simulate", "extract", "cluster", "order"):
        assert cli.main(base + [stage]) == 0
    m = len(json.loads((out / "permutation.json").read_text()))
    ranges = tmp_path / "ranges.json"
    halves = [{"start": 0, "end": m // 2, "label": "A"}, {"start": m // 2 + 1, "end": m - 1, "label": "B"}]
    ranges.write_text(json.dumps(halves))
    for stage in (["label", "--ranges", str(ranges)], ["train"], ["classify"]):
        assert cli.main(base + stage) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert got == PINNED_SHA256
