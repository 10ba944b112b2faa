"""Subcommand contracts: files in, files out, exit codes, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from scenforest import cli
from scenforest.classify import UNASSIGNED, load_model, predict_detail
from scenforest.dataset import load_dataset, load_matrix
from scenforest.scenarios import FEATURE_NAMES

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
    assert (out / "trace_0.jsonl").exists()
    assert (out / "trace_1.jsonl").exists()
    assert (out / "trace_0.meta.json").exists()


def test_simulate_rerun_byte_identical(pipeline, tmp_path):
    root, out, _, _ = pipeline
    cfg = write_config(tmp_path, FAST_SIM)
    out2 = tmp_path / "out2"
    assert cli.main(["--config", str(cfg), "--seed", "11", "--out", str(out2), "simulate"]) == 0
    for k in range(2):
        a = (out / f"trace_{k}.jsonl").read_bytes()
        b = (out2 / f"trace_{k}.jsonl").read_bytes()
        assert a == b


def test_simulate_removes_traces_beyond_runs(tmp_path, capsys):
    out = tmp_path / "o"
    for runs in (3, 2):
        cfg = write_config(tmp_path, {"sim": {"duration": 120.0, "runs": runs}})
        assert cli.main(["--config", str(cfg), "--seed", "11", "--out", str(out), "simulate"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "trace_0.jsonl", "trace_0.meta.json", "trace_1.jsonl", "trace_1.meta.json"
    ]
    capsys.readouterr()
    assert cli.main(["--out", str(out), "extract"]) == 0
    assert "from 2 trace(s)" in capsys.readouterr().out


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
    p = load_matrix(out / "proximity.raw", fmt="raw")
    assert p.size >= 2
    forest = json.loads((out / "forest.json").read_text())
    assert forest["B"] == 20  # config b_trees respected


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
    p1 = load_matrix(out / "proximity.raw", fmt="raw")
    p2 = load_matrix(out2 / "proximity.raw", fmt="raw")
    assert not np.array_equal(p1.values, p2.values)


def test_order_outputs(pipeline):
    _, out, _, _ = pipeline
    perm = json.loads((out / "permutation.json").read_text())
    m = load_matrix(out / "proximity.raw", fmt="raw").size
    assert sorted(perm) == list(range(m))
    ppm = (out / "heatmap.ppm").read_bytes()
    assert ppm.startswith(f"P6\n{m} {m}\n255\n".encode())
    assert (out / "dendrogram.json").exists()


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


def test_classify_matches_predict_detail_row_by_row(pipeline, tmp_path):
    _, out, base, _ = pipeline
    dest = tmp_path / "pred.csv"
    assert cli.main(base + ["classify", "--ratio", "0.75", "--output", str(dest)]) == 0
    forest, th = load_model(out / "model.json")
    ds = load_dataset(out / "scenarios.csv")
    expected = ["id,label,vote_fraction,threshold_used"]
    for rid, row in zip(ds.ids, ds.values):
        label, fraction, threshold = predict_detail(forest, th, row, 0.75)
        expected.append(f"{rid},{label or UNASSIGNED},{fraction:.17g},{threshold:.17g}")
    assert dest.read_text().splitlines() == expected


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


def test_render_standalone(pipeline, tmp_path):
    _, out, _, _ = pipeline
    dest = tmp_path / "m.ppm"
    code = cli.main(["render", "--matrix", str(out / "proximity.raw"), "--format", "raw",
                     "--output", str(dest)])
    assert code == 0
    assert dest.read_bytes().startswith(b"P6\n")


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"sim": {"wheels": 3}})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 2


def test_stage_seed_stability():
    a = cli.stage_seed(42, "sim", 0)
    assert a == cli.stage_seed(42, "sim", 0)
    assert a != cli.stage_seed(42, "sim", 1)
    assert a != cli.stage_seed(42, "xmurf")
    assert cli.stage_seed(42, "xmurf") != cli.stage_seed(43, "xmurf")
