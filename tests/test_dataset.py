"""File format and validation contracts of the tabular data model."""

import numpy as np
import pytest

from scenforest.dataset import (
    Dataset,
    LabeledDataset,
    ParseError,
    ProximityMatrix,
    load_dataset,
    load_labeled_dataset,
    load_matrix,
    save_dataset,
    save_labeled_dataset,
    save_matrix,
)


def test_load_small_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,f1,f2\na,1,2\nb,3.5,-4\nc,0,1e3\n")
    d = load_dataset(p)
    assert d.n_rows == 3 and d.n_features == 2
    assert d.ids == ["a", "b", "c"]
    assert d.feature_names == ["f1", "f2"]
    np.testing.assert_array_equal(d.values, [[1, 2], [3.5, -4], [0, 1000]])


def test_load_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(ParseError, match="no header"):
        load_dataset(p)
    p.write_text("id,f1\na,1\nb,nan\n")
    with pytest.raises(ParseError, match="f1"):
        load_dataset(p)
    p.write_text("id,f1\na,1\nb,zzz\n")
    with pytest.raises(ParseError, match="zzz"):
        load_dataset(p)
    p.write_text("id,f1,f2\na,1\n")
    with pytest.raises(ParseError, match="expected 3 cells"):
        load_dataset(p)
    p.write_text("id,f1\na,1\na,2\n")
    with pytest.raises(ParseError, match="duplicate id"):
        load_dataset(p)


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    d = Dataset(
        feature_names=[f"f{i}" for i in range(5)],
        ids=[f"r{i}" for i in range(20)],
        values=rng.normal(0, 1e3, (20, 5)),
    )
    p = tmp_path / "d.csv"
    save_dataset(d, p)
    d2 = load_dataset(p)
    assert d2.ids == d.ids and d2.feature_names == d.feature_names
    np.testing.assert_array_equal(d2.values, d.values)


def test_save_empty_schema_rejected(tmp_path):
    d = Dataset(feature_names=[], ids=["a"], values=np.zeros((1, 0)))
    with pytest.raises(ValueError, match="empty schema"):
        save_dataset(d, tmp_path / "d.csv")


def test_single_row_dataset(tmp_path):
    d = Dataset(feature_names=["f"], ids=["only"], values=[[7.0]])
    p = tmp_path / "d.csv"
    save_dataset(d, p)
    d2 = load_dataset(p)
    assert d2.n_rows == 1 and d2.values[0, 0] == 7.0


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(feature_names=["f"], ids=["a", "b"], values=[[1.0], [np.nan]])


def test_labeled_round_trip(tmp_path):
    base = Dataset(["f"], ["a", "b"], [[1.0], [2.0]])
    lab = LabeledDataset(base, ["x", "y"])
    p = tmp_path / "l.csv"
    save_labeled_dataset(lab, p)
    lab2 = load_labeled_dataset(p)
    assert lab2.labels == ["x", "y"]
    np.testing.assert_array_equal(lab2.base.values, base.values)


def test_matrix_validation_reports_cell():
    good = np.array([[1.0, 0.4], [0.4, 1.0]])
    ProximityMatrix(good, ["a", "b"])
    bad = good.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValueError, match=r"asymmetric at \(0, 1\)"):
        ProximityMatrix(bad, ["a", "b"])
    bad = good.copy()
    bad[1, 1] = 0.9
    with pytest.raises(ValueError, match=r"diagonal not 1 at \(1, 1\)"):
        ProximityMatrix(bad, ["a", "b"])
    bad = good.copy()
    bad[0, 1] = bad[1, 0] = 0.0
    with pytest.raises(ValueError, match=r"out of \(0, 1\]"):
        ProximityMatrix(bad, ["a", "b"])
    bad = good.copy()
    bad[0, 1] = bad[1, 0] = 1.5
    with pytest.raises(ValueError):
        ProximityMatrix(bad, ["a", "b"])


EDGE_VALUES = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, float(np.nextafter(1.0, 0.0)), 0.1]


def per_cell(values):
    return ",".join(format(v, ".17g") for v in values)


def write_matrix_csv(path, ids, rows):
    """A matrix CSV: the ids as header, then one %.17g line per row."""
    path.write_text("\n".join([",".join(ids)] + [per_cell(row) for row in rows]) + "\n")


def test_matrix_csv_format(tmp_path):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, ["a", "b"], [[1.0, 0.4], [0.4, 1.0]])
    p = load_matrix(path, fmt="csv")
    assert p.ids == ["a", "b"]
    np.testing.assert_array_equal(p.values, [[1.0, 0.4], [0.4, 1.0]])


def test_csv_writers_match_per_cell_format_on_edge_values(tmp_path):
    # the writers never check values: set them past the constructors' checks
    n = len(EDGE_VALUES)
    d = Dataset([f"f{k}" for k in range(n)], ["a", "b%s"], np.zeros((2, n)))
    d.values = np.array([EDGE_VALUES, EDGE_VALUES[::-1]])
    save_dataset(d, tmp_path / "d.csv")
    save_labeled_dataset(LabeledDataset(d, ["x", "y%d"]), tmp_path / "l.csv")
    header = "id," + ",".join(d.feature_names)
    rows = [per_cell(EDGE_VALUES), per_cell(EDGE_VALUES[::-1])]
    assert (tmp_path / "d.csv").read_text() == f"{header}\na,{rows[0]}\nb%s,{rows[1]}\n"
    assert (tmp_path / "l.csv").read_text() == f"{header},label\na,{rows[0]},x\nb%s,{rows[1]},y%d\n"


def test_matrix_csv_round_trip_bit_exact(tmp_path):
    small = [5e-324, float(np.nextafter(1.0, 0.0)), 0.1, float(np.nextafter(0.1, 1.0))]
    v = np.ones((5, 5))
    iu = np.triu_indices(5, 1)
    v[iu] = np.resize(small, len(iu[0]))
    v.T[iu] = v[iu]
    write_matrix_csv(tmp_path / "m.csv", [f"s{i}" for i in range(5)], v)
    assert load_matrix(tmp_path / "m.csv", fmt="csv").values.tobytes() == v.tobytes()


def test_matrix_raw_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = 7
    v = rng.uniform(0.1, 1.0, (m, m))
    v = (v + v.T) / 2
    np.fill_diagonal(v, 1.0)
    p = ProximityMatrix(v, [f"s{i}" for i in range(m)])
    path = tmp_path / "m.raw"
    save_matrix(p, path)
    assert path.stat().st_size == 8 * m * m
    p2 = load_matrix(path, fmt="raw")
    assert p2.ids == p.ids
    assert p2.values.tobytes() == p.values.tobytes()  # identical bits
