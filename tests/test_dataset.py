"""File format and validation contracts of the tabular data model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from scenforest.dataset import (
    Dataset,
    LabeledDataset,
    ParseError,
    ProximityMatrix,
    _read_csv,
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


@pytest.mark.parametrize("cells", [[(250, 280)], [(280, 250)], [(260, 260)], [(299, 10), (250, 290)]])
def test_asymmetry_past_the_first_row_block_names_the_first_cell(cells):
    # M = 300 checks 218 rows a block; the message names the first (i, j) in
    # row-major order that differs from its mirror, as a whole-matrix compare
    # finds it
    v = np.full((300, 300), 0.5)
    np.fill_diagonal(v, 1.0)
    for i, j in cells:
        v[i, j] = 0.25 if i != j else np.nan
    i, j = np.argwhere(v != v.T)[0]
    with pytest.raises(ValueError, match=rf"^asymmetric at \({i}, {j}\): {v[i, j]} != {v[j, i]}$"):
        ProximityMatrix(v, [f"s{k}" for k in range(300)])


EDGE_VALUES = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, float(np.nextafter(1.0, 0.0)), 0.1]


def per_cell(values):
    return ",".join(format(v, ".17g") for v in values)


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
    p2 = load_matrix(path)
    assert p2.ids == p.ids
    assert p2.values.tobytes() == p.values.tobytes()  # identical bits
    with pytest.raises(ValueError, match="unknown matrix format 'csv'"):
        load_matrix(path, fmt="csv")


# ------------------------------------------------- the reader vs its oracle

NUMBERS = st.floats(allow_nan=False, allow_infinity=False)
GOOD_CELLS = st.one_of(
    NUMBERS.map(lambda v: format(v, ".17g")),
    NUMBERS.map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "٣", "١٢", " 5 ", "\t7\x0b", "1\u3000", "1e-400", "5e-324", "+.5", "1.", "-0"]),
)
BAD_CELLS = st.sampled_from(
    ["", "x", "1__0", "1\x00", "inf", "-Infinity", "nan", "1e999", "-1e999", "0x1", "1d5", "1e"]
)
# np.loadtxt strips \x1c-\x1f around a number, and float() refuses them
LOADTXT_ONLY_CELLS = st.sampled_from(["1\x1c", "\x1f2", " 3\x1d", "\x1e4"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def feature_csv(draw, labeled):
    """The text of a feature CSV with one to three feature columns and no
    ``"``: rows of numbers as the writers write them and as float() also
    reads them, between blank lines; and in half of the files, faults too:
    a bad header, whitespace-only and ragged lines, repeated ids and cells
    that float() refuses or reads as not finite."""
    faults = draw(st.booleans())
    q = draw(st.integers(1, 3))
    header = ["id"] + [f"f{k}" for k in range(q)] + (["label"] if labeled else [])
    if faults:
        header = draw(st.sampled_from([header] * 6 + [["ID"] + header[1:], header[:1] + header[1:][::-1], []]))
    cells = st.one_of(GOOD_CELLS, BAD_CELLS, LOADTXT_ONLY_CELLS) if faults else GOOD_CELLS
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 5 + ["blank"] + (["space", "short", "long"] if faults else [])))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \x0b"])))
        else:
            rid = draw(st.sampled_from(["a", "b", "a b", ""])) if faults else f"r{i}"
            row = [rid] + draw(st.lists(cells, min_size=q, max_size=q))
            row += [draw(st.sampled_from(["A", "B", "", " c\x1c"]))] if labeled else []
            row = {"short": row[:-1], "long": row + ["1"]}.get(kind, row)
            lines.append(",".join(row))
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def read_outcome(read, path, labeled):
    """What a reader makes of a file: its names, ids, value shape and bytes
    and labels, or its ParseError message."""
    try:
        names, ids, values, labels = read(path, labeled)
    except ParseError as exc:
        return str(exc)
    return names, ids, values.shape, values.tobytes(), labels


@settings(max_examples=300, deadline=None)
@given(data=st.data(), labeled=st.booleans())
def test_reader_matches_csv_oracle(tmp_path_factory, data, labeled):
    text = data.draw(feature_csv(labeled))
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    assert read_outcome(_read_csv, path, labeled) == read_outcome(csv_oracle._read_csv, path, labeled)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), labeled=st.booleans())
def test_reader_rejects_a_quote_anywhere(tmp_path_factory, data, labeled):
    text = data.draw(feature_csv(labeled))
    at = data.draw(st.integers(0, len(text)))
    text = text[:at] + '"' + text[at:]
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    lineno = text.replace("\r\n", "\n").replace("\r", "\n").split('"')[0].count("\n") + 1
    with pytest.raises(ParseError) as exc:
        _read_csv(path, labeled)
    assert str(exc.value) == f"{path}:{lineno}: quoted cell: cells are read unquoted"


def test_reader_counts_blank_lines_under_every_line_end(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"id,f\r\n\r\na,1\r\rb,2\n\nc,zzz\n")
    with pytest.raises(ParseError, match=r"d\.csv:7: non-numeric cell 'zzz' in column 'f'"):
        load_dataset(p)
    p.write_bytes(b"id,f\r\n\r\na,1\r\rb,2\n\n")
    d = load_dataset(p)
    assert d.ids == ["a", "b"] and d.values.tolist() == [[1.0], [2.0]]


def test_reader_takes_what_float_takes_and_loadtxt_refuses(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id,f,g\na,1_0,٣\nb, 5 ,1e-400\n")
    assert load_dataset(p).values.tolist() == [[10.0, 3.0], [5.0, 0.0]]
    p.write_text("id,f\na,1\x1c\n")  # np.loadtxt strips \x1c around a number; float() does not
    with pytest.raises(ParseError, match=r"d\.csv:2: non-numeric cell '1\\x1c' in column 'f'"):
        load_dataset(p)


def test_reader_rejects_no_feature_columns_and_quotes(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("id\na\n")
    with pytest.raises(ParseError, match=r"d\.csv: no feature columns$"):
        load_dataset(p)
    p.write_text("id,label\na,A\n")
    with pytest.raises(ParseError, match=r"d\.csv: no feature columns$"):
        load_labeled_dataset(p)
    p.write_text('id,f\n"a,1",2\n')
    with pytest.raises(ParseError, match=r"d\.csv:2: quoted cell"):
        load_dataset(p)


def test_header_only_file_reads_as_no_rows_without_warning(tmp_path, recwarn):
    p = tmp_path / "d.csv"
    p.write_text("id,f,g\n\n")
    d = load_dataset(p)
    assert d.values.shape == (0, 2) and d.ids == []
    assert not recwarn.list
