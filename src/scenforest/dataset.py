"""Tabular data model and file formats shared by the whole pipeline.

CSV is the interchange format for feature data (RFC-4180 subset: comma
delimiter, ``.`` decimal, LF line endings, mandatory ``id`` first column).
Floats written to CSV use 17 significant digits, which round-trips
IEEE-754 doubles exactly. Proximity matrices are written in a raw binary
format (row-major little-endian float64 plus a JSON sidecar), which
round-trips bit-exactly; a matrix CSV (an id header row, then M rows of M
values) can still be read, for rendering.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ParseError",
    "Dataset",
    "LabeledDataset",
    "ProximityMatrix",
    "load_dataset",
    "save_dataset",
    "load_labeled_dataset",
    "save_labeled_dataset",
    "save_matrix",
    "load_matrix",
]

LABEL_COLUMN = "label"


class ParseError(ValueError):
    """An input file does not conform to the expected format."""


def require_keys(obj, keys, path, where: str) -> None:
    """Raise ParseError unless ``obj`` is a JSON object holding every key.

    ``where`` is the key path of ``obj`` inside the file, ending in ``.``
    (empty at the top level), so messages read ``path: trees[0].bag: ...``.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: {where.rstrip('.') or 'top level'}: expected an object")
    for key in keys:
        if key not in obj:
            raise ParseError(f"{path}: {where}{key}: missing key")


@contextmanager
def _utf8(path):
    """Turn a UnicodeDecodeError raised while reading ``path`` as text into
    a ParseError naming the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})") from None


def read_json(path):
    """The parsed JSON of a file; ParseError names ``path:line`` of invalid
    JSON, or the file that is not UTF-8 text."""
    try:
        with _utf8(path):
            return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None


def _row_format(n: int, tail: str = "") -> str:
    """printf format of one CSV line: an id, n floats, then ``tail``. Each
    float prints as format(v, ".17g") does. Lines are written one row at a
    time: a whole-table tolist() would hold every value as a Python float
    at once."""
    return "%s," + ",".join(["%.17g"] * n) + tail + "\n"


@dataclass
class Dataset:
    """M rows of Q real-valued features with stable string ids."""

    feature_names: list[str]
    ids: list[str]
    values: np.ndarray  # (M, Q) float64

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        m, q = self.values.shape
        if len(self.feature_names) != q:
            raise ValueError(f"{len(self.feature_names)} feature names for {q} columns")
        if len(self.ids) != m:
            raise ValueError(f"{len(self.ids)} ids for {m} rows")
        if len(set(self.ids)) != m:
            seen = set()
            dup = next(i for i in self.ids if i in seen or seen.add(i))
            raise ValueError(f"duplicate id {dup!r}")
        if self.values.size and not np.all(np.isfinite(self.values)):
            i, j = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(f"non-finite value at row {i}, column {self.feature_names[j]!r}")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def subset(self, rows: list[int]) -> "Dataset":
        return Dataset(
            feature_names=list(self.feature_names),
            ids=[self.ids[i] for i in rows],
            values=self.values[rows].copy(),
        )


@dataclass
class LabeledDataset:
    """A Dataset whose rows carry class labels (the classification substrate)."""

    base: Dataset
    labels: list[str]

    def __post_init__(self):
        if len(self.labels) != self.base.n_rows:
            raise ValueError(f"{len(self.labels)} labels for {self.base.n_rows} rows")

    @property
    def label_set(self) -> list[str]:
        return sorted(set(self.labels))


@dataclass
class ProximityMatrix:
    """Symmetric M x M similarity matrix, diagonal 1, entries in (0, 1]."""

    values: np.ndarray
    ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        m = len(self.ids)
        if self.values.shape != (m, m):
            raise ValueError(f"matrix shape {self.values.shape} does not match {m} ids")
        bad = np.argwhere(self.values != self.values.T)
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"asymmetric at ({i}, {j}): {self.values[i, j]} != {self.values[j, i]}")
        diag = np.diagonal(self.values)
        if m and not np.all(diag == 1.0):
            i = int(np.argwhere(diag != 1.0)[0][0])
            raise ValueError(f"diagonal not 1 at ({i}, {i}): {diag[i]}")
        off = (self.values <= 0.0) | (self.values > 1.0)
        if np.any(off):
            i, j = np.argwhere(off)[0]
            raise ValueError(f"value out of (0, 1] at ({i}, {j}): {self.values[i, j]}")

    @property
    def size(self) -> int:
        return len(self.ids)


def _read_csv(path, labeled: bool) -> tuple:
    """(feature names, ids, (M, Q) values, labels) of a feature CSV: header
    ``id,<features>``, plus a final ``label`` column when ``labeled``.

    Raises ParseError naming ``path:line`` for the first fault in reading
    order: a ragged row, a duplicate id, or a non-numeric or non-finite
    cell, which is also named with its column; or naming ``path`` for
    bytes that are not UTF-8.
    """
    path = Path(path)
    with _utf8(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: no header")
        if labeled and (len(header) < 2 or header[0] != "id" or header[-1] != LABEL_COLUMN):
            raise ParseError(f"{path}: expected header id,...,{LABEL_COLUMN}")
        if not header or header[0] != "id":
            raise ParseError(f"{path}: first header column must be 'id', got {header[:1]!r}")
        end = len(header) - labeled
        names = header[1:end]
        ids: list[str] = []
        labels: list[str] = []
        rows: list[list[float]] = []
        seen: set[str] = set()
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} cells, got {len(rec)}")
            if rec[0] in seen:
                raise ParseError(f"{path}:{lineno}: duplicate id {rec[0]!r}")
            seen.add(rec[0])
            try:
                row = [float(cell) for cell in rec[1:end]]
                ok = all(map(math.isfinite, row))
            except ValueError:
                ok = False
            if not ok:
                for col, cell in zip(names, rec[1:end]):
                    try:
                        finite = math.isfinite(float(cell))
                    except ValueError:
                        raise ParseError(f"{path}:{lineno}: non-numeric cell {cell!r} in column {col!r}") from None
                    if not finite:
                        raise ParseError(f"{path}:{lineno}: non-finite cell {cell!r} in column {col!r}")
            ids.append(rec[0])
            if labeled:
                labels.append(rec[-1])
            rows.append(row)
    return names, ids, np.array(rows, dtype=np.float64).reshape(len(rows), len(names)), labels


def load_dataset(path) -> Dataset:
    """Read a feature CSV (header row, first column ``id``); see _read_csv
    for the faults reported."""
    names, ids, values, _ = _read_csv(path, labeled=False)
    return Dataset(feature_names=names, ids=ids, values=values)


def save_dataset(d: Dataset, path) -> None:
    """Write a Dataset as CSV; load(save(d)) reproduces d exactly."""
    if d.n_features == 0:
        raise ValueError("empty schema: dataset has no feature columns")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(["id"] + list(d.feature_names)) + "\n")
        line = _row_format(d.n_features)
        for rid, row in zip(d.ids, d.values):
            fh.write(line % (rid, *row.tolist()))


def load_labeled_dataset(path) -> LabeledDataset:
    """Read a labeled CSV: feature columns plus a final ``label`` column."""
    names, ids, values, labels = _read_csv(path, labeled=True)
    return LabeledDataset(Dataset(names, ids, values), labels)


def save_labeled_dataset(d: LabeledDataset, path) -> None:
    if d.base.n_features == 0:
        raise ValueError("empty schema: dataset has no feature columns")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(["id"] + list(d.base.feature_names) + [LABEL_COLUMN]) + "\n")
        line = _row_format(d.base.n_features, tail=",%s")
        for rid, row, label in zip(d.base.ids, d.base.values, d.labels):
            fh.write(line % (rid, *row.tolist(), label))


def save_matrix(p: ProximityMatrix, path) -> None:
    """Write a proximity matrix as row-major little-endian float64 plus a
    ``<path>.json`` sidecar holding {"M": M, "ids": [...]}; it round-trips
    bit-identically through load_matrix."""
    path = Path(path)
    path.write_bytes(p.values.astype("<f8").tobytes(order="C"))
    sidecar = {"M": p.size, "ids": list(p.ids)}
    Path(str(path) + ".json").write_text(json.dumps(sidecar) + "\n")


def _matrix_row(rec: list, ids: list, path, lineno: int) -> list:
    """The floats of one matrix CSV row; ParseError names the line and the
    column of a ragged row or a non-numeric cell."""
    if len(rec) != len(ids):
        raise ParseError(f"{path}:{lineno}: expected {len(ids)} cells, got {len(rec)}")
    try:
        return [float(c) for c in rec]
    except ValueError:
        for col, cell in enumerate(rec):
            try:
                float(cell)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric cell {cell!r} in column {col + 1} ({ids[col]!r})") from None
        raise


def load_matrix(path, fmt: str = "csv") -> ProximityMatrix:
    """Read a matrix: ``raw`` as save_matrix writes it, ``csv`` as a header
    row of the M ids, then M rows of M values. Raises ParseError naming the
    file: for ``raw``, a sidecar that is not {"M": non-negative int, "ids":
    M strings} or a data file of other than 8 * M * M bytes; for ``csv``, a
    ragged row, a non-numeric cell or bytes that are not UTF-8; for both, a
    matrix that is not a valid ProximityMatrix."""
    path = Path(path)
    if fmt == "csv":
        with _utf8(path), open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                ids = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: no header") from None
            rows = [_matrix_row(rec, ids, path, lineno) for lineno, rec in enumerate(reader, start=2) if rec]
        values = np.array(rows, dtype=np.float64).reshape(len(rows), len(ids))
    elif fmt == "raw":
        sidecar_path = Path(str(path) + ".json")
        sidecar = read_json(sidecar_path)
        require_keys(sidecar, ("M", "ids"), sidecar_path, "")
        m, ids = sidecar["M"], sidecar["ids"]
        if type(m) is not int or m < 0:
            raise ParseError(f"{sidecar_path}: M: {m!r} is not a non-negative integer")
        if not (isinstance(ids, list) and len(ids) == m and all(type(i) is str for i in ids)):
            raise ParseError(f"{sidecar_path}: ids: expected a list of M={m} strings")
        size = path.stat().st_size
        if size != 8 * m * m:
            raise ParseError(f"{path}: {size} bytes, the sidecar's M={m} makes {8 * m * m}")
        values = np.fromfile(path, dtype="<f8").reshape(m, m)
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")
    try:
        return ProximityMatrix(values=values, ids=ids)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
