"""Tabular data model and file formats shared by the whole pipeline.

CSV is the interchange format for feature data: a comma delimiter, a
mandatory ``id`` first column, and 17 significant digits per float, which
round-trips IEEE-754 doubles exactly. The writers write LF line ends. The
readers accept this subset of RFC 4180: unquoted cells (a ``"`` anywhere is
an error); LF, CRLF or CR line ends; blank lines skipped, but counted in
the line numbers of messages; numbers as Python's float() reads them.

Proximity matrices are written and read in a raw binary format only
(row-major little-endian float64 plus a JSON sidecar), which round-trips
bit-exactly.
"""

from __future__ import annotations

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
PROXIMITY_BLOCK = 1 << 16  # entries per row block of a pass over an M x M matrix


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
        # a row block at a time against its column block, from the block's
        # first row on: the first row-major (i, j) of an asymmetric pair lies
        # there, and no M x M temporary is made
        step = max(1, PROXIMITY_BLOCK // max(m, 1))
        for r0 in range(0, m, step):
            bad = np.argwhere(self.values[r0 : r0 + step, r0:] != self.values[r0:, r0 : r0 + step].T)
            if bad.size:
                i, j = bad[0] + r0
                raise ValueError(f"asymmetric at ({i}, {j}): {self.values[i, j]} != {self.values[j, i]}")
        diag = np.diagonal(self.values)
        if m and not np.all(diag == 1.0):
            i = int(np.argwhere(diag != 1.0)[0][0])
            raise ValueError(f"diagonal not 1 at ({i}, {i}): {diag[i]}")
        if m and not (self.values.min() > 0.0 and self.values.max() <= 1.0):  # no M x M temporary
            i, j = np.argwhere((self.values <= 0.0) | (self.values > 1.0))[0]
            raise ValueError(f"value out of (0, 1] at ({i}, {j}): {self.values[i, j]}")

    @property
    def size(self) -> int:
        return len(self.ids)


# Below 128, float() strips only space, tab, LF, VT, FF and CR around a
# number; np.loadtxt strips these four as well (str.isspace() holds for them)
_LOADTXT_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def _lines(path) -> tuple[list[str], bool]:
    """The lines of a CSV file without their line ends, split at LF, CRLF or
    a lone CR as csv.reader's file iteration splits them, and whether
    np.loadtxt may convert its numbers (see _numbers).

    Raises ParseError naming ``path`` for an empty file or bytes that are
    not UTF-8, or ``path:line`` for the first line that holds a ``"``:
    cells are read unquoted, and the writers write ids and labels raw, so a
    quoted cell cannot round-trip.
    """
    with _utf8(path), open(path) as fh:  # newline=None turns CRLF and CR into LF
        text = fh.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: no header")
    if '"' in text:
        lineno = next(k for k, line in enumerate(lines, start=1) if '"' in line)
        raise ParseError(f"{path}:{lineno}: quoted cell: cells are read unquoted")
    return lines, not any(c in text for c in _LOADTXT_ONLY_SPACES)


def _cells(line: str) -> list[str]:
    """The comma-separated cells of a line; a blank line has none."""
    return line.split(",") if line else []


def _body(path, lines: list[str], width: int) -> tuple:
    """(rows, line numbers, ids, fault): the non-blank lines after the
    header, up to the first of other than ``width`` (>= 2) cells or whose
    first cell repeats an earlier one; the first cells of these rows; and
    the ParseError naming the line that ends them, or None."""
    rows, linenos, seen = [], [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        n = line.count(",") + 1
        if n != width:
            return rows, linenos, list(seen), ParseError(f"{path}:{lineno}: expected {width} cells, got {n}")
        rid = line[: line.index(",")]
        if rid in seen:
            return rows, linenos, list(seen), ParseError(f"{path}:{lineno}: duplicate id {rid!r}")
        seen[rid] = None
        rows.append(line)
        linenos.append(lineno)
    return rows, linenos, list(seen), None


def _numbers(path, rows, linenos, names: list[str], fast: bool) -> np.ndarray:
    """The (len(rows), len(names)) float64 values of the feature cells, the
    second to the ``len(names) + 1``-th, of the comma-separated ``rows``.

    When ``fast``, one np.loadtxt call converts the block. It reads a number
    bit for bit as float() does, but refuses some that float() takes, such
    as ``1_0`` and non-ASCII digits (and ``fast`` is False for a file that
    holds one of _LOADTXT_ONLY_SPACES, which it would strip). So when it
    refuses a cell or yields a non-finite value, one float() per cell
    decides alone: it returns the values, or raises ParseError naming
    ``path:line``, the cell and its column (from ``names``) for the first
    cell that float() refuses or reads as not finite.
    """
    cols = range(1, len(names) + 1)
    if fast and rows:
        try:
            values = np.loadtxt(rows, delimiter=",", usecols=cols, comments=None, quotechar=None, ndmin=2)
            if np.isfinite(values).all():
                return values
        except ValueError:
            pass
    values = np.empty((len(rows), len(cols)))
    for i, (lineno, line) in enumerate(zip(linenos, rows)):
        cells = line.split(",")[cols.start : cols.stop]
        try:
            values[i] = row = [float(cell) for cell in cells]
            ok = all(map(math.isfinite, row))
        except ValueError:
            ok = False
        if not ok:
            for name, cell in zip(names, cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric cell {_echo(cell)} in column {name!r}") from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}:{lineno}: non-finite cell {_echo(cell)} in column {name!r}")
    return values


def _echo(cell: str) -> str:
    """A cell's repr, cut to 40 characters and then its length when longer."""
    return repr(cell) if len(cell) <= 40 else f"{cell[:40] + '…'!r} ({len(cell)} characters)"


def _read_csv(path, labeled: bool) -> tuple:
    """(feature names, ids, (M, Q) values, labels) of a feature CSV: header
    ``id,<features>``, plus a final ``label`` column when ``labeled``.

    The file is read as the module docstring's subset: unquoted cells; LF,
    CRLF or CR line ends; blank lines skipped but counted; numbers as
    float() reads them. Raises ParseError naming ``path`` for a header
    with no feature column or bytes that are not UTF-8, and otherwise
    naming ``path:line`` for the first fault in reading order: a ``"``
    anywhere in the file (found first), a ragged row, a duplicate id, or a
    non-numeric or non-finite cell, which is also named with its column.
    """
    path = Path(path)
    lines, fast = _lines(path)
    header = _cells(lines[0])
    if labeled and (len(header) < 2 or header[0] != "id" or header[-1] != LABEL_COLUMN):
        raise ParseError(f"{path}: expected header id,...,{LABEL_COLUMN}")
    if not header or header[0] != "id":
        raise ParseError(f"{path}: first header column must be 'id', got {header[:1]!r}")
    end = len(header) - labeled
    names = header[1:end]
    if not names:
        raise ParseError(f"{path}: no feature columns")
    rows, linenos, ids, fault = _body(path, lines, len(header))
    values = _numbers(path, rows, linenos, names, fast)
    if fault:
        raise fault
    labels = [row[row.rindex(",") + 1 :] for row in rows] if labeled else []
    return names, ids, values, labels


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
    bit-identically through load_matrix. The values are written as they
    are held, with no copy on a little-endian machine."""
    path = Path(path)
    np.ascontiguousarray(p.values, dtype="<f8").tofile(path)
    sidecar = {"M": p.size, "ids": list(p.ids)}
    Path(str(path) + ".json").write_text(json.dumps(sidecar) + "\n")


def load_matrix(path, fmt: str = "raw") -> ProximityMatrix:
    """Read a matrix as save_matrix writes it; ``fmt`` names that format,
    ``raw``, the only one. Raises ParseError naming the file: a sidecar
    that is not {"M": non-negative int, "ids": M strings}, a data file of
    other than 8 * M * M bytes, or a matrix that is not a valid
    ProximityMatrix."""
    if fmt != "raw":
        raise ValueError(f"unknown matrix format {fmt!r}")
    path = Path(path)
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
    try:
        return ProximityMatrix(values=values, ids=ids)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
