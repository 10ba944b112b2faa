"""The feature CSV reader that production replaces with one split pass and
one np.loadtxt call, kept as it was: csv.reader over the file, then one
float() per cell. Production must return the same names, ids, value bits
and labels as this one, or raise a ParseError with the same message, on
every file that holds no ``"``, at least one feature column and no cell over
csv's field limit of 131,072 characters.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from scenforest.dataset import LABEL_COLUMN, ParseError, _utf8


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
