"""Output checks of one workload run, read straight from the artifact files.

A stage invocation fails when it exits nonzero, when an invariant of its
outputs breaks, or when its outputs hash differently from the first run of
the same benchmark invocation (the ROADMAP determinism invariant).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

UNASSIGNED = "UNASSIGNED"


def digest(directory, names) -> str:
    """sha256 over the named files of a directory, in name order."""
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        h.update(Path(directory, name).read_bytes())
    return h.hexdigest()


def check_proximity(out: Path) -> list:
    """proximity.raw: exactly symmetric, unit diagonal, entries in (0, 1]."""
    m = int(json.loads((out / "proximity.raw.json").read_text())["M"])
    values = np.fromfile(out / "proximity.raw", dtype="<f8")
    if values.size != m * m:
        return [f"proximity.raw holds {values.size} values, expected {m}x{m}"]
    p = values.reshape(m, m)
    problems = []
    if not np.array_equal(p, p.T):
        problems.append("proximity.raw is not exactly symmetric")
    if not np.all(np.diagonal(p) == 1.0):
        problems.append("proximity.raw diagonal is not 1")
    if not np.all((p > 0.0) & (p <= 1.0)):
        problems.append("proximity.raw has entries outside (0, 1]")
    return problems


def check_permutation(out: Path) -> list:
    """permutation.json: a bijection on [0, M)."""
    perm = json.loads((out / "permutation.json").read_text())
    m = int(json.loads((out / "proximity.raw.json").read_text())["M"])
    if sorted(perm) != list(range(m)):
        return [f"permutation.json is not a bijection on [0, {m})"]
    return []


def check_predictions(out: Path, input_ids: list, labels: set) -> list:
    """predictions.csv: one row per input id, each with a model label or UNASSIGNED."""
    with open(out / "predictions.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    problems = []
    ids = [r[0] for r in rows if r]
    if sorted(ids) != sorted(input_ids):
        problems.append(f"predictions.csv has {len(ids)} ids, not the {len(input_ids)} input ids")
    bad = sorted({r[1] for r in rows if r and r[1] not in labels and r[1] != UNASSIGNED})
    if bad:
        problems.append(f"predictions.csv has unknown labels {bad[:3]}")
    return problems


def stage_problems(stage: str, out: Path, input_ids: list, labels: set) -> list:
    try:
        if stage == "cluster":
            return check_proximity(out)
        if stage == "order":
            return check_permutation(out)
        if stage == "classify":
            return check_predictions(out, input_ids, labels)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{stage} artifacts unreadable: {exc!r}"]
    return []


def read_ids(csv_path) -> list:
    with open(csv_path, newline="") as fh:
        return [r[0] for r in list(csv.reader(fh))[1:] if r]


def read_labels(csv_path) -> set:
    with open(csv_path, newline="") as fh:
        return {r[-1] for r in list(csv.reader(fh))[1:] if r}
