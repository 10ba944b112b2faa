"""Proximity-matrix seriation: hierarchical clustering, leaf ordering,
reordering, PPM heatmap rendering, and range-file cluster labeling.

Clustering runs on the dissimilarity 1 - P with selectable linkage
(average/UPGMA by default). Each merge joins the closest pair, the lowest
(i, j) among ties, which ``linkage`` finds from cached row minima instead
of a scan of the whole matrix. Merge records use the scipy id convention:
leaves are 0..M-1 and the k-th merge creates cluster id M+k, so the exact
optimal-leaf-ordering refinement can reuse scipy's dynamic program.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import PROXIMITY_BLOCK, Dataset, LabeledDataset, ParseError, ProximityMatrix, read_json, require_keys

__all__ = [
    "Dendrogram",
    "ClusterRange",
    "linkage",
    "leaf_order",
    "optimal_leaf_order",
    "reorder",
    "cut_clusters",
    "render_heatmap",
    "load_cluster_ranges",
    "apply_cluster_ranges",
    "check_permutation",
    "check_ranges",
    "range_report",
    "save_dendrogram",
    "save_permutation",
    "load_permutation",
]

LINKAGE_METHODS = ("average", "single", "complete")


@dataclass
class Dendrogram:
    """Agglomerative merge history: (left id, right id, height, size) per merge."""

    merges: list[tuple]
    n_leaves: int

    def __post_init__(self):
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError(f"{len(self.merges)} merges for {self.n_leaves} leaves")


@dataclass
class ClusterRange:
    """Inclusive [start, end] index range into the seriated order."""

    start: int
    end: int
    label: str


def linkage(p: ProximityMatrix, method: str = "average") -> Dendrogram:
    """Agglomerate on d = 1 - P; ties break to the lowest (i, j) pair.

    Each step merges the globally closest pair of active clusters; the
    merged cluster keeps the lower slot, so recorded left/right children are
    ordered by slot. Average linkage weights by cluster sizes (UPGMA).
    ``p`` is left as it is: this runs ``_agglomerate`` on a new 1 - P.
    """
    return _agglomerate(1.0 - p.values, method)


def _agglomerate(d: np.ndarray, method: str) -> Dendrogram:
    """``linkage`` of the M x M dissimilarity ``d``, which it overwrites as
    its working matrix, so that the merges hold no second M x M array.

    Row k caches the minimum of d[k, k+1:] and the lowest column at it
    (Müllner's generic algorithm, arXiv:1109.2378), so the lowest row at the
    least cached minimum, with its column, is the lowest (i, j) at the
    global minimum. A merge recomputes row i and the rows whose column was i
    or j; the other rows above i take column i if it is lower (an average
    can round below both its inputs) or equal at a lower column. On
    clustered rows at M = 1000 a merge recomputes about 3 rows, each O(M).
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    m = len(d)
    if m < 2:
        raise ValueError("need at least 2 rows to cluster")
    np.fill_diagonal(d, np.inf)  # retired rows and columns are inf too
    sizes = np.ones(m, dtype=np.int64)
    cluster_id = np.arange(m)
    rmin = np.full(m, np.inf)
    nbr = np.full(m, -1)  # -1 for the last row and for retired rows

    def refresh(k):
        row = d[k, k + 1 :]
        c = int(np.argmin(row))
        rmin[k], nbr[k] = row[c], k + 1 + c

    for k in range(m - 1):
        refresh(k)
    merges = []
    for step in range(m - 1):
        i = int(np.argmin(rmin))
        j = int(nbr[i])
        merges.append((int(cluster_id[i]), int(cluster_id[j]), float(d[i, j]), int(sizes[i] + sizes[j])))
        if method == "average":
            new_row = (sizes[i] * d[i] + sizes[j] * d[j]) / (sizes[i] + sizes[j])
        elif method == "single":
            new_row = np.minimum(d[i], d[j])
        else:
            new_row = np.maximum(d[i], d[j])
        new_row[i] = new_row[j] = np.inf
        d[i] = d[:, i] = new_row
        d[j] = d[:, j] = np.inf
        sizes[i] += sizes[j]
        cluster_id[i] = m + step
        rmin[j], nbr[j] = np.inf, -1
        col, low, head = new_row[:i], rmin[:i], nbr[:i]
        stale = (head == i) | (head == j)
        take = ~stale & ((col < low) | ((col == low) & (head > i)))
        low[take], head[take] = col[take], i
        mid = i + 1 + np.flatnonzero(nbr[i + 1 : j] == j)
        for k in [*np.flatnonzero(stale).tolist(), i, *mid.tolist()]:
            refresh(k)
    return Dendrogram(merges=merges, n_leaves=m)


def _children_map(dend: Dendrogram) -> dict:
    return {dend.n_leaves + k: (l, r) for k, (l, r, _, _) in enumerate(dend.merges)}


def leaf_order(dend: Dendrogram) -> np.ndarray:
    """Left-to-right leaf traversal of the dendrogram (a permutation of [0, M))."""
    children = _children_map(dend)
    order = []
    stack = [dend.n_leaves + len(dend.merges) - 1] if dend.merges else [0]
    while stack:
        node = stack.pop()
        if node < dend.n_leaves:
            order.append(node)
        else:
            l, r = children[node]
            stack.append(r)
            stack.append(l)
    return np.array(order, dtype=np.int64)


def _scipy_linkage_matrix(dend: Dendrogram) -> np.ndarray:
    return np.array([[l, r, h, s] for l, r, h, s in dend.merges], dtype=np.float64)


def optimal_leaf_order(dend: Dendrogram, p: ProximityMatrix) -> np.ndarray:
    """Exact optimal leaf ordering: minimizes the summed adjacent
    dissimilarity among orders consistent with the dendrogram. O(M^3): on a
    2-vCPU Xeon it takes 1.8 s at M = 1000 and 20 s at M = 2000, so from
    M ≈ 2000 it outweighs the rest of ``cluster`` and ``order`` together.
    The condensed d = 1 - P is filled a row of the upper triangle at a time,
    so no M x M copy of d is made."""
    from scipy.cluster import hierarchy

    m = p.size
    condensed, at = np.empty(m * (m - 1) // 2), 0
    for i in range(m - 1):
        np.subtract(1.0, p.values[i, i + 1:], out=condensed[at:at + m - 1 - i])
        at += m - 1 - i
    z = hierarchy.optimal_leaf_ordering(_scipy_linkage_matrix(dend), condensed)
    return np.asarray(hierarchy.leaves_list(z), dtype=np.int64)


def cut_clusters(dend: Dendrogram, k: int) -> np.ndarray:
    """Flat cluster labels from undoing the last k-1 merges.

    Labels are 0..k-1 in order of each cluster's smallest leaf index.
    """
    m = dend.n_leaves
    if not 1 <= k <= m:
        raise ValueError(f"cannot cut {m} leaves into {k} clusters")
    parent = np.arange(m + len(dend.merges))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx, (l, r, _, _) in enumerate(dend.merges[: m - k]):
        new = m + idx
        parent[find(l)] = new
        parent[find(r)] = new
    roots = [find(i) for i in range(m)]
    label_of = {}
    labels = np.empty(m, dtype=np.int64)
    for i, root in enumerate(roots):
        if root not in label_of:
            label_of[root] = len(label_of)
        labels[i] = label_of[root]
    return labels


def reorder(p: ProximityMatrix, perm) -> ProximityMatrix:
    """Apply a permutation similarity: out[i, j] = p[perm[i], perm[j]]."""
    perm = np.asarray(perm, dtype=np.int64)
    if not _is_bijection(perm, p.size):
        raise ValueError(f"perm is not a bijection on [0, {p.size})")
    values = p.values[np.ix_(perm, perm)]
    ids = [p.ids[i] for i in perm]
    return ProximityMatrix(values=values, ids=ids)


# blue -> yellow anchors, interpolated to a 256-entry lookup table
_COLOR_ANCHORS = np.array(
    [
        (0.000, 68, 1, 84),
        (0.125, 72, 40, 120),
        (0.250, 62, 74, 137),
        (0.375, 49, 104, 142),
        (0.500, 38, 130, 142),
        (0.625, 31, 158, 137),
        (0.750, 53, 183, 121),
        (0.875, 109, 205, 89),
        (1.000, 253, 231, 37),
    ],
    dtype=np.float64,
)


def _colormap() -> np.ndarray:
    grid = np.linspace(0.0, 1.0, 256)
    lut = np.stack(
        [np.interp(grid, _COLOR_ANCHORS[:, 0], _COLOR_ANCHORS[:, c + 1]) for c in range(3)],
        axis=1,
    )
    return np.round(lut).astype(np.uint8)


def render_heatmap(p: ProximityMatrix, path, perm=None) -> None:
    """Write the matrix, or its seriation ``reorder(p, perm)`` when ``perm``
    is given, as a binary PPM (P6), one pixel per entry.

    [0, 1] maps linearly onto the colormap; 0 hits the first entry and 1 the
    last (dark blue = low similarity, yellow = high). It holds no M x M array: PROXIMITY_BLOCK // M
    rows at a time are gathered through ``perm``, scaled, rounded and clipped, looked up and written.
    Takes a ``perm`` that ``check_permutation`` has passed for ``p.size``.
    """
    lut = _colormap()
    m = p.size
    step = max(1, PROXIMITY_BLOCK // max(m, 1))
    buf = np.empty((min(step, m), m))
    with open(path, "wb") as fh:
        fh.write(f"P6\n{m} {m}\n255\n".encode("ascii"))
        for r0 in range(0, m, step):
            rows = p.values[r0 : r0 + step] if perm is None else p.values[perm[r0 : r0 + step]][:, perm]
            block = np.multiply(rows, 255.0, out=buf[: len(rows)])
            fh.write(lut[np.clip(np.round(block, out=block), 0, 255, out=block).astype(np.uint8)].tobytes())


def load_cluster_ranges(path) -> list[ClusterRange]:
    """Read a range file: a JSON list of {"start", "end", "label"} objects
    with integer positions and a string label that holds no ``,``, ``"``,
    CR or LF, so that labeled.csv reads back as it was written.

    Raises ParseError naming the file and the entry, as in
    ``ranges.json: [0].end: missing key``, or the line of invalid JSON.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: top level: expected a list of ranges")
    ranges = []
    for i, r in enumerate(raw):
        where = f"[{i}]."
        require_keys(r, ("start", "end", "label"), path, where)
        for key in ("start", "end"):
            if type(r[key]) is not int:
                raise ParseError(f"{path}: {where}{key}: {r[key]!r} is not an integer")
        label = r["label"]
        if type(label) is not str:
            raise ParseError(f"{path}: {where}label: {label!r} is not a string")
        bad = next((c for c in label if c in ',"\r\n'), None)
        if bad is not None:
            raise ParseError(f"{path}: {where}label: {label!r} holds {bad!r}, which a labeled CSV cannot hold")
        ranges.append(ClusterRange(r["start"], r["end"], label))
    return ranges


def _is_bijection(perm: np.ndarray, m: int) -> bool:
    return perm.shape == (m,) and np.array_equal(np.sort(perm), np.arange(m))


def check_permutation(perm, m: int) -> np.ndarray:
    """perm as an int64 array; ValueError unless it is a bijection on [0, m)."""
    perm = np.asarray(perm, dtype=np.int64)
    if not _is_bijection(perm, m):
        raise ValueError(f"perm is not a bijection on [0, {m})")
    return perm


def check_ranges(ranges: list[ClusterRange], m: int) -> None:
    """ValueError naming the entry ``[k]`` of the first range outside
    [0, m), or else of the first that overlaps another."""
    for k, r in enumerate(ranges):
        if not (0 <= r.start <= r.end < m):
            raise ValueError(f"[{k}]: range [{r.start}, {r.end}] outside [0, {m})")
    by_start = sorted(range(len(ranges)), key=lambda k: ranges[k].start)
    for j, k in zip(by_start, by_start[1:]):
        a, b = ranges[j], ranges[k]
        if b.start <= a.end:
            raise ValueError(f"[{k}]: range [{b.start}, {b.end}] overlaps [{j}]: range [{a.start}, {a.end}]")


def apply_cluster_ranges(data: Dataset, perm, ranges: list[ClusterRange]) -> LabeledDataset:
    """Materialize labels from index ranges over the seriated order.

    Seriated position i refers to original row perm[i]; rows not covered by
    any range are excluded (the labeled set may be smaller than the input).
    Takes a permutation and ranges that ``check_permutation`` and
    ``check_ranges`` have passed for ``data.n_rows``.
    """
    if not ranges:
        warnings.warn("no cluster ranges given; labeled dataset is empty")
    label_by_row: dict[int, str] = {}
    for r in ranges:
        for pos in range(r.start, r.end + 1):
            label_by_row[int(perm[pos])] = r.label
    rows = sorted(label_by_row)
    return LabeledDataset(data.subset(rows), [label_by_row[i] for i in rows])


def range_report(p: ProximityMatrix, perm, ranges: list[ClusterRange]) -> list[dict]:
    """Mean off-diagonal similarity of each range's block of the seriated
    matrix, gathered from the unpermuted ``p``: seriated position i is row
    perm[i]. A range of R rows is summed PROXIMITY_BLOCK // R rows at a
    time, so no R x R copy is made, and its diagonal, R ones, is taken off
    the sum. Takes a permutation and ranges that ``check_permutation`` and
    ``check_ranges`` have passed for ``p.size``."""
    report = []
    for r in ranges:
        rows = perm[r.start : r.end + 1]
        n, step = len(rows), max(1, PROXIMITY_BLOCK // len(rows))
        total = sum(float(p.values[np.ix_(rows[i : i + step], rows)].sum()) for i in range(0, n, step))
        mean = 1.0 if n < 2 else (total - n) / (n * (n - 1))
        report.append({"label": r.label, "start": r.start, "end": r.end, "size": n, "mean_similarity": mean})
    return report


def save_dendrogram(dend: Dendrogram, path) -> None:
    payload = {
        "n_leaves": dend.n_leaves,
        "merges": [{"left": l, "right": r, "height": h, "size": s} for l, r, h, s in dend.merges],
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def save_permutation(perm, path) -> None:
    Path(path).write_text(json.dumps([int(i) for i in perm]) + "\n")


def load_permutation(path) -> np.ndarray:
    """Read a JSON list of M integers, each in [0, M).

    Raises ParseError naming the file and the first bad index, or the line
    of invalid JSON. Whether the list is a permutation is checked where it
    is applied.
    """
    perm = read_json(path)
    if not isinstance(perm, list):
        raise ParseError(f"{path}: top level: expected a list of integers")
    for k, value in enumerate(perm):
        if type(value) is not int or not 0 <= value < len(perm):
            raise ParseError(f"{path}: [{k}]: {value!r} is not an integer in [0, {len(perm)})")
    return np.array(perm, dtype=np.int64)
