"""The full-matrix linkage that production replaces with a cached row-minimum
search, kept as it was: each merge takes the row-major argmin of the whole
M x M dissimilarity, so ties break to the lowest (i, j). Production's merge
list must equal this one's exactly: the same ids, sizes and float heights.
"""

from __future__ import annotations

import numpy as np

from scenforest.dataset import ProximityMatrix
from scenforest.ordering import LINKAGE_METHODS, Dendrogram


def linkage(p: ProximityMatrix, method: str = "average") -> Dendrogram:
    """Agglomerate on d = 1 - P; ties break to the lowest (i, j) pair.

    Each step merges the globally closest pair of active clusters; the
    merged cluster keeps the lower slot, so recorded left/right children are
    ordered by slot. Average linkage weights by cluster sizes (UPGMA).
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}")
    m = p.size
    if m < 2:
        raise ValueError("need at least 2 rows to cluster")
    d = 1.0 - p.values.astype(np.float64)
    np.fill_diagonal(d, np.inf)
    active = np.ones(m, dtype=bool)
    sizes = np.ones(m, dtype=np.int64)
    cluster_id = np.arange(m)
    merges = []
    for step in range(m - 1):
        # row-major argmin hits the lexicographically smallest (i, j), i < j
        flat = int(np.argmin(d))
        i, j = divmod(flat, m)
        if i > j:
            i, j = j, i
        h = float(d[i, j])
        merges.append((int(cluster_id[i]), int(cluster_id[j]), h, int(sizes[i] + sizes[j])))
        mask = active.copy()
        mask[i] = mask[j] = False
        if method == "average":
            new_row = (sizes[i] * d[i] + sizes[j] * d[j]) / (sizes[i] + sizes[j])
        elif method == "single":
            new_row = np.minimum(d[i], d[j])
        else:
            new_row = np.maximum(d[i], d[j])
        d[i, mask] = new_row[mask]
        d[mask, i] = new_row[mask]
        d[j, :] = np.inf
        d[:, j] = np.inf
        d[i, i] = np.inf
        active[j] = False
        sizes[i] += sizes[j]
        cluster_id[i] = m + step
    return Dendrogram(merges=merges, n_leaves=m)
