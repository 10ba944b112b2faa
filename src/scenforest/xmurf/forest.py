"""Forest fitting, path-proximity matrix, and JSON serialization.

Per-tree randomness comes from counter-based seed substreams
(SeedSequence(master, spawn_key=(tree_index,))), so a fitted forest is
identical regardless of evaluation order.

The pairwise proximity exploits that two root-to-leaf paths share exactly
their common prefix: while routing all datapoints through a tree's node
array, every internal node where index sets diverge contributes the Jaccard
term for all left x right pairs at once, and every leaf adds 1 for all
pairs it holds, which keeps the M x M accumulation vectorized.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from ..dataset import Dataset, ParseError, ProximityMatrix, read_json, require_keys
from .tree import NOISE_COLUMNS, Tree, grow_tree, node_dicts, noise_rule, read_nodes

__all__ = ["Forest", "fit", "proximity_matrix", "save_forest", "load_forest", "tree_rng"]


@dataclass
class Forest:
    trees: list[Tree]
    q: int
    seed: int
    feature_names: list[str] | None = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """Deterministic per-tree substream, independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tree_index,)))


def fit(data: Dataset, b_trees: int, seed: int) -> Forest:
    """Fit an unsupervised forest of ``b_trees`` fully-grown trees.

    Each tree draws a bootstrap bag of size M, then at every node samples
    floor(sqrt(Q)) features and one noise CDF; the split maximizing the
    estimated Gini gain wins. Per-tree rng draw order: bag first, then the
    per-node draws in preorder.
    """
    m, q = data.values.shape
    if m < 2:
        raise ValueError(f"need at least 2 rows to cluster, got {m}")
    if q < 1:
        raise ValueError("dataset has no features")
    if b_trees < 1:
        raise ValueError("need at least one tree")
    if bool(np.all(data.values == data.values[0])):
        warnings.warn("all rows identical; forest degenerates to single-node trees")
    q_split = max(1, math.isqrt(q))
    trees = []
    for b in range(b_trees):
        rng = tree_rng(seed, b)
        bag = rng.integers(0, m, size=m)
        trees.append(grow_tree(data.values, bag, partial(noise_rule, data.values, q_split, rng), NOISE_COLUMNS))
    return Forest(trees=trees, q=q, seed=seed, feature_names=list(data.feature_names))


def _tree_accumulate(tree: Tree, x: np.ndarray, diverging: np.ndarray, same_leaf: np.ndarray) -> None:
    """Add one tree's pairwise Jaccard terms to the accumulators, in one walk.

    ``diverging`` receives the (i left, j right) orientation only;
    ``same_leaf`` receives full symmetric blocks including the diagonal:
    every pair that lands in the same leaf has identical paths, Jaccard 1.
    """
    m = x.shape[0]
    path_len = np.zeros(m, dtype=np.int64)
    splits = []  # (shared prefix length, left indices, right indices)
    stack = [(0, np.arange(m), 0)]
    while stack:
        i, idx, depth = stack.pop()
        feature, threshold, left, right = tree.nodes[i].item()[:4]
        if left == i:
            path_len[idx] = depth + 1
            if len(idx):
                same_leaf[np.ix_(idx, idx)] += 1.0
            continue
        mask = x[idx, feature] <= threshold
        li, ri = idx[mask], idx[~mask]
        splits.append((depth + 1, li, ri))
        stack.append((right, ri, depth + 1))
        stack.append((left, li, depth + 1))
    for shared, li, ri in splits:
        if len(li) and len(ri):
            diverging[np.ix_(li, ri)] += shared / (path_len[li][:, None] + path_len[ri][None, :] - shared)


def proximity_matrix(forest: Forest, data: Dataset) -> ProximityMatrix:
    """Mean per-tree path Jaccard over all trees, for all dataset rows.

    Every row of the dataset (in-bag or not) is routed through every tree.
    The result is exactly symmetric with unit diagonal and entries in (0, 1].
    """
    if data.values.shape[1] != forest.q:
        raise ValueError(f"dataset has {data.values.shape[1]} features, forest expects {forest.q}")
    m = data.values.shape[0]
    diverging = np.zeros((m, m))
    same_leaf = np.zeros((m, m))
    for tree in forest.trees:
        _tree_accumulate(tree, data.values, diverging, same_leaf)
    values = (diverging + diverging.T + same_leaf) / forest.n_trees
    return ProximityMatrix(values=values, ids=list(data.ids))


def forest_to_dict(forest: Forest) -> dict:
    return {
        "seed": forest.seed,
        "B": forest.n_trees,
        "Q": forest.q,
        "feature_names": forest.feature_names,
        "trees": [{"nodes": node_dicts(t.nodes, NOISE_COLUMNS)} for t in forest.trees],
    }


def save_forest(forest: Forest, path) -> None:
    Path(path).write_text(json.dumps(forest_to_dict(forest)) + "\n")


def load_forest(path) -> Forest:
    """Load a forest JSON. Raises ParseError naming the file and the key
    path of the first entry that is missing or malformed."""
    d = read_json(path)
    require_keys(d, ("seed", "Q", "trees"), path, "")
    q = d["Q"]
    if type(q) is not int or q < 1:
        raise ParseError(f"{path}: Q: {q!r} is not a positive feature count")
    if not isinstance(d["trees"], list) or not d["trees"]:
        raise ParseError(f"{path}: trees: expected a non-empty list")
    trees = []
    for k, t in enumerate(d["trees"]):
        require_keys(t, ("nodes",), path, f"trees[{k}].")
        trees.append(Tree(nodes=read_nodes(t["nodes"], q, NOISE_COLUMNS, path, f"trees[{k}].")))
    return Forest(trees=trees, q=q, seed=d["seed"], feature_names=d.get("feature_names"))
