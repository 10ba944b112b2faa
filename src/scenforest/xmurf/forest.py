"""The forest type and grow loop both forests use, the unsupervised fit,
the path-proximity matrix, and the JSON forest reader and writer.

A ``Forest`` is the unsupervised forest (``labels`` None) or the
classifier of ``scenforest.classify`` (its sorted label set). Per-tree
randomness comes from counter-based seed substreams
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

__all__ = ["Forest", "tree_rng", "grow_forest", "fit", "proximity_matrix", "forest_to_dict", "save_forest",
           "read_forest", "load_forest"]


@dataclass
class Forest:
    trees: list[Tree]
    q: int
    seed: int
    feature_names: list[str] | None = None
    labels: list[str] | None = None  # a classifier's sorted label set; its vote vectors index into it

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """Deterministic per-tree substream, independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tree_index,)))


def grow_forest(x: np.ndarray, b_trees: int, seed: int, rule, columns: dict) -> list[Tree]:
    """Grow ``b_trees`` trees on the rows of ``x``. Tree b draws from
    ``tree_rng(seed, b)`` its bootstrap bag of all M rows first, and then
    ``rule(rng, rows)`` makes the per-node draws in preorder (see
    ``grow_tree``)."""
    if b_trees < 1:
        raise ValueError("need at least one tree")
    m = x.shape[0]
    trees = []
    for b in range(b_trees):
        rng = tree_rng(seed, b)
        bag = rng.integers(0, m, size=m)
        trees.append(grow_tree(x, bag, partial(rule, rng), columns))
    return trees


def fit(data: Dataset, b_trees: int, seed: int) -> Forest:
    """Fit an unsupervised forest of ``b_trees`` fully-grown trees.

    Each tree draws a bootstrap bag of size M, then at every node samples
    floor(sqrt(Q)) features and one noise CDF; the split maximizing the
    estimated Gini gain wins.
    """
    m, q = data.values.shape
    if m < 2:
        raise ValueError(f"need at least 2 rows to cluster, got {m}")
    if q < 1:
        raise ValueError("dataset has no features")
    if bool(np.all(data.values == data.values[0])):
        warnings.warn("all rows identical; forest degenerates to single-node trees")
    rule = partial(noise_rule, data.values, max(1, math.isqrt(q)))
    trees = grow_forest(data.values, b_trees, seed, rule, NOISE_COLUMNS)
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


def forest_to_dict(forest: Forest, columns: dict = NOISE_COLUMNS) -> dict:
    """The JSON object of a forest whose nodes carry ``columns``, without a
    classifier's own keys (see ``read_forest``)."""
    return {
        "seed": forest.seed,
        "B": forest.n_trees,
        "Q": forest.q,
        "feature_names": forest.feature_names,
        "trees": [{"nodes": node_dicts(t.nodes, columns)} for t in forest.trees],
    }


def save_forest(forest: Forest, path) -> None:
    Path(path).write_text(json.dumps(forest_to_dict(forest)) + "\n")


def read_forest(d, columns: dict, path) -> Forest:
    """The forest of a parsed forest or model JSON object ``d`` whose nodes
    carry ``columns``: its ``seed``, ``B``, ``Q``, ``feature_names`` and each
    ``trees[k].nodes``, without a classifier's ``labels``. Raises ParseError
    naming the file and the key path of the first entry that is missing or
    malformed. A bool is never a number here."""
    require_keys(d, ("seed", "B", "Q", "trees"), path, "")
    seed, b, q, names, entries = d["seed"], d["B"], d["Q"], d.get("feature_names"), d["trees"]
    if type(seed) is not int:
        raise ParseError(f"{path}: seed: {seed!r} is not an integer")
    if type(q) is not int or q < 1:
        raise ParseError(f"{path}: Q: {q!r} is not a positive feature count")
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{path}: trees: expected a non-empty list")
    if type(b) is not int or b != len(entries):
        raise ParseError(f"{path}: B: {b!r} is not the number of trees, {len(entries)}")
    if names is not None and not (isinstance(names, list) and len(names) == q and all(type(c) is str for c in names)):
        raise ParseError(f"{path}: feature_names: expected Q={q} name strings")
    trees = []
    for k, t in enumerate(entries):
        require_keys(t, ("nodes",), path, f"trees[{k}].")
        trees.append(Tree(nodes=read_nodes(t["nodes"], q, columns, path, f"trees[{k}].")))
    return Forest(trees=trees, q=q, seed=seed, feature_names=names)


def load_forest(path) -> Forest:
    """Load a forest JSON, checked as ``read_forest`` checks it."""
    return read_forest(read_json(path), NOISE_COLUMNS, path)
