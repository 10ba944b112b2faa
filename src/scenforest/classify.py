"""Supervised random forest over labeled clusters with out-of-bag,
class-adaptive confidence thresholds.

Training is standard CART bagging: bootstrap bags, Gini splits over the
real class labels, floor(sqrt(Q)) features per node, fully grown trees.
A node's split search scores every candidate of every sampled feature in
one pass: one stable argsort of the ``(features, rows)`` block, the
candidates laid out feature-major (features ascending, then thresholds
ascending), and one argmax over their gains, so ties go to the lowest
feature and then the lowest threshold.
Bags are recorded so out-of-bag membership stays recoverable; the OOB vote
fraction for the true class gives a per-point confidence whose class-wise
mean is the assignment threshold. A prediction is withdrawn when the
winning vote fraction falls below an adjustable ratio of that threshold.

Trees are ``xmurf.tree.Tree`` node arrays with a ``class_counts`` column,
grown by the same loop as the unsupervised forest and written and read by
the same JSON node codec. On first use the forest's node arrays are
concatenated into one, with each tree's child ids shifted by its root
offset, and kept on the forest instance. Leaves point at themselves, so
one batch router moves a block of (row, tree) pairs down all trees at once
until every pair sits at a leaf, whose vote is ``argmax(class_counts)``.
Votes are counted block by block, so no rows x trees matrix of votes is
ever built. Votes, prediction and the OOB thresholds all go through it.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .dataset import Dataset, LabeledDataset, ParseError, read_json, require_keys
from .xmurf.forest import tree_rng
from .xmurf.tree import Tree, grow_tree, node_dicts, read_nodes

__all__ = [
    "UNASSIGNED",
    "SupervisedForest",
    "ClassThresholds",
    "fit_classifier",
    "oob_thresholds",
    "forest_votes",
    "predict_with_threshold",
    "predict_detail",
    "predict_batch",
    "assignment_rate",
    "save_model",
    "load_model",
]

UNASSIGNED = "UNASSIGNED"
_BLOCK_PAIRS = 8192  # (row, tree) pairs routed per block


@dataclass
class SupervisedForest:
    trees: list[Tree]
    labels: list[str]  # sorted label set; vote vectors index into it
    q: int
    seed: int
    feature_names: list[str] | None = None

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @cached_property
    def _flat(self) -> _FlatForest:
        """Node arrays of all trees, built on first use; the trees must not
        change after that."""
        sizes = [len(t.nodes) for t in self.trees]
        root = np.cumsum([0] + sizes[:-1])
        nodes = np.concatenate([t.nodes for t in self.trees])
        offset = np.repeat(root, sizes)
        return _FlatForest(
            nodes["feature"], nodes["threshold"], nodes["left"] + offset, nodes["right"] + offset,
            nodes["class_counts"].argmax(axis=1), root,
        )


@dataclass(frozen=True)
class _FlatForest:
    """All trees' nodes in preorder, tree after tree, indexed globally."""

    feature: np.ndarray  # split feature; -1 at leaves
    threshold: np.ndarray  # go left when x[feature] <= threshold
    left: np.ndarray  # global child index; a leaf points at itself
    right: np.ndarray
    vote: np.ndarray  # argmax(class_counts), read at leaves: ties to the lowest label
    root: np.ndarray  # global index of each tree's root


def _class_columns(n_labels: int) -> dict:
    """The supervised forest's own node column, in the format of ``xmurf.tree.NOISE_COLUMNS``."""

    def valid(v):
        return isinstance(v, list) and len(v) == n_labels and {*map(type, v)} == {int}

    return {"class_counts": ((np.int64, (n_labels,)), valid, f"{n_labels} integer counts, one per label", None)}


@dataclass
class ClassThresholds:
    kappa_bar: dict
    kappas: list  # per training row; None when the row was never out-of-bag


def _gini_from_counts(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=-1, keepdims=True)
    frac = counts / totals
    return 1.0 - (frac * frac).sum(axis=-1)


def _best_split_supervised(x: np.ndarray, y: np.ndarray, rows: np.ndarray, features: np.ndarray, n_classes: int):
    """Best CART Gini split of the node's rows over the sampled features, in
    one pass.

    The ``(features, rows)`` block is stably argsorted along the rows once,
    and cumulative class counts are taken in that order. Candidates are the
    boundaries between consecutive distinct sorted values, laid out
    feature-major (features ascending, as sampled) and, within a feature,
    by ascending threshold; the threshold is the midpoint of the two values.
    Returns (gain, feature, threshold), or None if every sampled feature is
    constant in the node. One global argmax takes the first maximum, so
    ties go to the lowest feature and then the lowest threshold.
    """
    m = len(rows)
    counts_parent = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
    g_parent = float(_gini_from_counts(counts_parent))
    block = x.T[features[:, None], rows]
    order = np.argsort(block, axis=1, kind="stable")
    sv = np.take_along_axis(block, order, axis=1)
    f_idx, pos = np.nonzero(sv[:, 1:] != sv[:, :-1])  # split after sorted position pos
    if not f_idx.size:
        return None
    cum = np.cumsum(y[rows][order][..., None] == np.arange(n_classes), axis=1, dtype=np.float64)
    left_counts = cum[f_idx, pos]
    right_counts = counts_parent - left_counts
    n_left = pos + 1.0
    n_right = m - n_left
    gains = g_parent - (n_left * _gini_from_counts(left_counts) + n_right * _gini_from_counts(right_counts)) / m
    k = int(np.argmax(gains))
    f, b = f_idx[k], pos[k]
    return float(gains[k]), int(features[f]), float((sv[f, b] + sv[f, b + 1]) / 2.0)


def _cart_rule(x: np.ndarray, y: np.ndarray, n_classes: int, q_split: int, rng: np.random.Generator, rows):
    """The supervised forest's split rule; ``grow_tree`` gets it with all
    but ``rows`` bound. Per impure node of two or more rows the rng draws
    ``q_split`` distinct features (no noise draw here)."""
    own = (np.bincount(y[rows], minlength=n_classes),)
    if len(rows) <= 1 or int(np.count_nonzero(own[0])) <= 1:
        return own, None
    features = np.sort(rng.choice(x.shape[1], size=min(q_split, x.shape[1]), replace=False))
    best = _best_split_supervised(x, y, rows, features, n_classes)
    if best is None or best[0] <= 0.0:
        return own, None
    return own, (best[1], best[2], own)


def fit_classifier(d: LabeledDataset, b_trees: int, seed: int) -> SupervisedForest:
    """Fit the bagged CART ensemble; deterministic per seed.

    Per-tree rng draw order matches the unsupervised forest: bag first, then
    per node the feature sample (no noise draw here) in preorder.
    """
    labels = d.label_set
    if len(labels) < 2:
        raise ValueError(f"need at least 2 classes, got {labels}")
    if b_trees < 1:
        raise ValueError("need at least one tree")
    x = d.base.values
    m, q = x.shape
    label_index = {c: k for k, c in enumerate(labels)}
    y = np.array([label_index[c] for c in d.labels], dtype=np.int64)
    n_classes = len(labels)
    q_split = max(1, math.isqrt(q))
    columns = _class_columns(n_classes)
    trees = []
    for b in range(b_trees):
        rng = tree_rng(seed, b)
        bag = rng.integers(0, m, size=m)
        trees.append(grow_tree(x, bag, partial(_cart_rule, x, y, n_classes, q_split, rng), columns))
    return SupervisedForest(trees=trees, labels=labels, q=q, seed=seed, feature_names=list(d.base.feature_names))


def _route(flat: _FlatForest, x: np.ndarray, rows: np.ndarray, trees: np.ndarray) -> np.ndarray:
    """Leaf votes of the (row, tree) pairs: row x[rows[p]] routed down tree
    trees[p]. Each step moves every pair not yet at a leaf one level down."""
    node = flat.root[trees]
    live = np.nonzero(flat.left[node] != node)[0]
    while live.size:
        at = node[live]
        go_left = x[rows[live], flat.feature[at]] <= flat.threshold[at]
        at = np.where(go_left, flat.left[at], flat.right[at])
        node[live] = at
        live = live[flat.left[at] != at]
    return flat.vote[node]


def _count_votes(f: SupervisedForest, x: np.ndarray, voting: np.ndarray | None = None) -> np.ndarray:
    """(N, L) vote counts for the rows of an (N, Q) array, in blocks of
    about _BLOCK_PAIRS (row, tree) pairs. ``voting`` is an optional (N, B)
    mask of the pairs that vote; by default every tree votes on every row."""
    n, b, n_labels = x.shape[0], f.n_trees, len(f.labels)
    votes = np.zeros((n, n_labels), dtype=np.int64)
    step = max(1, _BLOCK_PAIRS // b)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        if voting is None:
            rows, trees = np.divmod(np.arange((r1 - r0) * b), b)
        else:
            rows, trees = np.nonzero(voting[r0:r1])
        leaf_vote = _route(f._flat, x[r0:r1], rows, trees)
        counts = np.bincount(rows * n_labels + leaf_vote, minlength=(r1 - r0) * n_labels)
        votes[r0:r1] = counts.reshape(r1 - r0, n_labels)
    return votes


def forest_votes(f: SupervisedForest, x: np.ndarray) -> np.ndarray:
    """Vote counts per label (sorted label order) over all trees: shape (L,)
    for one row (Q,), or (N, L) for rows (N, Q)."""
    x = np.asarray(x)
    votes = _count_votes(f, np.atleast_2d(x))
    return votes[0] if x.ndim == 1 else votes


def oob_thresholds(f: SupervisedForest, d: LabeledDataset) -> ClassThresholds:
    """Per-point OOB confidence kappa_i and class-mean thresholds kappa_bar.

    kappa_i is the fraction of out-of-bag trees voting for the true class.
    Rows that are in-bag everywhere get kappa None, are excluded from the
    class means, and are reported with a warning. A class with no covered
    rows raises, naming the class.
    """
    x = d.base.values
    m = x.shape[0]
    out_of_bag = np.ones((m, f.n_trees), dtype=bool)
    for b, tree in enumerate(f.trees):
        out_of_bag[tree.bag, b] = False
    oob_votes = _count_votes(f, x, out_of_bag)
    label_index = {c: k for k, c in enumerate(f.labels)}
    true_k = np.array([label_index[c] for c in d.labels], dtype=np.int64)
    correct = oob_votes[np.arange(m), true_k].tolist()
    oob_count = out_of_bag.sum(axis=1).tolist()
    kappas: list = [c / n if n else None for c, n in zip(correct, oob_count)]
    never = [d.base.ids[i] for i in range(m) if kappas[i] is None]
    if never:
        warnings.warn(f"{len(never)} datapoint(s) never out-of-bag, excluded from thresholds: {never[:5]}")
    kappa_bar = {}
    for c in f.labels:
        vals = [k for k, lab in zip(kappas, d.labels) if lab == c and k is not None]
        if not vals:
            raise ValueError(f"class {c!r} has no out-of-bag covered datapoints")
        kappa_bar[c] = float(np.mean(vals))
    return ClassThresholds(kappa_bar=kappa_bar, kappas=kappas)


def predict_batch(f: SupervisedForest, th: ClassThresholds, x: np.ndarray, ratio: float) -> list[tuple]:
    """predict_detail for every row of an (N, Q) array, in row order."""
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    votes = _count_votes(f, np.asarray(x))
    result = []
    for k, top in zip(votes.argmax(axis=1).tolist(), votes.max(axis=1).tolist()):
        winner = f.labels[k]
        fraction = top / f.n_trees
        threshold = ratio * th.kappa_bar[winner]
        result.append((winner if fraction >= threshold else None, fraction, threshold))
    return result


def predict_detail(f: SupervisedForest, th: ClassThresholds, x: np.ndarray, ratio: float):
    """Return (label or None, winning vote fraction, threshold used) for one
    row (Q,)."""
    return predict_batch(f, th, np.asarray(x)[None, :], ratio)[0]


def predict_with_threshold(f: SupervisedForest, th: ClassThresholds, x: np.ndarray, ratio: float):
    """Plurality label over all trees, or None when the vote fraction falls
    below ratio * kappa_bar of the winning class (assignment withdrawn)."""
    return predict_detail(f, th, x, ratio)[0]


def assignment_rate(f: SupervisedForest, th: ClassThresholds, data: Dataset, ratio: float) -> float:
    assigned = sum(label is not None for label, _, _ in predict_batch(f, th, data.values, ratio))
    return assigned / data.n_rows


def _model_dict(f: SupervisedForest, th: ClassThresholds | None) -> dict:
    columns = _class_columns(len(f.labels))
    return {
        "seed": f.seed,
        "B": f.n_trees,
        "Q": f.q,
        "labels": f.labels,
        "feature_names": f.feature_names,
        "kappa_bar": None if th is None else th.kappa_bar,
        "kappas": None if th is None else th.kappas,
        "trees": [{"bag": t.bag.tolist(), "nodes": node_dicts(t.nodes, columns)} for t in f.trees],
    }


def save_model(f: SupervisedForest, th: ClassThresholds | None, path) -> None:
    Path(path).write_text(json.dumps(_model_dict(f, th)) + "\n")


def _load_tree(t, k: int, q: int, columns: dict, path) -> Tree:
    where = f"trees[{k}]."
    require_keys(t, ("bag", "nodes"), path, where)
    try:
        bag = np.array(t["bag"], dtype=np.int64)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: {where}bag: expected a list of row indices") from None
    return Tree(nodes=read_nodes(t["nodes"], q, columns, path, where), bag=bag)


def load_model(path):
    """Load (forest, thresholds-or-None) from a model JSON.

    Raises ParseError naming the file and the key path of the first entry
    that is missing or malformed.
    """
    d = read_json(path)
    require_keys(d, ("seed", "Q", "labels", "trees"), path, "")
    labels, q = d["labels"], d["Q"]
    if not isinstance(labels, list) or len(labels) < 2 or not all(isinstance(c, str) for c in labels):
        raise ParseError(f"{path}: labels: expected a list of at least 2 label strings")
    if type(q) is not int or q < 1:
        raise ParseError(f"{path}: Q: {q!r} is not a positive feature count")
    if not isinstance(d["trees"], list) or not d["trees"]:
        raise ParseError(f"{path}: trees: expected a non-empty list")
    columns = _class_columns(len(labels))
    trees = [_load_tree(t, k, q, columns, path) for k, t in enumerate(d["trees"])]
    names = d.get("feature_names")
    if names is not None and not (
        isinstance(names, list) and len(names) == q and all(isinstance(c, str) for c in names)
    ):
        raise ParseError(f"{path}: feature_names: expected Q={q} name strings")
    forest = SupervisedForest(trees=trees, labels=labels, q=q, seed=d["seed"], feature_names=names)
    th = None
    kappa_bar = d.get("kappa_bar")
    if kappa_bar is not None:
        if not isinstance(kappa_bar, dict) or not all(isinstance(kappa_bar.get(c), (int, float)) for c in labels):
            raise ParseError(f"{path}: kappa_bar: expected a number for every label")
        th = ClassThresholds(kappa_bar=kappa_bar, kappas=d.get("kappas"))
    return forest, th
