"""Supervised random forest over labeled clusters with out-of-bag,
class-adaptive confidence thresholds.

Training is standard CART bagging: bootstrap bags, Gini splits over the
real class labels, floor(sqrt(Q)) features per node, fully grown trees,
all grown in lock-step by ``xmurf.forest.grow_forest``. One split search
scores every candidate of every sampled feature of the nodes popped at a
step, of all trees: the candidates in the ``xmurf.tree.split_candidates``
layout (nodes in order, then features ascending, then thresholds
ascending), class counts from one cumulative integer count over it (only
the counts at the candidates become float64, exactly), and one argmax per
node, so ties go to the lowest feature and then the lowest threshold. The
features of each node come from ``xmurf.tree.NodeSamples``, in bulk.
Each tree keeps its bootstrap bag in memory, for ``oob_thresholds`` only:
the OOB vote fraction for the true class gives a per-point confidence whose
class-wise mean is the assignment threshold. The model file holds the trees,
the labels and the class thresholds kappa_bar, not the bags or the per-row
confidences. A prediction is withdrawn when the winning vote fraction
falls below an adjustable ratio of that threshold.

The classifier is an ``xmurf.forest.Forest`` with its sorted label set in
``labels`` and a ``class_counts`` node column, grown by the same loop as
the unsupervised forest (with ``_CartRule``). Its model file is written
by the writer of ``forest.json`` (``xmurf.forest.write_forest``, a tree
at a time) and read by its reader (``read_forest``). Each vote count
concatenates the forest's node arrays into one, with each tree's child
ids shifted by its root offset; nothing is cached on the forest. Leaves
point at themselves, so the batch router that the proximity uses too
(``xmurf.tree.route``) moves a block of (row, tree) pairs down all trees
at once, one level per pass, until every pair sits at a leaf, whose vote
is ``argmax(class_counts)``: every pair of the block steps, reading its
split cell from the block's flat rows, while more than half of them
still move, and only the moving ones after that.
Votes are counted block by block, so no rows x trees matrix of votes is
ever built. Votes, prediction and the OOB thresholds all go through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset, ParseError, read_json, require_keys
from .xmurf.forest import Forest, grow_forest, read_forest, write_forest
from .xmurf.tree import Candidates, NodeSamples, route, split_candidates, value_codes

__all__ = [
    "UNASSIGNED",
    "LabelError",
    "ClassThresholds",
    "fit_classifier",
    "oob_thresholds",
    "predict_detail",
    "predict_batch",
    "save_model",
    "load_model",
]

UNASSIGNED = "UNASSIGNED"
# (row, tree) pairs routed per block: on 6000 rows and B = 100, 32768 beat 8192,
# 16384, 65536 and 131072 once the router steps every pair while most move
_BLOCK_PAIRS = 32768


class LabelError(ValueError):
    """The labels of a training set cannot make a classifier: fewer than two
    classes, or a class with no out-of-bag row."""


def _flatten(f: Forest) -> tuple:
    """All trees' nodes in preorder, tree after tree, indexed globally:
    (split feature, -1 at leaves; threshold, go left when x[feature] <=
    threshold; left and right child, a leaf pointing at itself; vote,
    argmax(class_counts) read at leaves, ties to the lowest label; the
    index of each tree's root)."""
    sizes = [len(t.nodes) for t in f.trees]
    root = np.cumsum([0] + sizes[:-1])
    nodes = np.concatenate([t.nodes for t in f.trees])
    offset = np.repeat(root, sizes)
    left, right, vote = nodes["left"] + offset, nodes["right"] + offset, nodes["class_counts"].argmax(axis=1)
    return nodes["feature"], nodes["threshold"], left, right, vote, root


def _class_columns(n_labels: int) -> dict:
    """The supervised forest's own node column, in the format of ``xmurf.tree.NOISE_COLUMNS``."""

    def valid(v):
        return isinstance(v, list) and len(v) == n_labels and {*map(type, v)} == {int}

    return {"class_counts": ((np.int64, (n_labels,)), valid, f"{n_labels} integer counts, one per label", None)}


@dataclass
class ClassThresholds:
    kappa_bar: dict  # the class thresholds, which the model file holds
    kappas: list | None = None  # per training row (None if never out-of-bag); not saved, so None on a loaded model


def _gini_from_counts(counts: np.ndarray) -> np.ndarray:
    totals = counts.sum(axis=-1, keepdims=True)
    frac = counts / totals
    return 1.0 - np.multiply(frac, frac, out=frac).sum(axis=-1)


class _CartRule:
    """The supervised forest's split rule, for ``xmurf.forest.grow_forest``.

    Per impure node of two or more rows the rng draws ``q_split`` distinct
    features (``sample``; no noise draw here). The candidates of
    ``xmurf.tree.split_candidates`` are scored by the class counts of the
    rows each sends left, the partition the grow loop applies; a candidate
    that sends every row left is passed over, and a node splits on its
    first greatest gain if that gain is positive.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, n_classes: int, q_split: int):
        self.codes, self.values = value_codes(x)
        self.y, self.n_classes = y, n_classes
        self.sample = NodeSamples(x.shape[1], min(q_split, x.shape[1]))
        self.columns = _class_columns(n_classes)

    def leaves(self, rows: list) -> list:
        """(own columns as a leaf: the class counts, whether it is searched) of each node's rows."""
        sizes = np.array([len(r) for r in rows])
        node = np.repeat(np.arange(len(rows)), sizes)
        counts = np.bincount(node * self.n_classes + self.y[np.concatenate(rows)], minlength=len(rows) * self.n_classes)
        counts = counts.reshape(len(rows), self.n_classes)
        searched = (sizes >= 2) & (np.count_nonzero(counts, axis=1) >= 2)
        return list(zip(map(tuple, counts.tolist()), searched.tolist()))

    def split_own(self, own: tuple, draws) -> tuple:
        return own

    def accepts(self, gains: np.ndarray) -> np.ndarray:
        """Only a positive gain splits."""
        return gains > 0.0

    def scores(self, rows: list, sizes: np.ndarray, owns: list, draws: list) -> tuple:
        """(features, Candidates, gains, data row at each flat position) of
        the split candidates that leave both sides nonempty, of the nodes
        whose draws are sorted features."""
        features = np.array(draws)
        c, _, sorted_rows = split_candidates(self.codes, self.values, rows, sizes, features)
        c = Candidates(*(a[c.n_left < sizes[c.node]] for a in c))  # both sides nonempty
        # cum[p]: the class counts of the flat positions before p, in integers
        n = len(sorted_rows)
        cum = np.zeros((n + 1, self.n_classes), dtype=np.int32 if n < 2**31 else np.int64)
        cum[np.arange(1, n + 1), self.y[sorted_rows]] = 1
        np.cumsum(cum, axis=0, out=cum)
        left_counts = (cum[c.start + c.n_left] - cum[c.start]).astype(np.float64)
        counts = np.array(owns, dtype=np.float64)
        right_counts = counts[c.node] - left_counts
        m = sizes[c.node]
        gini_left, gini_right = _gini_from_counts(left_counts), _gini_from_counts(right_counts)
        gains = _gini_from_counts(counts)[c.node] - (c.n_left * gini_left + (m - c.n_left) * gini_right) / m
        return features, c, gains, sorted_rows


def fit_classifier(d: LabeledDataset, b_trees: int, seed: int) -> Forest:
    """Fit the bagged CART ensemble; deterministic per seed.

    The trees are grown by ``grow_forest``, as the unsupervised forest's:
    bag first, then per searched node the feature sample (no noise draw
    here) in preorder.
    """
    labels = d.label_set
    if len(labels) < 2:
        raise LabelError(f"need at least 2 classes, got {labels}")
    x = d.base.values
    label_index = {c: k for k, c in enumerate(labels)}
    y = np.array([label_index[c] for c in d.labels], dtype=np.int64)
    trees = grow_forest(x, b_trees, seed, _CartRule(x, y, len(labels), max(1, math.isqrt(x.shape[1]))))
    return Forest(trees=trees, q=x.shape[1], seed=seed, feature_names=list(d.base.feature_names), labels=labels)


def _count_votes(f: Forest, x: np.ndarray, voting: np.ndarray | None = None) -> np.ndarray:
    """(N, L) vote counts for the rows of an (N, Q) array, in blocks of
    about _BLOCK_PAIRS (row, tree) pairs. ``voting`` is an optional (N, B)
    mask of the pairs that vote; by default every tree votes on every row."""
    feature, threshold, left, right, vote, root = _flatten(f)
    n, b, n_labels = x.shape[0], f.n_trees, len(f.labels)
    votes = np.zeros((n, n_labels), dtype=np.int64)
    step = max(1, _BLOCK_PAIRS // b)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        if voting is None:
            rows, trees = np.divmod(np.arange((r1 - r0) * b), b)
        else:
            rows, trees = np.nonzero(voting[r0:r1])
        leaf_vote = vote[route(feature, threshold, left, right, x[r0:r1], rows, root[trees])]
        counts = np.bincount(rows * n_labels + leaf_vote, minlength=(r1 - r0) * n_labels)
        votes[r0:r1] = counts.reshape(r1 - r0, n_labels)
    return votes


def oob_thresholds(f: Forest, d: LabeledDataset) -> ClassThresholds:
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
            raise LabelError(f"class {c!r} has no out-of-bag covered datapoints")
        kappa_bar[c] = float(np.mean(vals))
    return ClassThresholds(kappa_bar=kappa_bar, kappas=kappas)


def predict_batch(f: Forest, th: ClassThresholds, x: np.ndarray, ratio: float) -> list[tuple]:
    """(label or None, winning vote fraction, threshold used) of every row
    of an (N, Q) array, in row order: the plurality label over all trees,
    withdrawn (None) when its vote fraction falls below ratio * kappa_bar of
    that label."""
    if not 0.0 <= ratio < math.inf:  # a NaN ratio would withdraw every prediction
        raise ValueError(f"ratio must be a finite number >= 0, got {ratio}")
    votes = _count_votes(f, np.asarray(x))
    result = []
    for k, top in zip(votes.argmax(axis=1).tolist(), votes.max(axis=1).tolist()):
        winner = f.labels[k]
        fraction = top / f.n_trees
        threshold = ratio * th.kappa_bar[winner]
        result.append((winner if fraction >= threshold else None, fraction, threshold))
    return result


def predict_detail(f: Forest, th: ClassThresholds, x: np.ndarray, ratio: float):
    """predict_batch of one row (Q,)."""
    return predict_batch(f, th, np.asarray(x)[None, :], ratio)[0]


def save_model(f: Forest, th: ClassThresholds, path) -> None:
    """Write the classifier's JSON: the forest's ``seed``, ``B`` and ``Q``,
    its ``labels``, ``feature_names``, the thresholds ``kappa_bar`` and the
    trees (``xmurf.forest.write_forest``)."""
    head = {"seed": f.seed, "B": f.n_trees, "Q": f.q, "labels": f.labels, "feature_names": f.feature_names,
            "kappa_bar": th.kappa_bar}
    write_forest(path, head, f.trees, _class_columns(len(f.labels)))


def load_model(path):
    """Load (forest, thresholds) from a model JSON.

    The parts a model shares with a forest JSON are checked by
    ``xmurf.forest.read_forest``; keys it does not read, such as the
    ``bag`` of a tree or the ``kappas`` of an older model, are ignored.
    kappa_bar must hold a number in [0, 1] (a mean vote fraction) for every
    label. Raises ParseError naming the file and the key path of the first
    entry that is missing or malformed.
    """
    d = read_json(path)
    require_keys(d, ("labels", "kappa_bar"), path, "")
    labels = d["labels"]
    if not isinstance(labels, list) or len(labels) < 2 or not all(isinstance(c, str) for c in labels):
        raise ParseError(f"{path}: labels: expected a list of at least 2 label strings")
    forest = read_forest(d, _class_columns(len(labels)), path)
    forest.labels = labels
    kappa_bar = d["kappa_bar"]
    values = [kappa_bar.get(c) for c in labels] if isinstance(kappa_bar, dict) else [None]
    if not all(type(k) in (int, float) and 0 <= k <= 1 for k in values):
        raise ParseError(f"{path}: kappa_bar: expected a number for every label, in [0, 1]")
    return forest, ClassThresholds(kappa_bar=kappa_bar)
