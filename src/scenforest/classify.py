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

Inference never walks node objects. On first use a forest is flattened
into one set of node arrays (``feature``, ``threshold``, ``left``,
``right``, the leaf vote ``argmax(class_counts)`` and each tree's root
offset), kept on the forest instance. Leaves route to themselves. One
batch router moves a block of (row, tree) pairs down all trees at once
until every pair sits at a leaf, and votes are counted block by block, so
no rows x trees matrix of votes is ever built. Votes, prediction and the
OOB thresholds all go through it.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .dataset import Dataset, LabeledDataset, ParseError, require_keys
from .xmurf.forest import tree_rng

__all__ = [
    "UNASSIGNED",
    "ClassNode",
    "ClassTree",
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
class ClassNode:
    node_id: int
    feature: int | None = None
    threshold: float | None = None
    left: int | None = None
    right: int | None = None
    class_counts: list[int] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class ClassTree:
    nodes: list[ClassNode]
    bag: np.ndarray  # bootstrap row indices, with repeats


@dataclass
class SupervisedForest:
    trees: list[ClassTree]
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
        return _flatten(self.trees)


@dataclass(frozen=True)
class _FlatForest:
    """All trees' nodes in preorder, tree after tree, indexed globally."""

    feature: np.ndarray  # split feature; 0 at leaves
    threshold: np.ndarray  # go left when x[feature] <= threshold; 0.0 at leaves
    left: np.ndarray  # global child index; a leaf points at itself
    right: np.ndarray
    vote: np.ndarray  # leaf label index, argmax(class_counts): ties to the lowest label
    root: np.ndarray  # global index of each tree's root


def _flatten(trees: list[ClassTree]) -> _FlatForest:
    nodes, root = [], []  # (feature, threshold, left, right, vote) per node
    for tree in trees:
        offset = len(nodes)
        root.append(offset)
        for i, n in enumerate(tree.nodes):
            if n.is_leaf:
                counts = n.class_counts
                nodes.append((0, 0.0, offset + i, offset + i, max(range(len(counts)), key=counts.__getitem__)))
            else:
                nodes.append((n.feature, n.threshold, offset + n.left, offset + n.right, 0))
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64)
    columns = (np.array(col, dtype=t) for col, t in zip(zip(*nodes), dtypes))
    return _FlatForest(*columns, root=np.array(root, dtype=np.int64))


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
    trees = []
    for b in range(b_trees):
        rng = tree_rng(seed, b)
        bag = rng.integers(0, m, size=m)
        nodes: list[ClassNode] = []
        stack = [(np.asarray(bag), None, False)]
        while stack:
            rows, parent_id, is_left = stack.pop()
            node_id = len(nodes)
            counts = np.bincount(y[rows], minlength=n_classes)
            node = ClassNode(node_id=node_id, class_counts=counts.tolist())
            nodes.append(node)
            if parent_id is not None:
                if is_left:
                    nodes[parent_id].left = node_id
                else:
                    nodes[parent_id].right = node_id
            if len(rows) <= 1 or int(np.count_nonzero(counts)) <= 1:
                continue
            features = np.sort(rng.choice(q, size=min(q_split, q), replace=False))
            best = _best_split_supervised(x, y, rows, features, n_classes)
            if best is None or best[0] <= 0.0:
                continue
            _, feat, tau = best
            node.feature = feat
            node.threshold = tau
            mask = x[rows, feat] <= tau
            stack.append((rows[~mask], node_id, False))
            stack.append((rows[mask], node_id, True))
        trees.append(ClassTree(nodes=nodes, bag=np.asarray(bag)))
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
    return {
        "seed": f.seed,
        "B": f.n_trees,
        "Q": f.q,
        "labels": f.labels,
        "feature_names": f.feature_names,
        "kappa_bar": None if th is None else th.kappa_bar,
        "kappas": None if th is None else th.kappas,
        "trees": [
            {
                "bag": t.bag.tolist(),
                "nodes": [
                    {
                        "id": n.node_id,
                        "feature": n.feature,
                        "threshold": n.threshold,
                        "left": n.left,
                        "right": n.right,
                        "class_counts": n.class_counts,
                    }
                    for n in t.nodes
                ],
            }
            for t in f.trees
        ],
    }


def save_model(f: SupervisedForest, th: ClassThresholds | None, path) -> None:
    Path(path).write_text(json.dumps(_model_dict(f, th)) + "\n")


_MODEL_KEYS = ("seed", "Q", "labels", "trees")
_TREE_KEYS = ("bag", "nodes")
_NODE_KEYS = ("id", "feature", "threshold", "left", "right", "class_counts")


def _load_node(n, i: int, size: int, q: int, n_labels: int, path, where: str) -> ClassNode:
    """The node at preorder position i of a tree of ``size`` nodes. Children
    must come after their parent inside the tree, so that routing always ends."""
    require_keys(n, _NODE_KEYS, path, where)
    if n["id"] != i:
        raise ParseError(f"{path}: {where}id: {n['id']!r} is not its preorder position {i}")
    counts = n["class_counts"]
    if not isinstance(counts, list) or len(counts) != n_labels or {*map(type, counts)} != {int}:
        raise ParseError(f"{path}: {where}class_counts: expected {n_labels} integer counts, one per label")
    if n["feature"] is not None:
        if type(n["feature"]) is not int or not 0 <= n["feature"] < q:
            raise ParseError(f"{path}: {where}feature: {n['feature']!r} is not a feature index below Q={q}")
        if type(n["threshold"]) not in (int, float):
            raise ParseError(f"{path}: {where}threshold: {n['threshold']!r} is not a number")
        for side in ("left", "right"):
            if type(n[side]) is not int or not i < n[side] < size:
                raise ParseError(f"{path}: {where}{side}: {n[side]!r} is not a node id in ({i}, {size})")
    return ClassNode(
        node_id=i, feature=n["feature"], threshold=n["threshold"], left=n["left"], right=n["right"], class_counts=counts
    )


def _load_tree(t, k: int, q: int, n_labels: int, path) -> ClassTree:
    where = f"trees[{k}]."
    require_keys(t, _TREE_KEYS, path, where)
    nodes = t["nodes"]
    if not isinstance(nodes, list) or not nodes:
        raise ParseError(f"{path}: {where}nodes: expected a non-empty list")
    try:
        bag = np.array(t["bag"], dtype=np.int64)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: {where}bag: expected a list of row indices") from None
    size = len(nodes)
    return ClassTree(
        nodes=[_load_node(n, i, size, q, n_labels, path, f"{where}nodes[{i}].") for i, n in enumerate(nodes)],
        bag=bag,
    )


def load_model(path):
    """Load (forest, thresholds-or-None) from a model JSON.

    Raises ParseError naming the file and the key path of the first entry
    that is missing or malformed.
    """
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from None
    require_keys(d, _MODEL_KEYS, path, "")
    labels, q = d["labels"], d["Q"]
    if not isinstance(labels, list) or len(labels) < 2 or not all(isinstance(c, str) for c in labels):
        raise ParseError(f"{path}: labels: expected a list of at least 2 label strings")
    if type(q) is not int or q < 1:
        raise ParseError(f"{path}: Q: {q!r} is not a positive feature count")
    if not isinstance(d["trees"], list) or not d["trees"]:
        raise ParseError(f"{path}: trees: expected a non-empty list")
    trees = [_load_tree(t, k, q, len(labels), path) for k, t in enumerate(d["trees"])]
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
