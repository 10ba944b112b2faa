"""The node-array tree of both forests, and the unsupervised split rule.

A tree is one preorder record array ``nodes`` (array-based trees, Louppe
2014): the fields ``feature``, ``threshold``, ``left`` and ``right`` (go
left iff value <= threshold), then the forest's own columns, ``real_count``
and ``noise_kind`` (an index into ``NOISE_CODES``) or ``class_counts``.
A leaf points at itself (``left == right == i``) and has feature -1.
Children come after their parent, so every walk ends at a leaf, and node
ids are preorder positions, so a serialized tree rebuilds identically.
Both forests share the grow loop, the split-candidate layout, the JSON
node writer and the validated node reader below.

Trees are grown fully (no pruning). A split search handles all sampled
features of a node at once: one sort of the node's ``(features, rows)``
block, every candidate threshold of every feature in one feature-major
array (``split_candidates``: features ascending, then thresholds
ascending), and one argmax over their gains, so ties go to the lowest
feature and then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import ParseError, require_keys
from .noise import NOISE_KINDS, estimate_noise_children, noise_cdf, standardize

__all__ = ["Tree", "grow_tree", "split_candidates", "noise_rule", "node_dicts", "read_nodes", "path",
           "path_proximity_tree"]

SPLIT_FIELDS = [("feature", np.int64), ("threshold", np.float64), ("left", np.int64), ("right", np.int64)]

NOISE_CODES = (None, *NOISE_KINDS)  # noise_kind is stored as an index into this; a leaf has 0

# A forest's own columns: name -> (record dtype, check of a JSON value, what the check wants, and
# for a column stored as codes, the JSON value of each code)
NOISE_COLUMNS = {
    "real_count": (np.int64, lambda v: type(v) is int, "an integer", None),
    "noise_kind": (np.int8, lambda v: v in NOISE_CODES, f"null or one of {', '.join(NOISE_KINDS)}", NOISE_CODES),
}


@dataclass
class Tree:
    nodes: np.ndarray              # preorder record array, see the module docstring
    bag: np.ndarray | None = None  # bootstrap row indices (with repeats)


def _dtype(columns: dict) -> np.dtype:
    return np.dtype(SPLIT_FIELDS + [(name, spec[0]) for name, spec in columns.items()])


def grow_tree(x: np.ndarray, bag: np.ndarray, rule, columns: dict) -> Tree:
    """Grow one fully-grown tree on the bagged rows of the data matrix.

    ``rule(rows)`` makes all of a node's rng draws and returns the node's
    own columns as a leaf, and its split: None, or (feature, threshold, own
    columns as a split node). A split that leaves a side empty makes the
    node a leaf: a midpoint of two adjacent doubles can round up to the node
    maximum, and the child holding every row would split there forever.
    """
    bag = np.asarray(bag)
    records = []
    # preorder DFS; a left child is always its parent's id + 1, so the stack
    # holds (rows, id of the parent whose right child this is, or -1)
    stack = [(bag, -1)]
    while stack:
        rows, right_of = stack.pop()
        i = len(records)
        if right_of >= 0:
            records[right_of][3] = i
        own, split = rule(rows)
        record = [-1, 0.0, i, i, *own]
        if split is not None:
            feature, tau, split_own = split
            mask = x[rows, feature] <= tau
            if 0 < np.count_nonzero(mask) < len(rows):
                record = [feature, tau, i + 1, -1, *split_own]
                # push right first so the left child is created (and numbered) first
                stack.append((rows[~mask], i))
                stack.append((rows[mask], -1))
        records.append(record)
    return Tree(nodes=np.array([tuple(r) for r in records], dtype=_dtype(columns)), bag=bag)


def split_candidates(sv: np.ndarray) -> tuple:
    """The candidate splits of a node's ``(features, rows)`` block ``sv``,
    sorted along the rows, feature-major (feature rows ascending, then
    thresholds ascending): (feature row, midpoint of two consecutive
    distinct values, rows going left). A constant feature has none. The
    count going left is that of ``value <= threshold``, the partition
    ``grow_tree`` applies: a midpoint of two adjacent doubles can round up
    to the upper value, and every copy of it then falls left as well, up to
    the feature's next boundary (or all rows past its last one)."""
    m = sv.shape[1]
    f_idx, pos = np.nonzero(sv[:, 1:] != sv[:, :-1])  # split after sorted position pos
    above = sv[f_idx, pos + 1]
    thresholds = (sv[f_idx, pos] + above) / 2.0
    nxt = np.append(pos[1:], m - 1)[: len(pos)]  # the feature's next boundary
    nxt[np.nonzero(f_idx[1:] != f_idx[:-1])[0]] = m - 1
    return f_idx, thresholds, np.where(thresholds == above, nxt, pos) + 1


def _best_split(x: np.ndarray, rows: np.ndarray, features: np.ndarray, kind: str):
    """Best split of the node's rows over the sampled features, in one pass.

    The ``(features, rows)`` block is sorted along the rows once and its
    candidates scored in the ``split_candidates`` layout. Constant features
    have no candidate, so no zero-width interval is standardised. Returns
    (gain, feature, threshold), or None if every sampled feature is
    constant in the node. One global argmax takes the first maximum, so
    ties go to the lowest feature and then the lowest threshold.
    """
    m = len(rows)
    sv = np.sort(x.T[features[:, None], rows], axis=1)
    f_idx, thresholds, real_left = split_candidates(sv)
    if not f_idx.size:
        return None
    real_left = real_left.astype(np.float64)
    real_right = m - real_left
    z = standardize(thresholds, sv[f_idx, 0], sv[f_idx, -1])
    noise_left, noise_right = estimate_noise_children(m, noise_cdf(kind, np.clip(z, -3.0, 3.0)))
    # parent impurity is exactly 0.5: the assumed noise mass equals the
    # real count, so the node is perfectly balanced before the split
    total_left = real_left + noise_left
    total_right = real_right + noise_right
    r_left = 2.0 * real_left * noise_left / (total_left * total_left)
    r_right = 2.0 * real_right * noise_right / (total_right * total_right)
    gains = 0.5 - (total_left * r_left + total_right * r_right) / (2.0 * m)
    k = int(np.argmax(gains))  # the first NaN, if any
    if np.isnan(gains[k]) and f_idx[k] != f_idx[0]:
        # a gain is 0/0 when a midpoint rounds up to the feature's maximum
        # (an empty right side) or a subnormal width's sixth is 0. Only the
        # first feature keeps such a gain; any later feature holding one is
        # passed over whole.
        k = int(np.argmax(np.where(np.isin(f_idx, f_idx[np.isnan(gains)]), -np.inf, gains)))
    return float(gains[k]), int(features[f_idx[k]]), float(thresholds[k])


def noise_rule(x: np.ndarray, n_features_split: int, rng: np.random.Generator, rows: np.ndarray):
    """The unsupervised forest's split rule; ``grow_tree`` gets it with all
    but ``rows`` bound (``grow_forest`` binds ``rng``). Per node of two or
    more rows the rng draws, in order: the noise-CDF kind, then
    ``n_features_split`` distinct features.
    """
    leaf = (len(rows), 0)
    if len(rows) <= 1:
        return leaf, None
    kind = NOISE_KINDS[rng.integers(len(NOISE_KINDS))]
    features = np.sort(rng.choice(x.shape[1], size=min(n_features_split, x.shape[1]), replace=False))
    best = _best_split(x, rows, features, kind)
    # a perfectly balanced candidate scores exactly zero against the
    # balanced virtual noise; trees still split there (fully grown down
    # to singleton or degenerate leaves), and negative gain cannot occur
    if best is None or best[0] < 0.0:
        return leaf, None
    return leaf, (best[1], best[2], (len(rows), NOISE_CODES.index(kind)))


def node_dicts(nodes: np.ndarray, columns: dict) -> list[dict]:
    """The JSON objects of a tree's nodes, in preorder: ``id``, the split
    fields (null at a leaf), then the forest's own columns."""
    names, leaf, out = nodes.dtype.names, (None,) * len(SPLIT_FIELDS), []
    values = [nodes[name].tolist() for name in names]
    for k, (*_, codes) in enumerate(columns.values(), len(SPLIT_FIELDS)):
        if codes:
            values[k] = [codes[c] for c in values[k]]
    for i, record in enumerate(zip(*values)):
        d = {"id": i}
        d.update(zip(names, record if record[2] != i else leaf + record[4:]))
        out.append(d)
    return out


def read_nodes(nodes, q: int, columns: dict, path, where: str) -> np.ndarray:
    """The record array of a tree's JSON node list at key path ``where``.

    Raises ParseError naming the file and the key path of the first node
    entry that is missing or malformed. Node i must have id i, and a split
    node's feature must be below Q, its left child must be node i + 1 and
    its right child must come after it inside the tree, so that every walk
    ends at a leaf; and every node but the root must be the child of exactly
    one node, so that the list is one preorder tree.
    """
    if not isinstance(nodes, list) or not nodes:
        raise ParseError(f"{path}: {where}nodes: expected a non-empty list")
    size, records, parent = len(nodes), [], {}
    keys = ["id", *(name for name, _ in SPLIT_FIELDS), *columns]
    for i, n in enumerate(nodes):
        at = f"{where}nodes[{i}]."
        require_keys(n, keys, path, at)
        if n["id"] != i:
            raise ParseError(f"{path}: {at}id: {n['id']!r} is not its preorder position {i}")
        for name, (_, valid, want, _) in columns.items():
            if not valid(n[name]):
                raise ParseError(f"{path}: {at}{name}: expected {want}")
        own = [n[name] if codes is None else codes.index(n[name]) for name, (*_, codes) in columns.items()]
        if n["feature"] is None:
            records.append((-1, 0.0, i, i, *own))
            continue
        if type(n["feature"]) is not int or not 0 <= n["feature"] < q:
            raise ParseError(f"{path}: {at}feature: {n['feature']!r} is not a feature index below Q={q}")
        if type(n["threshold"]) not in (int, float):
            raise ParseError(f"{path}: {at}threshold: {n['threshold']!r} is not a number")
        for side in ("left", "right"):
            if type(n[side]) is not int or not i < n[side] < size:
                raise ParseError(f"{path}: {at}{side}: {n[side]!r} is not a node id in ({i}, {size})")
            if n[side] in parent:
                raise ParseError(f"{path}: {at}{side}: node {n[side]} is already the child of node {parent[n[side]]}")
            parent[n[side]] = i
        if n["left"] != i + 1:
            raise ParseError(f"{path}: {at}left: {n['left']} is not the next node id {i + 1}")
        records.append((n["feature"], n["threshold"], n["left"], n["right"], *own))
    orphan = next((j for j in range(1, size) if j not in parent), None)
    if orphan is not None:
        raise ParseError(f"{path}: {where}nodes[{orphan}]: not the child of any node")
    try:
        return np.array(records, dtype=_dtype(columns))
    except OverflowError:
        raise ParseError(f"{path}: {where}nodes: a number is out of range") from None


def path(x: np.ndarray, tree: Tree) -> set:
    """Node ids visited by one datapoint from the root to its leaf."""
    i, visited = 0, {0}
    while True:
        feature, threshold, left, right = tree.nodes[i].item()[:4]
        if left == i:
            return visited
        i = left if x[feature] <= threshold else right
        visited.add(i)


def path_proximity_tree(p1: set, p2: set) -> float:
    """Jaccard index of two root-to-leaf path sets from the same tree."""
    inter = len(p1 & p2)
    return inter / (len(p1) + len(p2) - inter)
