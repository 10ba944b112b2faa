"""Single-tree construction and path extraction for the unsupervised forest.

Trees are grown fully (no pruning): splitting stops only when a node holds
one bagged datapoint or all sampled features are constant within the node.
Node ids are assigned in preorder so a serialized tree rebuilds
identically.

The split search handles all sampled features of a node at once, in the
manner of array-based presorted trees (Louppe 2014): one sort of the
node's ``(features, rows)`` block, every candidate threshold of every
feature in one feature-major array (features ascending, then thresholds
ascending), and one argmax over their gains, so ties go to the lowest
feature and then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .noise import NOISE_KINDS, noise_cdf

__all__ = ["TreeNode", "Tree", "grow_tree", "path", "path_proximity_tree"]


@dataclass
class TreeNode:
    node_id: int
    feature: int | None = None      # split feature index, None for leaves
    threshold: float | None = None  # go left iff value <= threshold
    left: int | None = None
    right: int | None = None
    real_count: int = 0             # bagged datapoints reaching this node
    noise_kind: str | None = None   # CDF drawn for this node's split search

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class Tree:
    nodes: list[TreeNode] = field(default_factory=list)
    bag: np.ndarray | None = None   # bootstrap row indices (with repeats)

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]


def _best_split(x: np.ndarray, rows: np.ndarray, features: np.ndarray, kind: str):
    """Best split of the node's rows over the sampled features, in one pass.

    The ``(features, rows)`` block is sorted along the rows once. Candidates
    are the midpoints between consecutive distinct sorted values, laid out
    feature-major (features ascending, as sampled) and, within a feature,
    by ascending threshold. Constant features have no candidate, so no
    zero-width interval is standardised. Returns (gain, feature,
    threshold), or None if every sampled feature is constant in the node.
    One global argmax takes the first maximum, so ties go to the lowest
    feature and then the lowest threshold.
    """
    m = len(rows)
    sv = np.sort(x.T[features[:, None], rows], axis=1)
    f_idx, pos = np.nonzero(sv[:, 1:] != sv[:, :-1])  # split after sorted position pos
    if not f_idx.size:
        return None
    above = sv[f_idx, pos + 1]
    thresholds = (sv[f_idx, pos] + above) / 2.0
    # the midpoint of two adjacent doubles can round up to the upper value;
    # every copy of it then falls left as well, up to the feature's next
    # boundary (or all m rows past its last one)
    nxt = np.append(pos[1:], m - 1)
    nxt[np.nonzero(f_idx[1:] != f_idx[:-1])[0]] = m - 1
    real_left = np.where(thresholds == above, nxt, pos) + 1.0
    real_right = m - real_left
    lo, hi = sv[f_idx, 0], sv[f_idx, -1]
    z = (thresholds - (hi + lo) / 2.0) / ((hi - lo) / 6.0)
    p = noise_cdf(kind, np.clip(z, -3.0, 3.0))
    noise_left = m * p
    noise_right = m - noise_left
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


def grow_tree(x: np.ndarray, bag: np.ndarray, n_features_split: int, rng: np.random.Generator) -> Tree:
    """Grow one fully-grown tree on the bagged rows of the data matrix.

    Per node the rng draws, in order: the noise-CDF kind, then
    ``n_features_split`` distinct feature indices.
    """
    q_total = x.shape[1]
    tree = Tree(bag=np.asarray(bag))
    # preorder DFS; stack holds (rows, parent_id, is_left), root has no parent
    stack = [(np.asarray(bag), None, False)]
    while stack:
        rows, parent_id, is_left = stack.pop()
        node_id = len(tree.nodes)
        node = TreeNode(node_id=node_id, real_count=len(rows))
        tree.nodes.append(node)
        if parent_id is not None:
            if is_left:
                tree.nodes[parent_id].left = node_id
            else:
                tree.nodes[parent_id].right = node_id
        if len(rows) <= 1:
            continue
        kind = NOISE_KINDS[rng.integers(len(NOISE_KINDS))]
        features = np.sort(rng.choice(q_total, size=min(n_features_split, q_total), replace=False))
        best = _best_split(x, rows, features, kind)
        # a perfectly balanced candidate scores exactly zero against the
        # balanced virtual noise; trees still split there (fully grown down
        # to singleton or degenerate leaves), and negative gain cannot occur
        if best is None or best[0] < 0.0:
            continue
        _, q, tau = best
        node.feature = q
        node.threshold = tau
        node.noise_kind = kind
        mask = x[rows, q] <= tau
        # push right first so the left child is created (and numbered) first
        stack.append((rows[~mask], node_id, False))
        stack.append((rows[mask], node_id, True))
    return tree


def path(x: np.ndarray, tree: Tree) -> set:
    """Node ids visited by one datapoint from the root to its leaf."""
    visited = set()
    node = tree.root
    while True:
        visited.add(node.node_id)
        if node.is_leaf:
            return visited
        node = tree.nodes[node.left if x[node.feature] <= node.threshold else node.right]


def path_proximity_tree(p1: set, p2: set) -> float:
    """Jaccard index of two root-to-leaf path sets from the same tree."""
    inter = len(p1 & p2)
    return inter / (len(p1) + len(p2) - inter)
