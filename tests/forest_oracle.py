"""The per-node forest growth that production grows in lock-step, and the
per-node proximity walk that production replaces with leaf order.

Growth here goes one tree at a time, one node per call, one split search
per node: ``grow_tree`` pops a tree's nodes in preorder and calls the rule
on each; ``noise_rule`` and ``cart_rule`` make a node's rng draws in the
same order as production and search its split alone (``best_split`` and
``best_split_supervised``, over the ``split_candidates`` of the node's own
sorted block). Every tree, node array and bag it grows must equal
production's by bytes. ``proximity_matrix`` routes the rows through each
tree node by node, adding the Jaccard term of every pair where their index
sets part; its matrix must equal production's by bytes. ``fold`` turns
the accumulators into the matrix with whole-matrix temporaries.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from scenforest.classify import _class_columns, _gini_from_counts
from scenforest.xmurf.forest import Forest, tree_rng
from scenforest.xmurf.noise import NOISE_KINDS, estimate_noise_children, noise_cdf, standardize
from scenforest.xmurf.tree import NOISE_CODES, NOISE_COLUMNS, Tree, _dtype


def grow_tree(x, bag, rule, columns):
    """One fully-grown tree on the bagged rows of ``x``. ``rule(rows)``
    makes all of a node's rng draws and returns the node's own columns as a
    leaf, and its split: None, or (feature, threshold, own columns as a
    split node). A split that leaves a side empty makes the node a leaf."""
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
                stack.append((rows[~mask], i))
                stack.append((rows[mask], -1))
        records.append(record)
    return Tree(nodes=np.array([tuple(r) for r in records], dtype=_dtype(columns)), bag=bag)


def grow_forest(x, b_trees, seed, rule, columns):
    """Tree b: its bag from tree_rng(seed, b), then ``rule(rng, rows)`` per node."""
    trees = []
    for b in range(b_trees):
        rng = tree_rng(seed, b)
        bag = rng.integers(0, x.shape[0], size=x.shape[0])
        trees.append(grow_tree(x, bag, partial(rule, rng), columns))
    return trees


def split_candidates(sv):
    """The candidate splits of one node's sorted ``(features, rows)`` block:
    (feature row, midpoint of two consecutive distinct values, rows going
    left by ``value <= threshold``), feature-major."""
    m = sv.shape[1]
    f_idx, pos = np.nonzero(sv[:, 1:] != sv[:, :-1])
    above = sv[f_idx, pos + 1]
    thresholds = (sv[f_idx, pos] + above) / 2.0
    nxt = np.append(pos[1:], m - 1)[: len(pos)]
    nxt[np.nonzero(f_idx[1:] != f_idx[:-1])[0]] = m - 1
    return f_idx, thresholds, np.where(thresholds == above, nxt, pos) + 1


def best_split(x, rows, features, kind):
    """(gain, feature, threshold) of one node's best unsupervised split, or
    None when every sampled feature is constant. Ties go to the lowest
    feature, then the lowest threshold; a NaN gain is kept only in the first
    feature, and a later feature holding one is passed over whole."""
    m = len(rows)
    sv = np.sort(x.T[features[:, None], rows], axis=1)
    f_idx, thresholds, real_left = split_candidates(sv)
    if not f_idx.size:
        return None
    real_left = real_left.astype(np.float64)
    real_right = m - real_left
    z = standardize(thresholds, sv[f_idx, 0], sv[f_idx, -1])
    noise_left, noise_right = estimate_noise_children(m, noise_cdf(kind, np.clip(z, -3.0, 3.0)))
    total_left = real_left + noise_left
    total_right = real_right + noise_right
    r_left = 2.0 * real_left * noise_left / (total_left * total_left)
    r_right = 2.0 * real_right * noise_right / (total_right * total_right)
    gains = 0.5 - (total_left * r_left + total_right * r_right) / (2.0 * m)
    k = int(np.argmax(gains))
    if np.isnan(gains[k]) and f_idx[k] != f_idx[0]:
        k = int(np.argmax(np.where(np.isin(f_idx, f_idx[np.isnan(gains)]), -np.inf, gains)))
    return float(gains[k]), int(features[f_idx[k]]), float(thresholds[k])


def noise_rule(x, n_features_split, rng, rows, search=best_split):
    leaf = (len(rows), 0)
    if len(rows) <= 1:
        return leaf, None
    kind = NOISE_KINDS[rng.integers(len(NOISE_KINDS))]
    features = np.sort(rng.choice(x.shape[1], size=min(n_features_split, x.shape[1]), replace=False))
    best = search(x, rows, features, kind)
    if best is None or best[0] < 0.0:
        return leaf, None
    return leaf, (best[1], best[2], (len(rows), NOISE_CODES.index(kind)))


def best_split_supervised(x, y, rows, features, n_classes):
    """(gain, feature, threshold) of one node's best CART split, or None when
    no candidate leaves both sides nonempty; ties as in ``best_split``."""
    m = len(rows)
    counts_parent = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
    g_parent = float(_gini_from_counts(counts_parent))
    block = x.T[features[:, None], rows]
    order = np.argsort(block, axis=1, kind="stable")
    f_idx, thresholds, n_left = split_candidates(np.take_along_axis(block, order, axis=1))
    both_sides = n_left < m
    f_idx, thresholds, n_left = f_idx[both_sides], thresholds[both_sides], n_left[both_sides]
    if not f_idx.size:
        return None
    cum = np.cumsum(y[rows][order][..., None] == np.arange(n_classes), axis=1, dtype=np.float64)
    left_counts = cum[f_idx, n_left - 1]
    right_counts = counts_parent - left_counts
    n_right = m - n_left
    gains = g_parent - (n_left * _gini_from_counts(left_counts) + n_right * _gini_from_counts(right_counts)) / m
    k = int(np.argmax(gains))
    return float(gains[k]), int(features[f_idx[k]]), float(thresholds[k])


def cart_rule(x, y, n_classes, q_split, rng, rows, search=best_split_supervised):
    own = (np.bincount(y[rows], minlength=n_classes),)
    if len(rows) <= 1 or int(np.count_nonzero(own[0])) <= 1:
        return own, None
    features = np.sort(rng.choice(x.shape[1], size=min(q_split, x.shape[1]), replace=False))
    best = search(x, y, rows, features, n_classes)
    if best is None or best[0] <= 0.0:
        return own, None
    return own, (best[1], best[2], own)


def fit(data, b_trees, seed, search=best_split):
    """``xmurf.fit`` grown node by node, with ``search`` as the split search."""
    q = data.values.shape[1]
    rule = partial(noise_rule, data.values, max(1, math.isqrt(q)), search=search)
    trees = grow_forest(data.values, b_trees, seed, rule, NOISE_COLUMNS)
    return Forest(trees=trees, q=q, seed=seed, feature_names=list(data.feature_names))


def fit_classifier(d, b_trees, seed, search=best_split_supervised):
    """``classify.fit_classifier`` grown node by node, with ``search`` as the split search."""
    labels = d.label_set
    x = d.base.values
    index = {c: k for k, c in enumerate(labels)}
    y = np.array([index[c] for c in d.labels], dtype=np.int64)
    rule = partial(cart_rule, x, y, len(labels), max(1, math.isqrt(x.shape[1])), search=search)
    trees = grow_forest(x, b_trees, seed, rule, _class_columns(len(labels)))
    return Forest(trees=trees, q=x.shape[1], seed=seed, feature_names=list(d.base.feature_names), labels=labels)


def tree_accumulate(tree, x, diverging, same_leaf):
    """Add one tree's pairwise Jaccard terms in one walk: ``diverging``
    receives the (i left, j right) orientation only, ``same_leaf`` full
    symmetric blocks, the diagonal too."""
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


def proximity_matrix(forest, data):
    """The values of ``xmurf.proximity_matrix``, walking each tree's nodes."""
    m = data.values.shape[0]
    diverging, same_leaf = np.zeros((m, m)), np.zeros((m, m))
    for tree in forest.trees:
        tree_accumulate(tree, data.values, diverging, same_leaf)
    return fold(diverging, same_leaf, forest.n_trees)


def fold(diverging, same_leaf, b_trees):
    """The whole-matrix form of the fold that ``xmurf.forest._fold`` makes
    in place, one pair of tiles at a time."""
    return (diverging + diverging.T + same_leaf) / b_trees
