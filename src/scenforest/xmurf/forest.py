"""The forest type and grow loop both forests use, the unsupervised fit,
the path-proximity matrix, and the JSON forest reader and writer.

A ``Forest`` is the unsupervised forest (``labels`` None) or the
classifier of ``scenforest.classify`` (its sorted label set). Per-tree
randomness comes from counter-based seed substreams
(SeedSequence(master, spawn_key=(tree_index,))), so a fitted forest is
identical regardless of evaluation order. ``grow_forest`` grows all trees
in lock-step: one node per live tree per step, with one split search over
the nodes of every tree, each tree packing its node records into its own
buffer.

The pairwise proximity exploits that two root-to-leaf paths share exactly
their common prefix. All rows go down a tree together, one tree level per
pass, to their leaves (``xmurf.tree.route``, the classifier's router
too): every row steps while more than half of them still move, a row at
a leaf staying put, and only the moving rows after that. In preorder, the
shared prefix of two leaves is the least depth of the node that follows
each leaf from the first up to the one before the second, and a row goes
left where the paths part exactly when its leaf comes first. So a table
over the tree's leaves gives every pair's Jaccard term, and the M x M
accumulation runs a block of rows at a time with no walk over the nodes,
building only the table rows of the block's leaves. One writer,
``write_forest``, writes both forest files, ``forest.json`` and the
classifier's ``model.json``, a tree at a time, in the bytes ``json.dumps``
gives the whole; one reader, ``read_forest``, reads both.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from ..dataset import PROXIMITY_BLOCK, Dataset, ParseError, ProximityMatrix, read_json, require_keys
from .tree import NOISE_COLUMNS, NoiseRule, Tree, _dtype, chosen_splits, node_dicts, read_nodes, route

__all__ = ["Forest", "tree_rng", "grow_forest", "fit", "proximity_matrix", "write_forest", "save_forest",
           "read_forest", "load_forest"]

SEARCH_ROWS = 1 << 10  # node rows per split search, which bounds its temporaries
_INT = struct.Struct("=q")  # a node's child id, patched in place


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


def grow_forest(x: np.ndarray, b_trees: int, seed: int, rule) -> list[Tree]:
    """Grow ``b_trees`` fully-grown trees on the rows of ``x``, in lock-step.

    Tree b draws from ``tree_rng(seed, b)`` its bootstrap bag of all M rows
    first, and then one sample of ``rule.sample`` per searched node, in
    preorder: ``rule.sample.stream(rng)`` draws them in bulk, as one call
    per node would. Each tree keeps its own preorder stack. At each step
    every live tree pops nodes until one is to be searched (``rule.leaves``
    says which; the others become leaves at once and draw nothing), and
    takes that node's draws from its own stream; no tree draws from
    another's rng, so interleaving them changes no tree. ``rule.scores``
    then scores the candidates of the popped nodes of all trees at once
    (SEARCH_ROWS rows at a time), a node splits on its first greatest gain
    (``xmurf.tree.chosen_splits``) when ``rule.accepts`` it, and each
    split's children are the rows its sorted segment holds at or below the
    threshold and above it. A split that leaves a side empty makes the
    node a leaf: a midpoint of two adjacent doubles can round up to the node
    maximum, and the child holding every row would split there forever.
    Each tree packs its nodes into its own buffer of records as they are
    made, and that buffer becomes its node array with no copy: a node's id
    is its record's index there, its preorder position, and a left child
    is its parent's id + 1.

    ``rule`` gives: ``columns``, the forest's own node columns;
    ``leaves(rows)``, per node's rows its own columns as a leaf and whether
    it is searched; ``sample``, the ``xmurf.tree.NodeSamples`` of a
    searched node's draws; ``scores(rows, sizes, owns, draws)``, the
    nodes' features, their ``xmurf.tree.Candidates``, the gain of each
    candidate and the data row at each sorted position; ``accepts(gains)``,
    which gains may split a node; and ``split_own(own, draws)``, a split
    node's own columns.
    """
    if b_trees < 1:
        raise ValueError("need at least one tree")
    if not np.isfinite(x).all():
        raise ValueError("rows hold a non-finite value")

    m = x.shape[0]
    rngs = [tree_rng(seed, b) for b in range(b_trees)]
    bags = [rng.integers(0, m, size=m) for rng in rngs]
    draws = [rule.sample.stream(rng) for rng in rngs]
    dtype = _dtype(rule.columns)
    record, right = _record(dtype), dtype.fields["right"][1]
    # each tree's nodes, in preorder: node i is the record at stores[b][i * record.size:]
    stores = [bytearray() for _ in bags]
    # a stack entry: (rows, id of the parent whose right child it is or -1, own columns as a leaf, searched)
    stacks = [[(bag, -1, *root)] for bag, root in zip(bags, rule.leaves(bags))]
    live = range(b_trees)
    while live:
        popped = []  # (tree, id, rows, own, draws) of each node searched at this step
        for b in live:
            stack, store = stacks[b], stores[b]
            while stack:
                rows, right_of, own, searched = stack.pop()
                i = len(store) // record.size
                if right_of >= 0:
                    _INT.pack_into(store, right_of * record.size + right, i)
                store += record.pack(-1, 0.0, i, i, *own)
                if searched:
                    popped.append((b, i, rows, own, next(draws[b])))
                    break
        live = [entry[0] for entry in popped]
        group, n_rows = [], 0  # nodes searched in one call: at most SEARCH_ROWS rows, unless one node has more
        for entry in popped:
            if group and n_rows + len(entry[2]) > SEARCH_ROWS:
                _split(rule, group, stacks, stores, record)
                group, n_rows = [], 0
            group.append(entry)
            n_rows += len(entry[2])
        if group:
            _split(rule, group, stacks, stores, record)
    return [Tree(nodes=np.frombuffer(store, dtype), bag=bag) for bag, store in zip(bags, stores)]


def _record(dtype: np.dtype) -> struct.Struct:
    """The packing of one record of a node dtype, whose fields are int64,
    float64 and int8 values and arrays of them."""
    codes = {np.dtype(np.int64): "q", np.dtype(np.float64): "d", np.dtype(np.int8): "b"}
    return struct.Struct("=" + "".join(codes[dtype[name].base] * math.prod(dtype[name].shape) for name in dtype.names))


def _split(rule, popped: list, stacks: list, stores: list, record: struct.Struct) -> None:
    """Search the popped nodes at once, write the split of each node that
    splits into its tree's record, and push its children onto its tree's stack."""
    rows = [entry[2] for entry in popped]
    sizes = np.array([len(r) for r in rows])
    features, c, gains, sorted_rows = rule.scores(
        rows, sizes, [entry[3] for entry in popped], [entry[4] for entry in popped])
    node, feature, threshold, start, n_left = chosen_splits(features, c, gains, rule.accepts(gains))
    # a threshold of two finite values is finite unless their sum overflows:
    # an infinite one would send every row to one side
    applied = (n_left < sizes[node]) & np.isfinite(threshold)
    if not applied.all():
        node, feature, threshold, start, n_left = (a[applied] for a in (node, feature, threshold, start, n_left))
    if not node.size:
        return
    # each split node's left and right rows, copied from its sorted segment: a
    # view would keep this search's whole array alive while the child waits
    kids = []
    for first, mid, end in zip(start.tolist(), (start + n_left).tolist(), (start + sizes[node]).tolist()):
        kids += [sorted_rows[first:mid].copy(), sorted_rows[mid:end].copy()]
    kid_leaves = rule.leaves(kids)
    for j, (n, f, t) in enumerate(zip(node.tolist(), feature.tolist(), threshold.tolist())):
        b, i, _, own, draws = popped[n]
        record.pack_into(stores[b], i * record.size, f, t, i + 1, -1, *rule.split_own(own, draws))
        # push right first so the left child is created (and numbered) first
        stacks[b].append((kids[2 * j + 1], i, *kid_leaves[2 * j + 1]))
        stacks[b].append((kids[2 * j], -1, *kid_leaves[2 * j]))


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
    trees = grow_forest(data.values, b_trees, seed, NoiseRule(data.values, max(1, math.isqrt(q))))
    return Forest(trees=trees, q=q, seed=seed, feature_names=list(data.feature_names))


def _depths(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The depth of every node of a tree's child arrays, root 0, one tree
    level per pass."""
    depth, level, d = np.zeros(len(left), dtype=np.int64), np.zeros(1, dtype=np.int64), 0
    while True:
        level = level[left[level] != level]
        if not level.size:
            return depth
        d += 1
        level = np.concatenate([left[level], right[level]])
        depth[level] = d


def _is_leaf(tree: Tree) -> np.ndarray:
    """Each node's leaf flag: a leaf's left child is itself."""
    left = tree.nodes["left"]
    return left == np.arange(len(left))


def _tree_proximity(tree: Tree, x: np.ndarray, diverging: np.ndarray, same_leaf: np.ndarray) -> None:
    """Add one tree's pairwise Jaccard terms to the accumulators.

    ``diverging[i, j]`` receives the term of every pair whose leaves differ
    and row i's leaf comes first in preorder (row i goes left where the
    paths part), and 0.0 for every other pair; ``same_leaf`` receives 1 for
    every pair, the diagonal too, that lands in the same leaf: identical
    paths, Jaccard 1. The nodes between two leaves u < v in preorder all
    descend from their last common node, and the node right after a leaf
    sits one level below the last common node of that leaf and the next;
    so the shared prefix of u and v, in nodes, is the least depth of the
    node after each leaf from u up to the one before v. The rows go down the
    tree one level per pass; the accumulation runs PROXIMITY_BLOCK // M rows
    at a time and builds, per block, only the rows of the leaf-pair table
    that its rows' leaves index, which bounds the temporaries.
    """
    feature, threshold, left, right = (tree.nodes[name] for name in ("feature", "threshold", "left", "right"))
    depth = _depths(left, right)
    m = x.shape[0]
    node = route(feature, threshold, left, right, x, np.arange(m), np.zeros(m, dtype=np.int64))
    is_leaf = _is_leaf(tree)
    leaves = np.flatnonzero(is_leaf)
    cols = np.arange(len(leaves))
    # every count below is a small integer: each term is the division of the
    # same two exact doubles as a per-pair form would make, and the counts
    # take the least unsigned type that holds twice the longest path
    count = np.min_scalar_type(2 * (int(depth.max()) + 1))
    length = (depth[leaves] + 1).astype(count)  # nodes on the path to each leaf
    after = np.concatenate([[0], depth[leaves[:-1] + 1]]).astype(count)
    rank = (np.cumsum(is_leaf) - 1)[node]  # each row's leaf, as its place among the leaves
    step = max(1, PROXIMITY_BLOCK // m)
    for r0 in range(0, m, step):
        rows = slice(r0, r0 + step)
        u = rank[rows]
        # term[k, v]: the Jaccard term of leaves u[k] < v, 0 where u[k] >= v;
        # the fill, the longest path, exceeds every depth
        upper = cols > u[:, None]
        shared = np.where(upper, after, length.max())
        np.minimum.accumulate(shared, axis=1, out=shared)
        shared *= upper
        union = length[u][:, None] + length
        union -= shared
        term = np.divide(shared, union)
        diverging[rows] += np.take(term, rank, axis=1)
        same_leaf[rows] += u[:, None] == rank


def _fold(diverging: np.ndarray, same_leaf: np.ndarray, b_trees: int) -> np.ndarray:
    """``(diverging + diverging.T + same_leaf) / b_trees`` made in place, one
    pair of tiles at a time: float addition commutes, so each sum is the same."""
    side = math.isqrt(PROXIMITY_BLOCK)
    for i in range(0, len(diverging), side):
        for j in range(i, len(diverging), side):
            a, b = slice(i, i + side), slice(j, j + side)
            tile = diverging[a, b] + diverging[b, a].T
            diverging[a, b], diverging[b, a] = tile, tile.T
    diverging += same_leaf
    return np.divide(diverging, b_trees, out=diverging)


def proximity_matrix(forest: Forest, data: Dataset) -> ProximityMatrix:
    """Mean per-tree path Jaccard over all trees, for all dataset rows.

    Every row of the dataset (in-bag or not) is routed through every tree.
    The result is exactly symmetric with unit diagonal and entries in (0, 1].
    It holds one M x M float64 accumulator, which becomes the result, one
    M x M leaf-sharing count (a byte each below 256 trees) and one block of
    rows at a time of each temporary: about 1.13 float64 matrices in all.
    """
    if data.values.shape[1] != forest.q:
        raise ValueError(f"dataset has {data.values.shape[1]} features, forest expects {forest.q}")
    m = data.values.shape[0]
    diverging = np.zeros((m, m))
    same_leaf = np.zeros((m, m), dtype=np.min_scalar_type(forest.n_trees))  # a count, exact as a double
    for tree in forest.trees:
        _tree_proximity(tree, data.values, diverging, same_leaf)
    return ProximityMatrix(values=_fold(diverging, same_leaf, forest.n_trees), ids=list(data.ids))


def write_forest(path, head: dict, trees: list[Tree], columns: dict) -> None:
    """Write ``json.dumps({**head, "trees": [{"nodes": node_dicts(t.nodes,
    columns)} for t in trees]})`` and a line end, one tree's node dicts at a
    time: the text is joined as ``json.dumps`` joins the whole, and no more
    than one tree's dicts are alive at once. ``head`` holds at least one
    key. Both forest files are written here (see ``read_forest``)."""
    with open(path, "w") as fh:
        fh.write(json.dumps(head)[:-1] + ', "trees": [')
        for k, tree in enumerate(trees):
            fh.write((", " if k else "") + json.dumps({"nodes": node_dicts(tree.nodes, columns)}))
        fh.write("]}\n")


def save_forest(forest: Forest, path) -> None:
    """Write the unsupervised forest's JSON: its ``seed``, ``B``, ``Q``,
    ``feature_names`` and trees (``write_forest``)."""
    head = {"seed": forest.seed, "B": forest.n_trees, "Q": forest.q, "feature_names": forest.feature_names}
    write_forest(path, head, forest.trees, NOISE_COLUMNS)


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
