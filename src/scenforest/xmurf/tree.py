"""The node-array tree of both forests, and the unsupervised split rule.

A tree is one preorder record array ``nodes`` (array-based trees, Louppe
2014): the fields ``feature``, ``threshold``, ``left`` and ``right`` (go
left iff value <= threshold), then the forest's own columns, ``real_count``
and ``noise_kind`` (an index into ``NOISE_CODES``) or ``class_counts``.
A leaf points at itself (``left == right == i``) and has feature -1.
Children come after their parent, so every walk ends at a leaf, and node
ids are preorder positions, so a serialized tree rebuilds identically.
Both forests share the split-candidate layout, the per-node argmax, the
JSON node writer and the validated node reader below, and the lock-step
grow loop of ``xmurf.forest.grow_forest``.

Trees are grown fully (no pruning). A split search handles every node the
grow loop pops at one step, of every tree, at once: the nodes' ``(features,
rows)`` blocks, sorted by one sort of integer keys, lie in one flat
segmented array (``split_candidates``: nodes in order, then features
ascending, then thresholds ascending); a rule scores every candidate in
one pass, and one segmented argmax (``first_max``) takes each node's first
greatest gain, so ties go to the lowest feature and then the lowest
threshold. ``NoiseRule`` is the unsupervised forest's rule; the
classifier's is ``classify._CartRule``.

Every searched node of both forests samples floor(sqrt(Q)) features, and
the unsupervised one a noise CDF too, from its tree's rng, exactly as
``rng.integers`` and ``rng.choice(Q, k, replace=False)`` would draw them
one node at a time; ``NodeSamples`` makes those draws for many nodes of a
tree in one bulk ``rng.integers`` call.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..dataset import ParseError, require_keys
from .noise import NOISE_KINDS, noise_cdfs, standardize

__all__ = ["Tree", "value_codes", "split_candidates", "first_max", "chosen_splits", "NodeSamples", "NoiseRule",
           "node_dicts", "read_nodes", "route", "path", "path_proximity_tree"]

SPLIT_FIELDS = [("feature", np.int64), ("threshold", np.float64), ("left", np.int64), ("right", np.int64)]

DRAW_CHUNK = 32  # searched nodes per bulk draw; a tree holds one chunk's draws at a time

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


def value_codes(x: np.ndarray) -> tuple:
    """Dense order codes of the values of ``x``: (codes, values) with
    ``values[codes[r, f]] == x[r, f]``, where the codes of feature f are
    consecutive and ordered as its distinct values, after those of the
    features before it. Sorting codes sorts values, and equal values share
    a code."""
    codes = np.empty(x.shape, dtype=np.int32)
    values = []
    for f in range(x.shape[1]):
        distinct, codes[:, f] = np.unique(x[:, f], return_inverse=True)
        codes[:, f] += sum(map(len, values))
        values.append(distinct)
    return codes, np.concatenate(values)


Candidates = namedtuple("Candidates", "node seg threshold n_left start")


def split_candidates(codes: np.ndarray, values: np.ndarray, rows: list, sizes: np.ndarray,
                     features: np.ndarray) -> tuple:
    """Every candidate split of many nodes, in one flat segmented layout.

    Node n holds the data rows ``rows[n]`` (``sizes[n]`` of them) and the
    sorted features ``features[n]`` (k of them; ``codes, values`` are
    ``value_codes`` of the data). Segment s = n * k + j holds the node's
    rows sorted by feature ``features[n, j]``, and the segments follow each
    other in order: one sort of (segment, value code, position) keys sorts
    every segment at once. A candidate sits between two consecutive distinct
    values of a segment, at their midpoint, so candidates run node-major,
    then feature-major, then by threshold. Per candidate: ``node``, ``seg``,
    ``threshold``, ``n_left`` (the rows ``value <= threshold`` sends left: a
    midpoint of two adjacent doubles can round up to the upper value, and
    every copy of it then falls left as well, up to the segment's next
    boundary or its end), and ``start``, the segment's first flat position.
    Returns the Candidates, and the value and the data row at each flat
    position.
    """
    n, k = features.shape
    flat_rows = np.concatenate(rows)
    node = np.repeat(np.arange(n), sizes)
    row_bits, code_bits = len(flat_rows).bit_length(), len(values).bit_length()
    if row_bits + code_bits + (n * k).bit_length() > 63:
        raise ValueError(f"{n} nodes of {len(flat_rows)} rows are too many to sort in one key")
    seg = node * k + np.arange(k)[:, None]  # (k, rows): the segment of each gathered value
    key = ((seg << code_bits | codes[flat_rows, features[node].T]) << row_bits | np.arange(len(flat_rows))).ravel()
    key.sort()
    seg_code = key >> row_bits
    boundary = seg_code[1:] != seg_code[:-1]
    seg_end = np.cumsum(np.repeat(sizes, k))
    boundary[seg_end[:-1] - 1] = False  # a segment's last position
    p = boundary.nonzero()[0]
    v = values[seg_code & ((1 << code_bits) - 1)]
    cseg = seg_code[p] >> code_bits
    above = v[p + 1]
    threshold = (v[p] + above) / 2.0
    cnode = cseg // k
    start = seg_end[cseg] - sizes[cnode]
    n_left = p + 1 - start
    up = (threshold == above).nonzero()[0]
    if up.size:
        after = np.minimum(up + 1, len(p) - 1)
        nxt = np.where((up + 1 < len(p)) & (cseg[after] == cseg[up]), p[after], seg_end[cseg[up]] - 1)
        n_left[up] = nxt + 1 - start[up]
    return Candidates(cnode, cseg, threshold, n_left, start), v, flat_rows[key & ((1 << row_bits) - 1)]


def first_max(gains: np.ndarray, node: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The index of each node's first greatest gain, for the nodes in
    ``node`` (one entry per candidate, each node's entries contiguous and
    ``seg`` ascending), so ties go to the lowest feature and then the lowest
    threshold. A NaN counts as greatest. A gain is 0/0 when a midpoint
    rounds up to the feature's maximum (an empty right side) or a subnormal
    width's sixth is 0; only the node's first feature keeps such a gain,
    and any later feature holding one is passed over whole."""
    if not gains.size:
        return np.zeros(0, dtype=np.int64)
    new = np.concatenate(([True], node[1:] != node[:-1]))
    starts, rank = new.nonzero()[0], np.cumsum(new) - 1
    top = np.maximum.reduceat(gains, starts)
    hit = gains == top[rank]
    nan = np.isnan(gains) if np.isnan(top).any() else None
    if nan is not None:
        hit |= nan
    best = np.minimum.reduceat(np.where(hit, np.arange(len(gains)), len(gains)), starts)
    if nan is not None:
        late = nan[best] & (seg[best] != seg[starts])
        if late.any():
            nan_seg = np.zeros(seg[-1] + 1, dtype=bool)
            nan_seg[seg[nan]] = True
            return first_max(np.where(nan_seg[seg] & late[rank], -np.inf, gains), node, seg)
    return best


def chosen_splits(features: np.ndarray, c: Candidates, gains: np.ndarray, accept: np.ndarray) -> tuple:
    """The splits of the nodes whose ``first_max`` candidate is accepted:
    (node, feature, threshold, start, n_left) arrays, one entry per node."""
    best = first_max(gains, c.node, c.seg)
    best = best[accept[best]]
    return c.node[best], features.ravel()[c.seg[best]], c.threshold[best], c.start[best], c.n_left[best]


class NodeSamples:
    """The draws of a tree's searched nodes: a noise kind below ``n_kinds``
    (none when it is 0) and k of the q features, drawn in bulk.

    Per node, numpy's ``rng.integers(n_kinds)`` and then ``rng.choice(q, k,
    replace=False)`` make these bounded draws (Lemire 2019, *Fast random
    integer generation in an interval*), in order: one in [0, n_kinds) when
    n_kinds > 0; one in [0, j] for j = q - k ... q - 1, Floyd's sample
    (Bentley & Floyd 1987), which takes j when the value drawn is already
    chosen; and one in [0, i] for i = k - 1 ... 1, the shuffle of
    ``choice``, whose values no sorted sample reads. One ``rng.integers``
    call over the bounds of DRAW_CHUNK nodes makes the same draws bit for
    bit and leaves the rng in the same state. numpy samples by a tail
    shuffle instead when q > 10000 and k > q // 50, so that domain raises
    ValueError.
    """

    def __init__(self, q: int, k: int, n_kinds: int = 0):
        if q > 10_000 and k > q // 50:
            raise ValueError(f"{k} of {q} features: numpy's choice would tail-shuffle, not draw a Floyd sample")
        self.q, self.k, self.n_kinds = q, k, n_kinds
        bounds = [n_kinds] * bool(n_kinds) + list(range(q - k + 1, q + 1)) + list(range(k, 1, -1))
        self.bounds = np.tile(bounds, DRAW_CHUNK)

    def stream(self, rng: np.random.Generator) -> Iterator:
        """Each searched node's draws, in the order they come from ``rng``:
        its sorted features, or (kind, sorted features) when n_kinds > 0.
        It draws a chunk ahead of the nodes taken, so nothing else may draw
        from ``rng`` once the stream has started."""
        first = int(bool(self.n_kinds))
        while True:
            draws = rng.integers(0, self.bounds).reshape(DRAW_CHUNK, -1)
            features = draws[:, first:first + self.k]
            for c in range(1, self.k):  # Floyd's rule: j = q - k + c where the draw was taken before
                features[(features[:, :c] == features[:, c:c + 1]).any(axis=1), c] = self.q - self.k + c
            features.sort(axis=1)
            if self.n_kinds:
                yield from zip(draws[:, 0].tolist(), features)
            else:
                yield from features


class NoiseRule:
    """The unsupervised forest's split rule, for ``xmurf.forest.grow_forest``.

    Per node of two or more rows the rng draws, in order: the noise-CDF
    kind, then ``n_features_split`` distinct features (``sample``). A
    candidate scores the estimated Gini gain against the node's virtual
    noise. A perfectly balanced candidate scores exactly zero against the
    balanced noise; trees still split there (fully grown down to singleton
    or degenerate leaves), and negative gain cannot occur.
    """

    columns = NOISE_COLUMNS

    def __init__(self, x: np.ndarray, n_features_split: int):
        self.codes, self.values = value_codes(x)
        self.sample = NodeSamples(x.shape[1], min(n_features_split, x.shape[1]), len(NOISE_KINDS))

    def leaves(self, rows: list) -> list:
        """(own columns as a leaf, whether it is searched) of each node's rows."""
        return [((len(r), 0), len(r) >= 2) for r in rows]

    def split_own(self, own: tuple, draws: tuple) -> tuple:
        return own[0], int(draws[0]) + 1  # the code of the drawn kind in NOISE_CODES

    def accepts(self, gains: np.ndarray) -> np.ndarray:
        """Every gain but a negative one splits; a NaN gain splits too."""
        return ~(gains < 0.0)

    def scores(self, rows: list, sizes: np.ndarray, owns: list, draws: list) -> tuple:
        """(features, Candidates, gains, data row at each flat position) of
        the split candidates of the nodes whose draws are (kind, sorted
        features). The nodes are laid out by noise kind, in their order
        within a kind, so that each kind's candidates are one run of the
        flat layout; ``node`` still indexes ``rows``."""
        kinds = [d for d, _ in draws]
        order = sorted(range(len(draws)), key=kinds.__getitem__)
        features, order_of = np.array([draws[j][1] for j in order]), np.array(order)
        c, v, sorted_rows = split_candidates(self.codes, self.values, [rows[j] for j in order], sizes[order_of],
                                             features)
        normal, bimodal = c.node.searchsorted((kinds.count(0), len(kinds) - kinds.count(2))).tolist()
        c = c._replace(node=order_of[c.node])
        m = sizes[c.node]
        real_left = c.n_left.astype(np.float64)
        real_right = m - real_left
        # np.clip's values, without the checks it makes in Python
        z = np.minimum(np.maximum(standardize(c.threshold, v[c.start], v[c.start + m - 1]), -3.0), 3.0)
        # estimate_noise_children's split, whose checks hold here: m >= 2 and
        # noise_cdfs clips to [0, 1]
        noise_left = m * noise_cdfs(z, normal, bimodal)
        noise_right = m - noise_left
        # parent impurity is exactly 0.5: the assumed noise mass equals the
        # real count, so the node is perfectly balanced before the split
        total_left = real_left + noise_left
        total_right = real_right + noise_right
        r_left = 2.0 * real_left * noise_left / (total_left * total_left)
        r_right = 2.0 * real_right * noise_right / (total_right * total_right)
        return features, c, 0.5 - (total_left * r_left + total_right * r_right) / (2.0 * m), sorted_rows


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
    size, records, parent = len(nodes), [], [None] * len(nodes)
    keys = ["id", *(name for name, _ in SPLIT_FIELDS), *columns]
    key_set = set(keys)
    own_columns = [(name, valid, want, codes) for name, (_, valid, want, codes) in columns.items()]

    def at(i: int) -> str:  # the key path of node i, built only for a message
        return f"{where}nodes[{i}]."

    for i, n in enumerate(nodes):
        if not isinstance(n, dict) or not key_set <= n.keys():
            require_keys(n, keys, path, at(i))
        if n["id"] != i:
            raise ParseError(f"{path}: {at(i)}id: {n['id']!r} is not its preorder position {i}")
        own = []
        for name, valid, want, codes in own_columns:
            if not valid(n[name]):
                raise ParseError(f"{path}: {at(i)}{name}: expected {want}")
            own.append(n[name] if codes is None else codes.index(n[name]))
        feature = n["feature"]
        if feature is None:
            records.append((-1, 0.0, i, i, *own))
            continue
        if type(feature) is not int or not 0 <= feature < q:
            raise ParseError(f"{path}: {at(i)}feature: {feature!r} is not a feature index below Q={q}")
        if type(n["threshold"]) not in (int, float):
            raise ParseError(f"{path}: {at(i)}threshold: {n['threshold']!r} is not a number")
        for side in ("left", "right"):
            child = n[side]
            if type(child) is not int or not i < child < size:
                raise ParseError(f"{path}: {at(i)}{side}: {child!r} is not a node id in ({i}, {size})")
            if parent[child] is not None:
                raise ParseError(f"{path}: {at(i)}{side}: node {child} is already the child of node {parent[child]}")
            parent[child] = i
        if n["left"] != i + 1:
            raise ParseError(f"{path}: {at(i)}left: {n['left']} is not the next node id {i + 1}")
        records.append((feature, n["threshold"], n["left"], n["right"], *own))
    try:
        orphan = parent.index(None, 1)
    except ValueError:  # every node but the root has a parent
        pass
    else:
        raise ParseError(f"{path}: {where}nodes[{orphan}]: not the child of any node")
    try:
        return np.array(records, dtype=_dtype(columns))
    except OverflowError:
        raise ParseError(f"{path}: {where}nodes: a number is out of range") from None


def route(feature, threshold, left, right, x: np.ndarray, rows: np.ndarray, node: np.ndarray) -> np.ndarray:
    """The leaf of every (row, start node) pair: row x[rows[p]] moved down
    from node[p] of the node arrays, one level per pass (predicated
    traversal, Asadi, Lin & de Vries 2014). ``node`` is updated in place
    and returned.

    A split cell is read from the flat row block, ``x.ravel()[rows[p] * Q +
    feature]`` (``ravel`` copies an ``x`` that is not C-contiguous). While
    more than half of the pairs still move, every pair steps: a leaf points
    at itself, so a pair at a leaf stays put, and its feature -1 reads a
    valid cell whose result is ignored. Then only the moving pairs step,
    compacted after each pass. No pair means no pass."""
    cells, start = x.ravel(), rows * x.shape[1]
    to_left = left[node]
    while 2 * np.count_nonzero(to_left != node) > len(node):
        node[:] = np.where(cells[start + feature[node]] <= threshold[node], to_left, right[node])
        to_left = left[node]
    live = np.flatnonzero(to_left != node)
    while live.size:
        at = node[live]
        at = np.where(cells[start[live] + feature[at]] <= threshold[at], left[at], right[at])
        node[live] = at
        live = live[left[at] != at]
    return node


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
