"""Unsupervised forest: split math, noise CDFs, paths, and proximity."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_oracle
from conftest import adjacent_doubles, split_batch, tie_heavy_dataset
from scenforest.dataset import Dataset, ParseError
from scenforest.xmurf import forest as forest_module
from scenforest.xmurf import tree as tree_module
from scenforest.xmurf.tree import DRAW_CHUNK, NodeSamples, NoiseRule, first_max
from scenforest.xmurf import (
    NOISE_KINDS,
    Forest,
    Tree,
    estimate_noise_children,
    fit,
    gini,
    gini_gain,
    load_forest,
    noise_cdf,
    path,
    path_proximity_tree,
    proximity_matrix,
    save_forest,
    standardize,
    tree_rng,
)


def make_dataset(values, names=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    q = values.shape[1]
    return Dataset(
        feature_names=names or [f"f{i}" for i in range(q)],
        ids=[f"r{i}" for i in range(values.shape[0])],
        values=values,
    )


def forest_json(f) -> str:
    """The text ``save_forest`` writes for ``f``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "forest.json"
        save_forest(f, path)
        return path.read_text()


def is_leaf(tree):
    """Per node: True at a leaf, which points at itself."""
    return tree.nodes["left"] == np.arange(len(tree.nodes))


# ---------------------------------------------------------------- split math

def test_gini_hand_values():
    assert gini(5, 5) == 0.5
    assert gini(10, 0) == 0.0
    assert gini(3, 1) == 0.375  # 2 * (3/4) * (1/4)


def test_gini_empty_node_rejected():
    with pytest.raises(ValueError):
        gini(0, 0)


def test_gini_gain_hand_values():
    assert gini_gain((5, 5), (5, 0), (0, 5)) == 0.5
    assert gini_gain((4, 4), (2, 2), (2, 2)) == 0.0
    assert gini_gain((4, 4), (3, 1), (1, 3)) == pytest.approx(0.125, abs=0)


def test_gini_gain_conservation_enforced():
    with pytest.raises(ValueError, match="real"):
        gini_gain((4, 4), (3, 1), (2, 3))
    with pytest.raises(ValueError, match="noise"):
        gini_gain((4, 4.0), (3, 1.0), (1, 2.9))


def test_standardize_values():
    assert standardize(3.0, 0.0, 6.0) == 0.0
    assert standardize(6.0, 0.0, 6.0) == 3.0
    assert standardize(0.0, 0.0, 6.0) == -3.0
    with pytest.raises(ValueError):
        standardize(1.0, 2.0, 2.0)


# ---------------------------------------------------------------- noise CDFs

def reference_normal_cdf(zs):
    """Independent oracle: trapezoid integration of the standard normal pdf."""
    grid = np.linspace(-8.0, 3.0, 22001)
    pdf = np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    cum = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])
    return np.interp(zs, grid, cum)


def test_noise_cdf_point_values():
    assert noise_cdf("uniform", 0.0) == 0.5
    assert noise_cdf("uniform", 3.0) == 1.0
    assert noise_cdf("uniform", -3.0) == 0.0
    assert noise_cdf("normal", 0.0) == 0.5
    assert noise_cdf("normal", 1.0) == pytest.approx(reference_normal_cdf(1.0), abs=1e-3)
    assert noise_cdf("normal", 1.0) == pytest.approx(0.8413, abs=1e-3)


def test_normal_cdf_within_1e3_of_quadrature():
    zs = np.linspace(-3.0, 3.0, 601)
    approx = noise_cdf("normal", zs)
    assert np.max(np.abs(approx - reference_normal_cdf(zs))) < 1e-3


def test_all_cdfs_monotone_in_unit_range():
    zs = np.linspace(-3.0, 3.0, 601)
    for kind in NOISE_KINDS:
        vals = noise_cdf(kind, zs)
        assert np.all(np.diff(vals) >= 0.0), kind
        assert vals.min() >= 0.0 and vals.max() <= 1.0, kind


def test_bimodal_normalized_endpoints():
    assert noise_cdf("bimodal", -3.0) == pytest.approx(0.0, abs=1e-12)
    assert noise_cdf("bimodal", 3.0) == pytest.approx(1.0, abs=1e-12)


def test_cdf_clamps_out_of_range_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        assert noise_cdf("uniform", 4.0) == 1.0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        noise_cdf("triangular", 0.0)


def test_noise_children_hand_values():
    assert estimate_noise_children(10, 0.5) == (5.0, 5.0)
    assert estimate_noise_children(10, 0.0) == (0.0, 10.0)
    assert estimate_noise_children(7, 1.0) == (7.0, 0.0)


def test_noise_children_exact_conservation():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        m = int(rng.integers(1, 1000))
        kind = NOISE_KINDS[rng.integers(3)]
        z = rng.uniform(-3.0, 3.0)
        left, right = estimate_noise_children(m, noise_cdf(kind, z))
        assert left + right == m  # bit-exact


# ------------------------------------------------------------------- fitting

def test_fit_minimal_two_rows():
    d = make_dataset([[0.0], [1.0]])
    f = fit(d, 1, seed=5)
    tree = f.trees[0]
    internal = np.nonzero(~is_leaf(tree))[0]
    # bootstrap may draw one row twice; with two distinct rows in the bag the
    # tree is exactly root + two leaves
    if len(set(tree.bag.tolist())) == 2:
        assert len(tree.nodes) == 3 and len(internal) == 1


def test_fit_two_distinct_rows_splits():
    d = make_dataset([[0.0], [1.0]])
    for seed in range(20):
        f = fit(d, 1, seed=seed)
        tree = f.trees[0]
        if len(set(tree.bag.tolist())) == 2:
            assert not is_leaf(tree)[0]
            assert len(tree.nodes) == 3
            return
    pytest.fail("no seed produced a two-row bag")


def test_fit_deterministic():
    rng = np.random.default_rng(3)
    d = make_dataset(rng.normal(size=(30, 4)))
    f1 = fit(d, 10, seed=99)
    f2 = fit(d, 10, seed=99)
    assert forest_json(f1) == forest_json(f2)
    f3 = fit(d, 10, seed=100)
    assert forest_json(f1) != forest_json(f3)


def test_fit_degenerate_dataset_warns():
    d = make_dataset([[1.0, 2.0]] * 5)
    with pytest.warns(UserWarning, match="identical"):
        f = fit(d, 3, seed=0)
    for tree in f.trees:
        assert len(tree.nodes) == 1 and is_leaf(tree)[0]


def test_fit_validates_inputs():
    d = make_dataset([[0.0], [1.0]])
    with pytest.raises(ValueError):
        fit(d, 0, seed=1)
    with pytest.raises(ValueError):
        fit(make_dataset([[0.0]]), 1, seed=1)


def scan_best_split(x, rows, features, kind):
    """Brute-force gain scan over all candidate splits using the scalar ops."""
    m = len(rows)
    best = None
    for q in sorted(features):
        vals = np.sort(np.unique(x[rows, q]))
        if len(vals) < 2:
            continue
        lo, hi = x[rows, q].min(), x[rows, q].max()
        for tau in (vals[:-1] + vals[1:]) / 2.0:
            z = standardize(tau, lo, hi)
            p = noise_cdf(kind, min(max(z, -3.0), 3.0))
            noise_l, noise_r = estimate_noise_children(m, p)
            real_l = int(np.sum(x[rows, q] <= tau))
            gain = gini_gain((m, m), (real_l, noise_l), (m - real_l, noise_r))
            if best is None or gain > best[0] + 1e-15:
                best = (gain, int(q), float(tau))
    return best


def test_root_split_matches_brute_force_scan():
    rng = np.random.default_rng(21)
    x = np.vstack([rng.normal(0, 1, (50, 2)), rng.normal(20, 1, (50, 2))])
    d = make_dataset(x)
    seed = 1234
    f = fit(d, 5, seed=seed)
    q_split = max(1, math.isqrt(2))
    for b, tree in enumerate(f.trees):
        rng_replay = tree_rng(seed, b)
        bag = rng_replay.integers(0, 100, size=100)
        np.testing.assert_array_equal(bag, tree.bag)
        kind = NOISE_KINDS[rng_replay.integers(len(NOISE_KINDS))]
        feats = np.sort(rng_replay.choice(2, size=q_split, replace=False))
        root = tree.nodes[0]
        assert kind == tree_module.NOISE_CODES[root["noise_kind"]]
        gain, feat, tau = scan_best_split(x, bag, feats, kind)
        assert feat == root["feature"]
        assert tau == pytest.approx(root["threshold"], abs=0)
        assert gain > 0


def loop_best_split(x, rows, features, kind):
    """Reference split search: one feature at a time, in ascending order.

    Per feature: the sorted values, midpoints of consecutive unique values,
    real counts by searchsorted, noise by the CDF, gains, and the first
    argmax; a later feature replaces the best only on a strictly larger
    gain. Production must return exactly the same tuple.
    """
    m = len(rows)
    best = None
    for q in features:
        vals = np.sort(x[rows, q])
        lo, hi = vals[0], vals[-1]
        if hi == lo:
            continue
        uniq = np.unique(vals)
        thresholds = (uniq[:-1] + uniq[1:]) / 2.0
        real_left = np.searchsorted(vals, thresholds, side="right").astype(np.float64)
        real_right = m - real_left
        z = (thresholds - (hi + lo) / 2.0) / ((hi - lo) / 6.0)
        p = noise_cdf(kind, np.clip(z, -3.0, 3.0))
        noise_left = m * p
        noise_right = m - noise_left
        total_left = real_left + noise_left
        total_right = real_right + noise_right
        r_left = 2.0 * real_left * noise_left / (total_left * total_left)
        r_right = 2.0 * real_right * noise_right / (total_right * total_right)
        gains = 0.5 - (total_left * r_left + total_right * r_right) / (2.0 * m)
        k = int(np.argmax(gains))
        if best is None or gains[k] > best[0]:
            best = (float(gains[k]), int(q), float(thresholds[k]))
    return best


def production_splits(x, nodes):
    """(gain, feature, threshold) of each node's first greatest candidate in
    one batched production search over ``nodes`` [(rows, sorted features,
    kind)], None for a node without candidates."""
    rows = [r for r, _, _ in nodes]
    draws = [(NOISE_KINDS.index(kind), f) for _, f, kind in nodes]
    features, c, gains, _ = NoiseRule(x, 1).scores(rows, np.array([len(r) for r in rows]), None, draws)
    out = [None] * len(nodes)
    for k in first_max(gains, c.node, c.seg).tolist():
        out[c.node[k]] = (float(gains[k]), int(features.ravel()[c.seg[k]]), float(c.threshold[k]))
    return out


# 1 + ulp has an odd significand, so the midpoint of it and the next double
# rounds up to that next double: every copy of the upper value falls left
A, B = adjacent_doubles(float(np.nextafter(1.0, 2.0)), 2)


def assert_same_splits(x, nodes):
    """Production's batched search equals the loop on each node exactly. A
    NaN gain (an empty right side, or a subnormal interval width whose sixth
    is 0) must be NaN on both, at the same feature and threshold."""
    with np.errstate(invalid="ignore", divide="ignore"):
        got = production_splits(x, nodes)
        want = [loop_best_split(x, rows, features, kind) for rows, features, kind in nodes]
    for g, w in zip(got, want):
        if w is not None and math.isnan(w[0]):
            assert g is not None and math.isnan(g[0]) and g[1:] == w[1:]
        else:
            assert g == w
    return want


@settings(max_examples=300, deadline=None)
@given(split_batch(), st.data())
def test_best_split_equals_loop_oracle(case, data):
    # several nodes in one search: each node's segments sit in the one flat layout
    x, nodes = case
    assert_same_splits(x, [(rows, features, data.draw(st.sampled_from(NOISE_KINDS))) for rows, features in nodes])


@pytest.mark.parametrize(
    "x, kind, want",
    [
        # the midpoint rounds up to B: both copies of B fall left, real_left = 3
        ([[A], [B], [B], [5.0]], "normal", (0, B)),
        # ... and B is the maximum: the right side holds only noise
        ([[A], [B], [A], [B]], "normal", (0, B)),
        # with the uniform CDF that side is empty, its gain 0/0; the first
        # feature keeps the NaN gain
        ([[0.0, 0.0], [0.0, 0.0], [A, 1.0], [B, 1.0]], "uniform", (0, B)),
        # a later feature holding one is passed over whole, although its other
        # candidate (4 real against 3 noise on the left) beats feature 0's zero
        ([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, A], [1.0, B]], "uniform", (0, 0.5)),
    ],
)
def test_best_split_midpoint_rounding(x, kind, want):
    x = np.array(x)
    node = (np.arange(len(x)), np.arange(x.shape[1]), kind)
    assert assert_same_splits(x, [node])[0][1:] == want
    # the same node beside another in one search, in either place
    other = (np.arange(len(x))[::-1], np.arange(x.shape[1]), "bimodal")
    assert assert_same_splits(x, [other, node])[1][1:] == want


def test_fit_with_loop_oracle_gives_same_forest():
    rng = np.random.default_rng(8)
    d = make_dataset(np.round(rng.normal(size=(60, 9)), 1))  # one decimal: many tied values
    want = forest_oracle.fit(d, 4, seed=7, search=loop_best_split)
    assert forest_json(fit(d, 4, seed=7)) == forest_json(want)


def one_node_at_a_time(rng, q, k, n_kinds, n):
    """n nodes' draws as numpy's own calls make them: the kind (when
    n_kinds > 0), then the sorted Floyd sample of ``choice``."""
    out = []
    for _ in range(n):
        kind = int(rng.integers(n_kinds)) if n_kinds else None
        out.append((kind, np.sort(rng.choice(q, size=k, replace=False))))
    return out


def assert_bulk_draws_as_numpy(seed, q, k, n_kinds, chunks):
    bulk, single = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = NodeSamples(q, k, n_kinds).stream(bulk)
    got = [next(stream) for _ in range(chunks * DRAW_CHUNK)]
    for g, (kind, features) in zip(got, one_node_at_a_time(single, q, k, n_kinds, len(got))):
        g_kind, g_features = g if n_kinds else (None, g)
        assert g_kind == kind
        assert g_features.tolist() == features.tolist()
    assert bulk.bit_generator.state == single.bit_generator.state


@given(
    seed=st.integers(0, 2**32 - 1),
    qk=st.integers(1, 64).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q))),
    n_kinds=st.sampled_from([0, len(NOISE_KINDS)]),
    chunks=st.integers(1, 2),
)
@settings(max_examples=60, deadline=None)
def test_bulk_draws_equal_numpys_calls_one_node_at_a_time(seed, qk, n_kinds, chunks):
    assert_bulk_draws_as_numpy(seed, *qk, n_kinds, chunks)


@pytest.mark.parametrize("q, k", [(10001, 100), (10001, 200), (20000, 141)])
def test_bulk_draws_equal_numpys_calls_for_wide_rows(q, k):
    assert_bulk_draws_as_numpy(11, q, k, len(NOISE_KINDS), 1)


def test_bulk_draws_refuse_numpys_tail_shuffle_domain():
    with pytest.raises(ValueError, match="tail-shuffle"):
        NodeSamples(20000, 1000)
    with pytest.raises(ValueError, match="tail-shuffle"):
        NoiseRule(np.zeros((2, 10001)), 201)  # 201 > 10001 // 50: numpy would tail-shuffle
    NoiseRule(np.zeros((2, 10001)), 200)


def test_separated_blobs_split_apart_at_root():
    # 20-sigma separation: every root must send each blob's in-bag majority
    # to a different side (exactly pure sides are not reachable: the gain is
    # zero at the empty mid-gap cut, so the optimum hugs a blob edge)
    rng = np.random.default_rng(5)
    x = np.vstack([rng.normal(0, 1, (50, 2)), rng.normal(20, 1, (50, 2))])
    d = make_dataset(x)
    f = fit(d, 100, seed=42)
    separated = 0
    for tree in f.trees:
        blob = tree.bag >= 50
        left = x[tree.bag, tree.nodes[0]["feature"]] <= tree.nodes[0]["threshold"]
        blob0_left = int(np.sum(left & ~blob)) > int(np.sum(~left & ~blob))
        blob1_right = int(np.sum(~left & blob)) > int(np.sum(left & blob))
        if blob0_left == blob1_right:
            separated += 1
    assert separated >= 0.95 * len(f.trees)


# ------------------------------------------------------------ paths, Jaccard

def hand_tree(*nodes):
    """A one-feature tree from node dicts, read by the production reader."""
    return Tree(nodes=tree_module.read_nodes(list(nodes), 1, tree_module.NOISE_COLUMNS, "hand", ""))


def split(i, feat, tau, l, r, n=2):
    return {"id": i, "feature": feat, "threshold": tau, "left": l, "right": r, "real_count": n, "noise_kind": None}


def leaf(i, n=1):
    return split(i, None, None, None, None, n)


def test_read_nodes_rejects_lists_that_are_not_one_preorder_tree():
    # breadth-first numbering: node 1's left child is node 3, not node 2
    with pytest.raises(ParseError, match=r"hand: nodes\[1\]\.left: 3 is not the next node id 2"):
        hand_tree(split(0, 0, 0.0, 1, 2), split(1, 0, -2.0, 3, 4), leaf(2), leaf(3), leaf(4))
    # node 2 hangs below no node
    with pytest.raises(ParseError, match=r"hand: nodes\[2\]: not the child of any node"):
        hand_tree(split(0, 0, 0.0, 1, 3), leaf(1), leaf(2), leaf(3))


def test_path_single_node_tree():
    tree = hand_tree(leaf(0, n=3))
    assert path(np.array([1.0]), tree) == {0}


def test_path_depth_one():
    tree = hand_tree(split(0, 0, 0.5, 1, 2), leaf(1), leaf(2))
    assert path(np.array([0.0]), tree) == {0, 1}
    assert path(np.array([1.0]), tree) == {0, 2}


def test_path_length_is_depth_plus_one():
    rng = np.random.default_rng(11)
    d = make_dataset(rng.normal(size=(40, 3)))
    f = fit(d, 3, seed=8)
    for tree in f.trees:
        depth = {0: 0}
        for i, n in enumerate(tree.nodes):
            if n["left"] != i:
                depth[n["left"]] = depth[i] + 1
                depth[n["right"]] = depth[i] + 1
        for i in range(d.n_rows):
            p = path(d.values[i], tree)
            reached = max(p, key=lambda nid: depth[nid])
            assert len(p) == depth[reached] + 1


def test_jaccard_paper_example():
    p1 = {0, 1, 2}          # length 3
    p2 = {0, 1, 3, 4}       # length 4, mutual path 2
    assert path_proximity_tree(p1, p2) == 0.4  # exactly 2/5


def test_jaccard_identity_and_root_only():
    p = {0, 5, 9}
    assert path_proximity_tree(p, p) == 1.0
    a = {0, 1, 2, 3}
    b = {0, 4, 5, 6, 7}
    assert path_proximity_tree(a, b) == 0.125  # 1/8


# ------------------------------------------------------------ proximity

def test_proximity_duplicate_rows_and_diagonal():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 2))
    x[7] = x[3]
    d = make_dataset(x)
    f = fit(d, 20, seed=6)
    p = proximity_matrix(f, d)
    assert np.all(np.diagonal(p.values) == 1.0)
    assert p.values[3, 7] == 1.0


def test_proximity_feature_mismatch():
    d = make_dataset(np.random.default_rng(0).normal(size=(5, 2)))
    f = fit(d, 2, seed=1)
    with pytest.raises(ValueError, match="features"):
        proximity_matrix(f, make_dataset(np.zeros((5, 3))))


def test_proximity_two_tree_average_matches_paper_arithmetic():
    # tree A gives the pair Jaccard 2/5, tree B gives 3/5; the forest value
    # is the plain average 0.5
    tree_a = hand_tree(
        split(0, 0, 0.0, 1, 6),
        split(1, 0, -2.0, 2, 3),
        leaf(2),
        split(3, 0, -1.0, 4, 5),
        leaf(4),
        leaf(5),
        leaf(6),
    )
    tree_b = hand_tree(
        split(0, 0, 0.0, 1, 6),
        split(1, 0, -1.0, 2, 5),
        split(2, 0, -2.0, 3, 4),
        leaf(3),
        leaf(4),
        leaf(5),
        leaf(6),
    )
    x = np.array([[-3.0], [-1.5]])
    pa = [path(x[i], tree_a) for i in (0, 1)]
    pb = [path(x[i], tree_b) for i in (0, 1)]
    assert path_proximity_tree(pa[0], pa[1]) == 0.4
    assert path_proximity_tree(pb[0], pb[1]) == 0.6
    forest = Forest(trees=[tree_a, tree_b], q=1, seed=0)
    d = make_dataset(x)
    p = proximity_matrix(forest, d)
    assert p.values[0, 1] == 0.5


def walk_serialized(tree_dict, value):
    """Independent oracle: hand-walk a serialized tree's node dicts."""
    nodes = {n["id"]: n for n in tree_dict["nodes"]}
    visited = []
    nid = 0
    while True:
        node = nodes[nid]
        visited.append(nid)
        if node["feature"] is None:
            return set(visited)
        nid = node["left"] if value <= node["threshold"] else node["right"]


def test_small_instance_oracle_equivalence():
    x = np.array([[0.1], [0.9], [0.35], [0.6], [0.2], [0.75]])
    d = make_dataset(x)
    f = fit(d, 1, seed=2024)
    tree_dict = json.loads(forest_json(f))["trees"][0]
    m = d.n_rows
    expected = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            pi = walk_serialized(tree_dict, x[i, 0])
            pj = walk_serialized(tree_dict, x[j, 0])
            inter = len(pi & pj)
            expected[i, j] = inter / (len(pi) + len(pj) - inter)
    p = proximity_matrix(f, d)
    np.testing.assert_array_equal(p.values, expected)


def test_proximity_root_share_lower_bound():
    rng = np.random.default_rng(4)
    d = make_dataset(rng.normal(size=(25, 3)))
    f = fit(d, 10, seed=3)
    p = proximity_matrix(f, d)
    lengths = np.array([[len(path(d.values[i], t)) for i in range(25)] for t in f.trees])
    for i in range(25):
        for j in range(25):
            bound = np.mean(1.0 / (lengths[:, i] + lengths[:, j] - 1.0))
            assert p.values[i, j] >= bound - 1e-12


def test_blob_separation_property():
    rng = np.random.default_rng(9)
    x = np.vstack([rng.normal(0, 1, (50, 2)), rng.normal(10, 1, (50, 2))])
    d = make_dataset(x)
    p = proximity_matrix(fit(d, 100, seed=77), d).values
    within = (p[:50, :50].sum() - 50) / (50 * 49)
    cross = p[:50, 50:].mean()
    assert within > cross


def test_forest_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    d = make_dataset(rng.normal(size=(15, 2)))
    f = fit(d, 4, seed=55)
    p1 = proximity_matrix(f, d)
    path_json = tmp_path / "forest.json"
    save_forest(f, path_json)
    f2 = load_forest(path_json)
    assert f2.n_trees == 4 and f2.q == 2 and f2.seed == 55
    p2 = proximity_matrix(f2, d)
    np.testing.assert_array_equal(p1.values, p2.values)
    # schema check: exactly the documented node keys
    blob = json.loads(path_json.read_text())
    assert set(blob) == {"seed", "B", "Q", "feature_names", "trees"}
    node = blob["trees"][0]["nodes"][0]
    assert set(node) == {"id", "feature", "threshold", "left", "right", "real_count", "noise_kind"}


# ------------------------------------------------ degenerate splits, JSON reader

def test_fit_stops_at_split_with_empty_side():
    # the midpoint of 1+ulp and 1+2ulp rounds up to 1+2ulp, the node maximum:
    # that split would send every row left, again and again
    _, a, b = adjacent_doubles(1.0, 3)
    with np.errstate(invalid="ignore"):  # that split's gain is 0/0
        f = fit(make_dataset([[0.0], [0.0], [a], [b]]), 20, seed=3)
    for tree in f.trees:
        count = tree.nodes["real_count"]
        internal = ~is_leaf(tree)
        left, right = tree.nodes["left"][internal], tree.nodes["right"][internal]
        assert np.all(count[left] > 0) and np.all(count[right] > 0)
        np.testing.assert_array_equal(count[left] + count[right], count[internal])


def set_root(key, value):
    def corrupt(blob):
        assert blob["trees"][0]["nodes"][0]["feature"] is not None
        blob["trees"][0]["nodes"][0][key] = value
        return json.dumps(blob)

    return corrupt


def set_top(key, value):
    def corrupt(blob):
        blob[key] = value
        return json.dumps(blob)

    return corrupt


def drop_key(blob):
    del blob["trees"][1]["nodes"][0]["left"]
    return json.dumps(blob)


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda blob: json.dumps(blob)[:-2], r"forest\.json:1: "),
        (drop_key, r"forest\.json: trees\[1\]\.nodes\[0\]\.left: missing key"),
        (set_root("right", 0), r"trees\[0\]\.nodes\[0\]\.right: 0 is not a node id"),
        (set_root("feature", 2), r"trees\[0\]\.nodes\[0\]\.feature: 2 is not a feature index below Q=2"),
        (set_root("noise_kind", "triangular"), r"trees\[0\]\.nodes\[0\]\.noise_kind: expected null or one of"),
        (set_root("real_count", 2.5), r"trees\[0\]\.nodes\[0\]\.real_count: expected an integer"),
        (set_root("right", 1), r"trees\[0\]\.nodes\[0\]\.right: node 1 is already the child of node 0"),
        (set_top("feature_names", 5), r"forest\.json: feature_names: expected Q=2 name strings"),
        (set_top("seed", "55"), r"forest\.json: seed: '55' is not an integer"),
        (set_top("seed", True), r"forest\.json: seed: True is not an integer"),
        (set_top("B", 99), r"forest\.json: B: 99 is not the number of trees, 3"),
    ],
    ids=[
        "invalid-json", "missing-key", "child-not-after-parent", "feature-not-below-q", "noise-kind", "real-count",
        "left-equals-right", "feature-names-not-a-list", "seed-string", "seed-bool", "b-not-tree-count",
    ],
)
def test_load_forest_rejects(tmp_path, corrupt, match):
    path = tmp_path / "forest.json"
    save_forest(fit(make_dataset(np.random.default_rng(14).normal(size=(15, 2))), 3, seed=55), path)
    path.write_text(corrupt(json.loads(path.read_text())))
    with pytest.raises(ParseError, match=match):
        load_forest(path)


# ------------------------------------------------ properties on tie-heavy data

FOREST_CASES = (tie_heavy_dataset(), st.integers(1, 4), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(*FOREST_CASES)
def test_proximity_invariants_on_tie_heavy_data(d, b, seed):
    with np.errstate(invalid="ignore", divide="ignore"):
        f = fit(d, b, seed=seed)
    p = proximity_matrix(f, d).values
    assert np.array_equal(p, p.T)
    assert np.all(np.diagonal(p) == 1.0)
    lengths = np.array([[len(path(d.values[i], t)) for i in range(d.n_rows)] for t in f.trees])
    bound = (1.0 / (lengths[:, :, None] + lengths[:, None, :] - 1.0)).mean(axis=0)
    assert np.all(p >= bound - 1e-12)


@settings(max_examples=60, deadline=None)
@given(*FOREST_CASES)
def test_fit_deterministic_and_forest_json_round_trips(d, b, seed):
    with np.errstate(invalid="ignore", divide="ignore"):
        f1, f2 = fit(d, b, seed=seed), fit(d, b, seed=seed)
    assert forest_json(f1) == forest_json(f2)
    for t1, t2 in zip(f1.trees, f2.trees):
        np.testing.assert_array_equal(t1.bag, t2.bag)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_forest(f1, first)
        save_forest(load_forest(first), second)
        assert first.read_bytes() == second.read_bytes()
        # written a tree at a time, joined as json.dumps joins the whole
        text = first.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for t1, t2 in zip(got, want):
        assert t1.nodes.tobytes() == t2.nodes.tobytes() and t1.nodes.dtype == t2.nodes.dtype
        assert t1.bag.tobytes() == t2.bag.tobytes()


@settings(max_examples=80, deadline=None)
@given(*FOREST_CASES)
def test_fit_equals_node_by_node_oracle(d, b, seed):
    # lock-step growth against one tree at a time, one node per search
    with np.errstate(invalid="ignore", divide="ignore"):
        assert_same_trees(fit(d, b, seed=seed).trees, forest_oracle.fit(d, b, seed=seed).trees)


@settings(max_examples=60, deadline=None)
@given(tie_heavy_dataset(), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_tree_k_does_not_depend_on_forest_size(d, b1, b2, seed):
    # tree k draws only from its own substream, however many trees grow beside it
    with np.errstate(invalid="ignore", divide="ignore"):
        small, large = fit(d, min(b1, b2), seed=seed), fit(d, max(b1, b2), seed=seed)
    assert_same_trees(small.trees, large.trees[: small.n_trees])


def test_fit_equals_oracle_where_a_midpoint_overflows():
    # 1.5e308 + 1.7e308 overflows: the midpoint is inf, every row goes left,
    # and the node stays a leaf, as the node-by-node oracle applies it
    d = make_dataset([[1.5e308, 0.0], [1.7e308, 0.0], [1.7e308, 1.0], [1.5e308, 1.0]])
    with np.errstate(invalid="ignore", over="ignore"):
        assert_same_trees(fit(d, 8, seed=4).trees, forest_oracle.fit(d, 8, seed=4).trees)


def test_search_in_groups_equals_one_search(monkeypatch):
    # a step's nodes are searched SEARCH_ROWS rows at a time; groups of one
    # node must grow the same trees
    d = make_dataset(np.round(np.random.default_rng(3).normal(size=(40, 5)), 1))
    want = fit(d, 6, seed=2)
    monkeypatch.setattr(forest_module, "SEARCH_ROWS", 1)
    assert_same_trees(fit(d, 6, seed=2).trees, want.trees)


@settings(max_examples=80, deadline=None)
@given(*FOREST_CASES)
def test_proximity_equals_node_walk(d, b, seed):
    # leaf order and one table per tree against the walk that parts the index
    # sets node by node: every byte of the matrix
    with np.errstate(invalid="ignore", divide="ignore"):
        f = fit(d, b, seed=seed)
    assert proximity_matrix(f, d).values.tobytes() == forest_oracle.proximity_matrix(f, d).tobytes()


def test_proximity_in_row_blocks_equals_node_walk(monkeypatch):
    # blocks of a few rows, so that block edges fall inside the matrix
    d = make_dataset(np.round(np.random.default_rng(6).normal(size=(30, 4)), 1))
    f = fit(d, 5, seed=9)
    monkeypatch.setattr(forest_module, "PROXIMITY_BLOCK", 70)
    assert proximity_matrix(f, d).values.tobytes() == forest_oracle.proximity_matrix(f, d).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 2, 255, 256, 257, 515]), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_fold_in_place_equals_whole_matrix_form(m, b, seed):
    # M on both sides of the 256-wide tiles; same_leaf counts up to B, in the
    # count type proximity_matrix gives them
    rng = np.random.default_rng(seed)
    diverging = rng.random((m, m)) * b * (rng.random((m, m)) < 0.8)
    same_leaf = rng.integers(0, b + 1, size=(m, m)).astype(np.min_scalar_type(b))
    want = forest_oracle.fold(diverging, same_leaf, b)
    assert forest_module._fold(diverging, same_leaf, b).tobytes() == want.tobytes()
