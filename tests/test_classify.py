"""Supervised forest, OOB thresholds, and the withdraw rule."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import forest_oracle
from conftest import adjacent_doubles, split_batch, tie_heavy_dataset
from scenforest import classify
from scenforest.classify import (
    ClassThresholds,
    fit_classifier,
    load_model,
    oob_thresholds,
    predict_batch,
    predict_detail,
    save_model,
)
from scenforest.dataset import Dataset, LabeledDataset, ParseError
from scenforest.xmurf.forest import Forest
from scenforest.xmurf.tree import Tree, first_max, read_nodes, route


def model_json(f) -> str:
    """The text ``save_model`` writes for ``f`` with the threshold 0.5 for
    every label."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(f, ClassThresholds(kappa_bar=dict.fromkeys(f.labels, 0.5)), path)
        return path.read_text()


def walk_vote(tree, x):
    """Oracle: walk one tree's node array for one row, node by node; the
    leaf votes argmax(class_counts), ties to the lowest label."""
    i = 0
    while tree.nodes[i]["left"] != i:
        node = tree.nodes[i]
        i = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return int(np.argmax(tree.nodes[i]["class_counts"]))


def class_tree(nodes, q, n_labels, bag):
    """A tree from node dicts, read by the production reader."""
    return Tree(nodes=read_nodes(nodes, q, classify._class_columns(n_labels), "hand", ""), bag=np.array(bag))


def blobs(rng, n=30, sep=8.0):
    x = np.vstack([rng.normal(0, 1, (n, 2)), rng.normal(sep, 1, (n, 2))])
    base = Dataset(["f0", "f1"], [f"r{i}" for i in range(2 * n)], x)
    return LabeledDataset(base, ["A"] * n + ["B"] * n)


def test_separable_training_accuracy():
    d = blobs(np.random.default_rng(0))
    f = fit_classifier(d, 30, seed=1)
    correct = 0
    for i, votes in enumerate(classify._count_votes(f, d.base.values)):
        correct += f.labels[int(np.argmax(votes))] == d.labels[i]
    assert correct == d.base.n_rows


def test_fit_deterministic():
    d = blobs(np.random.default_rng(1))
    f1 = fit_classifier(d, 10, seed=7)
    f2 = fit_classifier(d, 10, seed=7)
    for t1, t2 in zip(f1.trees, f2.trees):
        np.testing.assert_array_equal(t1.bag, t2.bag)
        for field in ("feature", "threshold", "class_counts"):
            np.testing.assert_array_equal(t1.nodes[field], t2.nodes[field])


def test_single_class_rejected():
    base = Dataset(["f"], ["a", "b"], [[0.0], [1.0]])
    with pytest.raises(ValueError, match="classes"):
        fit_classifier(LabeledDataset(base, ["x", "x"]), 5, seed=0)


def test_label_permutation_keeps_structure():
    d = blobs(np.random.default_rng(2))
    swapped = LabeledDataset(d.base, ["B" if c == "A" else "A" for c in d.labels])
    f1 = fit_classifier(d, 8, seed=3)
    f2 = fit_classifier(swapped, 8, seed=3)
    assert f1.labels == f2.labels == ["A", "B"]
    for t1, t2 in zip(f1.trees, f2.trees):
        np.testing.assert_array_equal(t1.bag, t2.bag)
        for n1, n2 in zip(t1.nodes, t2.nodes):
            assert (n1["feature"], n1["threshold"], n1["left"], n1["right"]) == (
                n2["feature"],
                n2["threshold"],
                n2["left"],
                n2["right"],
            )
            assert n1["class_counts"].tolist() == n2["class_counts"][::-1].tolist()  # relabeled majorities


def test_oob_vote_uses_only_out_of_bag_trees():
    d = blobs(np.random.default_rng(3), n=15)
    f = fit_classifier(d, 12, seed=5)
    m = d.base.n_rows
    # recount kappas independently from the recorded bags
    th = oob_thresholds(f, d)
    label_index = {c: k for k, c in enumerate(f.labels)}
    for i in range(m):
        oob_trees = [t for t in f.trees if i not in set(t.bag.tolist())]
        if not oob_trees:
            assert th.kappas[i] is None
            continue
        correct = sum(
            1 for t in oob_trees if walk_vote(t, d.base.values[i]) == label_index[d.labels[i]]
        )
        assert th.kappas[i] == pytest.approx(correct / len(oob_trees), abs=0)


def leaf_tree(vote_index, bag):
    """Single-leaf tree voting a fixed class; bag controls OOB membership."""
    counts = [0, 0]
    counts[vote_index] = 1
    leaf = {"id": 0, "feature": None, "threshold": None, "left": None, "right": None, "class_counts": counts}
    return class_tree([leaf], 1, 2, bag)


def test_kappa_counting_hand_model():
    # rows: r0 class a, r1..r3 class b; trees vote (a, b, b); r3 never bagged
    base = Dataset(["f"], ["r0", "r1", "r2", "r3"], [[0.0], [1.0], [2.0], [3.0]])
    d = LabeledDataset(base, ["a", "b", "b", "b"])
    f = Forest(
        trees=[
            leaf_tree(0, [2, 2, 2, 2]),  # votes a; OOB: r0, r1, r3
            leaf_tree(1, [0, 0, 0, 0]),  # votes b; OOB: r1, r2, r3
            leaf_tree(1, [0, 1, 0, 1]),  # votes b; OOB: r2, r3
        ],
        labels=["a", "b"],
        q=1,
        seed=0,
    )
    th = oob_thresholds(f, d)
    # r0: one OOB tree voting a -> 1.0; r1: (a, b) -> 0.5; r2: (b, b) -> 1.0;
    # r3: OOB in all three with votes (a, b, b) -> 2/3 correct
    assert th.kappas == [1.0, 0.5, 1.0, pytest.approx(2 / 3)]
    assert th.kappa_bar["a"] == 1.0
    assert th.kappa_bar["b"] == pytest.approx((0.5 + 1.0 + 2 / 3) / 3)


def test_oob_perfect_case_kappa_bar_one():
    d = blobs(np.random.default_rng(4), n=25)
    f = fit_classifier(d, 60, seed=11)
    th = oob_thresholds(f, d)
    for c, v in th.kappa_bar.items():
        assert 0.9 <= v <= 1.0
    for k in th.kappas:
        assert k is None or 0.0 <= k <= 1.0


def test_never_oob_excluded_with_warning():
    base = Dataset(["f"], ["a", "b", "c", "d"], [[0.0], [1.0], [2.0], [3.0]])
    d = LabeledDataset(base, ["x", "x", "y", "y"])
    # find a (B, seed) where some row is in-bag everywhere
    for seed in range(60):
        f = fit_classifier(d, 2, seed=seed)
        coverage = [any(i not in set(t.bag.tolist()) for t in f.trees) for i in range(4)]
        classes_covered = {d.labels[i] for i in range(4) if coverage[i]}
        if not all(coverage) and classes_covered == {"x", "y"}:
            with pytest.warns(UserWarning, match="never out-of-bag"):
                th = oob_thresholds(f, d)
            assert any(k is None for k in th.kappas)
            return
    pytest.skip("no seed produced a never-OOB row with full class coverage")


def test_class_without_oob_coverage_raises():
    base = Dataset(["f"], ["a", "b", "c", "d"], [[0.0], [1.0], [2.0], [3.0]])
    d = LabeledDataset(base, ["x", "x", "y", "y"])
    for seed in range(200):
        f = fit_classifier(d, 1, seed=seed)
        bag = set(f.trees[0].bag.tolist())
        uncovered = [c for c in ("x", "y") if all(i in bag for i in range(4) if d.labels[i] == c)]
        if uncovered:
            with pytest.raises(ValueError, match=uncovered[0]):
                with pytest.warns(UserWarning):
                    oob_thresholds(f, d)
            return
    pytest.skip("no seed left a whole class in-bag")


def test_withdraw_rule_cases():
    # synthetic forest not needed: exercise the rule through a hand model
    d = blobs(np.random.default_rng(5), n=20)
    f = fit_classifier(d, 10, seed=2)
    th = oob_thresholds(f, d)
    x = d.base.values[0]
    label0, fraction, _ = predict_batch(f, th, x[None], ratio=0.0)[0]
    assert label0 is not None  # ratio 0 always assigns
    # force withdrawal by an absurd threshold ratio
    label_hi, fraction_hi, threshold_hi = predict_batch(f, th, x[None], ratio=1e9)[0]
    assert label_hi is None and threshold_hi > 1.0
    for ratio in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ratio must be a finite number >= 0"):
            predict_detail(f, th, x, ratio=ratio)[0]


def test_withdraw_boundary_arithmetic():
    # 6 of 10 trees vote A (v = 0.6) against kappa_bar_A = 0.8:
    # withdrawn at ratio 1.0 (0.6 < 0.8), assigned at ratio 0.5 (0.6 >= 0.4)
    f = Forest(
        trees=[leaf_tree(0, [0]) for _ in range(6)] + [leaf_tree(1, [0]) for _ in range(4)],
        labels=["A", "B"],
        q=1,
        seed=0,
    )
    th = ClassThresholds(kappa_bar={"A": 0.8, "B": 0.8}, kappas=[])
    x = np.array([0.0])
    label, fraction, threshold = predict_batch(f, th, x[None], ratio=1.0)[0]
    assert (label, fraction, threshold) == (None, 0.6, 0.8)
    label, fraction, threshold = predict_batch(f, th, x[None], ratio=0.5)[0]
    assert (label, fraction, threshold) == ("A", 0.6, 0.4)


def test_monotone_assignment_and_subset():
    rng = np.random.default_rng(7)
    # overlapping blobs so confidence varies
    x = np.vstack([rng.normal(0, 1.5, (40, 2)), rng.normal(3, 1.5, (40, 2))])
    base = Dataset(["f0", "f1"], [f"r{i}" for i in range(80)], x)
    d = LabeledDataset(base, ["A"] * 40 + ["B"] * 40)
    f = fit_classifier(d, 40, seed=9)
    th = oob_thresholds(f, d)
    ratios = [0.0, 0.25, 0.5, 0.75, 1.0]
    assigned_sets = []
    for r in ratios:
        assigned = {
            i for i in range(80) if predict_detail(f, th, x[i], r)[0] is not None
        }
        assigned_sets.append(assigned)
    assert len(assigned_sets[0]) == 80  # ratio 0 assigns everything
    for tighter, looser in zip(assigned_sets[1:], assigned_sets[:-1]):
        assert tighter <= looser
    rates = [sum(label is not None for label, _, _ in predict_batch(f, th, x, r)) / 80 for r in ratios]
    assert rates[0] == 1.0
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_threshold_never_changes_winner():
    rng = np.random.default_rng(8)
    x = np.vstack([rng.normal(0, 1.5, (30, 2)), rng.normal(3, 1.5, (30, 2))])
    base = Dataset(["f0", "f1"], [f"r{i}" for i in range(60)], x)
    d = LabeledDataset(base, ["A"] * 30 + ["B"] * 30)
    f = fit_classifier(d, 30, seed=13)
    th = oob_thresholds(f, d)
    for i in range(60):
        plurality = f.labels[int(np.argmax(classify._count_votes(f, x[i : i + 1])[0]))]
        for r in (0.25, 0.75, 1.0):
            got = predict_detail(f, th, x[i], r)[0]
            assert got in (None, plurality)


def test_model_round_trip(tmp_path):
    d = blobs(np.random.default_rng(9), n=12)
    f = fit_classifier(d, 6, seed=21)
    th = oob_thresholds(f, d)
    path = tmp_path / "model.json"
    save_model(f, th, path)
    f2, th2 = load_model(path)
    assert f2.labels == f.labels and f2.n_trees == f.n_trees
    assert th2.kappa_bar == th.kappa_bar
    assert "kappas" not in json.loads(path.read_text()) and th2.kappas is None
    path.write_text(json.dumps({**json.loads(path.read_text()), "kappas": th.kappas}))  # an older model's key
    assert load_model(path)[1] == th2
    x = d.base.values[3]
    assert predict_batch(f, th, x[None], 0.5) == predict_batch(f2, th2, x[None], 0.5)
    assert classify.predict_detail(f2, th2, x, 0.5) == predict_batch(f2, th2, x[None], 0.5)[0]


# values and thresholds share one small grid, so rows land exactly on split points
GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]


def assert_votes_match_walk(f, x, voting=None):
    """_count_votes, over all rows at once and over each row alone, equals
    the walk of the trees that vote: those of the (N, B) mask ``voting``,
    or every tree."""
    votes = classify._count_votes(f, x, voting)
    assert votes.shape == (x.shape[0], len(f.labels))
    for i in range(x.shape[0]):
        expected = np.zeros(len(f.labels), dtype=np.int64)
        for b, tree in enumerate(f.trees):
            if voting is None or voting[i, b]:
                expected[walk_vote(tree, x[i])] += 1
        np.testing.assert_array_equal(votes[i], expected)
        one = None if voting is None else voting[i : i + 1]
        np.testing.assert_array_equal(classify._count_votes(f, x[i : i + 1], one)[0], expected)


@st.composite
def hand_tree(draw, q, n_labels):
    """A random preorder tree with tie-prone class counts (all zero included)."""
    nodes = []

    def grow(depth):
        node = {"id": len(nodes), "feature": None, "threshold": None, "left": None, "right": None}
        nodes.append(node)
        if depth < 4 and draw(st.booleans()):
            node["feature"] = draw(st.integers(0, q - 1))
            node["threshold"] = draw(st.sampled_from(GRID))
            node["left"] = grow(depth + 1)
            node["right"] = grow(depth + 1)
        node["class_counts"] = draw(st.lists(st.integers(0, 2), min_size=n_labels, max_size=n_labels))
        return node["id"]

    grow(0)
    return class_tree(nodes, q, n_labels, [0])


@st.composite
def hand_forest_and_rows(draw):
    q = draw(st.integers(1, 3))
    n_labels = draw(st.integers(2, 4))
    b = 2 * draw(st.integers(1, 4))  # even B, so label votes can tie too
    trees = [draw(hand_tree(q, n_labels)) for _ in range(b)]
    f = Forest(trees=trees, labels=[f"c{k}" for k in range(n_labels)], q=q, seed=0)
    n = draw(st.integers(1, 12))
    x = np.array(draw(st.lists(st.sampled_from(GRID), min_size=n * q, max_size=n * q))).reshape(n, q)
    return f, x


@settings(max_examples=60, deadline=None)
@given(hand_forest_and_rows())
def test_votes_equal_hand_walk_on_hand_trees(case):
    f, x = case
    assert_votes_match_walk(f, x)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(4, 24),
    q=st.integers(1, 3),
    b=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_votes_equal_hand_walk_on_fitted_forests(m, q, b, seed, data):
    values = data.draw(st.lists(st.sampled_from(GRID), min_size=m * q, max_size=m * q))
    labels = data.draw(st.lists(st.sampled_from("abc"), min_size=m, max_size=m).filter(lambda v: len(set(v)) >= 2))
    base = Dataset([f"f{k}" for k in range(q)], [f"r{i}" for i in range(m)], np.array(values).reshape(m, q))
    f = fit_classifier(LabeledDataset(base, labels), b, seed=seed)
    rows = np.array(data.draw(st.lists(st.sampled_from(GRID), min_size=5 * q, max_size=5 * q))).reshape(5, q)
    assert_votes_match_walk(f, np.vstack([base.values, rows]))


def test_batch_across_blocks_equals_hand_walk_and_predict_detail(monkeypatch):
    monkeypatch.setattr(classify, "_BLOCK_PAIRS", 1024)
    rng = np.random.default_rng(10)
    d = blobs(rng, n=20, sep=2.0)
    f = fit_classifier(d, 16, seed=4)
    th = oob_thresholds(f, d)
    x = rng.normal(1.0, 2.0, (300, 2))  # 4800 (row, tree) pairs: more than one routing block
    assert_votes_match_walk(f, x)
    assert predict_batch(f, th, x, 0.75) == [predict_batch(f, th, x[i : i + 1], 0.75)[0] for i in range(300)]


def test_router_edges():
    """No pair at all, blocks in which the voting mask leaves no pair, and
    trees that are one leaf: the router makes no pass and every count holds."""
    d = blobs(np.random.default_rng(11), n=10)
    f = fit_classifier(d, 8, seed=6)
    x = d.base.values
    no_pair = np.zeros(0, dtype=np.int64)
    assert route(*classify._flatten(f)[:4], x, no_pair, no_pair.copy()).size == 0
    assert_votes_match_walk(f, x[:0])
    voting = np.random.default_rng(12).random((len(x), f.n_trees)) < 0.5
    voting[:3] = False  # each of these rows alone is a block with no pair
    assert_votes_match_walk(f, x, voting)
    assert not classify._count_votes(f, x, np.zeros_like(voting)).any()
    stumps = Forest(trees=[leaf_tree(k % 3 // 2, [0]) for k in range(5)], labels=["A", "B"], q=2, seed=0)
    assert_votes_match_walk(stumps, x)


def loop_best_split_supervised(x, y, rows, features, n_classes):
    """Reference CART split search over the partitions the grow loop
    applies: one feature at a time, in ascending order, and within a feature
    every midpoint t of consecutive distinct values, ascending. Each
    partitions the rows by ``x <= t``; a candidate that leaves a side empty
    is skipped, and a later candidate wins only on a strictly larger gain.
    Production must return exactly the same tuple."""
    m = len(rows)
    counts_parent = np.bincount(y[rows], minlength=n_classes).astype(np.float64)
    g_parent = float(classify._gini_from_counts(counts_parent))
    best = None
    for q in features:
        vals = x[rows, q]
        uniq = np.unique(vals)
        for t in (uniq[:-1] + uniq[1:]) / 2.0:
            left = vals <= t
            n_left = int(np.count_nonzero(left))
            if n_left in (0, m):
                continue
            left_counts = np.bincount(y[rows][left], minlength=n_classes).astype(np.float64)
            gini = classify._gini_from_counts(np.array([left_counts, counts_parent - left_counts]))
            gain = g_parent - (n_left * gini[0] + (m - n_left) * gini[1]) / m
            if best is None or gain > best[0]:
                best = (float(gain), int(q), float(t))
    return best


def test_cart_rule_refuses_numpys_tail_shuffle_domain():
    with pytest.raises(ValueError, match="tail-shuffle"):
        classify._CartRule(np.zeros((2, 10001)), np.array([0, 1]), 2, 201)  # 201 > 10001 // 50


def production_splits_supervised(x, y, n_classes, nodes):
    """(gain, feature, threshold) of each node's first greatest candidate in
    one batched production search over ``nodes`` [(rows, sorted features)],
    None for a node without candidates."""
    rule = classify._CartRule(x, y, n_classes, 1)
    rows = [r for r, _ in nodes]
    owns = [own for own, _ in rule.leaves(rows)]
    features, c, gains, _ = rule.scores(rows, np.array([len(r) for r in rows]), owns, [f for _, f in nodes])
    out = [None] * len(nodes)
    for k in first_max(gains, c.node, c.seg).tolist():
        out[c.node[k]] = (float(gains[k]), int(features.ravel()[c.seg[k]]), float(c.threshold[k]))
    return out


@st.composite
def supervised_split_inputs(draw):
    """(x, y, n_classes, nodes) with up to 10 classes, so the sums of squared
    class fractions run over 8 or more terms."""
    x, nodes = draw(split_batch(max_rows=12))
    n_classes = draw(st.integers(2, 10))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=len(x), max_size=len(x))), dtype=np.int64)
    return x, y, n_classes, nodes


@settings(max_examples=300, deadline=None)
@given(supervised_split_inputs())
def test_best_split_supervised_equals_loop_oracle(case):
    # several nodes in one search: each node's segments sit in the one flat layout
    x, y, n_classes, nodes = case
    want = [loop_best_split_supervised(x, y, rows, features, n_classes) for rows, features in nodes]
    assert production_splits_supervised(x, y, n_classes, nodes) == want


def test_best_split_supervised_scores_the_applied_partition():
    # the midpoint of 1+ulp and 1+2ulp rounds up to 1+2ulp, so x <= t sends
    # both copies of 1+2ulp left: that candidate puts 5 rows left, not 3, and
    # scores 0.1 (not the 0.5 of a clean a | b cut), as does the first cut
    _, a, b = adjacent_doubles(1.0, 3)
    x, y = np.array([[0.0], [a], [a], [b], [b], [5.0]]), np.array([0, 0, 0, 1, 1, 1])
    (gain, feature, threshold), = production_splits_supervised(x, y, 2, [(np.arange(6), np.array([0]))])
    assert (gain, feature, threshold) == loop_best_split_supervised(x, y, np.arange(6), np.array([0]), 2)
    assert gain == pytest.approx(0.1) and threshold == a / 2


def test_fit_with_loop_oracle_gives_same_model():
    rng = np.random.default_rng(9)
    values = np.round(rng.normal(size=(80, 9)), 1)  # one decimal: many tied values
    labels = [f"c{k}" for k in rng.integers(0, 4, size=80)]
    d = LabeledDataset(Dataset([f"f{k}" for k in range(9)], [f"r{i}" for i in range(80)], values), labels)
    want = forest_oracle.fit_classifier(d, 6, seed=3, search=loop_best_split_supervised)
    assert model_json(fit_classifier(d, 6, seed=3)) == model_json(want)


def test_fit_with_a_class_of_hundreds_of_rows_in_one_node_gives_the_oracles_model():
    # root nodes of about 300 rows of one class: a class count that wrapped
    # at 128 would move a gain
    rng = np.random.default_rng(24)
    values = np.round(rng.normal(size=(400, 4)), 1)
    labels = ["a" if k else "b" for k in rng.random(400) < 0.8]
    d = LabeledDataset(Dataset([f"f{k}" for k in range(4)], [f"r{i}" for i in range(400)], values), labels)
    assert model_json(fit_classifier(d, 2, seed=5)) == model_json(forest_oracle.fit_classifier(d, 2, seed=5))


@pytest.fixture()
def model_dict(tmp_path):
    d = blobs(np.random.default_rng(12), n=10)
    f = fit_classifier(d, 8, seed=6)
    path = tmp_path / "model.json"
    save_model(f, oob_thresholds(f, d), path)
    return json.loads(path.read_text()), path


def internal_node(model):
    """(tree index, node) of the first split node of the model dict."""
    for t, tree in enumerate(model["trees"]):
        for n in tree["nodes"]:
            if n["feature"] is not None:
                return t, n
    raise AssertionError("model has no split node")


def assert_load_rejects(model, path, match):
    path.write_text(json.dumps(model))
    with pytest.raises(ParseError, match=match):
        load_model(path)


def test_load_model_rejects_missing_top_level_key(model_dict):
    model, path = model_dict
    for key in ("labels", "kappa_bar"):
        assert_load_rejects({k: v for k, v in model.items() if k != key}, path, rf"model\.json: {key}: missing key")


def test_load_model_rejects_missing_node_key(model_dict):
    model, path = model_dict
    del model["trees"][1]["nodes"][0]["left"]
    assert_load_rejects(model, path, r"model\.json: trees\[1\]\.nodes\[0\]\.left: missing key")


def test_load_model_rejects_class_counts_length(model_dict):
    model, path = model_dict
    model["trees"][0]["nodes"][0]["class_counts"].append(0)
    assert_load_rejects(model, path, r"trees\[0\]\.nodes\[0\]\.class_counts")


def test_load_model_rejects_child_before_parent(model_dict):
    model, path = model_dict
    t, node = internal_node(model)
    node["right"] = node["id"]  # a cycle: the node routes back to itself
    assert_load_rejects(model, path, rf"trees\[{t}\]\.nodes\[{node['id']}\]\.right")


def test_load_model_rejects_child_outside_tree(model_dict):
    model, path = model_dict
    t, node = internal_node(model)
    node["left"] = len(model["trees"][t]["nodes"])
    assert_load_rejects(model, path, rf"trees\[{t}\]\.nodes\[{node['id']}\]\.left")


def test_load_model_rejects_left_equal_to_right(model_dict):
    model, path = model_dict
    t, node = internal_node(model)
    assert node["left"] == node["id"] + 1
    node["right"] = node["left"]  # both branches lead to one subtree; the right one is cut off
    assert_load_rejects(
        model, path, rf"trees\[{t}\]\.nodes\[{node['id']}\]\.right: node {node['left']} is already the child of node {node['id']}"
    )


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("feature_names", 5, r"model\.json: feature_names: expected Q=2 name strings"),
        ("seed", "6", r"model\.json: seed: '6' is not an integer"),
        ("seed", False, r"model\.json: seed: False is not an integer"),
        ("B", 99, r"model\.json: B: 99 is not the number of trees, 8"),
        ("kappa_bar", {"A": True, "B": False}, r"model\.json: kappa_bar: expected a number for every label"),
        ("kappa_bar", None, r"model\.json: kappa_bar: expected a number for every label"),
    ],
    ids=["feature-names-not-a-list", "seed-string", "seed-bool", "b-not-tree-count", "kappa-bar-bools",
         "kappa-bar-null"],
)
def test_load_model_rejects_top_level_value(model_dict, key, value, match):
    model, path = model_dict
    model[key] = value
    assert_load_rejects(model, path, match)


def test_fit_classifier_stops_at_split_with_empty_side():
    # the best boundary lies between 1+ulp and 1+2ulp, but their midpoint
    # rounds up to 1+2ulp, the node maximum: the split sends every row left
    _, a, b = adjacent_doubles(1.0, 3)
    base = Dataset(["f"], ["r0", "r1", "r2", "r3"], [[0.0], [a], [a], [b]])
    f = fit_classifier(LabeledDataset(base, ["x", "x", "x", "y"]), 5, seed=1)
    for tree in f.trees:
        count = tree.nodes["class_counts"].sum(axis=1)
        internal = tree.nodes["left"] != np.arange(len(tree.nodes))
        left, right = tree.nodes["left"][internal], tree.nodes["right"][internal]
        assert np.all(count[left] > 0) and np.all(count[right] > 0)
        np.testing.assert_array_equal(count[left] + count[right], count[internal])


@st.composite
def tie_heavy_labeled(draw):
    d = draw(tie_heavy_dataset())
    labels = st.lists(st.sampled_from("abc"), min_size=d.n_rows, max_size=d.n_rows)
    return LabeledDataset(d, draw(labels.filter(lambda v: len(set(v)) >= 2)))


@settings(max_examples=60, deadline=None)
@given(tie_heavy_labeled(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_fit_classifier_deterministic_and_model_json_round_trips(d, b, seed):
    f = fit_classifier(d, b, seed=seed)
    assert model_json(f) == model_json(fit_classifier(d, b, seed=seed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rows never out of bag
        try:
            th = oob_thresholds(f, d)
        except ValueError:  # a class without out-of-bag rows has no threshold, and a model always has one
            assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_model(f, th, first)
        save_model(*load_model(first), second)
        assert first.read_bytes() == second.read_bytes()
        # written a tree at a time, joined as json.dumps joins the whole
        text = first.read_text()
        assert text == json.dumps(json.loads(text)) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    tie_heavy_labeled(), st.integers(1, 6), st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5]) | st.floats(0.0, 3.0), min_size=2, max_size=5),
)
def test_assignment_sets_nest_under_ratio(d, b, seed, ratios):
    # on generated models: a higher ratio withdraws more, never assigns a
    # row a lower one withdrew, and never changes an assigned label
    f = fit_classifier(d, b, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rows never out of bag
        try:
            th = oob_thresholds(f, d)
        except ValueError:  # a class without out-of-bag rows has no threshold
            assume(False)
    winners = [label for label, _, _ in predict_batch(f, th, d.base.values, 0.0)]
    assert None not in winners  # ratio 0 assigns every row
    before = set(range(d.base.n_rows))
    for ratio in sorted(ratios):
        labels = [label for label, _, _ in predict_batch(f, th, d.base.values, ratio)]
        assigned = {i for i, label in enumerate(labels) if label is not None}
        assert assigned <= before
        assert all(labels[i] == winners[i] for i in assigned)
        before = assigned


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for t1, t2 in zip(got, want):
        assert t1.nodes.tobytes() == t2.nodes.tobytes() and t1.nodes.dtype == t2.nodes.dtype
        assert t1.bag.tobytes() == t2.bag.tobytes()


@settings(max_examples=80, deadline=None)
@given(tie_heavy_labeled(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_fit_classifier_equals_node_by_node_oracle(d, b, seed):
    # lock-step growth against one tree at a time, one node per search
    assert_same_trees(fit_classifier(d, b, seed=seed).trees, forest_oracle.fit_classifier(d, b, seed=seed).trees)


def test_fit_classifier_equals_oracle_where_a_midpoint_overflows():
    # 1.5e308 + 1.7e308 overflows: the midpoint is inf, every row goes left,
    # and the node stays a leaf, as the node-by-node oracle applies it
    base = Dataset(["f", "g"], ["r0", "r1", "r2", "r3"], [[1.5e308, 0.0], [1.7e308, 0.0], [1.7e308, 1.0], [1.5e308, 1.0]])
    d = LabeledDataset(base, ["x", "y", "y", "x"])
    with np.errstate(over="ignore"):
        assert_same_trees(fit_classifier(d, 8, seed=4).trees, forest_oracle.fit_classifier(d, 8, seed=4).trees)


@settings(max_examples=60, deadline=None)
@given(tie_heavy_labeled(), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_classifier_tree_k_does_not_depend_on_forest_size(d, b1, b2, seed):
    # tree k draws only from its own substream, however many trees grow beside it
    small, large = fit_classifier(d, min(b1, b2), seed=seed), fit_classifier(d, max(b1, b2), seed=seed)
    assert_same_trees(small.trees, large.trees[: small.n_trees])
