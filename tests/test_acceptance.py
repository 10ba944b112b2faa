"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from scenforest import cli, ordering, xmurf
from scenforest.classify import fit_classifier, oob_thresholds, predict_detail
from scenforest.dataset import Dataset, LabeledDataset, load_dataset, load_matrix
from scenforest.scenarios import THW_KEEP, THW_TRIGGER, find_trigger_windows
from scenforest.sim import (
    GRAVITY,
    WHEELBASE,
    RoadConfig,
    SimParams,
    VehicleState,
    init_scene,
    one_track_step,
    run_simulations,
)
from scenforest.xmurf import fit, noise_cdf, path, path_proximity_tree, proximity_matrix


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def adjusted_rand_index(a, b):
    """Small standalone ARI (pair-counting form)."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    classes_a, ia = np.unique(a, return_inverse=True)
    classes_b, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(classes_a), len(classes_b)), dtype=np.int64)
    for x, y in zip(ia, ib):
        table[x, y] += 1

    def comb2(v):
        return v * (v - 1) // 2

    sum_ij = sum(comb2(v) for v in table.ravel())
    sum_a = sum(comb2(v) for v in table.sum(axis=1))
    sum_b = sum(comb2(v) for v in table.sum(axis=0))
    total = comb2(n)
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    return (sum_ij - expected) / (max_index - expected)


def check_matrix_invariants(p, forest=None, data=None):
    v = p.values
    assert np.array_equal(v, v.T), "matrix not exactly symmetric"
    assert np.all(np.diagonal(v) == 1.0), "diagonal not exactly 1"
    assert v.min() > 0.0 and v.max() <= 1.0, "entries outside (0, 1]"
    if forest is not None and data is not None:
        m = data.n_rows
        lengths = np.array(
            [[len(path(data.values[i], t)) for i in range(m)] for t in forest.trees]
        )
        for i in range(m):
            li = lengths[:, i]
            bound = (1.0 / (li[:, None] + lengths - 1.0)).mean(axis=0)
            assert np.all(v[i] >= bound - 1e-12), "root-share lower bound violated"


# --------------------------------------------------------------- fixtures

def blob_dataset(seed):
    """Three 5-D Gaussian blobs, centroids pairwise exactly 10 sigma apart."""
    u1 = np.ones(5) / math.sqrt(5.0)
    u2 = np.array([1.0, -1.0, 1.0, -1.0, 0.0]) / 2.0
    centers = np.array([np.zeros(5), 10.0 * u1, 10.0 * (u1 / 2.0 + math.sqrt(3.0) / 2.0 * u2)])
    rng = np.random.default_rng(1000 + seed)
    x = np.vstack([rng.normal(0.0, 1.0, (50, 5)) + centers[k] for k in range(3)])
    truth = np.repeat([0, 1, 2], 50)
    data = Dataset([f"f{i}" for i in range(5)], [f"r{i}" for i in range(150)], x)
    return data, truth


@pytest.fixture(scope="module")
def blob_recovery():
    t0 = time.time()
    results = []
    for seed in range(10):
        data, truth = blob_dataset(seed)
        forest = fit(data, 100, seed=seed)
        prox = proximity_matrix(forest, data)
        labels = ordering.cut_clusters(ordering.linkage(prox), 3)
        results.append((data, forest, prox, truth, labels))
    return results, time.time() - t0


@pytest.fixture(scope="module")
def small_instance():
    x = np.array([[0.1], [0.9], [0.35], [0.6], [0.2], [0.75]])
    data = Dataset(["f0"], [f"r{i}" for i in range(6)], x)
    forest = fit(data, 1, seed=2024)
    return data, forest, proximity_matrix(forest, data)


def run_pipeline(workdir: Path, ranges_path: Path):
    """Run all seven CLI stages into workdir, labelling from ranges_path.

    If ranges_path does not exist yet, the analyst stand-in writes it from
    this run's dendrogram first.
    """
    base = ["--seed", "4242", "--out", str(workdir)]
    assert cli.main(base + ["simulate"]) == 0
    assert cli.main(base + ["extract"]) == 0
    assert cli.main(base + ["cluster"]) == 0
    assert cli.main(base + ["order"]) == 0
    if not ranges_path.exists():
        # deterministic stand-in for the visual cluster picking: cut the
        # dendrogram at 3 and emit the contiguous seriated blocks
        dend_raw = json.loads((workdir / "dendrogram.json").read_text())
        merges = [(m["left"], m["right"], m["height"], m["size"]) for m in dend_raw["merges"]]
        dend = ordering.Dendrogram(merges=merges, n_leaves=dend_raw["n_leaves"])
        leaf_labels = ordering.cut_clusters(dend, 3)
        order = ordering.leaf_order(dend)
        ranges = []
        start = 0
        for pos in range(1, len(order) + 1):
            if pos == len(order) or leaf_labels[order[pos]] != leaf_labels[order[start]]:
                ranges.append(
                    {"start": start, "end": pos - 1, "label": f"c{leaf_labels[order[start]]}"}
                )
                start = pos
        ranges_path.write_text(json.dumps(ranges) + "\n")
    assert cli.main(base + ["label", "--ranges", str(ranges_path)]) == 0
    assert cli.main(base + ["train"]) == 0
    assert cli.main(base + ["classify"]) == 0


@pytest.fixture(scope="module")
def end_to_end(tmp_path_factory):
    t0 = time.time()
    root = tmp_path_factory.mktemp("e2e")
    dir_a, dir_b = root / "a", root / "b"
    # the analyst's ranges live outside both workdirs: both runs label from
    # the same file, and the compare sees only pipeline artifacts
    ranges = root / "ranges.json"
    run_pipeline(dir_a, ranges)
    run_pipeline(dir_b, ranges)
    return dir_a, dir_b, time.time() - t0


# --------------------------------------------------------------- criteria

def test_criterion_1_path_proximity_paper_example():
    t0 = time.perf_counter()
    value = path_proximity_tree({0, 1, 2}, {0, 1, 3, 4})
    elapsed = time.perf_counter() - t0
    assert value == 0.4  # exactly 2/5, tolerance zero
    assert elapsed < 1e-3
    report(1, f"mutual path 2, lengths 3 and 4 -> {value} in {elapsed * 1e6:.0f} us")


def test_criterion_2_normal_cdf_approximation():
    t0 = time.time()
    zs = np.linspace(-3.0, 3.0, 601)
    grid = np.linspace(-8.0, 3.0, 22001)
    pdf = np.exp(-grid * grid / 2.0) / math.sqrt(2.0 * math.pi)
    cum = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(grid))])
    oracle = np.interp(zs, grid, cum)
    worst = float(np.max(np.abs(noise_cdf("normal", zs) - oracle)))
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 1.0
    report(2, f"601-point max error vs integrated normal = {worst:.2e}")


def test_criterion_3_noise_conservation_exact():
    from scenforest.xmurf import NOISE_KINDS, estimate_noise_children

    t0 = time.time()
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        m = int(rng.integers(1, 10_000))
        kind = NOISE_KINDS[int(rng.integers(3))]
        z = float(rng.uniform(-3.0, 3.0))
        left, right = estimate_noise_children(m, noise_cdf(kind, z))
        assert left + right == m
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(3, f"10^4 random (node, threshold, distribution) triples conserve exactly")


def test_criterion_4_blob_recovery(blob_recovery):
    results, elapsed = blob_recovery
    aris = [adjusted_rand_index(truth, labels) for _, _, _, truth, labels in results]
    assert all(a >= 0.9 for a in aris), aris
    assert elapsed < 60.0
    report(4, f"10-seed ARI min {min(aris):.3f} (all >= 0.9) in {elapsed:.1f} s")


def test_criterion_5_small_instance_oracle(small_instance, tmp_path):
    t0 = time.time()
    data, forest, prox = small_instance
    xmurf.save_forest(forest, tmp_path / "forest.json")
    tree_dict = json.loads((tmp_path / "forest.json").read_text())["trees"][0]
    nodes = {n["id"]: n for n in tree_dict["nodes"]}

    def walk(value):
        visited, nid = [], 0
        while True:
            node = nodes[nid]
            visited.append(nid)
            if node["feature"] is None:
                return set(visited)
            nid = node["left"] if value <= node["threshold"] else node["right"]

    m = data.n_rows
    expected = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            pi, pj = walk(data.values[i, 0]), walk(data.values[j, 0])
            inter = len(pi & pj)
            expected[i, j] = inter / (len(pi) + len(pj) - inter)
    assert np.array_equal(prox.values, expected)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(5, f"M=6, Q=1, B=1 proximity equals the serialized-tree hand walk exactly")


def test_criterion_6_classifier_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal(0.0, 1.5, (60, 3)), rng.normal(2.5, 1.5, (60, 3))])
    base = Dataset(["f0", "f1", "f2"], [f"r{i}" for i in range(120)], x)
    labeled = LabeledDataset(base, ["A"] * 60 + ["B"] * 60)
    forest = fit_classifier(labeled, 50, seed=3)
    thresholds = oob_thresholds(forest, labeled)
    ratios = [0.0, 0.25, 0.5, 0.75, 1.0]
    assigned = {
        r: {i for i in range(120) if predict_detail(forest, thresholds, x[i], r)[0] is not None}
        for r in ratios
    }
    assert len(assigned[0.0]) == 120  # ratio 0 assigns 100%
    for tight, loose in zip(ratios[1:], ratios[:-1]):
        assert assigned[tight] <= assigned[loose]
    elapsed = time.time() - t0
    assert elapsed < 10.0
    sizes = [len(assigned[r]) for r in ratios]
    report(6, f"assigned-set sizes {sizes} nested over ratios {ratios}")


def test_criterion_7_simulator_physics():
    t0 = time.time()
    # one-track circle test
    delta, v, dt = 0.05, 10.0, 0.001
    radius = WHEELBASE / math.tan(delta)
    s = VehicleState(x=0.0, y=0.0, v=v, a=0.0, psi=0.0, delta=delta, lane=1)
    worst_circle = 0.0
    for _ in range(int((math.pi / 2) * radius / v / dt)):
        s = one_track_step(s, delta, 0.0, dt)
        worst_circle = max(worst_circle, abs(math.hypot(s.x, s.y - radius) - radius) / radius)
    assert worst_circle < 0.01

    # 60 s run with exactly 12 vehicles
    road = RoadConfig(n_l=2, n_vpl=6)
    seed = next(s for s in range(200) if len(init_scene(road, s)[0]) == 12)
    trace = next(run_simulations(road, [SimParams(dt=0.05, duration=60.0, seed=seed)]))
    assert trace.n_vehicles == 12
    bound = GRAVITY * trace.dt**2
    assert np.all(np.abs(trace.x[1:] - trace.x[:-1] - trace.v[:-1] * trace.dt) <= bound)

    collided = {}
    for t, pair in trace.collisions:
        collided.setdefault(t, set()).update(pair)
    seen = set()
    swaps = 0
    for t in range(trace.n_ts - 1):
        seen |= collided.get(t + 1, set())
        lane, x = trace.lane[t : t + 2], trace.x[t : t + 2]
        stay = lane[0] == lane[1]
        same_lane = stay[:, None] & stay & (lane[0][:, None] == lane[0])
        swapped = np.subtract.outer(x[0], x[0]) * np.subtract.outer(x[1], x[1]) < 0
        for i, j in np.argwhere(np.triu(same_lane & swapped, 1)).tolist():
            swaps += 1
            assert i + 1 in seen or j + 1 in seen, "unexplained lane-order swap"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        7,
        f"circle error {worst_circle * 100:.3f}% < 1%, residual bound held over 60 s x 12 vehicles, "
        f"{swaps} swap(s) all explained",
    )


def test_criterion_8_detector_equals_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    for _ in range(100):
        n = int(rng.integers(10, 400))
        thw = rng.uniform(0.0, 2.0, n)
        thw[rng.random(n) < 0.15] = math.inf
        dt = float(rng.choice([0.04, 0.05, 0.1]))
        got = find_trigger_windows(thw, dt)
        # independent scan
        runs, start = [], None
        for t, on in enumerate(thw <= THW_TRIGGER):
            if on and start is None:
                start = t
            elif not on and start is not None:
                runs.append([start, t - 1])
                start = None
        if start is not None:
            runs.append([start, n - 1])
        merged = []
        for r in runs:
            if merged and (r[0] - merged[-1][1] - 1) * dt < 1.0:
                merged[-1][1] = r[1]
            else:
                merged.append(r)
        expected = [tuple(r) for r in merged if min(thw[r[0] : r[1] + 1]) <= THW_KEEP]
        assert got == expected
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(8, "100 random THW series: trigger/merge/withdraw boundaries exact")


def test_criterion_9_end_to_end_determinism(end_to_end):
    dir_a, dir_b, elapsed = end_to_end
    artifacts = sorted(p.name for p in dir_a.iterdir())
    assert "predictions.csv" in artifacts
    diffs = []
    for name in artifacts:
        a, b = dir_a / name, dir_b / name
        if not b.exists() or a.read_bytes() != b.read_bytes():
            diffs.append(name)
    assert not diffs, f"artifacts differ: {diffs}"
    m = load_dataset(dir_a / "scenarios.csv").n_rows
    assert m >= 100  # scale check: the config targets roughly 200 scenarios
    assert elapsed < 300.0
    report(9, f"two pipeline runs byte-identical over {len(artifacts)} artifacts (M={m}) in {elapsed:.0f} s")


def test_criterion_10_matrix_invariants(blob_recovery, small_instance, end_to_end):
    results, _ = blob_recovery
    for data, forest, prox, _, _ in results:
        check_matrix_invariants(prox, forest, data)
    data, forest, prox = small_instance
    check_matrix_invariants(prox, forest, data)
    dir_a, _, _ = end_to_end
    prox_e2e = load_matrix(dir_a / "proximity.raw")
    forest_e2e = xmurf.load_forest(dir_a / "forest.json")
    data_e2e = load_dataset(dir_a / "scenarios.csv")
    check_matrix_invariants(prox_e2e, forest_e2e, data_e2e)
    perm = json.loads((dir_a / "permutation.json").read_text())
    check_matrix_invariants(ordering.reorder(prox_e2e, perm))
    report(10, "symmetry, unit diagonal, range, and root-share bound hold on all matrices")
