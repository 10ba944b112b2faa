"""Seriation: linkage, leaf order, reordering, heatmap, and range labeling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linkage_oracle

from scenforest import ordering
from scenforest.dataset import Dataset, ParseError, ProximityMatrix
from scenforest.ordering import (
    ClusterRange,
    apply_cluster_ranges,
    check_ranges,
    cut_clusters,
    leaf_order,
    linkage,
    load_cluster_ranges,
    optimal_leaf_order,
    range_report,
    render_heatmap,
    reorder,
)


def matrix(values, ids=None):
    values = np.asarray(values, dtype=float)
    return ProximityMatrix(values, ids or [f"s{i}" for i in range(values.shape[0])])


def two_block_matrix(rng, n=10, hi=0.8, lo=0.1, jitter=0.02):
    m = 2 * n
    v = np.full((m, m), lo)
    v[:n, :n] = hi
    v[n:, n:] = hi
    noise = rng.uniform(-jitter, jitter, (m, m))
    v = v + (noise + noise.T) / 2
    np.fill_diagonal(v, 1.0)
    return matrix(v)


def test_linkage_m2_single_merge():
    p = matrix([[1.0, 0.7], [0.7, 1.0]])
    d = linkage(p)
    assert len(d.merges) == 1
    left, right, height, size = d.merges[0]
    assert (left, right) == (0, 1)
    assert height == pytest.approx(1.0 - 0.7)
    assert size == 2


def test_linkage_matches_hand_traced_upgma():
    # d01=.1 d23=.2 d02=.8 d03=.9 d12=.7 d13=.85
    # merge (0,1)@.1 -> 4; merge (2,3)@.2 -> 5;
    # d(4,5) = mean(.8,.9,.7,.85) = .8125 -> merge (4,5)@.8125
    p = matrix(
        [
            [1.0, 0.9, 0.2, 0.1],
            [0.9, 1.0, 0.3, 0.15],
            [0.2, 0.3, 1.0, 0.8],
            [0.1, 0.15, 0.8, 1.0],
        ]
    )
    d = linkage(p, method="average")
    assert [(l, r) for l, r, _, _ in d.merges] == [(0, 1), (2, 3), (4, 5)]
    heights = [h for _, _, h, _ in d.merges]
    assert heights[0] == pytest.approx(0.1)
    assert heights[1] == pytest.approx(0.2)
    assert heights[2] == pytest.approx(0.8125)
    assert leaf_order(d).tolist() == [0, 1, 2, 3]


def test_linkage_two_blocks_last_merge_separates():
    rng = np.random.default_rng(0)
    p = two_block_matrix(rng)
    d = linkage(p)
    labels = cut_clusters(d, 2)
    assert labels[:10].tolist() == [0] * 10
    assert labels[10:].tolist() == [1] * 10


def test_leaf_order_bijection_and_contiguity():
    rng = np.random.default_rng(1)
    p = two_block_matrix(rng)
    d = linkage(p)
    order = leaf_order(d)
    assert sorted(order.tolist()) == list(range(20))
    # block members must be adjacent in the seriated order
    positions = [i for i, leaf in enumerate(order) if leaf < 10]
    assert max(positions) - min(positions) == 9


def test_leaf_order_deterministic():
    rng = np.random.default_rng(2)
    p = two_block_matrix(rng)
    o1 = leaf_order(linkage(p))
    o2 = leaf_order(linkage(p))
    np.testing.assert_array_equal(o1, o2)


def test_optimal_leaf_order_not_worse_on_adjacent_similarity():
    rng = np.random.default_rng(3)
    p = two_block_matrix(rng, n=8)
    d = linkage(p)
    plain = leaf_order(d)
    refined = optimal_leaf_order(d, p)
    assert sorted(refined.tolist()) == list(range(16))

    def adjacent_mean(order):
        return np.mean([p.values[a, b] for a, b in zip(order, order[1:])])

    assert adjacent_mean(refined) >= adjacent_mean(plain) - 1e-12


@pytest.mark.parametrize("n", [1, 2, 13])
def test_optimal_leaf_order_equals_scipy_on_the_squareform_of_one_minus_p(n):
    from scipy.cluster import hierarchy
    from scipy.spatial.distance import squareform

    p = two_block_matrix(np.random.default_rng(n), n=n)
    d = linkage(p)
    want = hierarchy.optimal_leaf_ordering(ordering._scipy_linkage_matrix(d), squareform(1.0 - p.values, checks=False))
    assert optimal_leaf_order(d, p).tolist() == hierarchy.leaves_list(want).tolist()


def test_seriation_improves_adjacent_similarity_over_shuffled():
    rng = np.random.default_rng(4)
    p = two_block_matrix(rng)
    shuffle = rng.permutation(20)
    shuffled = reorder(p, shuffle)
    order = leaf_order(linkage(shuffled))
    seriated = reorder(shuffled, order)

    def adjacent_mean(v):
        return np.mean([v[i, i + 1] for i in range(v.shape[0] - 1)])

    assert adjacent_mean(seriated.values) >= adjacent_mean(shuffled.values)


def test_reorder_identity_inverse_multiset():
    rng = np.random.default_rng(5)
    p = two_block_matrix(rng, n=5)
    m = p.size
    ident = reorder(p, np.arange(m))
    np.testing.assert_array_equal(ident.values, p.values)
    perm = rng.permutation(m)
    inv = np.argsort(perm)
    back = reorder(reorder(p, perm), inv)
    np.testing.assert_array_equal(back.values, p.values)
    assert back.ids == p.ids
    fwd = reorder(p, perm)
    assert sorted(fwd.values.ravel().tolist()) == sorted(p.values.ravel().tolist())
    with pytest.raises(ValueError, match="bijection"):
        reorder(p, np.zeros(m, dtype=int))


def test_linkage_rejects_small_or_unknown():
    p = matrix([[1.0]])
    with pytest.raises(ValueError):
        linkage(p)
    p2 = matrix([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="method"):
        linkage(p2, method="ward")


@st.composite
def tie_heavy_proximity(draw):
    """A symmetric proximity with M in [2, 60], its entries either
    continuous in (0, 1] or on a 1/8 grid, where ties are common."""
    m = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        v = rng.integers(1, 9, size=(m, m)) / 8
    else:
        v = 1.0 - rng.uniform(0.0, 1.0, size=(m, m))
    v = np.triu(v, 1)
    v = v + v.T
    np.fill_diagonal(v, 1.0)
    return matrix(v)


@settings(max_examples=100, deadline=None)
@given(tie_heavy_proximity())
def test_linkage_equals_full_matrix_oracle(p):
    for method in ("average", "single", "complete"):
        assert linkage(p, method).merges == linkage_oracle.linkage(p, method).merges


@pytest.mark.parametrize("method", ["average", "single", "complete"])
def test_linkage_all_equal_merges_lowest_pair_first(method):
    v = np.full((5, 5), 0.5)
    np.fill_diagonal(v, 1.0)
    # every pair ties, so each merge takes slot 0 and the next live slot
    assert linkage(matrix(v), method).merges == [(0, 1, 0.5, 2), (5, 2, 0.5, 3), (6, 3, 0.5, 4), (7, 4, 0.5, 5)]


def test_linkage_takes_a_column_that_rounding_lowered():
    # (3, 4) then (2, 3) merge first. Slot 0 sees 0.7 everywhere, but its
    # average with a cluster of sizes 1 and 2 rounds to just below 0.7, so
    # the third merge is (0, 6), not the (0, 1) that slot 0 had cached.
    v = np.full((5, 5), 0.05)
    v[0, :] = v[:, 0] = 0.3
    v[3, 4] = v[4, 3] = 0.99
    v[2, 3:] = v[3:, 2] = 0.98
    np.fill_diagonal(v, 1.0)
    p = matrix(v)
    merges = linkage(p).merges
    assert merges == linkage_oracle.linkage(p).merges
    assert merges[2][:2] == (0, 6) and merges[2][2] < 1.0 - 0.3


def test_heatmap_ppm_format(tmp_path):
    v = np.array([[1.0, 0.5], [0.5, 1.0]])
    p = matrix(v)
    out = tmp_path / "h.ppm"
    render_heatmap(p, out)
    data = out.read_bytes()
    header = b"P6\n2 2\n255\n"
    assert data.startswith(header)
    assert len(data) == len(header) + 2 * 2 * 3


def test_heatmap_endpoint_colors(tmp_path):
    # diagonal 1 maps to the last colormap entry; build a matrix holding the
    # smallest representable positive value to hit the first entry
    tiny = np.nextafter(0.0, 1.0)
    v = np.array([[1.0, tiny], [tiny, 1.0]])
    out = tmp_path / "h.ppm"
    render_heatmap(matrix(v), out)
    body = out.read_bytes()[len(b"P6\n2 2\n255\n"):]
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(2, 2, 3)
    assert pixels[0, 0].tolist() == [253, 231, 37]  # value 1 -> last entry
    assert pixels[0, 1].tolist() == [68, 1, 84]     # value ~0 -> first entry


def test_heatmap_uniform_ones(tmp_path):
    v = np.ones((3, 3))
    out = tmp_path / "h.ppm"
    render_heatmap(matrix(v), out)
    body = out.read_bytes()[len(b"P6\n3 3\n255\n"):]
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(-1, 3)
    assert (pixels == pixels[0]).all()


@pytest.mark.parametrize("block", [1, 52, 1 << 16])
def test_heatmap_in_row_blocks_equals_whole_matrix_lookup(tmp_path, monkeypatch, block):
    # PROXIMITY_BLOCK // 13 rows a block: one row, four rows with a short last
    # block, and the whole matrix at once
    rng = np.random.default_rng(4)
    v = rng.random((13, 13)) * 0.998 + 0.001
    v[:6, :6] = (np.arange(36).reshape(6, 6) + 0.5) / 255.0  # near the midpoints that round half to even
    v = np.triu(v, 1) + np.triu(v, 1).T
    np.fill_diagonal(v, 1.0)
    monkeypatch.setattr(ordering, "PROXIMITY_BLOCK", block)
    render_heatmap(matrix(v), tmp_path / "h.ppm")
    lookup = ordering._colormap()[np.clip(np.round(v * 255.0), 0, 255).astype(np.intp)]
    assert (tmp_path / "h.ppm").read_bytes() == b"P6\n13 13\n255\n" + lookup.tobytes()


@pytest.mark.parametrize("block", [1, 52, 1 << 16])
def test_heatmap_through_a_permutation_equals_heatmap_of_the_reordered_matrix(tmp_path, monkeypatch, block):
    rng = np.random.default_rng(5)
    v = rng.random((13, 13)) * 0.998 + 0.001
    v = np.triu(v, 1) + np.triu(v, 1).T
    np.fill_diagonal(v, 1.0)
    perm = rng.permutation(13)
    render_heatmap(reorder(matrix(v), perm), tmp_path / "want.ppm")
    monkeypatch.setattr(ordering, "PROXIMITY_BLOCK", block)
    render_heatmap(matrix(v), tmp_path / "got.ppm", perm)
    assert (tmp_path / "got.ppm").read_bytes() == (tmp_path / "want.ppm").read_bytes()


def test_linkage_leaves_its_matrix_as_it_was():
    rng = np.random.default_rng(8)
    v = rng.random((9, 9)) * 0.9 + 0.05
    v = np.triu(v, 1) + np.triu(v, 1).T
    np.fill_diagonal(v, 1.0)
    p = matrix(v.copy())
    linkage(p)
    assert p.values.tobytes() == v.tobytes()


def dataset(m=6):
    return Dataset(["f"], [f"r{i}" for i in range(m)], np.arange(m, dtype=float)[:, None])


def test_apply_ranges_full_cover():
    d = dataset()
    perm = np.array([5, 4, 3, 2, 1, 0])
    lab = apply_cluster_ranges(d, perm, [ClusterRange(0, 5, "all")])
    assert lab.labels == ["all"] * 6
    assert lab.base.n_rows == 6


def test_apply_ranges_positions_map_through_permutation():
    d = dataset()
    perm = np.array([5, 4, 3, 2, 1, 0])
    lab = apply_cluster_ranges(d, perm, [ClusterRange(0, 1, "x")])
    # seriated positions 0, 1 are original rows 5 and 4
    assert lab.base.ids == ["r4", "r5"]
    assert lab.labels == ["x", "x"]


def test_apply_ranges_empty_warns():
    d = dataset()
    with pytest.warns(UserWarning, match="empty"):
        lab = apply_cluster_ranges(d, np.arange(6), [])
    assert lab.base.n_rows == 0


def test_apply_ranges_counts_and_overlap():
    d = dataset(10)
    perm = np.arange(10)
    lab = apply_cluster_ranges(
        d, perm, [ClusterRange(0, 2, "a"), ClusterRange(5, 6, "b")]
    )
    assert lab.base.n_rows == 5
    assert sorted(set(lab.labels)) == ["a", "b"]
    with pytest.raises(ValueError, match="overlap"):
        check_ranges([ClusterRange(0, 3, "a"), ClusterRange(3, 5, "b")], 10)
    with pytest.raises(ValueError, match="outside"):
        check_ranges([ClusterRange(8, 11, "a")], 10)


def test_load_ranges_and_report(tmp_path):
    path = tmp_path / "ranges.json"
    path.write_text('[{"start": 0, "end": 1, "label": "a"}]')
    ranges = load_cluster_ranges(path)
    assert ranges == [ClusterRange(0, 1, "a")]
    p = matrix([[1.0, 0.6, 0.2], [0.6, 1.0, 0.2], [0.2, 0.2, 1.0]])
    report = range_report(p, np.arange(3), ranges)
    assert report[0]["size"] == 2
    assert report[0]["mean_similarity"] == pytest.approx(0.6)
    # seriated positions map through the permutation: the block of a
    # non-identity order equals the reordered matrix's block
    rng = np.random.default_rng(3)
    v = rng.uniform(0.05, 1.0, size=(9, 9))
    p = matrix(np.triu(v, 1) + np.triu(v, 1).T + np.eye(9))
    perm = np.array([4, 7, 0, 8, 2, 5, 1, 3, 6])
    ranges = [ClusterRange(0, 3, "a"), ClusterRange(4, 4, "b"), ClusterRange(5, 8, "c")]
    got, want = range_report(p, perm, ranges), range_report(reorder(p, perm), np.arange(9), ranges)
    assert [{**r, "mean_similarity": pytest.approx(r["mean_similarity"])} for r in want] == got
    assert got[0]["mean_similarity"] != range_report(p, np.arange(9), ranges)[0]["mean_similarity"]


@pytest.mark.parametrize("block", [1, 52, 1 << 16])
def test_range_report_in_row_blocks_equals_the_whole_block(monkeypatch, block):
    # PROXIMITY_BLOCK // R rows a block of the 9-row range: one row, five
    # rows with a short last block, and the whole range at once
    rng = np.random.default_rng(6)
    v = rng.uniform(0.05, 1.0, size=(13, 13))
    p = matrix(np.triu(v, 1) + np.triu(v, 1).T + np.eye(13))
    perm = rng.permutation(13)
    ranges = [ClusterRange(0, 8, "a"), ClusterRange(9, 9, "b"), ClusterRange(10, 12, "c")]
    want = []
    for r in ranges:
        cells = p.values[np.ix_(perm[r.start : r.end + 1], perm[r.start : r.end + 1])]
        n = len(cells)
        want.append(1.0 if n < 2 else (cells.sum() - np.trace(cells)) / (n * (n - 1)))
    monkeypatch.setattr(ordering, "PROXIMITY_BLOCK", block)
    got = [r["mean_similarity"] for r in range_report(p, perm, ranges)]
    assert got == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize(
    "text, message",
    [
        ('[{"start": 0, "label": "a"}]', r"ranges\.json: \[0\]\.end: missing key"),
        ('[{"start": 0, "end": 1}]', r"ranges\.json: \[0\]\.label: missing key"),
        ('{"start": 0, "end": 1, "label": "a"}', r"ranges\.json: top level: expected a list"),
        ('[{"start": 0, "end": 1, "label": "a"}, 3]', r"ranges\.json: \[1\]: expected an object"),
        ('[{"start": "0", "end": 1, "label": "a"}]', r"ranges\.json: \[0\]\.start: '0' is not an integer"),
        ('[{"start": 0, "end": 1.5, "label": "a"}]', r"ranges\.json: \[0\]\.end: 1\.5 is not an integer"),
        ('[{"start": 0, "end": true, "label": "a"}]', r"ranges\.json: \[0\]\.end: True is not an integer"),
        ('[{"start": 0,\n "end": 1,', r"ranges\.json:2: "),
        ('[{"start": 0, "end": 1, "label": 3}]', r"ranges\.json: \[0\]\.label: 3 is not a string"),
        ('[{"start": 0, "end": 1, "label": null}]', r"ranges\.json: \[0\]\.label: None is not a string"),
        ('[{"start": 0, "end": 1, "label": {"k": 1}}]', r"ranges\.json: \[0\]\.label: \{'k': 1\} is not a string"),
        ('[{"start": 0, "end": 1, "label": "a,b"}]', r"ranges\.json: \[0\]\.label: 'a,b' holds ','"),
        ('[{"start": 0, "end": 1, "label": "a\\"b"}]', r"""ranges\.json: \[0\]\.label: 'a"b' holds '"'"""),
        ('[{"start": 0, "end": 1, "label": "a"}, {"start": 2, "end": 3, "label": "b\\rc"}]',
         r"ranges\.json: \[1\]\.label: 'b\\rc' holds '\\r'"),
        ('[{"start": 0, "end": 1, "label": "a\\n"}]', r"ranges\.json: \[0\]\.label: 'a\\n' holds '\\n'"),
    ],
)
def test_load_ranges_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "ranges.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_cluster_ranges(path)
