"""THW detection against a brute-force oracle, zones, DTW, and features."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extract_oracle
from conftest import build_trace
from scenforest import scenarios
from scenforest.scenarios import (
    DESIRED_THW_S,
    FEATURE_NAMES,
    NO_THREAT,
    SWEPT,
    THW_KEEP,
    THW_TRIGGER,
    ZONE_HORIZON_S,
    ZONE_MAX_M,
    ZONE_MIN_M,
    ZONES,
    Scenario,
    _curves,
    _detect,
    _features,
    _fronts,
    _sweep,
    _zones,
    compute_thw,
    dtw_distance,
    dtw_distances,
    extract_features,
    find_trigger_windows,
    scenarios_to_dataset,
    thw_series,
    zone_extent,
)
from scenforest.sim import VEHICLE_LENGTH, RoadConfig, SimParams, Trace, TraceReader, load_trace, run_simulations, save_trace
from scenforest.sim import io as trace_io


# ------------------------------------------------------------------ THW

def thw_all(trace):
    """The THW of every vehicle at every step, from one ``_sweep``."""
    gaps, v, _, _ = _sweep(trace, slice(None))
    return compute_thw(gaps, v)


def detect(trace):
    """_detect over the whole run's ``_sweep``."""
    gaps, v, _, _ = _sweep(trace, slice(None))
    return _detect(trace, gaps, v)


def test_compute_thw_values():
    assert compute_thw(20.0, 20.0) == 1.0
    assert compute_thw(0.0, 20.0) == 0.0
    assert compute_thw(10.0, 0.0) == math.inf
    assert compute_thw(10.0, 0.05) == math.inf  # below the moving threshold
    with pytest.raises(ValueError):
        compute_thw(-1.0, 5.0)


def oracle_windows(thw, dt):
    """Independent linear scan: trigger runs, merge short gaps, keep rule."""
    windows = []
    t = 0
    n = len(thw)
    while t < n:
        if thw[t] <= THW_TRIGGER:
            start = t
            while t < n and thw[t] <= THW_TRIGGER:
                t += 1
            windows.append([start, t - 1])
        else:
            t += 1
    merged = []
    for w in windows:
        if merged and (w[0] - merged[-1][1] - 1) * dt < 1.0:
            merged[-1][1] = w[1]
        else:
            merged.append(w)
    return [tuple(w) for w in merged if min(thw[w[0] : w[1] + 1]) <= THW_KEEP]


def test_windows_match_oracle_on_random_series():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        thw = rng.uniform(0.0, 2.0, n)
        thw[rng.random(n) < 0.1] = math.inf
        dt = float(rng.choice([0.05, 0.1]))
        assert find_trigger_windows(thw, dt) == oracle_windows(thw, dt)


def test_window_rules_explicit_cases():
    # constant 0.9 s: triggered throughout but withdrawn (min > 0.8)
    assert find_trigger_windows(np.full(50, 0.9), 0.1) == []
    # dip to 0.7 for 2 s then recovery: exactly one kept window
    thw = np.full(100, 1.5)
    thw[30:50] = 0.7
    assert find_trigger_windows(thw, 0.1) == [(30, 49)]
    # two dips separated by 0.5 s above trigger merge into one window
    thw = np.full(100, 0.7)
    thw[40:45] = 1.5
    assert find_trigger_windows(thw, 0.1) == [(0, 99)]
    # separated by 2 s: two distinct windows
    thw = np.full(100, 0.7)
    thw[40:60] = 1.5
    assert find_trigger_windows(thw, 0.1) == [(0, 39), (60, 99)]


def follower_trace(build, gaps, v=20.0, dt=0.1):
    """Two vehicles, ego behind; per-step bumper gap prescribed."""
    n = len(gaps)
    x_eg = np.arange(n, dtype=float) * v * dt
    x_lead = x_eg + VEHICLE_LENGTH + np.asarray(gaps, dtype=float)
    x = np.stack([x_eg, x_lead], axis=1)
    vel = np.full((n, 2), v)
    lane = np.ones((n, 2), dtype=int)
    return build(x, vel, lane, dt=dt)


def test_thw_series_and_detection_on_trace(trace_builder):
    v = 20.0
    gaps = np.full(80, 30.0)
    gaps[20:50] = 14.0  # THW 0.7 s
    trace = follower_trace(trace_builder, gaps, v=v)
    thw = thw_all(trace)
    series = thw[:, 0]
    np.testing.assert_allclose(series[:20], 1.5)
    np.testing.assert_allclose(series[20:50], 0.7)
    np.testing.assert_array_equal(thw_series(trace, 1), series)
    scenarios = detect(trace)
    assert len(scenarios) == 1
    sc = scenarios[0]
    assert sc.ego_id == 1
    assert (sc.t_start, sc.t_end) == (20, 49)
    assert sc.thw_min == pytest.approx(0.7)
    assert sc.t_changepoint == 20  # first index achieving the minimum
    # the leader has no one ahead: no scenario for ego 2
    assert all(s.ego_id == 1 for s in scenarios)


def test_detection_merges_same_ego_windows(trace_builder):
    gaps = np.full(100, 14.0)
    gaps[40:45] = 40.0  # 0.5 s above trigger at dt=0.1
    trace = follower_trace(trace_builder, gaps)
    scenarios = detect(trace)
    assert len(scenarios) == 1
    assert (scenarios[0].t_start, scenarios[0].t_end) == (0, 99)


# ------------------------------------------------------------------ zones

def lone_ego_trace(build, v=20.0):
    n = 10
    x = (np.arange(n, dtype=float) * v * 0.1)[:, None]
    vel = np.full((n, 1), v)
    lane = np.full((n, 1), 2, dtype=int)
    return build(x, vel, lane)


def occupied(zones) -> list:
    """The zones of a one-step ``_zones`` that hold a vehicle, in ZONES order."""
    return [z for z, (j, _, _) in zones.items() if j[0] >= 0]


def test_zones_ego_alone(trace_builder):
    trace = lone_ego_trace(trace_builder)
    assert occupied(_zones(trace, 0, [5])) == []


def test_zone_extent_clamps():
    assert zone_extent(0.0) == 20.0
    assert zone_extent(30.0) == 60.0
    assert zone_extent(100.0) == 120.0


def test_zones_leader_in_front_slot(trace_builder):
    n = 5
    x = np.stack([np.zeros(n), np.full(n, 10.0)], axis=1)
    vel = np.stack([np.full(n, 20.0), np.full(n, 18.0)], axis=1)
    lane = np.full((n, 2), 2, dtype=int)
    trace = trace_builder(x, vel, lane)
    zones = _zones(trace, 0, [2])
    assert occupied(zones) == ["front"]
    j, dist, relv = zones["front"]
    assert j[0] == 1 and dist[0] == 10.0 and relv[0] == pytest.approx(-2.0)  # column 1: vehicle 2


def test_zones_nearest_of_two_ahead(trace_builder):
    n = 3
    x = np.stack([np.zeros(n), np.full(n, 25.0), np.full(n, 12.0)], axis=1)
    vel = np.full((n, 3), 20.0)
    lane = np.full((n, 3), 1, dtype=int)
    trace = trace_builder(x, vel, lane)
    zones = _zones(trace, 0, [1])
    assert zones["front"][0][0] == 2  # nearer vehicle (column 2) wins the slot
    assert occupied(zones) == ["front"]


def test_zones_sides_and_rear(trace_builder):
    n = 3
    # ego lane 2; neighbors: left-front, left-rear, right-front, rear
    x = np.stack(
        [np.zeros(n), np.full(n, 15.0), np.full(n, -10.0), np.full(n, 8.0), np.full(n, -6.0)],
        axis=1,
    )
    vel = np.full((n, 5), 20.0)
    lane = np.stack(
        [np.full(n, 2), np.full(n, 3), np.full(n, 3), np.full(n, 1), np.full(n, 2)], axis=1
    ).astype(int)
    trace = trace_builder(x, vel, lane)
    column = {z: j[0] for z, (j, _, _) in _zones(trace, 0, [1]).items()}
    assert column["left_front"] == 1
    assert column["left_rear"] == 2
    assert column["right_front"] == 3
    assert column["rear"] == 4
    assert column["front"] == -1 and column["right_rear"] == -1


def test_zones_beyond_extent_ignored(trace_builder):
    n = 3
    x = np.stack([np.zeros(n), np.full(n, 90.0)], axis=1)
    vel = np.full((n, 2), 20.0)  # extent = 40 m
    lane = np.full((n, 2), 1, dtype=int)
    trace = trace_builder(x, vel, lane)
    assert occupied(_zones(trace, 0, [1])) == []


# ------------------------------------------------------------------ DTW

def brute_force_dtw(a, b):
    """Oracle: recursive enumeration of all monotone boundary alignments."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        cost = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return cost
        options = []
        if i > 0:
            options.append(rec(i - 1, j))
        if j > 0:
            options.append(rec(i, j - 1))
        if i > 0 and j > 0:
            options.append(rec(i - 1, j - 1))
        return cost + min(options)

    return rec(len(a) - 1, len(b) - 1)


def test_dtw_identity_symmetry_and_known_value():
    rng = np.random.default_rng(0)
    s = rng.normal(size=12)
    assert dtw_distances([(s, s)])[0] == 0.0
    assert dtw_distances([([0.0, 0.0], [1.0, 1.0])])[0] == 2.0
    a, b = rng.normal(size=7), rng.normal(size=9)
    assert dtw_distances([(a, b)])[0] == dtw_distances([(b, a)])[0]


def test_dtw_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = tuple(rng.normal(size=rng.integers(1, 8)).tolist())
        b = tuple(rng.normal(size=rng.integers(1, 8)).tolist())
        assert dtw_distances([(a, b)])[0] == pytest.approx(brute_force_dtw(a, b), rel=1e-12)


def test_dtw_rejects_empty():
    with pytest.raises(ValueError):
        dtw_distances([([], [1.0])])


def loop_dtw_distance(s1, s2) -> float:
    """The row-by-row DTW recurrence that extraction ran one pair at a time."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    n, m = len(s1), len(s2)
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, np.inf)
        for j in range(1, m + 1):
            cost = abs(s1[i - 1] - s2[j - 1])
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(prev[m])


@st.composite
def dtw_curve(draw):
    """1 to 128 values, from a pool of three (ties in cost and in the min) or from a range."""
    values = draw(st.one_of(
        st.just(st.sampled_from([0.0, 1.0, 2.5])),
        st.just(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)),
    ))
    return draw(st.lists(values, min_size=1, max_size=draw(st.sampled_from([1, 4, 16, 128]))))


@st.composite
def dtw_pair(draw):
    first = draw(dtw_curve())
    return first, first if draw(st.booleans()) and len(first) > 1 else draw(dtw_curve())


@settings(max_examples=60, deadline=None)
@given(st.lists(dtw_pair(), min_size=1, max_size=5))
def test_batched_dtw_equals_row_loop(pairs):
    # mixed lengths in one batch, equal curves, a batch of one
    want = np.array([loop_dtw_distance(a, b) for a, b in pairs])
    assert dtw_distances(pairs).tobytes() == want.tobytes()
    assert dtw_distances(pairs[-1:])[0] == want[-1]
    assert dtw_distance(*pairs[-1]) == want[-1]


def test_batched_dtw_edge_lengths():
    rng = np.random.default_rng(3)
    pairs = [(rng.normal(size=n), rng.normal(size=m)) for n, m in ((1, 1), (1, 128), (128, 1), (128, 128), (7, 90))]
    want = np.array([loop_dtw_distance(a, b) for a, b in pairs])
    assert dtw_distances(pairs).tobytes() == want.tobytes()
    assert dtw_distances([]).shape == (0,)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batched_dtw_rejects_non_finite(bad):
    curve = [1.0, bad, 2.0]
    with pytest.raises(ValueError, match="pair 1 holds a non-finite value"):
        dtw_distances([([1.0], [2.0]), ([0.0, 1.0], curve)])
    with pytest.raises(ValueError, match="non-finite"):
        dtw_distances([(curve, [1.0])])


# ------------------------------------------------------------------ features

def test_feature_vector_length_and_names():
    assert len(FEATURE_NAMES) == 47
    assert len(set(FEATURE_NAMES)) == 47


def test_features_lone_ego_ceilings(trace_builder):
    trace = lone_ego_trace(trace_builder, v=20.0)
    # artificial window (the detector would never keep a lone ego); a large
    # finite THW stands in for the no-threat sentinel
    sc = Scenario(
        ego_id=1,
        t_start=0,
        t_end=9,
        thw_min=99.0,
        t_changepoint=0,
    )
    f = extract_features(sc, trace)
    assert len(f) == 47
    names = dict(zip(FEATURE_NAMES, f))
    extent = zone_extent(20.0)
    for z in ZONES:
        for instant in ("start", "changepoint", "end"):
            assert names[f"dist_{z}_{instant}"] == extent
            assert names[f"relv_{z}_{instant}"] == 0.0
    assert names["collision"] == 0.0 and names["cut_in"] == 0.0
    assert names["ego_lane_changes"] == 0.0
    assert names["lane_count"] == 3.0
    assert np.all(np.isfinite(f))


def test_features_thw_min_duration_and_purity(trace_builder):
    gaps = np.full(60, 30.0)
    gaps[10:40] = 12.0
    trace = follower_trace(trace_builder, gaps, v=20.0)
    sc = detect(trace)[0]
    f1 = extract_features(sc, trace)
    f2 = extract_features(sc, trace)
    np.testing.assert_array_equal(f1, f2)  # pure function
    names = dict(zip(FEATURE_NAMES, f1))
    assert names["thw_min"] == sc.thw_min == pytest.approx(0.6)
    assert names["duration_s"] == pytest.approx((sc.t_end - sc.t_start) * trace.dt)
    assert names["ego_speed_changepoint"] == 20.0


def test_dtw_feature_zero_when_gap_matches_desired(trace_builder):
    v = 20.0
    desired = v * 1.8
    trace = follower_trace(trace_builder, np.full(30, desired), v=v)
    sc = Scenario(
        ego_id=1,
        t_start=0,
        t_end=29,
        thw_min=desired / v,
        t_changepoint=0,
    )
    names = dict(zip(FEATURE_NAMES, extract_features(sc, trace)))
    assert names["dtw_gap_desired"] == 0.0


def test_collision_flag_and_dataset_assembly(trace_builder):
    gaps = np.concatenate([np.linspace(15.0, 0.0, 30), np.zeros(10)])
    trace = follower_trace(trace_builder, gaps, v=20.0)
    trace.collisions.append((30, (1, 2)))
    ds, meta = scenarios_to_dataset([("runX", trace)])
    assert ds.n_rows >= 1
    assert all(i.startswith("runX_s") for i in ds.ids)
    row = dict(zip(FEATURE_NAMES, ds.values[0]))
    assert row["collision"] == 1.0
    assert meta[0]["ego_id"] == 1
    assert meta[0]["id"] == ds.ids[0]


def test_cut_in_flag(trace_builder):
    # vehicle 2 swings from lane 2 into lane 1 ahead of the ego
    n = 20
    x = np.stack([np.zeros(n) + np.arange(n) * 2.0, np.full(n, 12.0) + np.arange(n) * 2.0], axis=1)
    vel = np.full((n, 2), 20.0)
    lane = np.ones((n, 2), dtype=int)
    lane[:8, 1] = 2  # starts in the left lane, cuts in at t=8
    trace = trace_builder(x, vel, lane)
    sc = Scenario(
        ego_id=1,
        t_start=0,
        t_end=n - 1,
        thw_min=0.6,
        t_changepoint=10,
    )
    names = dict(zip(FEATURE_NAMES, extract_features(sc, trace)))
    assert names["cut_in"] == 1.0


# ------------------------------------------- per-vehicle loops as oracles
# The scans extraction ran before it went array-native, reading the trace
# arrays one vehicle at a time.

def loop_leader_of(trace, t, ego):
    best, best_dx = None, math.inf
    for j in range(trace.n_vehicles):
        if j == ego or trace.lane[t, j] != trace.lane[t, ego]:
            continue
        dx = trace.x[t, j] - trace.x[t, ego]
        if 0.0 < dx < best_dx:
            best, best_dx = j, dx
    return best


def loop_thw_series(trace, ego_id):
    ego = ego_id - 1
    out = np.empty(trace.n_ts)
    for t in range(trace.n_ts):
        leader = loop_leader_of(trace, t, ego)
        if leader is None:
            out[t] = NO_THREAT
        else:
            gap = max(trace.x[t, leader] - trace.x[t, ego] - VEHICLE_LENGTH, 0.0)
            out[t] = compute_thw(gap, trace.v[t, ego])
    return out


def loop_zone_extent(v_ego):
    return min(max(v_ego * ZONE_HORIZON_S, ZONE_MIN_M), ZONE_MAX_M)


def loop_assign_zones(trace, ego_id, t):
    ego = ego_id - 1
    extent = loop_zone_extent(trace.v[t, ego])
    slots = {z: None for z in ZONES}
    for j in range(trace.n_vehicles):
        if j == ego:
            continue
        offset = trace.lane[t, j] - trace.lane[t, ego]
        if offset not in (-1, 0, 1):
            continue
        dx = trace.x[t, j] - trace.x[t, ego]
        if abs(dx) > extent:
            continue
        side = {0: "", 1: "left_", -1: "right_"}[offset]
        zone = side + ("front" if dx >= 0 else "rear")
        prev = slots[zone]
        if prev is None or abs(dx) < prev[1]:
            slots[zone] = (j + 1, abs(dx), trace.v[t, j] - trace.v[t, ego])
    return slots


def loop_gap_curves(trace, sc):
    ego = sc.ego_id - 1
    actual, desired = [], []
    for t in range(sc.t_start, sc.t_end + 1):
        leader = loop_leader_of(trace, t, ego)
        if leader is None:
            actual.append(loop_zone_extent(trace.v[t, ego]))
        else:
            actual.append(max(trace.x[t, leader] - trace.x[t, ego] - VEHICLE_LENGTH, 0.0))
        desired.append(trace.v[t, ego] * DESIRED_THW_S)
    return np.array(actual), np.array(desired)


def loop_cut_in(trace, sc):
    ego = sc.ego_id - 1
    for t in range(sc.t_start + 1, sc.t_end + 1):
        front = loop_assign_zones(trace, sc.ego_id, t)["front"]
        if front is None:
            continue
        vid = front[0]
        if trace.lane[t - 1, vid - 1] != trace.lane[t, ego] and trace.lane[t, vid - 1] == trace.lane[t, ego]:
            return True
    return False


# Values that make ties: equal positions, neighbours at equal |dx| on both
# sides, vehicles exactly one zone extent away (20 m at 10 m/s, 40 m at
# 20 m/s, 120 m from 60 m/s), standing egos and the 0.1 m/s threshold.
TIE_X = [0.0, 4.5, 5.0, -5.0, 9.5, 20.0, -20.0, 40.0, -40.0, 120.0, -120.0, 60.7]
TIE_V = [0.0, 0.05, 0.1, 10.0, 20.0, 60.0, 75.0]


@st.composite
def tie_heavy_trace(draw):
    n_ts = draw(st.integers(1, 6))
    n_v = draw(st.integers(1, 6))
    n_l = draw(st.sampled_from([2, 3]))

    def grid(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=n_ts * n_v, max_size=n_ts * n_v))).reshape(
            n_ts, n_v
        )

    return build_trace(grid(TIE_X), grid(TIE_V), grid(list(range(1, n_l + 1))), road=RoadConfig(n_l=n_l, n_vpl=8))


def gap_curves(trace, sc):
    """_curves over a scenario window, from a ``_sweep`` over it."""
    gaps, v, _, _ = _sweep(trace, slice(sc.t_start, sc.t_end + 1))
    return _curves(gaps[:, sc.ego_id - 1], v[:, sc.ego_id - 1])


def cut_in(trace, sc) -> bool:
    """extract_features' cut-in flag."""
    return bool(extract_features(sc, trace)[FEATURE_NAMES.index("cut_in")])


def window_events(trace, sc) -> tuple:
    """(ego_lane_changes, cut_in) of a window, as extract_features gives
    them and as ``_features`` gives them from a whole-run sweep (which lists
    the events before and at the window's first step too) and the rows of
    the window's three instants."""
    at = trace.at([sc.t_start, sc.t_changepoint, sc.t_end], SWEPT)
    rows = extract_features(sc, trace), _features(sc, trace, at, _sweep(trace, slice(None)), 0)[0]
    got = {tuple(row[FEATURE_NAMES.index(name)] for name in ("ego_lane_changes", "cut_in")) for row in rows}
    assert len(got) == 1, got
    return got.pop()


def loop_window_events(trace, sc) -> tuple:
    """(ego_lane_changes, cut_in) of a window from its lanes' np.diff and
    loop_cut_in."""
    lanes = trace.lane[sc.t_start : sc.t_end + 1, sc.ego_id - 1]
    return float(np.count_nonzero(np.diff(lanes))), float(loop_cut_in(trace, sc))


def window_draw(trace, data) -> Scenario:
    """A drawn window of a drawn ego of ``trace``."""
    t_start = data.draw(st.integers(0, trace.n_ts - 1))
    t_end = data.draw(st.integers(t_start, trace.n_ts - 1))
    return Scenario(data.draw(st.integers(1, trace.n_vehicles)), t_start, t_end, 0.0, t_start)


@settings(max_examples=300, deadline=None)
@given(tie_heavy_trace(), st.data())
def test_array_extraction_equals_vehicle_loops(trace, data):
    thw = thw_all(trace)
    for ego_id in range(1, trace.n_vehicles + 1):
        np.testing.assert_array_equal(thw[:, ego_id - 1], loop_thw_series(trace, ego_id))
        for t in range(trace.n_ts):
            zones = _zones(trace, ego_id - 1, [t])
            assert _fronts(trace, t)[ego_id - 1] == zones["front"][0][0]
            for z, slot in loop_assign_zones(trace, ego_id, t).items():
                j, d, relv = (a[0] for a in zones[z])
                assert slot == (None if j < 0 else (j + 1, d, relv))
    sc = window_draw(trace, data)
    for got, want in zip(gap_curves(trace, sc), loop_gap_curves(trace, sc)):
        assert got.tolist() == want.tolist()
    assert cut_in(trace, sc) == loop_cut_in(trace, sc)


_SIDES = {"ahead": np.greater, "front": np.greater_equal, "rear": np.less}


def _nearest(trace: Trace, ego: int, steps, offset: int, side: str, reach=None):
    """The nearest other vehicle at each of ``steps`` (a slice or a list of
    timesteps) on the lane ``offset`` lanes left of the ego's, and on
    ``side`` of it by the center distance dx: "ahead" (dx > 0, a leader),
    "front" (dx >= 0) or "rear" (dx < 0); with ``reach``, only within
    |dx| <= reach of that step. The nearest wins, and the lowest id on equal
    distance. Returns (column or -1, |dx| or inf), one entry per step.
    """
    dx = trace.x[steps] - trace.x[steps, ego][:, None]
    found = _SIDES[side](dx, 0.0) & (trace.lane[steps] == (trace.lane[steps, ego] + offset)[:, None])
    found[:, ego] = False
    dist = np.abs(dx, out=dx)
    if reach is not None:
        found &= dist <= np.reshape(reach, (-1, 1))
    dist = np.where(found, dist, np.inf)
    j = np.argmin(dist, axis=1)
    d = dist[np.arange(len(j)), j]
    return np.where(d < np.inf, j, -1), d


@settings(max_examples=200, deadline=None)
@given(tie_heavy_trace(), st.data())
def test_zones_equal_one_nearest_per_zone(trace, data):
    # the one-gather zones against six _nearest calls, ties and all
    steps = data.draw(st.lists(st.integers(0, trace.n_ts - 1), min_size=1, max_size=4))
    rows = np.arange(len(steps))
    for ego in range(trace.n_vehicles):
        reach = zone_extent(trace.v[steps, ego])
        for zone, (j, d, relv) in _zones(trace, ego, steps).items():
            offset = {"left": 1, "right": -1}.get(zone.split("_")[0], 0)
            want_j, want_d = _nearest(trace, ego, steps, offset, zone.split("_")[-1], reach)
            assert j.tolist() == want_j.tolist() and d.tolist() == want_d.tolist()
            want_relv = trace.v[steps][rows, want_j] - trace.v[steps, ego]
            assert relv[j >= 0].tolist() == want_relv[want_j >= 0].tolist()


@settings(max_examples=100, deadline=None)
@given(tie_heavy_trace())
def test_thw_in_blocks_equals_vehicle_loop(trace):
    # blocks of two steps, so that block edges fall inside the trace
    block, scenarios.THW_BLOCK = scenarios.THW_BLOCK, 2
    try:
        got = thw_all(trace)
    finally:
        scenarios.THW_BLOCK = block
    for ego_id in range(1, trace.n_vehicles + 1):
        np.testing.assert_array_equal(got[:, ego_id - 1], loop_thw_series(trace, ego_id))


@settings(max_examples=100, deadline=None)
@given(tie_heavy_trace(), st.data())
def test_window_scans_in_blocks_equal_vehicle_loops(trace, data):
    # blocks of two steps, so that block edges fall inside the window and on
    # its first step, and of seven, one block of these short traces
    sc = window_draw(trace, data)
    window = np.s_[sc.t_start : sc.t_end + 1, sc.ego_id - 1]
    for steps in (2, 7):
        block, scenarios.THW_BLOCK = scenarios.THW_BLOCK, steps
        try:
            gaps = _sweep(trace, slice(sc.t_start, sc.t_end + 1))[0][:, sc.ego_id - 1]
            # extraction sweeps each trace once and slices every window from it
            whole = _sweep(trace, slice(None))[0][window]
            curves = gap_curves(trace, sc)
            got = window_events(trace, sc)
        finally:
            scenarios.THW_BLOCK = block
        assert whole.tolist() == gaps.tolist()
        for curve, want in zip(curves, loop_gap_curves(trace, sc)):
            assert curve.tolist() == want.tolist()
        assert got == loop_window_events(trace, sc)


# ------------------------------------------ the sweep's lane-crossing events

def loop_events(trace, lo, hi) -> tuple:
    """The lane crossings and cut-ins at steps (lo, hi) of a trace, as a
    sweep over steps [lo, hi) lists them, one vehicle and one ego at a time."""
    crossings, cut_ins = [], []
    for t in range(lo + 1, hi):
        crossings += [(t, j) for j in range(trace.n_vehicles) if trace.lane[t, j] != trace.lane[t - 1, j]]
        for ego in range(trace.n_vehicles):
            front = loop_assign_zones(trace, ego + 1, t)["front"]
            if front is not None and trace.lane[t - 1, front[0] - 1] != trace.lane[t, ego]:
                cut_ins.append((t, ego))
    return crossings, cut_ins


def events(array) -> list:
    """A sweep's (2, events) array as a list of (step, column) pairs."""
    return list(zip(*array.tolist()))


@pytest.mark.parametrize("steps", [2, 7])
@settings(max_examples=100, deadline=None)
@given(trace=tie_heavy_trace(), data=st.data())
def test_sweep_events_equal_vehicle_loops(steps, trace, data):
    lo = data.draw(st.integers(0, trace.n_ts - 1))
    hi = data.draw(st.integers(lo + 1, trace.n_ts))
    block, scenarios.THW_BLOCK = scenarios.THW_BLOCK, steps
    try:
        _, _, crossings, cut_ins = _sweep(trace, slice(lo, hi))
    finally:
        scenarios.THW_BLOCK = block
    assert (events(crossings), events(cut_ins)) == loop_events(trace, lo, hi)


def column_trace(build, before, after, at: int):
    """The ego (vehicle 1) and two vehicles 12 m and 30 m ahead of it, all at
    20 m/s (a 40 m zone extent), on the lanes ``before`` up to step ``at``
    and ``after`` from it on, for 3 * ``at`` steps."""
    n = 3 * at
    x = np.arange(n)[:, None] * 2.0 + np.array([0.0, 12.0, 30.0])
    return build(x, np.full((n, 3), 20.0), np.array([before] * at + [after] * (n - at)))


# (lanes before, lanes after, the window's first step: 0 or the crossing's
# step, and the window's (ego_lane_changes, cut_in))
EDGE_CASES = {
    "front crosses at a block's first step": ([1, 2, 3], [1, 1, 3], 0, (0.0, 1.0)),
    "crossings at the window's first step": ([2, 2, 1], [1, 1, 2], "at", (0.0, 0.0)),
    "two vehicles cross at one step": ([1, 2, 1], [1, 1, 2], 0, (0.0, 1.0)),
    "two cross, neither ahead of the ego": ([1, 1, 3], [1, 2, 2], 0, (0.0, 0.0)),
    "ego crosses with its cut-in": ([2, 2, 3], [1, 1, 3], 0, (1.0, 1.0)),
    "ego crosses behind one that stays": ([2, 1, 3], [1, 1, 3], 0, (1.0, 0.0)),
}


@pytest.mark.parametrize("steps", [2, 7])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_sweep_events_at_block_and_window_edges(trace_builder, monkeypatch, steps, case):
    # the lanes change at step ``steps``, the first step of the sweep's
    # second block when it starts at step 0, where only the carried lane
    # row tells that a vehicle crossed
    before, after, t_start, want = EDGE_CASES[case]
    monkeypatch.setattr(scenarios, "THW_BLOCK", steps)
    trace = column_trace(trace_builder, before, after, steps)
    sc = Scenario(1, steps if t_start == "at" else t_start, trace.n_ts - 1, 0.0, trace.n_ts - 1)
    assert window_events(trace, sc) == loop_window_events(trace, sc) == want
    _, _, crossings, cut_ins = _sweep(trace, slice(None))
    assert events(crossings) == [(steps, j) for j in range(3) if before[j] != after[j]]
    assert (events(crossings), events(cut_ins)) == loop_events(trace, 0, trace.n_ts)
    _, _, crossings, cut_ins = _sweep(trace, slice(steps, None))
    assert crossings.size == cut_ins.size == 0  # no row before the sweep's first step


# ------------------------------- block sweeps against the whole-trace oracle

def saved_runs(workdir: Path, seeds, duration: float) -> list:
    """The files of one simulated run per seed (dt = 0.05 s), by path."""
    params = [SimParams(dt=0.05, duration=duration, seed=seed) for seed in seeds]
    paths = [workdir / f"trace_{k}.raw" for k in range(len(params))]
    for path, trace in zip(paths, run_simulations(RoadConfig(), params)):
        save_trace(trace, path)
    return paths


def assert_same_extraction(got, want):
    (data, meta), (want_data, want_meta) = got, want
    assert data.feature_names == want_data.feature_names
    assert data.ids == want_data.ids
    assert data.values.tobytes() == want_data.values.tobytes()
    assert json.dumps(meta) == json.dumps(want_meta)


def extract_both_ways(paths) -> list:
    """The block sweep over each file (as the CLI reads it) and over each
    trace in memory gives the oracle's bytes; returns the oracle's metadata."""
    want = extract_oracle.scenarios_to_dataset((p.stem, load_trace(p)) for p in paths)
    assert_same_extraction(scenarios_to_dataset((p.stem, TraceReader(p)) for p in paths), want)
    assert_same_extraction(scenarios_to_dataset((p.stem, load_trace(p)) for p in paths), want)
    return want[1]


@pytest.fixture
def blocks(monkeypatch):
    """Set the steps per block of the sweeps and of the reader's check."""
    def set_blocks(steps):
        monkeypatch.setattr(scenarios, "THW_BLOCK", steps)
        monkeypatch.setattr(trace_io, "CHECK_BLOCK", steps)
    return set_blocks


@pytest.mark.parametrize("steps", [7, scenarios.THW_BLOCK])
def test_block_sweeps_equal_whole_trace_oracle(tmp_path, blocks, steps):
    blocks(steps)
    paths = saved_runs(tmp_path, range(4), 40.0)
    n_ts = TraceReader(paths[0]).n_ts
    meta = extract_both_ways(paths)
    # the windows at the edges of the sweep all occur: one from step 0, one
    # to the last step, one across a block edge of the sweep (its blocks
    # start at multiples of ``steps``), and one longer than a block, whose
    # gaps, speeds and lane crossings come from more than one block
    assert any(m["t_start"] == 0 for m in meta)
    assert any(m["t_end"] == n_ts - 1 for m in meta)
    assert any(m["t_start"] // steps < m["t_end"] // steps for m in meta)
    assert any(m["t_end"] - m["t_start"] + 1 > steps for m in meta)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 1200), st.sampled_from([7, scenarios.THW_BLOCK]))
def test_block_sweeps_equal_oracle_over_seed_and_duration(seed, n_steps, steps):
    # durations from one step to two default blocks and more
    block, check = scenarios.THW_BLOCK, trace_io.CHECK_BLOCK
    scenarios.THW_BLOCK = trace_io.CHECK_BLOCK = steps
    try:
        with tempfile.TemporaryDirectory() as tmp:
            extract_both_ways(saved_runs(Path(tmp), [seed], n_steps * 0.05))
    finally:
        scenarios.THW_BLOCK, trace_io.CHECK_BLOCK = block, check
