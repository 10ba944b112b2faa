"""Vehicle models, scene setup, and simulation-level invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforest.sim import (
    CHANNELS,
    GRAVITY,
    WHEELBASE,
    BehaviorProfile,
    Perception,
    RoadConfig,
    SimConfigError,
    SimParams,
    VehicleState,
    braking_decel,
    engine,
    gap_accepted,
    gompertz_follower_accel,
    gompertz_leader_accel,
    init_scene,
    lateral_control,
    one_track_step,
    run_scene,
    run_simulation,
    run_simulations,
)


def profile(**kw):
    defaults = dict(a_m=2.0, b=4.0, c=0.05, v_target=18.0)
    defaults.update(kw)
    return BehaviorProfile(**defaults)


# ------------------------------------------------------------- Gompertz laws

def test_follower_gompertz_asymptote_and_origin():
    p = profile()
    far = gompertz_follower_accel(2000.0, p)  # c*d = 100 >> 50
    assert far == pytest.approx(p.a_m, abs=1e-9)
    assert gompertz_follower_accel(0.0, p) == pytest.approx(p.a_m * math.exp(-p.b), abs=0)


def test_follower_gompertz_independent_evaluation():
    # oracle: direct composition in plain math
    p = profile(a_m=2.0, b=4.0, c=0.05)
    expected = 2.0 * math.exp(-4.0 * math.exp(-0.05 * 40.0))
    got = gompertz_follower_accel(40.0, p)
    assert got == expected
    assert got == pytest.approx(1.163, abs=1e-3)


def test_leader_branch_selection_strict():
    road = RoadConfig(d_il_max=80.0)
    p = profile(a_m=2.0, b=4.0, c=0.1)
    # at the boundary the velocity branch applies (strictly greater switches)
    at_boundary = gompertz_leader_accel(20.0, 80.0, p, road)
    assert at_boundary == 2.0 * math.exp(-4.0 * math.exp(-0.1 * 20.0))
    assert at_boundary == pytest.approx(1.163, abs=1e-3)
    beyond = gompertz_leader_accel(20.0, 80.0 + 1e-9, p, road)
    assert beyond == 2.0 * math.exp(-4.0 * math.exp(-0.1 * (80.0 + 1e-9)))


def test_leader_branches_share_functional_form():
    road = RoadConfig(d_il_max=50.0)
    p = profile(c=0.08)
    u = 23.0
    vel_branch = gompertz_leader_accel(u, 0.0, p, road)
    gap_branch = gompertz_leader_accel(0.0, u, p, road)
    assert u <= road.d_il_max  # gap branch argument crosses the threshold
    # same u through either branch formula gives the same value
    assert vel_branch == pytest.approx(p.a_m * math.exp(-p.b * math.exp(-p.c * u)), abs=0)
    assert gap_branch == pytest.approx(p.a_m * math.exp(-p.b * math.exp(-p.c * 0.0)), abs=0)


def test_braking_zero_when_not_closing():
    p = profile()
    assert braking_decel(30.0, 10.0, 12.0, p) == 0.0
    assert braking_decel(1.0, 20.0, 0.0, p) == -p.a_dec_max  # gap near zero


# ---------------------------------------------------------- lateral control

def test_lateral_zero_error_fixed_point():
    s = VehicleState(x=0, y=1.75, v=20.0, a=0, psi=0.0, delta=0.0, lane=1)
    assert lateral_control(s, 1.75, 20.0) == 0.0


def test_lateral_sign_convention():
    # left of target (y above center), no heading error: steer right (< 0)
    s = VehicleState(x=0, y=2.0, v=20.0, a=0, psi=0.0, delta=0.0, lane=1)
    assert lateral_control(s, 1.75, 20.0) < 0.0
    s2 = VehicleState(x=0, y=1.5, v=20.0, a=0, psi=0.0, delta=0.0, lane=1)
    assert lateral_control(s2, 1.75, 20.0) > 0.0


def test_lateral_linearity_before_clamp():
    v = 20.0
    s1 = VehicleState(x=0, y=1.75 + 0.05, v=v, a=0, psi=0.0, delta=0.0, lane=1)
    s2 = VehicleState(x=0, y=1.75 + 0.10, v=v, a=0, psi=0.0, delta=0.0, lane=1)
    d1 = lateral_control(s1, 1.75, v)
    d2 = lateral_control(s2, 1.75, v)
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


# ------------------------------------------------------------- one-track

def test_one_track_straight_line():
    s = VehicleState(x=0, y=0, v=20.0, a=0, psi=0.0, delta=0.0, lane=1)
    s2 = one_track_step(s, 0.0, 0.0, 0.1)
    assert s2.x == pytest.approx(2.0, abs=0)
    assert s2.y == 0.0 and s2.psi == 0.0


def test_one_track_zero_speed_fixed_pose():
    s = VehicleState(x=5, y=1, v=0.0, a=0, psi=0.3, delta=0.0, lane=1)
    s2 = one_track_step(s, 0.5, 0.0, 0.05)
    assert (s2.x, s2.y, s2.psi) == (5.0, 1.0, 0.3)


def test_one_track_speed_floor():
    s = VehicleState(x=0, y=0, v=1.0, a=0, psi=0.0, delta=0.0, lane=1)
    s2 = one_track_step(s, 0.0, -30.0, 0.1)
    assert s2.v == 0.0
    assert s2.a == pytest.approx(-10.0)  # realized, not commanded


def test_one_track_circle_radius():
    # closed-form oracle: constant steering traces radius L / tan(delta)
    delta = 0.05
    v, dt = 10.0, 0.001
    radius = WHEELBASE / math.tan(delta)
    s = VehicleState(x=0.0, y=0.0, v=v, a=0, psi=0.0, delta=delta, lane=1)
    center = (0.0, radius)
    quarter_turn = (math.pi / 2) * radius / v
    worst = 0.0
    for _ in range(int(quarter_turn / dt)):
        s = one_track_step(s, delta, 0.0, dt)
        r = math.hypot(s.x - center[0], s.y - center[1])
        worst = max(worst, abs(r - radius) / radius)
    assert worst < 0.01


# standing, the clamp's speed floor of 1 m/s and their neighbouring doubles, the top speed
EDGE_SPEEDS = [0.0, -0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 1.0, float(np.nextafter(1.0, 2.0)), 45.0]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(EDGE_SPEEDS), st.floats(0.0, 45.0)),
    st.floats(-30.0, 30.0),  # target offset, a lane change and far beyond
    st.floats(-0.5, 0.5),
    st.floats(-2.0, 12.0),
)
def test_lateral_control_stays_in_one_track_validity_range(v, offset, psi, y):
    # the one-track model holds up to about 0.4 g of lateral acceleration
    s = VehicleState(x=0.0, y=y, v=v, a=0.0, psi=psi, delta=0.0, lane=1)
    delta = float(lateral_control(s, y + offset, v))
    assert abs(v * v * math.tan(delta) / WHEELBASE) <= 0.4 * GRAVITY


# ------------------------------------------------------------- scene setup

def test_init_scene_vehicle_count_bounds():
    road = RoadConfig(n_l=2, n_vpl=4)
    counts = set()
    for seed in range(40):
        states, profiles = init_scene(road, seed)
        counts.add(len(states))
        assert len(states) == len(profiles)
    assert counts <= set(range(3, 9))  # n_l + 1 .. n_l * n_vpl
    assert min(counts) >= 3 and max(counts) <= 8


def test_init_scene_no_overlap_min_gap():
    road = RoadConfig(n_l=3, n_vpl=5)
    for seed in range(10):
        states, _ = init_scene(road, seed)
        for lane in (1, 2, 3):
            xs = sorted(s.x for s in states if s.lane == lane)
            for a, b in zip(xs, xs[1:]):
                assert b - a >= 2 * 4.5 - 1e-9  # length + one-length gap


def test_init_scene_profile_bounds():
    states, profiles = init_scene(RoadConfig(), 123)
    for p in profiles:
        assert 1.5 <= p.a_m <= 4.0
        assert 2.0 <= p.b <= 6.0
        assert 0.03 <= p.c <= 0.15
        assert 0.3 <= p.reaction_time <= 1.2
        assert 0.01 <= p.lc_rate <= 0.1
        assert 5.0 <= p.v_target <= RoadConfig().speed_limit


def test_init_scene_deterministic():
    road = RoadConfig(n_l=2, n_vpl=6)
    s1, p1 = init_scene(road, 77)
    s2, p2 = init_scene(road, 77)
    assert s1 == s2 and p1 == p2


def test_invalid_configs_rejected():
    with pytest.raises(SimConfigError):
        RoadConfig(n_l=4)
    with pytest.raises(SimConfigError):
        RoadConfig(n_vpl=1)  # would invert the vehicle-count bounds
    with pytest.raises(SimConfigError):
        SimParams(dt=0.2)
    with pytest.raises(SimConfigError):
        SimParams(duration=0.0)


def test_spawn_span_too_short():
    road = RoadConfig(n_l=2, n_vpl=6)
    with pytest.raises(SimConfigError, match="too short"):
        init_scene(road, 0, spawn_span=20.0)


# --------------------------------------------------------- lane change rule

def lc_snapshot(ego_y=1.75, others=()):
    """What every vehicle perceives when all see one and the same step."""
    states = [VehicleState(x=100.0, y=ego_y, v=20.0, a=0, psi=0, delta=0, lane=1)]
    for x, lane in others:
        states.append(
            VehicleState(x=x, y=(lane - 0.5) * 3.5, v=20.0, a=0, psi=0, delta=0, lane=lane)
        )
    n = len(states)
    state = np.array([[[getattr(s, name) for s in states] for name in CHANNELS]])  # a ring of one step
    lane = np.array([[s.lane for s in states]])
    view = Perception(state, lane, peers=np.tile(np.arange(n), (n, 1)), columns=np.arange(n))
    view.look(np.zeros(n, dtype=np.int64))
    return view


def test_lane_change_never_into_overlap():
    road = RoadConfig(n_l=2, n_vpl=4)
    p = profile(risk=1.0, lc_rate=0.1)
    snapshot = lc_snapshot(others=[(101.0, 2)])  # alongside in the target lane
    front, rear, overlap, v_rear = snapshot.gaps(np.array([0]), np.array([2]))
    assert overlap.tolist() == [True]
    for waiting in (0.0, 1.0, 60.0, 1e6):
        assert not gap_accepted(front[0], rear[0], True, v_rear[0], 20.0, waiting, p)
        assert not gap_accepted(np.inf, np.inf, True, 0.0, 20.0, waiting, p)
    # in a run: two equal vehicles side by side keep driving side by side,
    # and the one motivated on nearly every step never starts a change
    states0 = [
        VehicleState(x=100.0, y=road.lane_center(lane), v=18.0, a=0.0, psi=0.0, delta=0.0, lane=lane) for lane in (1, 2)
    ]
    params = SimParams(duration=10.0, seed=3, target_resample_mean=1e9)
    trace = run_scene(road, params, states0, [profile(risk=1.0, lc_rate=10.0), profile()])
    assert np.all(trace.x[:, 0] == trace.x[:, 1])
    assert trace.lane_change_starts == []


def test_lane_change_deterministic():
    road = RoadConfig(n_l=2, n_vpl=4)
    states0 = [VehicleState(x=0.0, y=road.lane_center(1), v=18.0, a=0.0, psi=0.0, delta=0.0, lane=1)]

    def run(seed):
        params = SimParams(duration=60.0, seed=seed)
        return run_scene(road, params, states0, [profile(lc_rate=0.5)]).lane_change_starts

    assert run(5) and run(5) == run(5)


def test_accepted_gap_shrinks_with_waiting():
    # required gap is monotone non-increasing in waiting time toward a floor
    from scenforest.sim.engine import LC_ACCEPT_FLOOR, LC_MIN_GAP, LC_THW

    p = profile(risk=0.0, patience=0.5)
    v = 20.0

    def required(wait):
        decay = LC_ACCEPT_FLOOR + (1 - LC_ACCEPT_FLOOR) * math.exp(-wait / (10 + 40 * p.patience))
        return (1 - p.risk) * decay * (LC_MIN_GAP + LC_THW * v)

    waits = np.linspace(0, 600, 200)
    gaps = [required(w) for w in waits]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    floor = LC_ACCEPT_FLOOR * (LC_MIN_GAP + LC_THW * v)
    assert gaps[-1] == pytest.approx(floor, rel=1e-3)


# ----------------------------------------------------------------- full runs

def test_run_snapshot_count():
    road = RoadConfig(n_l=2, n_vpl=4)
    trace = next(run_simulations(road, [SimParams(dt=0.05, duration=10.0, seed=1)]))
    assert trace.n_ts == 200
    for name in (*CHANNELS, "lane"):
        assert getattr(trace, name).shape == (200, trace.n_vehicles)


def test_run_bit_identical_rerun():
    road = RoadConfig(n_l=2, n_vpl=5)
    params = SimParams(dt=0.05, duration=30.0, seed=9)
    t1 = next(run_simulations(road, [params]))
    t2 = run_simulation(road, params)
    for name in (*CHANNELS, "lane"):
        np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
    assert t1.collisions == t2.collisions


def test_lanes_in_range_and_within_capacity():
    road = RoadConfig(n_l=2, n_vpl=6)
    trace = next(run_simulations(road, [SimParams(dt=0.05, duration=30.0, seed=3)]))
    assert trace.lane.dtype == np.int64
    assert np.all((1 <= trace.lane) & (trace.lane <= road.n_l))
    for t in range(trace.n_ts):
        per_lane = np.bincount(trace.lane[t], minlength=road.n_l + 1)
        assert per_lane.max() <= road.n_vpl


def test_run_scene_rejects_lane_over_capacity():
    road = RoadConfig(n_l=2, n_vpl=2)
    states0 = [
        VehicleState(x=20.0 * k, y=road.lane_center(1), v=10.0, a=0.0, psi=0.0, delta=0.0, lane=1)
        for k in range(3)
    ]
    with pytest.raises(RuntimeError, match="lane 1 over capacity at step 0: 3 vehicles"):
        run_scene(road, SimParams(duration=1.0), states0, [profile() for _ in states0])


@pytest.mark.parametrize("flush_steps", [1, engine.FLUSH_STEPS])
def test_run_scene_names_the_step_of_an_overflow_in_a_later_block(monkeypatch, flush_steps):
    # vehicle 3 starts counted on lane 2 but on lane 1's center, where the
    # step re-lanes it: lane 1 holds 3 vehicles from step 1 on, which with
    # one step a block is the second flushed block's first row
    monkeypatch.setattr(engine, "FLUSH_STEPS", flush_steps)
    road = RoadConfig(n_l=2, n_vpl=2)
    states0 = [
        VehicleState(x=20.0 * k, y=road.lane_center(1), v=10.0, a=0.0, psi=0.0, delta=0.0, lane=min(k + 1, 2))
        for k in range(3)
    ]
    with pytest.raises(RuntimeError, match="lane 1 over capacity at step 1: 3 vehicles"):
        run_scene(road, SimParams(duration=1.0), states0, [profile() for _ in states0])


def test_accelerations_within_bounds():
    road = RoadConfig(n_l=2, n_vpl=6)
    trace = next(run_simulations(road, [SimParams(dt=0.05, duration=30.0, seed=4)]))
    assert np.all((-GRAVITY - 1e-9 <= trace.a) & (trace.a <= 4.0 + 1e-9))


def test_kinematic_residual_bound():
    road = RoadConfig(n_l=3, n_vpl=5)
    trace = next(run_simulations(road, [SimParams(dt=0.05, duration=30.0, seed=5)]))
    bound = GRAVITY * trace.dt**2
    assert np.all(np.abs(trace.x[1:] - trace.x[:-1] - trace.v[:-1] * trace.dt) <= bound)


def test_single_vehicle_converges_and_changes_only_when_motivated():
    road = RoadConfig(n_l=2, n_vpl=4)
    params = SimParams(dt=0.05, duration=120.0, seed=2, target_resample_mean=1e9)
    p = profile(v_target=22.0, lc_rate=0.05, b=3.0, c=0.12)
    states0 = [VehicleState(x=0.0, y=road.lane_center(1), v=10.0, a=0, psi=0, delta=0, lane=1)]
    trace = run_scene(road, params, states0, [p])
    final_v = trace.v[-1, 0]
    assert abs(final_v - 22.0) / 22.0 < 0.05
    flip_steps = np.nonzero(trace.lane[:-1, 0] != trace.lane[1:, 0])[0]
    flips = len(flip_steps)
    assert flips <= len(trace.lane_change_starts)
    if flips:
        first_flip = flip_steps[0]
        assert any(ts <= first_flip for ts, _, _ in trace.lane_change_starts)


def same_lane_swaps(trace, t):
    """Pairs (i, j), i < j, that kept one shared lane from step t to t + 1
    and swapped their longitudinal order."""
    lane, x = trace.lane[t : t + 2], trace.x[t : t + 2]
    stay = lane[0] == lane[1]
    same_lane_both = stay[:, None] & stay[None, :] & (lane[0][:, None] == lane[0][None, :])
    swapped = np.subtract.outer(x[0], x[0]) * np.subtract.outer(x[1], x[1]) < 0
    return np.argwhere(np.triu(same_lane_both & swapped, 1)).tolist()


def test_lane_order_changes_only_via_lane_change_or_collision():
    road = RoadConfig(n_l=2, n_vpl=6)
    trace = next(run_simulations(road, [SimParams(dt=0.05, duration=60.0, seed=7)]))
    collided = set()
    by_step = {}
    for t, pair in trace.collisions:
        by_step.setdefault(t, set()).update(pair)
    seen_collided = set()
    for t in range(trace.n_ts - 1):
        seen_collided |= by_step.get(t + 1, set())
        for i, j in same_lane_swaps(trace, t):
            assert i + 1 in seen_collided or j + 1 in seen_collided


def test_collisions_freeze_vehicles():
    road = RoadConfig(n_l=2, n_vpl=6)
    for seed in range(12):
        trace = next(run_simulations(road, [SimParams(dt=0.05, duration=60.0, seed=seed)]))
        if not trace.collisions:
            continue
        t0, pair = trace.collisions[0]
        for vid in pair:
            assert np.all(trace.v[t0 + 1 :, vid - 1] == 0.0)
            assert np.all(trace.x[t0 + 1 :, vid - 1] == trace.x[t0, vid - 1])
        return
    pytest.skip("no collision in the sampled seeds")
