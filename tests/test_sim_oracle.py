"""The array control laws and the lock-step engine against the scalar laws
and the per-vehicle main loop they replaced (``sim_loop``), bit for bit."""

from copy import deepcopy
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sim_loop
from scenforest.sim import (
    MAX_DECEL,
    VEHICLE_LENGTH,
    BehaviorProfile,
    RoadConfig,
    SimConfigError,
    SimParams,
    Trace,
    VehicleState,
    braking_decel,
    follower_accel,
    gompertz_follower_accel,
    gompertz_leader_accel,
    lateral_control,
    one_track_step,
    regulate_speed,
    run_scene,
    run_simulations,
)
from scenforest.sim import engine
from scenforest.sim.engine import BATCH_RUNS, _init_scene, _run_rng

ROAD = RoadConfig(n_l=3, d_il_max=80.0)


def same_bits(got, want) -> bool:
    """Equal as float64 bit patterns: -0.0 differs from 0.0."""
    return np.asarray(got, dtype=np.float64).tobytes() == np.asarray(want, dtype=np.float64).tobytes()


def value(lo, hi, *special):
    return st.one_of(st.sampled_from(special), st.floats(lo, hi, allow_nan=False, allow_infinity=False))


# speeds: standing (both zeros), the clamp edges of lateral_control, the road's range
speed = value(0.0, 45.0, 0.0, -0.0, 1.0, 5.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(5.0, 9.0)))
# gaps and distances: zeros, the braking breakpoints, both sides of d_il_max
distance = value(-60.0, 400.0, 0.0, -0.0, 2.0, 2.1, 6.0, 80.0, float(np.nextafter(80.0, 99.0)))
profile_draw = st.builds(
    BehaviorProfile,
    a_m=st.floats(1.5, 4.0),
    b=st.floats(2.0, 6.0),
    c=st.floats(0.03, 0.15),
    v_target=value(5.0, 33.3, 5.0, 18.0),
    a_dec_max=st.sampled_from([MAX_DECEL, 6.0]),
)


def as_batch(column: list):
    """One argument of a law for all rows: an array, a profile object with
    array fields, or the shared road."""
    if isinstance(column[0], BehaviorProfile):
        return SimpleNamespace(**{f.name: np.array([getattr(p, f.name) for p in column]) for f in fields(BehaviorProfile)})
    if isinstance(column[0], RoadConfig):
        return column[0]
    return np.array(column)


def check_law(new, old, rows):
    """``new`` equals ``old`` on each row of arguments, and on all rows at
    once as arrays."""
    want = [old(*row) for row in rows]
    for row, w in zip(rows, want):
        assert same_bits(new(*row), w)
    assert same_bits(new(*(as_batch(list(column)) for column in zip(*rows))), want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(distance, profile_draw), min_size=1, max_size=8))
def test_gompertz_follower_accel_equals_scalar_law(rows):
    rows = [(abs(d), p) for d, p in rows]  # a gap response argument is >= 0
    check_law(gompertz_follower_accel, sim_loop.gompertz_follower_accel, rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(speed, distance, profile_draw, st.just(ROAD)), min_size=1, max_size=8))
def test_gompertz_leader_accel_equals_scalar_law(rows):
    check_law(gompertz_leader_accel, sim_loop.gompertz_leader_accel, rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(distance, speed, speed, profile_draw), min_size=1, max_size=8))
def test_braking_decel_equals_scalar_law(rows):
    check_law(braking_decel, sim_loop.braking_decel, rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(speed, profile_draw, st.booleans()), min_size=1, max_size=8))
def test_regulate_speed_equals_scalar_law(rows):
    # some vehicles at exactly their target speed (dv == 0)
    rows = [(p.v_target if at_target else v, p.v_target, p, ROAD) for v, p, at_target in rows]
    check_law(regulate_speed, sim_loop.regulate_speed, rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(distance, speed, speed, profile_draw, st.just(ROAD)), min_size=1, max_size=8))
def test_follower_accel_equals_scalar_law(rows):
    check_law(follower_accel, sim_loop.follower_accel, rows)


def loop_leader_accel(v, d_il, p):
    """The old loop's command for a vehicle without a leader."""
    if d_il > ROAD.d_il_max:
        a = sim_loop.gompertz_leader_accel(0.0, d_il, p, ROAD)
    else:
        a = sim_loop.regulate_speed(v, p.v_target, p, ROAD)
    return min(max(a, -p.a_dec_max), p.a_m)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(speed, distance, profile_draw, st.booleans(), speed), min_size=1, max_size=8))
def test_leader_commands_equal_the_loop(rows):
    # the engine's command for a vehicle without a leader: follower_accel on
    # a free road (an infinite gap, whatever the leader speed), or the
    # unclamped close-up
    rows = [(p.v_target if at_target else v, d, p, v_l) for v, d, p, at_target, v_l in rows]

    def engine_leader_accel(v, d_il, p, v_l):
        free = follower_accel(np.inf, v, v_l, p, ROAD)
        return np.where(d_il > ROAD.d_il_max, gompertz_leader_accel(0.0, d_il, p, ROAD), free)[()]

    check_law(engine_leader_accel, lambda v, d_il, p, v_l: loop_leader_accel(v, d_il, p), rows)


pose = st.tuples(
    value(-2.0, 12.0, 0.0, -0.0, 1.75),  # y, with lane centers 1.75, 5.25, 8.75
    value(-0.3, 0.3, 0.0, -0.0),         # psi
    speed,
)


def states(rows):
    """One VehicleState per row (y, psi, v), and their fields as arrays."""
    scalar = [VehicleState(x=10.0 * k, y=y, v=v, a=0.0, psi=psi, delta=0.0, lane=1) for k, (y, psi, v) in enumerate(rows)]
    array = VehicleState(**{f.name: np.array([getattr(s, f.name) for s in scalar]) for f in fields(VehicleState)})
    return scalar, array


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(pose, st.sampled_from([1.75, 5.25, 8.75, 30.0, -30.0])), min_size=1, max_size=8))
def test_lateral_control_equals_scalar_law(rows):
    # a target 30 m off saturates the command at +-limit
    scalar, array = states([p for p, _ in rows])
    centers = [c for _, c in rows]
    want = [sim_loop.lateral_control(s, c, s.v) for s, c in zip(scalar, centers)]
    for s, c, w in zip(scalar, centers, want):
        assert same_bits(lateral_control(s, c, s.v), w)
    assert same_bits(lateral_control(array, np.array(centers), array.v), want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(pose, value(-0.5, 0.5, 0.0, -0.0, 0.5, -0.5), value(-12.0, 5.0, 0.0, -0.0), st.sampled_from([0.05, 0.1])), min_size=1, max_size=8))
def test_one_track_step_equals_scalar_model(rows):
    scalar, array = states([p for p, *_ in rows])
    delta, a_cmd, dt = (np.array([row[k] for row in rows]) for k in (1, 2, 3))
    want = [sim_loop.one_track_step(s, d, acc, step) for s, (_, d, acc, step) in zip(scalar, rows)]
    for s, (_, d, acc, step), w in zip(scalar, rows, want):
        got = one_track_step(s, d, acc, step)
        assert all(same_bits(getattr(got, k), getattr(w, k)) for k in ("x", "y", "v", "a", "psi"))
    got = one_track_step(array, delta, a_cmd, dt)
    for k in ("x", "y", "v", "a", "psi"):
        assert same_bits(getattr(got, k), [getattr(w, k) for w in want])


lane_width = 3.5
boundary = st.sampled_from([k * lane_width for k in range(-1, 5)]).flatmap(
    lambda b: st.sampled_from([b, float(np.nextafter(b, -np.inf)), float(np.nextafter(b, np.inf))])
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(boundary, value(-10.0, 25.0, 0.0, -0.0)), min_size=1, max_size=8), st.sampled_from([2, 3]))
def test_lane_of_equals_scalar_rule(ys, n_l):
    road = RoadConfig(n_l=n_l, lane_width=lane_width)
    want = [sim_loop.lane_of(road, y) for y in ys]
    assert [int(road.lane_of(y)) for y in ys] == want
    assert road.lane_of(np.array(ys)).tolist() == want


# ------------------------------------------------------------- the engine


def assert_same_trace(got: Trace, want: Trace) -> None:
    """Every field equal; the arrays by bytes and dtype."""
    for f in fields(Trace):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and g.shape == w.shape, f.name
            assert g.tobytes() == w.tobytes(), f.name
        else:
            assert g == w, f.name


def loop_trace(road: RoadConfig, params: SimParams) -> Trace:
    """The scene run_simulations draws for ``params``, run by the per-vehicle loop."""
    rng = _run_rng(params.seed)
    states0, profiles = _init_scene(road, rng, params.spawn_span)
    return sim_loop.loop_run_scene(road, params, states0, profiles, rng)


@st.composite
def batch(draw):
    """A road and 1-4 runs of different seeds, steps and durations; spawn
    spans down to the tightest that fits, to force collisions, and short
    target redraw times."""
    road = RoadConfig(n_l=draw(st.sampled_from([2, 3])), n_vpl=draw(st.sampled_from([2, 3, 4])))
    tightest = (2 * road.n_vpl - 1) * VEHICLE_LENGTH
    runs = draw(st.lists(st.tuples(
        st.integers(0, 2**32),
        st.sampled_from([0.05, 0.1]),
        st.floats(0.5, 20.0),
        st.one_of(st.none(), st.floats(tightest, tightest + 30.0)),
        st.floats(1.0, 30.0),
    ), min_size=1, max_size=4))
    params = [
        SimParams(dt=dt, duration=duration, seed=seed, spawn_span=span, target_resample_mean=redraw)
        for seed, dt, duration, span, redraw in runs
    ]
    return road, params


@settings(max_examples=50, deadline=None)
@given(batch())
def test_lockstep_engine_equals_vehicle_loop(case):
    road, params = case
    for p, got in zip(params, run_simulations(road, params)):
        assert_same_trace(got, loop_trace(road, p))


def test_lockstep_engine_equals_vehicle_loop_on_busy_runs():
    # tight spans on a 3 x 4 road: the batch holds collisions, lane-change
    # starts and redraws, so the property above is not met only vacuously
    road = RoadConfig(n_l=3, n_vpl=4)
    params = [
        SimParams(duration=20.0, seed=seed, spawn_span=7 * VEHICLE_LENGTH + 1.0, target_resample_mean=2.0)
        for seed in range(20, 26)
    ]
    traces = list(run_simulations(road, params))
    assert any(t.collisions for t in traces)
    assert sum(len(t.lane_change_starts) for t in traces) >= 5
    for p, got in zip(params, traces):
        assert_same_trace(got, loop_trace(road, p))


def test_batch_runs_are_independent():
    road = RoadConfig(n_l=3, n_vpl=4)
    params = [
        SimParams(duration=duration, seed=seed, spawn_span=7 * VEHICLE_LENGTH + 5.0, target_resample_mean=3.0)
        for seed, duration in ((11, 15.0), (12, 8.0), (13, 12.0))
    ]
    alone = [next(run_simulations(road, [p])) for p in params]
    for order in ([0, 1, 2], [2, 0, 1], [1, 2], [2]):
        for k, got in zip(order, run_simulations(road, [params[k] for k in order])):
            assert_same_trace(got, alone[k])


def test_runs_beyond_one_batch():
    # more runs than one batch holds: each trace still equals its run's alone,
    # and a later batch's traces are views of other arrays
    road = RoadConfig(n_l=2, n_vpl=3)
    params = [SimParams(duration=2.0, seed=seed) for seed in range(BATCH_RUNS + 3)]
    traces = list(run_simulations(road, params))
    assert len(traces) == len(params)
    for p, got in zip(params, traces):
        assert_same_trace(got, next(run_simulations(road, [p])))
    assert traces[0].x.base is traces[BATCH_RUNS - 1].x.base
    assert traces[0].x.base is not traces[BATCH_RUNS].x.base


def test_run_scene_rejects_a_start_lane_off_the_road():
    road = RoadConfig(n_l=2, n_vpl=4)
    states0 = [VehicleState(x=0.0, y=road.lane_center(3), v=10.0, a=0.0, psi=0.0, delta=0.0, lane=3)]
    profile = BehaviorProfile(a_m=2.0, b=4.0, c=0.05, v_target=18.0)
    with pytest.raises(SimConfigError, match=r"vehicle 1 starts on lane 3, outside \[1, 2\]"):
        run_scene(road, SimParams(duration=1.0), states0, [profile])


def hand_scene(road: RoadConfig, k: int):
    """A run_scene-style scene: k + 5 vehicles over all lanes, with hand
    profiles that are motivated on up to a quarter of the steps."""
    states0, profiles = [], []
    for i in range(k + 5):
        lane = 1 + i % road.n_l
        states0.append(VehicleState(x=9.0 * i, y=road.lane_center(lane), v=12.0 + i % 4, a=0.0, psi=0.0, delta=0.0, lane=lane))
        profiles.append(BehaviorProfile(
            a_m=2.0 + 0.1 * i, b=4.0, c=0.05 + 0.01 * (i % 3), v_target=14.0 + i % 5,
            risk=(i % 4) / 3.0, patience=0.5, politeness=(i % 3) / 2.0, reaction_time=0.3 + 0.1 * (i % 5),
            lc_rate=1.0 + (i + k) % 5,  # fires with probability 0.05 to 0.25 per 0.05 s step
        ))
    return states0, profiles


def test_motivated_draws_in_id_order_equal_vehicle_loop(monkeypatch):
    # a full batch of hand scenes with frequent motivation and v_target
    # redraws: each trace equals the loop's, and the case takes the paths
    # it is meant to cover
    road = RoadConfig(n_l=3, n_vpl=4)
    params = [SimParams(duration=8.0, seed=100 + k, target_resample_mean=0.7) for k in range(BATCH_RUNS)]
    scenes = [hand_scene(road, k) for k in range(BATCH_RUNS)]
    traces = engine._run_batch(road, [(p, s, deepcopy(f), _run_rng(p.seed)) for p, (s, f) in zip(params, scenes)])

    events = []  # the loop's draws: ("redraw",) before a vehicle's decision, ("decide", id, idle, fired)
    draw_v_target, decide = sim_loop._draw_v_target, sim_loop.loop_lane_change_decision

    def logged_decide(ego, snapshot, lc, *args):
        idle = lc.target_lane is None and lc.desired_dir is None
        decision = decide(ego, snapshot, lc, *args)
        events.append(("decide", ego, idle, idle and lc.desired_dir is not None))
        return decision

    monkeypatch.setattr(sim_loop, "_draw_v_target", lambda *a: (events.append(("redraw",)), draw_v_target(*a))[1])
    monkeypatch.setattr(sim_loop, "loop_lane_change_decision", logged_decide)
    both = 0  # run-steps that hold a redraw and a fire
    drawn_after_fire = 0  # run-steps where a later vehicle draws its motivation after a fire
    for p, (states0, profiles), got in zip(params, scenes, traces):
        events.clear()
        assert_same_trace(got, sim_loop.loop_run_scene(road, p, states0, deepcopy(profiles), _run_rng(p.seed)))
        step, last, redrawn = set(), -1, False
        for event in events + [("decide", -1, False, False)]:
            if event[0] == "redraw":  # of the vehicle that decides next
                redrawn = True
                continue
            if event[1] <= last:  # a new step
                both += {"redraw", "fire"} <= step
                drawn_after_fire += "drawn after fire" in step
                step = set()
            last = event[1]
            step |= {"drawn after fire"} if event[2] and "fire" in step else set()
            step |= {"redraw"} if redrawn else set()
            step |= {"fire"} if event[3] else set()
            redrawn = False
    assert both > 0
    assert drawn_after_fire > 0


def first_collisions(trace: Trace) -> dict:
    """Vehicle column -> the step of its first collision, from which it is frozen."""
    first = {}
    for step, pair in trace.collisions:
        for i in pair:
            first.setdefault(i - 1, step)
    return first


def crash_scene(road: RoadConfig, shift: float):
    """A hand scene on lane 2: an overlapping pair at x = 100 + shift, which
    collides at step 1; vehicle 3 at 25 m/s, 40 m behind it, with weak
    brakes, motivated at once and taking any gap; vehicle 4, a follower far
    behind, that never wants another lane."""
    def vehicle(x, v, **behavior):
        profile = BehaviorProfile(**{**dict(a_m=2.0, b=4.0, c=0.08, v_target=v, reaction_time=0.5, lc_rate=0.0), **behavior})
        return VehicleState(x=x + shift, y=road.lane_center(2), v=v, a=0.0, psi=0.0, delta=0.0, lane=2), profile

    vehicles = [vehicle(100.0, 0.0), vehicle(102.0, 0.0), vehicle(60.0, 25.0, a_dec_max=0.5, risk=1.0, lc_rate=20.0),
                vehicle(-40.0, 15.0)]
    return [s for s, _ in vehicles], [p for _, p in vehicles]


def test_lockstep_engine_equals_vehicle_loop_with_frozen_vehicles():
    # frozen vehicles do not move, but stay in every other vehicle's view: a
    # batch of two hand scenes of different lengths (the batch's moving
    # vehicles change when a run ends as well as when one freezes) and a
    # tight seeded run; each trace equals the loop's, and the case takes the
    # paths it is meant to cover
    road = RoadConfig(n_l=3, n_vpl=4)
    params = [SimParams(duration=20.0, seed=1, target_resample_mean=1e9), SimParams(duration=12.0, seed=2, target_resample_mean=1e9),
              SimParams(duration=16.0, seed=24, spawn_span=7 * VEHICLE_LENGTH + 1.0, target_resample_mean=2.0)]
    seeded = _run_rng(params[2].seed)
    scenes = [(params[0], *crash_scene(road, 0.0), _run_rng(params[0].seed)),
              (params[1], *crash_scene(road, 7.0), _run_rng(params[1].seed)),
              (params[2], *_init_scene(road, seeded, params[2].spawn_span), seeded)]
    loops = [sim_loop.loop_run_scene(road, p, s, deepcopy(f), deepcopy(rng)) for p, s, f, rng in scenes]
    traces = engine._run_batch(road, [(p, s, deepcopy(f), rng) for p, s, f, rng in scenes])
    for got, want in zip(traces, loops):
        assert_same_trace(got, want)

    hand = traces[:2]
    for trace in hand:
        first = first_collisions(trace)
        assert first[0] == first[1] == 1
        # vehicle 3 hits the pair, frozen since step 1, while it changes
        # lanes: it has left lane 2's center, is not on lane 1's, and no
        # step since its start completed the change
        (start, _, target), = trace.lane_change_starts
        step = first[2]
        assert step > start + 1 and (step, (1, 3)) in trace.collisions
        done = (np.abs(trace.y[start + 1:step, 2] - road.lane_center(target)) < engine.LC_DONE_Y) & (
            np.abs(trace.psi[start + 1:step, 2]) < engine.LC_DONE_PSI)
        assert not done.any()
        assert min(abs(trace.y[step - 1, 2] - road.lane_center(lane)) for lane in (2, target)) >= engine.LC_DONE_Y
        # vehicle 4, still moving, perceives a frozen vehicle as its leader:
        # the nearest vehicle ahead on its lane, in the step it sees
        delay = round(0.5 / params[0].dt)
        led = []
        for t in range(first.get(3, trace.n_ts - 1)):
            seen = max(t - delay, 0)
            dx = trace.x[seen] - trace.x[seen, 3]
            ahead = np.where((trace.lane[seen] == trace.lane[seen, 3]) & (dx > 0.0), dx, np.inf)
            leader = int(ahead.argmin())
            led.append(ahead[leader] < np.inf and first.get(leader, trace.n_ts) <= seen)
        assert sum(led) > 50
    assert traces[2].collisions
