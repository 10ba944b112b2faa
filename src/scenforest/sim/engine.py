"""Seeded highway microsimulation: scene setup, lane changes, main loop.

Every vehicle runs the follower law against the gap ahead on its own lane
(both lanes while changing); lane leaders regulate to their target speed or
close up on traffic ahead. Perception is delayed per vehicle by its
reaction time: controllers see the world as it was round(reaction/dt)
steps ago. Collisions are recorded and the involved vehicles freeze in
place; the run continues.

Vehicle ids are 1-based: column i of every trace array is vehicle i + 1.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .config import (
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    BehaviorProfile,
    RoadConfig,
    SimConfigError,
    SimParams,
    VehicleState,
)
from .dynamics import (
    follower_accel,
    gompertz_leader_accel,
    lateral_control,
    one_track_step,
    regulate_speed,
)

__all__ = [
    "CHANNELS",
    "Trace",
    "LaneChangeState",
    "init_scene",
    "lane_change_decision",
    "run_simulation",
    "run_scene",
]

SPAWN_GAP_MIN = VEHICLE_LENGTH       # at least one vehicle length between spawns
LC_MIN_GAP = 6.0                     # m, base accepted gap for a lane change
LC_THW = 0.8                         # s, speed-dependent accepted-gap part
LC_ACCEPT_FLOOR = 0.4                # waiting shrinks accepted gaps to this fraction
LC_ABORT_FACTOR = 0.5                # abort when a target gap falls below this fraction
LC_DONE_Y = 0.2                      # m, lateral tolerance to complete a change
LC_DONE_PSI = 0.02                   # rad, heading tolerance to complete a change

# profile shuffle bounds (plausible passenger-car ranges)
A_M_RANGE = (1.5, 4.0)
B_RANGE = (2.0, 6.0)
C_RANGE = (0.03, 0.15)
REACTION_RANGE = (0.3, 1.2)
LC_RATE_RANGE = (0.01, 0.1)
V_TARGET_MEAN = 18.0
V_TARGET_STD = 4.0
V_TARGET_MIN = 5.0


CHANNELS = ("x", "y", "v", "a", "psi")  # the float channels of a Trace; lane is the int one


@dataclass
class Trace:
    """Full record of one run: one (n_ts, n_v) array per channel, row t
    holding timestep t and column i vehicle i + 1 (x, y, v, a and psi as
    float64, lane as int64), plus collision events and run diagnostics."""

    dt: float
    road: RoadConfig
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    a: np.ndarray
    psi: np.ndarray
    lane: np.ndarray
    collisions: list  # (timestep, (id_a, id_b)) with id_a < id_b
    lane_change_starts: list = field(default_factory=list)  # (timestep, id, target_lane)
    ay_warning_steps: int = 0

    @property
    def n_ts(self) -> int:
        return self.x.shape[0]

    @property
    def n_vehicles(self) -> int:
        return self.x.shape[1]


@dataclass
class LaneChangeState:
    """Mutable lane-change bookkeeping for one vehicle."""

    target_lane: int | None = None   # active maneuver
    origin_lane: int | None = None
    desired_dir: int | None = None   # +1 left / -1 right while waiting for a gap
    waiting_time: float = 0.0

    @property
    def active(self) -> bool:
        return self.target_lane is not None


def _run_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _draw_v_target(rng: np.random.Generator, road: RoadConfig) -> float:
    v = rng.normal(V_TARGET_MEAN, V_TARGET_STD)
    return min(max(v, V_TARGET_MIN), road.speed_limit)


def _place_lane(rng: np.random.Generator, count: int, span: float) -> list:
    """Rear-to-front center positions with >= one vehicle length between hulls."""
    needed = count * VEHICLE_LENGTH + (count - 1) * SPAWN_GAP_MIN
    if needed > span:
        raise SimConfigError(
            f"road too short: {count} vehicles need {needed:.1f} m, spawn span is {span:.1f} m"
        )
    slack = span - needed
    parts = rng.random(count + 1)
    parts = parts / parts.sum() * slack
    xs = []
    x = parts[0] + VEHICLE_LENGTH / 2.0
    for k in range(count):
        if k:
            x += VEHICLE_LENGTH + SPAWN_GAP_MIN + parts[k]
        xs.append(float(x))
    return xs


def _init_scene(road: RoadConfig, rng: np.random.Generator, spawn_span: float | None):
    lo, hi = road.n_l + 1, road.n_l * road.n_vpl
    if lo > hi:
        raise SimConfigError(f"vehicle-count bounds empty: [{lo}, {hi}]")
    n_v = int(rng.integers(lo, hi + 1))
    slots = rng.choice(road.n_l * road.n_vpl, size=n_v, replace=False)
    lane_counts = np.bincount(slots // road.n_vpl, minlength=road.n_l).tolist()
    if spawn_span is None:
        spawn_span = road.n_vpl * 2.0 * VEHICLE_LENGTH + 40.0
    states = []
    for lane0, count in enumerate(lane_counts):
        lane = lane0 + 1
        for x in _place_lane(rng, count, spawn_span):
            states.append(
                VehicleState(x=x, y=road.lane_center(lane), v=0.0, a=0.0, psi=0.0, delta=0.0, lane=lane)
            )
    profiles = []
    for s in states:
        profile = BehaviorProfile(
            a_m=float(rng.uniform(*A_M_RANGE)),
            b=float(rng.uniform(*B_RANGE)),
            c=float(rng.uniform(*C_RANGE)),
            v_target=_draw_v_target(rng, road),
            risk=float(rng.uniform(0.0, 1.0)),
            patience=float(rng.uniform(0.0, 1.0)),
            politeness=float(rng.uniform(0.0, 1.0)),
            reaction_time=float(rng.uniform(*REACTION_RANGE)),
            lc_rate=float(rng.uniform(*LC_RATE_RANGE)),
        )
        s.v = profile.v_target
        profiles.append(profile)
    # spawn gaps are tight; cap each starting speed near the vehicle ahead's
    # so criticality develops from behavior, not from impossible initials
    for lane in sorted({s.lane for s in states}):
        idx = sorted((i for i, s in enumerate(states) if s.lane == lane), key=lambda i: -states[i].x)
        for ahead, behind in zip(idx, idx[1:]):
            states[behind].v = min(states[behind].v, states[ahead].v + 2.0)
    return states, profiles


def init_scene(road: RoadConfig, seed: int, spawn_span: float | None = None):
    """Draw the initial scene: vehicle count within the configured bounds,
    overlap-free placement, and per-vehicle behavior profiles."""
    return _init_scene(road, _run_rng(seed), spawn_span)


def _target_lane_gaps(ego: int, snapshot: list, target_lane: int):
    """(front gap, rear gap, overlap flag, rear speed) on the target lane,
    measured bumper to bumper in the perception snapshot."""
    ego_x = snapshot[ego].x
    front_gap = rear_gap = float("inf")
    v_rear = 0.0
    overlap = False
    for j, s in enumerate(snapshot):
        if j == ego or s.lane != target_lane:
            continue
        dx = s.x - ego_x
        if abs(dx) < VEHICLE_LENGTH + 1.0:
            overlap = True
        elif dx > 0 and dx - VEHICLE_LENGTH < front_gap:
            front_gap = dx - VEHICLE_LENGTH
        elif dx < 0 and -dx - VEHICLE_LENGTH < rear_gap:
            rear_gap = -dx - VEHICLE_LENGTH
            v_rear = s.v
    return front_gap, rear_gap, overlap, v_rear


def lane_change_decision(
    ego: int,
    snapshot: list,
    lc: LaneChangeState,
    profile: BehaviorProfile,
    road: RoadConfig,
    rng: np.random.Generator,
    dt: float,
    lane_occupancy: dict,
) -> str:
    """One lane-change step for one vehicle: keep, change-left, change-right,
    or abort.

    Motivation fires at the profile's per-second rate. The accepted gap
    scales with (1 - risk) and decays with waiting time toward a floor,
    faster for impatient drivers; the rear gap additionally scales with
    politeness. A change never starts into a longitudinal overlap or into a
    lane already at capacity; an active change aborts when a target-side
    gap falls below the abort fraction of the base accepted gap.
    """
    ego_state = snapshot[ego]
    if lc.active:
        front_gap, rear_gap, overlap, _ = _target_lane_gaps(ego, snapshot, lc.target_lane)
        base_front = LC_ABORT_FACTOR * (LC_MIN_GAP + LC_THW * ego_state.v)
        if overlap or front_gap < base_front or rear_gap < LC_ABORT_FACTOR * LC_MIN_GAP:
            return "abort"
        return "keep"
    if lc.desired_dir is None:
        if rng.random() >= profile.lc_rate * dt:
            return "keep"
        options = []
        if ego_state.lane < road.n_l:
            options.append(1)
        if ego_state.lane > 1:
            options.append(-1)
        lc.desired_dir = options[int(rng.integers(len(options)))] if len(options) > 1 else options[0]
        lc.waiting_time = 0.0
    else:
        lc.waiting_time += dt
    target = ego_state.lane + lc.desired_dir
    if not 1 <= target <= road.n_l:
        lc.desired_dir = None
        return "keep"
    if lane_occupancy.get(target, 0) >= road.n_vpl:
        return "keep"
    front_gap, rear_gap, overlap, v_rear = _target_lane_gaps(ego, snapshot, target)
    if overlap:
        return "keep"
    decay = LC_ACCEPT_FLOOR + (1.0 - LC_ACCEPT_FLOOR) * float(
        np.exp(-lc.waiting_time / (10.0 + 40.0 * profile.patience))
    )
    accept = (1.0 - profile.risk) * decay
    req_front = accept * (LC_MIN_GAP + LC_THW * ego_state.v)
    req_rear = accept * (LC_MIN_GAP + LC_THW * v_rear) * (0.5 + profile.politeness)
    if front_gap < req_front or rear_gap < req_rear:
        return "keep"
    return "change-left" if lc.desired_dir > 0 else "change-right"


def _nearest_ahead(ego: int, snapshot: list, lanes) -> int | None:
    best, best_dx = None, float("inf")
    ego_x = snapshot[ego].x
    for j, s in enumerate(snapshot):
        if j == ego or s.lane not in lanes:
            continue
        dx = s.x - ego_x
        if 0.0 < dx < best_dx:
            best, best_dx = j, dx
    return best


def _longitudinal(ego: int, snapshot: list, v_now: float, tau: float, profile: BehaviorProfile, road: RoadConfig, lc: LaneChangeState) -> float:
    """Acceleration command from delayed perception; current own speed is
    used for target-speed regulation.

    The perceived gap is dead-reckoned forward by the reaction delay tau at
    the perceived closing speed, otherwise the stopping math would run on a
    systematically stale gap and tight traffic would pile up immediately.
    """
    lanes = {snapshot[ego].lane}
    if lc.active:
        lanes.add(lc.target_lane)
    leader = _nearest_ahead(ego, snapshot, lanes)
    if leader is not None:
        lead = snapshot[leader]
        d_fl = lead.x - snapshot[ego].x - VEHICLE_LENGTH
        closing = snapshot[ego].v - lead.v
        rel_acc = snapshot[ego].a - lead.a
        d_est = max(d_fl - closing * tau - 0.5 * rel_acc * tau * tau, 0.0)
        v_l_est = max(lead.v + lead.a * tau, 0.0)
        return follower_accel(d_est, v_now, v_l_est, profile, road)
    ahead = _nearest_ahead(ego, snapshot, set(range(1, road.n_l + 1)))
    if ahead is not None:
        d_il = snapshot[ahead].x - snapshot[ego].x - VEHICLE_LENGTH
        if d_il > road.d_il_max:
            a = gompertz_leader_accel(0.0, d_il, profile, road)
            return min(max(a, -profile.a_dec_max), profile.a_m)
    a = regulate_speed(v_now, profile.v_target, profile, road)
    return min(max(a, -profile.a_dec_max), profile.a_m)


def _lane_occupancy(states: list, lcs: list) -> dict:
    """Per-lane counts including reservations held by active changers."""
    occ: dict = {}
    for s, lc in zip(states, lcs):
        occ[s.lane] = occ.get(s.lane, 0) + 1
        if lc.active:
            other = lc.target_lane if lc.target_lane != s.lane else lc.origin_lane
            occ[other] = occ.get(other, 0) + 1
    return occ


def lane_overflow(lane: np.ndarray, road: RoadConfig):
    """(step, lane, count) of the first step at which a lane holds more
    than n_vpl vehicles (the lowest such lane), or None."""
    counts = np.stack([np.count_nonzero(lane == k, axis=1) for k in range(1, road.n_l + 1)], axis=1)
    over = np.argwhere(counts > road.n_vpl).tolist()
    return (over[0][0], over[0][1] + 1, int(counts[tuple(over[0])])) if over else None


def run_scene(road: RoadConfig, params: SimParams, states0: list, profiles: list, rng: np.random.Generator | None = None) -> Trace:
    """Run the main loop on a prepared scene. ``rng`` continues the stream
    used by scene setup when called through run_simulation."""
    if rng is None:
        rng = _run_rng(params.seed)
    dt = params.dt
    n_ts = max(1, round(params.duration / dt))
    n_v = len(states0)
    delay = [round(p.reaction_time / dt) for p in profiles]
    lcs = [LaneChangeState() for _ in range(n_v)]
    frozen = [False] * n_v
    next_redraw = [float(rng.exponential(params.target_resample_mean)) for _ in range(n_v)]
    channels = np.empty((len(CHANNELS), n_ts, n_v))
    lane = np.empty((n_ts, n_v), dtype=np.int64)

    def record(t: int, step: list) -> None:
        for k, name in enumerate(CHANNELS):
            channels[k, t] = [getattr(s, name) for s in step]
        lane[t] = [s.lane for s in step]

    # the perception snapshots: the last max(delay) + 1 steps, newest last
    history = deque([list(states0)], maxlen=max(delay, default=0) + 1)
    record(0, states0)
    collisions: list = []
    lc_starts: list = []
    ay_steps = 0

    for t in range(n_ts - 1):
        cur = history[-1]
        occupancy = _lane_occupancy(cur, lcs)
        new: list = [None] * n_v
        ay_this_step = False
        for i in range(n_v):
            if frozen[i]:
                new[i] = replace(cur[i], v=0.0, a=0.0)
                continue
            profile = profiles[i]
            now = t * dt
            while next_redraw[i] <= now:
                profile.v_target = _draw_v_target(rng, road)
                next_redraw[i] += float(rng.exponential(params.target_resample_mean))
            snap = history[-1 - min(t, delay[i])]  # the step max(0, t - delay)
            lc = lcs[i]
            decision = lane_change_decision(i, snap, lc, profile, road, rng, dt, occupancy)
            if decision in ("change-left", "change-right"):
                lc.origin_lane = cur[i].lane
                lc.target_lane = cur[i].lane + lc.desired_dir
                lc.desired_dir = None
                lc.waiting_time = 0.0
                lc_starts.append((t, i + 1, lc.target_lane))
                occupancy = _lane_occupancy(cur, lcs)
            elif decision == "abort":
                lc.target_lane, lc.origin_lane = lc.origin_lane, lc.target_lane
            a_cmd = _longitudinal(i, snap, cur[i].v, delay[i] * dt, profile, road, lc)
            steer_lane = lc.target_lane if lc.active else cur[i].lane
            delta_cmd = lateral_control(cur[i], road.lane_center(steer_lane), cur[i].v)
            new[i], ay_flag = one_track_step(cur[i], delta_cmd, a_cmd, dt)
            ay_this_step = ay_this_step or ay_flag
        if ay_this_step:
            ay_steps += 1
        for i in range(n_v):
            new[i].lane = road.lane_of(new[i].y)
        # collision sweep on the fresh positions; involved vehicles freeze
        for i in range(n_v):
            for j in range(i + 1, n_v):
                if frozen[i] and frozen[j]:
                    continue
                if (
                    abs(new[i].x - new[j].x) < VEHICLE_LENGTH
                    and abs(new[i].y - new[j].y) < VEHICLE_WIDTH
                ):
                    collisions.append((t + 1, (i + 1, j + 1)))
                    for k in (i, j):
                        if not frozen[k]:
                            frozen[k] = True
                            new[k] = replace(new[k], v=0.0, a=0.0)
                            lcs[k] = LaneChangeState()
        for i in range(n_v):
            lc = lcs[i]
            if lc.active and not frozen[i]:
                done = (
                    abs(new[i].y - road.lane_center(lc.target_lane)) < LC_DONE_Y
                    and abs(new[i].psi) < LC_DONE_PSI
                )
                if done:
                    lcs[i] = LaneChangeState()
        record(t + 1, new)
        history.append(new)

    overflow = lane_overflow(lane, road)
    if overflow:
        t, k, count = overflow
        raise RuntimeError(f"lane {k} over capacity at step {t}: {count} vehicles")
    return Trace(
        dt=dt,
        road=road,
        **dict(zip(CHANNELS, channels)),
        lane=lane,
        collisions=collisions,
        lane_change_starts=lc_starts,
        ay_warning_steps=ay_steps,
    )


def run_simulation(road: RoadConfig, params: SimParams) -> Trace:
    """Draw a scene from the seed and run it; identical (config, seed) pairs
    produce bit-identical traces."""
    rng = _run_rng(params.seed)
    states0, profiles = _init_scene(road, rng, params.spawn_span)
    return run_scene(road, params, states0, profiles, rng)
