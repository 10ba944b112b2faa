"""Oracles for the simulator: the scalar control laws and the per-vehicle
main loop that the lock-step engine replaced, kept verbatim (but for the
names) so that tests can require the array code to equal them bit for bit.
"""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from scenforest.sim.config import (
    GRAVITY,
    MAX_STEER,
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    WHEELBASE,
    BehaviorProfile,
    RoadConfig,
    SimParams,
    VehicleState,
)
from scenforest.sim.engine import (
    CHANNELS,
    LC_ABORT_FACTOR,
    LC_ACCEPT_FLOOR,
    LC_DONE_PSI,
    LC_DONE_Y,
    LC_MIN_GAP,
    LC_THW,
    Trace,
    _draw_v_target,
    _run_rng,
    lane_overflow,
)

BRAKE_MIN_GAP = 2.0
BRAKE_EPS = 0.1
BRAKE_ENGAGE = 1.5
BRAKE_NEAR = 4.0
BRAKE_MATCH = 4.0
AY_CTRL_LIMIT = 0.35 * GRAVITY


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


def lane_of(road: RoadConfig, y: float) -> int:
    lane = int(y // road.lane_width) + 1
    return min(max(lane, 1), road.n_l)


# ---------------------------------------------------------------- the laws

def _gompertz(u: float, profile: BehaviorProfile) -> float:
    return profile.a_m * math.exp(-profile.b * math.exp(-profile.c * u))


def gompertz_follower_accel(d_fl: float, profile: BehaviorProfile) -> float:
    """Commanded free-flow component for a follower at gap d_fl (>= 0)."""
    return _gompertz(d_fl, profile)


def gompertz_leader_accel(v_l: float, d_il: float, profile: BehaviorProfile, road: RoadConfig) -> float:
    """Leader acceleration: gap argument when d_il exceeds d_il_max
    (strictly), velocity argument otherwise. Both branches share the
    Gompertz form, so equal arguments give equal outputs."""
    if d_il > road.d_il_max:
        return _gompertz(d_il, profile)
    return _gompertz(v_l, profile)


def braking_decel(d_fl: float, v_f: float, v_l: float, profile: BehaviorProfile) -> float:
    """Constant-deceleration braking term (<= 0) for a closing follower.

    Sized so the closing speed is eliminated within the remaining gap;
    saturates at the full deceleration ability when the gap is near zero.
    The quadratic sizing alone decays the closing speed only hyperbolically
    once the denominator saturates (log-unbounded creep through the minimum
    gap), so a speed-matching term ramps in over the last stretch and kills
    residual closing exponentially.
    """
    closing = max(v_f - v_l, 0.0)
    needed = closing * closing / (2.0 * max(d_fl - BRAKE_MIN_GAP, BRAKE_EPS))
    ramp = min(max(1.0 - (d_fl - BRAKE_MIN_GAP) / BRAKE_NEAR, 0.0), 1.0)
    needed += BRAKE_MATCH * closing * ramp
    return -min(profile.a_dec_max, needed)


def regulate_speed(v: float, v_target: float, profile: BehaviorProfile, road: RoadConfig) -> float:
    """Signed Gompertz regulation toward the target speed."""
    dv = v_target - v
    mag = gompertz_leader_accel(abs(dv), 0.0, profile, road)
    return math.copysign(mag, dv) if dv != 0.0 else 0.0


def follower_accel(d_fl: float, v_f: float, v_l: float, profile: BehaviorProfile, road: RoadConfig) -> float:
    """Full follower command: gap response capped by speed regulation, plus
    braking, saturated to [-a_dec_max, a_m].

    The drive part drops to at most zero once the required deceleration
    passes the engage level; otherwise the positive Gompertz term would eat
    into the braking budget and the stopping-distance sizing could never
    hold. Gentle approaches keep a positive net command on purpose: gaps
    are allowed to shrink below a comfortable headway.
    """
    a_gap = gompertz_follower_accel(max(d_fl, 0.0), profile)
    a_reg = regulate_speed(v_f, profile.v_target, profile, road)
    drive = min(a_gap, a_reg)
    brake = braking_decel(d_fl, v_f, v_l, profile)
    if -brake >= BRAKE_ENGAGE:
        drive = min(drive, 0.0)
    return min(max(drive + brake, -profile.a_dec_max), profile.a_m)


def lateral_control(state: VehicleState, target_lane_center: float, v: float) -> float:
    """P-control on predicted distance and orientation errors.

    The pose is previewed over a speed-dependent look-ahead horizon at the
    current speed and heading, steering assumed back to neutral (carrying
    the held steering angle through the whole preview couples the command
    to itself with loop gain ~ v*T/L >> 1 and chatters at the clamp). The
    command is k_d(v) * e_d + k_psi * e_psi, errors measured desired minus
    predicted; the heading-rate preview term makes the closed loop
    overdamped across the simulated speed range. Positive steering turns
    left (+y), so a vehicle left of its target gets a negative command.
    Commands are clamped so the implied lateral acceleration stays inside
    the one-track validity envelope.
    """
    horizon = min(max(0.5 + 0.05 * v, 0.5), 2.0)
    y_pred = state.y + v * math.sin(state.psi) * horizon
    psi_pred = state.psi
    e_d = target_lane_center - y_pred
    e_psi = -psi_pred
    k_d = 0.4 / max(v, 5.0)
    delta_cmd = k_d * e_d + 1.0 * e_psi
    limit = min(MAX_STEER, math.atan(AY_CTRL_LIMIT * WHEELBASE / max(v, 1.0) ** 2))
    return min(max(delta_cmd, -limit), limit)


def one_track_step(state: VehicleState, delta_cmd: float, a_cmd: float, dt: float):
    """Kinematic one-track (bicycle) update over one timestep.

    The stored acceleration is the realized value, which differs from the
    command only when the speed floors at zero.
    """
    x = state.x + state.v * math.cos(state.psi) * dt
    y = state.y + state.v * math.sin(state.psi) * dt
    psi = state.psi + state.v / WHEELBASE * math.tan(delta_cmd) * dt
    v = max(0.0, state.v + a_cmd * dt)
    return VehicleState(
        x=x,
        y=y,
        v=v,
        a=(v - state.v) / dt,
        psi=psi,
        delta=delta_cmd,
        lane=state.lane,
    )


# ------------------------------------------------------------- the engine

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


def loop_lane_change_decision(
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
    decay = LC_ACCEPT_FLOOR + (1.0 - LC_ACCEPT_FLOOR) * math.exp(-lc.waiting_time / (10.0 + 40.0 * profile.patience))
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


def loop_run_scene(road: RoadConfig, params: SimParams, states0: list, profiles: list, rng: np.random.Generator | None = None) -> Trace:
    """The simulator's per-vehicle main loop, as it was before the
    lock-step engine: one VehicleState per vehicle and step, perception
    from a history deque, O(n_v) scans for leaders, gaps and collisions."""
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

    for t in range(n_ts - 1):
        cur = history[-1]
        occupancy = _lane_occupancy(cur, lcs)
        new: list = [None] * n_v
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
            decision = loop_lane_change_decision(i, snap, lc, profile, road, rng, dt, occupancy)
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
            new[i] = one_track_step(cur[i], delta_cmd, a_cmd, dt)
        for i in range(n_v):
            new[i].lane = lane_of(road, new[i].y)
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
    )
