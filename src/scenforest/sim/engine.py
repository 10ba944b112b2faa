"""Seeded highway microsimulation: scene setup, lane changes, main loop.

Every vehicle runs the follower law against the gap ahead on its own lane
(both lanes while changing); lane leaders regulate to their target speed or
close up on traffic ahead. Perception is delayed per vehicle by its
reaction time: controllers see the world as it was round(reaction/dt)
steps ago. Collisions are recorded and the involved vehicles freeze in
place; the run continues.

One lock-step engine advances a batch of runs (run_simulations batches up
to BATCH_RUNS of them). Run k owns a contiguous block of columns in shared
(n_ts, sum of n_v) channel arrays, and its own Generator. Each step is
computed for every vehicle of every run at once:

- perception is a gather, channel[max(t - delay_i, 0), peers_i], so row i
  of each (n, largest n_v) view is the world as vehicle i saw it, over the
  vehicles of its own run; a step's work grows with the number of
  vehicles times the largest run, not with the square of the batch;
- the leader on each lane, the nearest vehicle ahead on any lane, the
  target-lane gaps and the collision sweep (the pairs of one run, in
  row-major order) are computed on these views;
- the control laws and the one-track model of ``dynamics`` run
  elementwise.

Only the draws stay a Python loop over the vehicles in id order, run by
run: the v_target redraws and the lane-change draws consume each run's
Generator in the order that one vehicle at a time did, and the lane-change
state machine they drive updates the lane occupancy when a change starts,
which the next vehicle's decision reads. A run's trace is therefore the
same in any batch; run_scene and run_simulation are batches of one.

Vehicle ids are 1-based: column i of every trace array is vehicle i + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

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
    py_max,
)

__all__ = [
    "CHANNELS",
    "Trace",
    "LaneChangeState",
    "Perception",
    "init_scene",
    "lane_change_decision",
    "run_simulation",
    "run_simulations",
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
BATCH_FIELDS = ("a_m", "b", "c", "a_dec_max", "v_target")  # profile fields the laws read, one array each
BATCH_RUNS = 8  # runs per lock-step batch: the batch's traces stay in memory together


@dataclass
class Trace:
    """Full record of one run: one (n_ts, n_v) array per channel, row t
    holding timestep t and column i vehicle i + 1 (x, y, v, a and psi as
    float64, lane as int64), plus collision events and run diagnostics.
    A simulated trace's arrays are its run's column block of the batch
    arrays, so they need not be contiguous."""

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


class Perception:
    """What every vehicle of a batch perceives at one step.

    Vehicle i sees the trace as it was at step ``seen[i]`` (its reaction
    delay back), and only the vehicles of its own run: ``peers[i]`` lists
    their columns in ascending order, padded with i's own column to the
    size of the largest run. Entry p of row i of ``dx`` (the center
    distance from i) and of ``lane`` is the vehicle in column
    ``peers[i, p]``; ``others`` masks each row to the other vehicles.
    ``ego_lane`` and ``ego_v`` are each vehicle's perceived own lane and
    speed, as lists for the per-vehicle decisions.
    """

    def __init__(self, seen, x, v, a, lane, peers):
        self.seen, self.v, self.a, self.peers = seen, v, a, peers
        self.rows = np.arange(len(seen))
        self.others = peers != self.rows[:, None]
        at = seen[:, None] * x.shape[1] + peers  # flat index of each perceived entry
        self.dx = np.take(x, at) - x[seen, self.rows][:, None]
        self.lane = np.take(lane, at)
        self.own_lane = lane[seen, self.rows]
        self.own_v, self.own_a = v[seen, self.rows], a[seen, self.rows]
        self.ego_v, self.ego_lane = self.own_v.tolist(), self.own_lane.tolist()
        self._gaps: dict = {}  # ego -> (target lane, front gap, rear gap, overlap, rear speed)

    def target_gaps(self, egos: list, targets: list) -> None:
        """Measure, bumper to bumper, (front gap, rear gap, overlap flag,
        rear speed) of each listed ego on its target lane, for ``gaps``."""
        if not egos:
            return
        rows = np.array(egos)
        on_lane = self.others[rows] & (self.lane[rows] == np.array(targets)[:, None])
        dx = np.where(on_lane, self.dx[rows], np.nan)  # NaN compares false
        overlap = (np.abs(dx) < VEHICLE_LENGTH + 1.0).any(axis=1)
        # min(dx) - L is min(dx - L): the rounding of dx - L is monotone in dx
        front = np.where(dx >= VEHICLE_LENGTH + 1.0, dx, np.inf).min(axis=1) - VEHICLE_LENGTH
        rear_gaps = np.where(dx <= -(VEHICLE_LENGTH + 1.0), -dx - VEHICLE_LENGTH, np.inf)
        rear_at = rear_gaps.argmin(axis=1)  # the lowest column on equal gaps
        rear = rear_gaps[np.arange(len(rows)), rear_at]
        v_rear = self.v[self.seen[rows], self.peers[rows, rear_at]]
        self._gaps.update(zip(egos, zip(targets, front.tolist(), rear.tolist(), overlap.tolist(), v_rear.tolist())))

    def gaps(self, ego: int, target: int) -> tuple:
        """(front gap, rear gap, overlap flag, rear speed) of ``ego`` on
        lane ``target``; the rear speed is 0.0 without a rear vehicle."""
        if self._gaps.get(ego, (None,))[0] != target:
            self.target_gaps([ego], [target])
        _, front, rear, overlap, v_rear = self._gaps[ego]
        return front, rear, overlap, v_rear if rear < np.inf else 0.0


def lane_change_decision(
    ego: int,
    perception: Perception,
    lc: LaneChangeState,
    profile: BehaviorProfile,
    road: RoadConfig,
    rng: np.random.Generator,
    dt: float,
    lane_occupancy: list,
) -> str:
    """One lane-change step for one vehicle: keep, change-left, change-right,
    or abort.

    Motivation fires at the profile's per-second rate. The accepted gap
    scales with (1 - risk) and decays with waiting time toward a floor,
    faster for impatient drivers; the rear gap additionally scales with
    politeness. A change never starts into a longitudinal overlap or into a
    lane already at capacity (``lane_occupancy[lane]`` counts the vehicles
    on or reserving each lane); an active change aborts when a target-side
    gap falls below the abort fraction of the base accepted gap.
    """
    if lc.target_lane is not None:
        front_gap, rear_gap, overlap, _ = perception.gaps(ego, lc.target_lane)
        base_front = LC_ABORT_FACTOR * (LC_MIN_GAP + LC_THW * perception.ego_v[ego])
        if overlap or front_gap < base_front or rear_gap < LC_ABORT_FACTOR * LC_MIN_GAP:
            return "abort"
        return "keep"
    ego_lane = perception.ego_lane[ego]
    if lc.desired_dir is None:
        if rng.random() >= profile.lc_rate * dt:
            return "keep"
        options = []
        if ego_lane < road.n_l:
            options.append(1)
        if ego_lane > 1:
            options.append(-1)
        lc.desired_dir = options[int(rng.integers(len(options)))] if len(options) > 1 else options[0]
        lc.waiting_time = 0.0
    else:
        lc.waiting_time += dt
    target = ego_lane + lc.desired_dir
    if not 1 <= target <= road.n_l:
        lc.desired_dir = None
        return "keep"
    if lane_occupancy[target] >= road.n_vpl:
        return "keep"
    front_gap, rear_gap, overlap, v_rear = perception.gaps(ego, target)
    if overlap:
        return "keep"
    decay = LC_ACCEPT_FLOOR + (1.0 - LC_ACCEPT_FLOOR) * float(
        np.exp(-lc.waiting_time / (10.0 + 40.0 * profile.patience))
    )
    accept = (1.0 - profile.risk) * decay
    req_front = accept * (LC_MIN_GAP + LC_THW * perception.ego_v[ego])
    req_rear = accept * (LC_MIN_GAP + LC_THW * v_rear) * (0.5 + profile.politeness)
    if front_gap < req_front or rear_gap < req_rear:
        return "keep"
    return "change-left" if lc.desired_dir > 0 else "change-right"


def _longitudinal(view: Perception, lead_lanes, v_now, tau, profile, road: RoadConfig):
    """Acceleration commands from delayed perception; current own speed is
    used for target-speed regulation. ``lead_lanes`` marks, per row, the
    perceived vehicles on the lanes a leader is sought on.

    The perceived gap is dead-reckoned forward by the reaction delay tau at
    the perceived closing speed, otherwise the stopping math would run on a
    systematically stale gap and tight traffic would pile up immediately.
    """
    rows, dx = view.rows, view.dx
    gap_ahead = np.where(view.others & (dx > 0.0), dx, np.inf)
    gap_lead = np.where(lead_lanes, gap_ahead, np.inf)
    leader, ahead = gap_lead.argmin(axis=1), gap_ahead.argmin(axis=1)  # the lowest column on ties
    has_leader = gap_lead[rows, leader] < np.inf
    lead = view.peers[rows, leader]
    lead_v, lead_a = view.v[view.seen, lead], view.a[view.seen, lead]
    d_fl = dx[rows, leader] - VEHICLE_LENGTH
    closing = view.own_v - lead_v
    rel_acc = view.own_a - lead_a
    d_est = py_max(d_fl - closing * tau - 0.5 * rel_acc * tau * tau, 0.0)
    v_l_est = py_max(lead_v + lead_a * tau, 0.0)
    # a vehicle without a leader drives on a free road: at an infinite gap
    # follower_accel is the clamped speed regulation, bit for bit ...
    a_cmd = follower_accel(np.where(has_leader, d_est, np.inf), v_now, v_l_est, profile, road)
    # ... unless it closes up on the traffic ahead beyond d_il_max (a
    # Gompertz response lies in [0, a_m], inside the clamp)
    d_il = dx[rows, ahead] - VEHICLE_LENGTH
    close_up = ~has_leader & (gap_ahead[rows, ahead] < np.inf) & (d_il > road.d_il_max)
    return np.where(close_up, gompertz_leader_accel(0.0, d_il, profile, road), a_cmd)


def lane_overflow(lane: np.ndarray, road: RoadConfig):
    """(step, lane, count) of the first step at which a lane holds more
    than n_vpl vehicles (the lowest such lane), or None."""
    counts = np.stack([np.count_nonzero(lane == k, axis=1) for k in range(1, road.n_l + 1)], axis=1)
    over = np.argwhere(counts > road.n_vpl).tolist()
    return (over[0][0], over[0][1] + 1, int(counts[tuple(over[0])])) if over else None


def _run_batch(road: RoadConfig, scenes: list) -> list:
    """Run prepared scenes, each (params, states0, profiles, rng), in lock-step."""
    bounds = np.cumsum([0] + [len(states0) for _, states0, _, _ in scenes]).tolist()
    n_runs, n = len(scenes), bounds[-1]
    n_ts = [max(1, round(params.duration / params.dt)) for params, *_ in scenes]
    states0 = [s for _, run_states, _, _ in scenes for s in run_states]
    profiles = [p for _, _, run_profiles, _ in scenes for p in run_profiles]
    for i, s in enumerate(states0):
        if not 1 <= s.lane <= road.n_l:
            raise SimConfigError(f"vehicle {i + 1} starts on lane {s.lane}, outside [1, {road.n_l}]")
    run_of = np.repeat(np.arange(n_runs), np.diff(bounds))
    run_list = run_of.tolist()
    dt = np.array([params.dt for params, *_ in scenes])[run_of]
    delay = np.array([round(p.reaction_time / d) for p, d in zip(profiles, dt.tolist())], dtype=np.int64)
    tau = delay * dt
    batch = SimpleNamespace(**{key: np.array([getattr(p, key) for p in profiles]) for key in BATCH_FIELDS})
    next_redraw = [
        float(rng.exponential(params.target_resample_mean)) for params, run_states, _, rng in scenes for _ in run_states
    ]
    # the columns of each vehicle's run, padded with its own (see Perception)
    sizes, column = np.diff(bounds), np.arange(n)[:, None]
    at = np.arange(sizes.max())
    peers = np.where(at < sizes[run_of][:, None], np.array(bounds[:-1])[run_of][:, None] + at, column)
    pair_i, pair_at = np.nonzero(peers > column)  # row-major, as the sweep visits them
    pair_j = peers[pair_i, pair_at]
    width = road.n_l + 2  # occupancy lists cover lanes 0 .. n_l + 1, every lane a target can name

    # one LaneChangeState per vehicle for the decisions, mirrored in
    # ``changing`` and ``target`` for the array steps
    lcs = [LaneChangeState() for _ in range(n)]
    changing = np.zeros(n, dtype=bool)
    target = np.zeros(n, dtype=np.int64)
    frozen, still = [False] * n, np.zeros(n, dtype=bool)
    collisions: list = [[] for _ in scenes]
    lc_starts: list = [[] for _ in scenes]
    ay_steps = [0] * n_runs

    def reset(i: int) -> None:
        lcs[i] = LaneChangeState()
        changing[i] = False

    channels = {name: np.empty((max(n_ts), n)) for name in CHANNELS}
    lane = np.empty((max(n_ts), n), dtype=np.int64)
    for name, column in channels.items():
        column[0] = [getattr(s, name) for s in states0]
    lane[0] = [s.lane for s in states0]
    x, y, v, a, psi = (channels[name] for name in CHANNELS)

    for t in range(max(n_ts) - 1):
        live = [t < n_ts[k] - 1 for k in range(n_runs)]
        view = Perception(np.maximum(t - delay, 0), x, v, a, lane, peers)
        lane_now = lane[t].tolist()
        # per run and lane: the vehicles on it and the reservations held by active changers
        occupancy = np.bincount(run_of * width + lane[t], minlength=n_runs * width).reshape(n_runs, width).tolist()
        for i in changing.nonzero()[0].tolist():
            lc = lcs[i]
            occupancy[run_list[i]][lc.target_lane if lc.target_lane != lane_now[i] else lc.origin_lane] += 1
        # measure up front the gaps the decisions will read, on the lane
        # each changing or waiting vehicle wants; ``gaps`` measures any
        # other on demand
        egos = [i for i, lc in enumerate(lcs) if lc.target_lane is not None or lc.desired_dir is not None]
        view.target_gaps(egos, [lcs[i].target_lane or view.ego_lane[i] + lcs[i].desired_dir for i in egos])
        for k, (params, _, _, rng) in enumerate(scenes):
            if not live[k]:
                continue
            lo, hi = bounds[k], bounds[k + 1]
            now = t * params.dt
            for i in range(lo, hi):
                if frozen[i]:
                    continue
                while next_redraw[i] <= now:
                    batch.v_target[i] = _draw_v_target(rng, road)
                    next_redraw[i] += float(rng.exponential(params.target_resample_mean))
                lc = lcs[i]
                decision = lane_change_decision(i, view, lc, profiles[i], road, rng, params.dt, occupancy[k])
                if decision == "keep":
                    continue
                if decision == "abort":
                    lc.target_lane, lc.origin_lane = lc.origin_lane, lc.target_lane
                else:
                    lc.origin_lane = lane_now[i]
                    lc.target_lane = lane_now[i] + lc.desired_dir
                    lc.desired_dir = None
                    lc.waiting_time = 0.0
                    lc_starts[k].append((t, i - lo + 1, lc.target_lane))
                    occupancy[k][lc.target_lane] += 1
                    changing[i] = True
                target[i] = lc.target_lane

        # a leader is sought on the perceived own lane, and on the target
        # lane while changing (lane 0, which no perceived vehicle is on, otherwise)
        lead_lanes = (view.lane == view.own_lane[:, None]) | (view.lane == np.where(changing, target, 0)[:, None])
        a_cmd = _longitudinal(view, lead_lanes, v[t], tau, batch, road)
        cur = VehicleState(x=x[t], y=y[t], v=v[t], a=a[t], psi=psi[t], delta=None, lane=lane[t])
        steer = road.lane_center(np.where(changing, target, lane[t]))
        new, ay_flag = one_track_step(cur, lateral_control(cur, steer, v[t]), a_cmd, dt)
        x[t + 1], y[t + 1], v[t + 1], a[t + 1], psi[t + 1] = new.x, new.y, new.v, new.a, new.psi
        if any(frozen):  # frozen vehicles stay in place
            ay_flag &= ~still
            for channel in (x, y, psi):
                np.copyto(channel[t + 1], channel[t], where=still)
            for channel in (v, a):
                np.copyto(channel[t + 1], 0.0, where=still)
        for k in set(run_of[ay_flag].tolist()):  # a step counts once per run
            if live[k]:
                ay_steps[k] += 1
        lane[t + 1] = road.lane_of(y[t + 1])
        # collision sweep on the fresh positions, pairs in row-major order;
        # involved vehicles freeze
        nx, ny = x[t + 1], y[t + 1]
        hits = (np.abs(nx[pair_i] - nx[pair_j]) < VEHICLE_LENGTH) & (np.abs(ny[pair_i] - ny[pair_j]) < VEHICLE_WIDTH)
        for p in hits.nonzero()[0].tolist():
            i, j = int(pair_i[p]), int(pair_j[p])
            k = run_list[i]
            if (frozen[i] and frozen[j]) or not live[k]:
                continue
            collisions[k].append((t + 1, (i - bounds[k] + 1, j - bounds[k] + 1)))
            for m in (i, j):
                if not frozen[m]:
                    frozen[m] = still[m] = True
                    v[t + 1, m] = a[t + 1, m] = 0.0
                    reset(m)
        # a change is done once on its target lane's center, heading straight
        done = changing & (np.abs(ny - steer) < LC_DONE_Y) & (np.abs(psi[t + 1]) < LC_DONE_PSI)
        for i in done.nonzero()[0].tolist():
            reset(i)

    traces = []
    for k, (params, *_) in enumerate(scenes):
        block = (slice(0, n_ts[k]), slice(bounds[k], bounds[k + 1]))
        overflow = lane_overflow(lane[block], road)
        if overflow:
            t, lane_k, count = overflow
            raise RuntimeError(f"lane {lane_k} over capacity at step {t}: {count} vehicles")
        traces.append(Trace(
            dt=params.dt,
            road=road,
            **{name: channels[name][block] for name in CHANNELS},
            lane=lane[block],
            collisions=collisions[k],
            lane_change_starts=lc_starts[k],
            ay_warning_steps=ay_steps[k],
        ))
    return traces


def run_scene(road: RoadConfig, params: SimParams, states0: list, profiles: list, rng: np.random.Generator | None = None) -> Trace:
    """Run the main loop on a prepared scene. ``rng`` continues the stream
    used by scene setup when called through run_simulation."""
    return _run_batch(road, [(params, states0, profiles, _run_rng(params.seed) if rng is None else rng)])[0]


def run_simulations(road: RoadConfig, runs: list):
    """Yield each run's trace, in order: each run's scene is drawn from its
    own seed, and up to BATCH_RUNS runs at a time go through one lock-step
    batch. Each trace equals run_simulation's for its params, and is a
    view of its batch's arrays, which stay alive while any of its traces
    does."""
    for lo in range(0, len(runs), BATCH_RUNS):
        scenes = []
        for params in runs[lo:lo + BATCH_RUNS]:
            rng = _run_rng(params.seed)
            scenes.append((params, *_init_scene(road, rng, params.spawn_span), rng))
        yield from _run_batch(road, scenes)


def run_simulation(road: RoadConfig, params: SimParams) -> Trace:
    """Draw a scene from the seed and run it; identical (config, seed) pairs
    produce bit-identical traces."""
    return next(run_simulations(road, [params]))
