"""Seeded highway microsimulation: scene setup, lane changes, main loop.

Every vehicle runs the follower law against the gap ahead on its own lane
(both lanes while changing); lane leaders regulate to their target speed or
close up on traffic ahead. Perception is delayed per vehicle by its
reaction time: controllers see the world as it was round(reaction/dt)
steps ago. Collisions are recorded and the involved vehicles freeze in
place; the run continues.

One lock-step engine advances a batch of runs (run_simulations batches up
to BATCH_RUNS of them). Run k owns a contiguous block of columns, and its
own Generator. The engine holds not the whole trace but a ring of its last
R = max(delay) + 1 + FLUSH_STEPS steps, step t in row t % R: one
(R, 5, n) float block of x, y, v, a and psi, so that a step's new row, the
flush's gather and a perceived vehicle's own values are each one call,
and an (R, n) int block of lanes. Every FLUSH_STEPS steps, when a run ends
and when the batch ends, the steps finished since the last flush go to the
sink of each run whose trace holds them, once their lanes are checked for
overflow, block by block in order. A sink keeps the rows in memory for a
Trace, or writes them to a trace file as they come (sim.io.TraceWriter), so
a batch holds whole traces only when its caller asks for Traces.

Only the moving vehicles, those of runs not yet ended that no collision
froze, perceive, decide and run the laws, one row each in column order; the
row set is rebuilt when a run ends or a vehicle freezes. A frozen vehicle
keeps its row of the ring from step to step (at v = a = 0), and stays in
every other vehicle's view as an obstacle. Each step is computed for every
moving vehicle of every run at once:

- perception is a gather, ring[max(t - delay_r, 0) % R, peers_r], so row r
  of each (moving, largest n_v) view is the world as its vehicle saw it,
  over the vehicles of its own run; a step's work grows with the number of
  vehicles times the largest run, not with the square of the batch;
- the leader on each lane, the nearest vehicle ahead on any lane, the
  target-lane gaps and the collision sweep (the pairs of one run that are
  not both frozen, in row-major order) are computed on these views;
- the control laws and the one-track model of ``dynamics`` run
  elementwise; the gap response, the speed regulation and the close-up of
  every vehicle are one Gompertz pass (``dynamics.longitudinal_accel``).

The lane-change decisions keep the order of the per-vehicle loop: one
vehicle at a time, run by run, in id order. First, the lane occupancy and,
in one gather, the target-lane gaps of every changing vehicle and of every
waiting vehicle whose lane has room: a start only adds reservations, so a
lane full at the start of the step stays full. Then each run visits its
vehicles that move, in id order, and draws from its Generator as the loop
did: a vehicle's due v_target redraws, then, if it neither changes lanes
nor waits, one motivation draw (and a direction draw when it fires with
two lanes to choose from). A changing vehicle aborts by the rule gap_lost;
a waiting or newly motivated one starts by gap_accepted if its lane still
has room, since a start reserves its target lane for the next vehicle's
check. A run's trace is therefore the same in any batch, a batch of one
included. run_simulations draws each run's scene from its seed, and
run_simulation is its batch of one; run_scene runs a scene that
init_scene drew or a caller built.

Vehicle ids are 1-based: column i of every trace array is vehicle i + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ..libm import exp
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
    lateral_control,
    longitudinal_accel,
    one_track_step,
    py_max,
)

__all__ = [
    "ARRAYS",
    "CHANNELS",
    "EVENTS",
    "Trace",
    "LaneChangeState",
    "Perception",
    "gap_accepted",
    "gap_lost",
    "init_scene",
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
ARRAYS = (*CHANNELS, "lane")  # the per-step arrays of a Trace, in the raw file's order
EVENTS = ("collisions", "lane_change_starts")  # the (step, ...) event lists of a Trace
BATCH_FIELDS = ("a_m", "b", "c", "a_dec_max", "v_target")  # profile fields the laws read, one array each
BATCH_RUNS = 8  # runs per lock-step batch
FLUSH_STEPS = 256  # ring rows beyond the longest reaction delay: finished rows go to the sinks this many at a time


@dataclass
class Trace:
    """Steps of one run: one (n_ts, n_v) array per channel, row t holding
    timestep t and column i vehicle i + 1 (x, y, v, a and psi as float64,
    lane as int64), plus the collision and lane-change start events, each
    counted from row 0. A simulated trace's arrays are contiguous blocks of
    its batch's buffers, one buffer per channel. ``rows(a, b)`` gives steps
    [a, b) as a Trace, as ``sim.io.TraceReader.rows`` does from a trace's
    files, so extraction reads both alike: in one sweep of blocks of steps,
    then the rows of every scenario's three instants (``at(steps)``, as
    ``TraceReader.at`` does)."""

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

    @property
    def n_ts(self) -> int:
        return self.x.shape[0]

    @property
    def n_vehicles(self) -> int:
        return self.x.shape[1]

    def rows(self, a: int, b: int, names=ARRAYS + EVENTS) -> Trace:
        """Steps [a, b) of the arrays and events in ``names`` (the others
        None): views of this trace's arrays, and the events of those steps
        counted from a."""
        arrays = [getattr(self, name)[a:b] if name in names else None for name in ARRAYS]
        return Trace(self.dt, self.road, *arrays, *events_between(self, a, b, names))

    def at(self, steps: list, names=ARRAYS) -> Trace:
        """The rows of ``steps`` (a list of steps, in any order) of the
        arrays in ``names`` (the others None), as copies, and no events."""
        return Trace(self.dt, self.road, *[getattr(self, name)[steps] if name in names else None for name in ARRAYS], None, None)


def events_between(trace, a: int, b: int, names) -> list:
    """The event lists of ``trace`` in ``names`` (the others None), each
    holding the events of steps [a, b), their steps counted from a."""
    return [[(t - a, *rest) for t, *rest in getattr(trace, name) if a <= t < b] if name in names else None
            for name in EVENTS]


class LaneChangeState:
    """Lane-change bookkeeping of a batch, one entry per vehicle: arrays for
    what the array steps read, lists for what only the decisions read."""

    def __init__(self, n: int):
        self.target = np.zeros(n, dtype=np.int64)   # lane of the active change, 0 if none
        self.desired = np.zeros(n, dtype=np.int64)  # +1 left / -1 right while waiting for a gap, else 0
        self.origin = [0] * n                       # the lane the active change left
        self.waiting = [0.0] * n                    # s waited for the gap

    def reset(self, i: int) -> None:
        self.target[i] = self.desired[i] = self.origin[i] = 0
        self.waiting[i] = 0.0


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
    """What the moving vehicles of a batch perceive at one step.

    Row r is the vehicle in column ``columns[r]``. It sees row ``seen[r]``
    of the ring of steps, the step its reaction delay back, and only the
    vehicles of its own run: ``peers[r]`` lists their columns in ascending
    order, padded with its own column to the size of the largest run.
    Entry p of row r of ``dx`` (the center distance from the vehicle) and
    of ``lane`` is the vehicle in column ``peers[r, p]``; ``at[r, p]`` is
    that vehicle's flat index into the ring's x, and into ``v`` and ``a``,
    the same ring flattened from its speed and acceleration channel on.
    ``others`` masks each row to the other vehicles. ``own_lane``,
    ``own_v`` and ``own_a`` are each row's perceived own lane, speed and
    acceleration. ``look`` perceives the next step from the same ring.
    """

    def __init__(self, state, lane, peers, columns):
        n = self._n = state.shape[2]
        self._x, self._lane, self._stride = state.reshape(-1), lane.reshape(-1), state.shape[1] * n
        self.v, self.a = self._x[CHANNELS.index("v") * n:], self._x[CHANNELS.index("a") * n:]
        self.peers, self.columns = peers, columns
        self.rows = np.arange(len(peers))
        self.others = peers != columns[:, None]

    def look(self, seen) -> None:
        """Perceive anew, row r at ring row seen[r]."""
        own = seen * self._stride  # flat index of each perceived row's x
        self.at = own[:, None] + self.peers
        own += self.columns
        self.dx = self._x.take(self.at) - self._x.take(own)[:, None]
        seen = seen * self._n  # flat index of each perceived row's lane
        self.lane = self._lane.take(seen[:, None] + self.peers)
        self.own_lane, self.own_v, self.own_a = self._lane.take(seen + self.columns), self.v.take(own), self.a.take(own)

    def gaps(self, egos, lanes) -> tuple:
        """Bumper to bumper, the (front gap, rear gap, overlap flag, rear
        speed) arrays of the vehicles ``egos`` on the lanes ``lanes``, one
        entry each. A vehicle overlaps the perceived vehicles on the lane
        within L + 1 m of center distance. Only without an overlap, which is
        all the lane-change rules read them for, are the gaps those to the
        nearest vehicle ahead and behind (inf without one) and the rear
        speed that of the one behind (0.0 without one)."""
        on_lane = self.others[egos] & (self.lane[egos] == lanes[:, None])
        dx = self.dx[egos]
        # without an overlap no dx lies within L + 1 of 0, so the least dx
        # above -(L + 1) is the nearest ahead; min(dx) - L is min(dx - L),
        # the rounding of dx - L being monotone in dx
        nearest = np.where(on_lane & (dx > -(VEHICLE_LENGTH + 1.0)), dx, np.inf).min(axis=1)
        rear_gaps = np.where(on_lane & (dx < VEHICLE_LENGTH + 1.0), -dx - VEHICLE_LENGTH, np.inf)
        rear_at = rear_gaps.argmin(axis=1)  # the lowest column on equal gaps
        rear = rear_gaps[np.arange(len(egos)), rear_at]
        v_rear = np.where(rear < np.inf, self.v.take(self.at[egos, rear_at]), 0.0)
        return nearest - VEHICLE_LENGTH, rear, nearest < VEHICLE_LENGTH + 1.0, v_rear


def gap_lost(front, rear, overlap, v_ego):
    """Whether an active change aborts, elementwise: a target-side overlap,
    or a gap below the abort fraction of the base accepted gap."""
    return overlap | (front < LC_ABORT_FACTOR * (LC_MIN_GAP + LC_THW * v_ego)) | (rear < LC_ABORT_FACTOR * LC_MIN_GAP)


def gap_accepted(front, rear, overlap, v_rear, v_ego, waiting, profile):
    """Whether a vehicle waiting for a gap starts its change, elementwise
    (floats, or arrays with a profile of array fields).

    The accepted gap scales with (1 - risk) and decays with the waiting
    time toward a floor, faster for impatient drivers; the rear gap
    additionally scales with politeness. A change never starts into a
    longitudinal overlap. (The lane capacity is checked by the caller.)
    """
    decay = LC_ACCEPT_FLOOR + (1.0 - LC_ACCEPT_FLOOR) * exp(-waiting / (10.0 + 40.0 * profile.patience))
    accept = (1.0 - profile.risk) * decay
    req_front = accept * (LC_MIN_GAP + LC_THW * v_ego)
    req_rear = accept * (LC_MIN_GAP + LC_THW * v_rear) * (0.5 + profile.politeness)
    return np.logical_not(overlap | (front < req_front) | (rear < req_rear))


def _longitudinal(view: Perception, lead_lanes, v_now, tau, profile, road: RoadConfig):
    """Acceleration commands from delayed perception; current own speed is
    used for target-speed regulation. ``lead_lanes`` marks, per row, the
    perceived vehicles on the lanes a leader is sought on.

    The perceived gap is dead-reckoned forward by the reaction delay tau at
    the perceived closing speed, otherwise the stopping math would run on a
    systematically stale gap and tight traffic would pile up immediately.
    """
    rows, dx = view.rows, view.dx
    # dx is 0.0 at a vehicle's own entries: dx > 0 leaves the others ahead
    gap_ahead = np.where(dx > 0.0, dx, np.inf)
    gap_lead = np.where(lead_lanes, gap_ahead, np.inf)
    leader, ahead = gap_lead.argmin(axis=1), gap_ahead.argmin(axis=1)  # the lowest column on ties
    # inf without a leader, and so is d_est: a vehicle without a leader
    # drives on a free road, where follower_accel is the clamped speed
    # regulation, bit for bit ...
    d_fl = gap_lead[rows, leader] - VEHICLE_LENGTH
    lead = view.at[rows, leader]
    lead_v, lead_a = view.v.take(lead), view.a.take(lead)
    closing = view.own_v - lead_v
    rel_acc = view.own_a - lead_a
    d_est = py_max(d_fl - closing * tau - 0.5 * rel_acc * tau * tau, 0.0)
    v_l_est = py_max(lead_v + lead_a * tau, 0.0)
    # ... unless it closes up on the traffic ahead beyond d_il_max
    d_il = gap_ahead[rows, ahead] - VEHICLE_LENGTH
    return longitudinal_accel(d_est, v_now, v_l_est, d_il, profile, road, profile.neg_b, profile.neg_c)


def lane_overflow(lane: np.ndarray, road: RoadConfig):
    """(step, lane, count) of the first step at which a lane holds more
    than n_vpl vehicles (the lowest such lane), or None."""
    counts = np.stack([np.count_nonzero(lane == k, axis=1) for k in range(1, road.n_l + 1)], axis=1)
    over = np.argwhere(counts > road.n_vpl).tolist()
    return (over[0][0], over[0][1] + 1, int(counts[tuple(over[0])])) if over else None


def _steps(params: SimParams) -> int:
    """The rows of a run's trace: its initial state, then one per step."""
    return max(1, round(params.duration / params.dt))


class _ArraySink:
    """A run's rows kept in memory, as the arrays of its Trace."""

    def __init__(self, dt: float, road: RoadConfig, arrays: list):
        self.dt, self.road, self.arrays = dt, road, arrays

    def write(self, t0: int, block: list) -> None:
        for array, rows in zip(self.arrays, block):
            array[t0:t0 + len(rows)] = rows

    def close(self, collisions: list, lane_change_starts: list) -> Trace:
        return Trace(self.dt, self.road, *self.arrays, collisions, lane_change_starts)


def _array_sinks(road: RoadConfig, runs: list) -> list:
    """Sinks that keep each run of ``runs``, (dt, n_ts, n_v) each, in
    memory: its arrays are one contiguous block of a batch-wide buffer per
    channel (float64, lane int64)."""
    ends = np.cumsum([0] + [n_ts * n_v for _, n_ts, n_v in runs]).tolist()
    buffers = [np.empty(ends[-1]) for _ in CHANNELS] + [np.empty(ends[-1], dtype=np.int64)]
    return [_ArraySink(dt, road, [buffer[lo:hi].reshape(n_ts, n_v) for buffer in buffers])
            for (dt, n_ts, n_v), lo, hi in zip(runs, ends, ends[1:])]


def _run_batch(road: RoadConfig, scenes: list, sinks: list | None = None) -> list:
    """Run prepared scenes, each (params, states0, profiles, rng), in
    lock-step. Run k's rows go to ``sinks[k]`` a block at a time, through
    its write(t0, block) with block the rows of x, y, v, a, psi and lane
    from step t0 on, one (rows, n_v) array each; the result is each sink's
    close(collisions, lane_change_starts), in run order. By default the
    sinks keep the rows in memory and close to each run's Trace."""
    bounds = np.cumsum([0] + [len(states0) for _, states0, _, _ in scenes]).tolist()
    n_runs, n = len(scenes), bounds[-1]
    n_ts = [_steps(params) for params, *_ in scenes]
    if sinks is None:
        sinks = _array_sinks(road, [(params.dt, n_ts[k], bounds[k + 1] - bounds[k]) for k, (params, *_) in enumerate(scenes)])
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
    batch = {key: np.array([getattr(p, key) for p in profiles]) for key in BATCH_FIELDS}
    batch["neg_b"], batch["neg_c"] = -batch.pop("b"), -batch.pop("c")  # the Gompertz shapes, negated once
    v_target = batch["v_target"]  # redrawn in place
    rate = [p.lc_rate * d for p, d in zip(profiles, dt.tolist())]  # the motivation probability per step
    next_redraw = [
        float(rng.exponential(params.target_resample_mean)) for params, run_states, _, rng in scenes for _ in run_states
    ]
    # the columns of each vehicle's run, padded with its own (see Perception)
    sizes, column = np.diff(bounds), np.arange(n)[:, None]
    at = np.arange(sizes.max())
    peers = np.where(at < sizes[run_of][:, None], np.array(bounds[:-1])[run_of][:, None] + at, column)
    pair_i, pair_at = np.nonzero(peers > column)  # row-major, as the sweep visits them
    pairs = pair_i, peers[pair_i, pair_at]
    slots = road.n_l + 2  # occupancy slots per run: lanes 0 .. n_l + 1, every lane a start can name
    slot_array = run_of * slots
    slot = slot_array.tolist()
    n_l, n_vpl = road.n_l, road.n_vpl

    lc = LaneChangeState(n)
    frozen = np.zeros(n, dtype=bool)  # by a collision: it stays in place, draws nothing, wants no lane
    collisions: list = [[] for _ in scenes]
    lc_starts: list = [[] for _ in scenes]
    run_dt = [params.dt for params, *_ in scenes]
    run_rng = [rng for *_, rng in scenes]

    ring = int(delay.max()) + 1 + FLUSH_STEPS  # step t is row t % ring: every row perceived or not yet flushed
    state = np.empty((ring, len(CHANNELS), n))  # x, y, v, a and psi of step t in state[t % ring]
    lane = np.empty((ring, n), dtype=np.int64)
    state[0] = [[getattr(s, name) for s in states0] for name in CHANNELS]
    lane[0] = [s.lane for s in states0]
    ends = set(n_ts)
    flushed = 0  # the steps before it are in the sinks

    def flush(upto: int) -> None:
        """Hand the steps from ``flushed`` to ``upto`` (exclusive) to the
        sink of each run not yet ended, once the block's lanes are checked.
        A flush comes when any run ends, so no block passes a run's end."""
        nonlocal flushed
        at = np.arange(flushed, upto) % ring
        rows, lanes = state[at], lane[at]
        for k, sink in enumerate(sinks):
            if flushed < n_ts[k]:
                columns = slice(bounds[k], bounds[k + 1])
                overflow = lane_overflow(lanes[:, columns], road)
                if overflow:
                    t, lane_k, count = overflow
                    raise RuntimeError(f"lane {lane_k} over capacity at step {flushed + t}: {count} vehicles")
                sink.write(flushed, [*rows[:, :, columns].transpose(1, 0, 2), lanes[:, columns]])
        flushed = upto

    def act(k: int, r: int, i: int, rng) -> None:
        """Vehicle i's (row r's) lane-change step once it changes lanes,
        waits or is motivated: an active change may abort, a waiting vehicle
        may start, and a motivated one draws its direction and may start."""
        if target_now[i]:
            front, rear, overlap, _ = gaps[r]
            if gap_lost(front, rear, overlap, own_v[r]):
                lc.target[i], lc.origin[i] = lc.origin[i], target_now[i]
            return
        if desired_now[i]:
            lc.waiting[i] += run_dt[k]
        else:  # motivated: a direction from the perceived lane, and a wait for a gap
            if 1 < own_lane[r] < n_l:
                desired_now[i] = (1, -1)[int(rng.integers(2))]
            else:
                desired_now[i] = 1 if own_lane[r] < n_l else -1
            lc.desired[i], lc.waiting[i] = desired_now[i], 0.0
        lane_i = own_lane[r] + desired_now[i]  # the lane it waits for
        if not 1 <= lane_i <= n_l:  # no lane that way: wait no more
            lc.desired[i] = 0
            return
        if occupancy[slot[i] + lane_i] >= n_vpl:
            return
        if r not in gaps:  # motivated at this step
            gaps[r] = [g[0] for g in view.gaps(np.array([r]), np.array([lane_i]))]
        if gap_accepted(*gaps[r], own_v[r], lc.waiting[i], profiles[i]):
            target = lane_now[i] + desired_now[i]
            lc.origin[i], lc.target[i], lc.desired[i], lc.waiting[i] = lane_now[i], target, 0, 0.0
            lc_starts[k].append((t, i - bounds[k] + 1, target))
            occupancy[slot[i] + target] += 1

    regroup = True
    for t in range(max(n_ts) - 1):
        if t + 1 - flushed == FLUSH_STEPS or t + 1 in ends:
            flush(t + 1)
            regroup |= t + 1 in ends
        if regroup:
            # the vehicles that move from step t on, one row each in column
            # order: those of the runs not yet ended that no collision froze;
            # an ended run's changes are dropped, so every busy vehicle moves
            regroup = False
            live = np.repeat([t < end - 1 for end in n_ts], sizes)
            lc.target[~live] = lc.desired[~live] = 0
            cols = (live & ~frozen).nonzero()[0]
            held = cols.size < n  # columns that keep the previous step's row
            take = cols if held else slice(None)
            cols_list = cols.tolist()
            row_of = dict(zip(cols_list, range(cols.size)))
            row_bounds = np.searchsorted(cols, bounds).tolist()
            deciding = [(k, run_rng[k], scenes[k][0].target_resample_mean, [(r, cols_list[r], rate[cols_list[r]]) for r in range(lo, hi)])
                        for k, (lo, hi) in enumerate(zip(row_bounds, row_bounds[1:])) if lo < hi]
            view = Perception(state, lane, peers[cols], cols)
            row_delay, row_tau, row_dt = delay[take], tau[take], dt[take]
            law = SimpleNamespace(**{key: values[take] for key, values in batch.items()})
            # the collision sweep's pairs: of runs not yet ended, not both frozen
            keep = live[pairs[0]] & ~(frozen[pairs[0]] & frozen[pairs[1]])
            pair_i, pair_j = pairs[0][keep], pairs[1][keep]
        now, nxt = t % ring, (t + 1) % ring
        view.look(np.maximum(t - row_delay, 0) % ring)

        # the decisions: first, per run and lane, the vehicles on it and the
        # reservations of active changes (of the lane they are not on), and
        # the gaps of every changing vehicle and of every waiting one whose
        # lane has room (a start only adds reservations)
        lane_now, target_now, desired_now = lane[now].tolist(), lc.target.tolist(), lc.desired.tolist()
        own_lane, own_v = view.own_lane.tolist(), view.own_v.tolist()
        busy = (lc.target | lc.desired).nonzero()[0].tolist()
        occupancy = np.bincount(slot_array + lane[now], minlength=n_runs * slots).tolist()
        egos, lanes = [], []
        for i in busy:
            if target_now[i]:
                occupancy[slot[i] + (target_now[i] if target_now[i] != lane_now[i] else lc.origin[i])] += 1
                egos.append(row_of[i])
                lanes.append(target_now[i])
        for i in busy:
            if not target_now[i]:
                r = row_of[i]
                lane_i = own_lane[r] + desired_now[i]
                if 1 <= lane_i <= n_l and occupancy[slot[i] + lane_i] < n_vpl:
                    egos.append(r)
                    lanes.append(lane_i)
        gaps = dict(zip(egos, zip(*(g.tolist() for g in view.gaps(np.array(egos, dtype=np.int64), np.array(lanes, dtype=np.int64))))))
        # each run's moving vehicles in id order (see the module docstring)
        for k, rng, mean, rows in deciding:
            clock, draw = t * run_dt[k], rng.random
            for r, i, p in rows:
                while next_redraw[i] <= clock:
                    v_target[i] = law.v_target[r] = _draw_v_target(rng, road)
                    next_redraw[i] += float(rng.exponential(mean))
                if target_now[i] or desired_now[i] or draw() < p:
                    act(k, r, i, rng)

        # a leader is sought on the perceived own lane, and on the target
        # lane while changing (lane 0, which no perceived vehicle is on, otherwise)
        target = lc.target[take]
        lead_lanes = (view.lane == view.own_lane[:, None]) | (view.lane == target[:, None])
        cur = VehicleState(*state[now][:, take], delta=None, lane=None)
        a_cmd = _longitudinal(view, lead_lanes, cur.v, row_tau, law, road)
        steer = road.lane_center(np.where(target > 0, target, lane[now, take]))
        new = one_track_step(cur, lateral_control(cur, steer, cur.v), a_cmd, row_dt)
        if held:  # frozen vehicles stay in place, at v = a = 0 since their collision
            state[nxt] = state[now]
        state[nxt][:, take] = new.x, new.y, new.v, new.a, new.psi
        lane[nxt] = road.lane_of(state[nxt, 1])
        # collision sweep on the fresh positions, pairs in row-major order;
        # involved vehicles freeze
        nx, ny = state[nxt, 0], state[nxt, 1]
        hits = (np.abs(nx[pair_i] - nx[pair_j]) < VEHICLE_LENGTH) & (np.abs(ny[pair_i] - ny[pair_j]) < VEHICLE_WIDTH)
        for p in hits.nonzero()[0].tolist():
            i, j = int(pair_i[p]), int(pair_j[p])
            if frozen[i] and frozen[j]:
                continue
            k = run_list[i]
            collisions[k].append((t + 1, (i - bounds[k] + 1, j - bounds[k] + 1)))
            for m in (i, j):
                if not frozen[m]:
                    frozen[m] = regroup = True
                    lc.reset(m)
                    state[nxt, 2:4, m] = 0.0
        # a change is done once on its target lane's center, heading straight
        # (a vehicle frozen above is reset already, and again changes nothing)
        done = (target > 0) & (np.abs(new.y - steer) < LC_DONE_Y) & (np.abs(new.psi) < LC_DONE_PSI)
        for r in done.nonzero()[0].tolist():
            lc.reset(cols_list[r])

    flush(max(n_ts))
    return [sink.close(collisions[k], lc_starts[k]) for k, sink in enumerate(sinks)]


def run_scene(road: RoadConfig, params: SimParams, states0: list, profiles: list, rng: np.random.Generator | None = None) -> Trace:
    """Run the main loop on a prepared scene. ``rng`` continues the stream
    that drew the scene, as run_simulations continues it; by default, a
    fresh stream of the params' seed."""
    return _run_batch(road, [(params, states0, profiles, _run_rng(params.seed) if rng is None else rng)])[0]


def run_simulations(road: RoadConfig, runs: list, sink=None):
    """Yield each run's trace, in order: each run's scene is drawn from its
    own seed, and up to BATCH_RUNS runs at a time go through one lock-step
    batch. Identical (config, seed) pairs produce bit-identical traces, in
    any batch. A batch's traces share one buffer per channel, which stays
    alive while any of them does.

    With ``sink``, run k's rows go instead, a block at a time, to the sink
    ``sink(k, dt, n_ts, n_vehicles)`` opens for it once its scene is drawn
    (sim.io.TraceWriter is one), and what the sink's close(collisions,
    lane_change_starts) returns is yielded in place of the trace. When a
    batch raises, each sink it opened is discarded first."""
    for lo in range(0, len(runs), BATCH_RUNS):
        scenes = []
        for params in runs[lo:lo + BATCH_RUNS]:
            rng = _run_rng(params.seed)
            scenes.append((params, *_init_scene(road, rng, params.spawn_span), rng))
        opened = []
        try:
            for j, (params, states0, *_) in enumerate(scenes if sink else ()):
                opened.append(sink(lo + j, params.dt, _steps(params), len(states0)))
            results = _run_batch(road, scenes, opened or None)
        except BaseException:
            for s in opened:
                s.discard()
            raise
        yield from results


def run_simulation(road: RoadConfig, params: SimParams) -> Trace:
    """run_simulations of the one run ``params``."""
    return next(run_simulations(road, [params]))
