"""Time-headway scenario detection, zone occupancy, and the 47-feature layout.

A scenario opens for an ego vehicle when the time headway to its leader
drops to the trigger level, closes when it recovers (or the trace ends),
and is kept only if the minimum THW undercuts the keep level. Windows of
the same ego separated by less than the merge gap fuse into one scenario;
the merged window may briefly exceed the trigger inside the fused gap.

Features are sampled at three instants (window start, the changepoint of
minimum THW, window end) from the six-zone neighborhood around the ego,
plus scalar descriptors of the whole window. The six zones of the three
instants come from one gather of the trace; the DTW distance between the
actual and the desired gap curve, the costliest descriptor, is computed
for all scenarios of a dataset in one batched sweep (dtw_distances).

A trace is read a block of THW_BLOCK steps at a time, from its files (a
``sim.io.TraceReader``) or from memory (a ``Trace``), in two sweeps. The
first fills the leader gaps and the THW of every vehicle and step, the
only whole-run state; detection then runs on the THW. The second reads the
steps that the scenarios cover once more and serves every scenario that
overlaps each block: the ego's speed and lanes, the rows of the three
instants, and the cut-in scan. extract_features is that second sweep over
one scenario, for a hand-built window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .sim.config import VEHICLE_LENGTH
from .sim.engine import Trace

__all__ = [
    "THW_TRIGGER",
    "THW_KEEP",
    "MERGE_GAP_S",
    "ZONES",
    "FEATURE_NAMES",
    "Scenario",
    "compute_thw",
    "zone_extent",
    "thw_series",
    "find_trigger_windows",
    "dtw_distance",
    "dtw_distances",
    "extract_features",
    "scenarios_to_dataset",
]

THW_TRIGGER = 1.0   # s, scenario opens at THW <= trigger
THW_KEEP = 0.8      # s, scenario kept iff min THW <= keep
MERGE_GAP_S = 1.0   # s, same-ego windows closer than this merge
NO_THREAT = np.inf  # THW sentinel when the ego is (almost) standing

V_EGO_MIN = 0.1        # m/s, below this THW is the no-threat sentinel
ZONE_HORIZON_S = 2.0   # s, zone extent per unit ego speed
ZONE_MIN_M = 20.0      # m
ZONE_MAX_M = 120.0     # m
DESIRED_THW_S = 1.8    # s, administrative rule-of-thumb gap for the DTW feature
DTW_MAX_SAMPLES = 128  # gap curves are resampled to at most this length
THW_BLOCK = 512        # steps per block of extraction's two sweeps over a trace
SWEPT = ("x", "v", "lane")  # the arrays of a trace that the sweeps read

ZONES = ("front", "rear", "left_front", "left_rear", "right_front", "right_rear")
_INSTANTS = ("start", "changepoint", "end")

FEATURE_NAMES = (
    [f"dist_{z}_{i}" for z in ZONES for i in _INSTANTS]
    + [f"relv_{z}_{i}" for z in ZONES for i in _INSTANTS]
    + [
        "thw_min",
        "duration_s",
        "dtw_gap_desired",
        "ego_lane_start",
        "ego_lane_changepoint",
        "ego_lane_end",
        "lane_count",
        "ego_lane_changes",
        "cut_in",
        "collision",
        "ego_speed_changepoint",
    ]
)
assert len(FEATURE_NAMES) == 47
DTW_COLUMN = FEATURE_NAMES.index("dtw_gap_desired")


@dataclass
class Scenario:
    """One ego-centered THW window of a trace (timestep indices inclusive)."""

    ego_id: int
    t_start: int
    t_end: int
    thw_min: float
    t_changepoint: int

    def __post_init__(self):
        if not self.t_start <= self.t_changepoint <= self.t_end:
            raise ValueError("changepoint outside the scenario window")


def compute_thw(d_rel, v_ego):
    """Time headway: relative distance over ego speed, elementwise over
    floats or arrays; the no-threat sentinel (inf) for a near-standing ego."""
    d_rel, v_ego = np.asarray(d_rel, dtype=np.float64), np.asarray(v_ego, dtype=np.float64)
    if np.any(d_rel < 0):
        raise ValueError(f"negative relative distance {d_rel.min()}")
    out = np.full(np.broadcast(d_rel, v_ego).shape, NO_THREAT)
    return np.divide(d_rel, v_ego, out=out, where=v_ego >= V_EGO_MIN)[()]


def zone_extent(v_ego):
    """Longitudinal zone reach, adapted to the ego speed (a float or an array)."""
    return np.clip(v_ego * ZONE_HORIZON_S, ZONE_MIN_M, ZONE_MAX_M)


def _block_gaps(block: Trace, out: np.ndarray) -> None:
    """Write the bumper gap of every vehicle to its leader at each step of
    ``block`` into ``out``, a (steps, n_v) array; inf without a leader.

    The leader is the nearest other vehicle on the lane with dx > 0, the
    lowest id on equal distance. Each step is sorted by (lane, x, id), a
    stable order; the leader of a vehicle is then the first of the next
    group of equal (lane, x), when that group is on its lane. Each
    temporary goes once it is read, which bounds the sweep's peak.
    """
    x0, lane0, n_v = block.x, block.lane, block.n_vehicles
    order = np.lexsort((x0, lane0))
    x, lane = np.take_along_axis(x0, order, axis=1), np.take_along_axis(lane0, order, axis=1)
    new = (lane[:, 1:] != lane[:, :-1]) | (x[:, 1:] != x[:, :-1])  # sorted position p + 1 starts a group
    del x
    # per sorted position p: the first position q > p that starts a group (n_v: none)
    after = np.full_like(order, n_v)
    np.minimum.accumulate(np.where(new, np.arange(1, n_v), n_v)[:, ::-1], axis=1, out=after[:, -2::-1])
    del new
    found = after < n_v
    nearest = np.minimum(after, n_v - 1, out=after)
    found &= np.take_along_axis(lane, nearest, axis=1) == lane
    del lane
    ahead = np.take_along_axis(order, nearest, axis=1)  # per sorted position, the leader's column
    ahead[~found] = -1
    del nearest, found
    leader = np.empty_like(order)
    np.put_along_axis(leader, order, ahead, axis=1)
    del order, ahead
    dx = np.take_along_axis(x0, leader, axis=1)
    dx -= x0
    dx[leader < 0] = np.inf
    dx -= VEHICLE_LENGTH
    np.maximum(dx, 0.0, out=out)


def _gaps_and_thw(source, steps: slice) -> tuple:
    """The first sweep: the leader gaps (``_block_gaps``) and the THW of
    every vehicle at each of ``steps`` of ``source`` (a Trace or a
    TraceReader), as two (steps, n_v) arrays filled a block of THW_BLOCK
    steps at a time. Each step's values come from its own row alone, so
    the blocks do not change a bit."""
    lo, hi, _ = steps.indices(source.n_ts)
    gaps, thw = np.empty((2, hi - lo, source.n_vehicles))
    for a in range(lo, hi, THW_BLOCK):
        block = source.rows(a, min(a + THW_BLOCK, hi), SWEPT)
        at = slice(a - lo, a - lo + block.n_ts)
        _block_gaps(block, gaps[at])
        thw[at] = compute_thw(gaps[at], block.v)
    return gaps, thw


def _leader_gaps(source, steps: slice) -> np.ndarray:
    """_gaps_and_thw's gaps."""
    return _gaps_and_thw(source, steps)[0]


def _thw_all(trace: Trace) -> np.ndarray:
    """The per-step THW of every vehicle to its current leader (inf without
    one: the gap to no leader is inf), as the columns of one (n_ts, n_v)
    array."""
    return _gaps_and_thw(trace, slice(None))[1]


def thw_series(trace: Trace, ego_id: int) -> np.ndarray:
    """_thw_all's column of one ego."""
    return _thw_all(trace)[:, ego_id - 1]


def find_trigger_windows(thw: np.ndarray, dt: float) -> list:
    """Kept scenario windows [(t_start, t_end)] of a THW series.

    Maximal runs with THW <= trigger; consecutive runs merge when the
    strictly-above gap between them is shorter than the merge time; a
    window survives iff its minimum THW <= keep level.
    """
    thw = np.asarray(thw, dtype=np.float64)
    edges = np.diff((thw <= THW_TRIGGER).astype(np.int8), prepend=0, append=0)
    merged = []
    for run in zip(np.flatnonzero(edges == 1).tolist(), (np.flatnonzero(edges == -1) - 1).tolist()):
        if merged and (run[0] - merged[-1][1] - 1) * dt < MERGE_GAP_S:
            merged[-1] = (merged[-1][0], run[1])
        else:
            merged.append(run)
    return [(a, b) for a, b in merged if float(np.min(thw[a : b + 1])) <= THW_KEEP]


def _detect(source, thw: np.ndarray) -> list:
    """All kept scenarios of a trace (a Trace or a TraceReader), every
    vehicle serving as ego, from the trace's ``_thw_all``."""
    out = []
    for ego_id in range(1, source.n_vehicles + 1):
        series = thw[:, ego_id - 1]
        for t0, t1 in find_trigger_windows(series, source.dt):
            window = series[t0 : t1 + 1]
            out.append(Scenario(ego_id, t0, t1, float(np.min(window)), t0 + int(np.argmin(window))))
    return out


def _zones(trace: Trace, ego: int, steps) -> dict:
    """zone -> (column or -1, |dx|, relative speed) of the nearest vehicle
    in each zone around the ego (column ``ego``) at each of ``steps``,
    every zone from one gather of the steps.

    Zones combine the lane offset (-1 right, 0 own, +1 left) with the sign
    of the longitudinal center distance; reach is the speed-adapted extent,
    and every vehicle falls into at most one zone: a vehicle within it
    falls into zone 2 * s + (dx < 0) of ZONES, with the lane slot s = lane
    offset mod 3 (own 0, left 1, right 2). The nearest wins, and the lowest
    id on equal distance."""
    x, v = trace.x[steps], trace.v[steps]
    dx = x - x[:, ego, None]
    offset = trace.lane[steps] - trace.lane[steps, ego][:, None]
    dist = np.abs(dx)
    near = (np.abs(offset) <= 1) & (dist <= zone_extent(v[:, ego])[:, None])
    near[:, ego] = False
    zone = np.where(near, 2 * (offset % 3) + (dx < 0), -1)
    dist = np.where(zone == np.arange(len(ZONES))[:, None, None], dist, np.inf)  # (zone, step, vehicle)
    j = dist.argmin(axis=2)
    d = np.take_along_axis(dist, j[..., None], axis=2)[..., 0]
    j = np.where(d < np.inf, j, -1)
    relv = v[np.arange(len(x)), j] - v[:, ego]
    return {zone: (j[k], d[k], relv[k]) for k, zone in enumerate(ZONES)}


def dtw_distances(pairs) -> np.ndarray:
    """Classic dynamic time warping of each (s1, s2) pair: |a - b| local
    cost, full window, boundary-aligned; the optimal cumulative costs.

    All pairs go through one sweep over the anti-diagonals d = i + j of
    their cost tables D (Sakoe & Chiba's recurrence in wavefront order),
    padded to the longest sequences. Cell (i, j) reads only cells above and
    left of it, so no pad cell feeds D[n, m] of a pair, and each cell is the
    row-by-row recurrence's |a - b| + min(up, left, diagonal) of the same
    operands: every result equals it bit for bit. Only the last three
    diagonals are kept, one row of N + 1 cells per pair. A non-finite value
    is rejected: a NaN would make the min depend on operand order.
    """
    pairs = [(np.asarray(s1, dtype=np.float64), np.asarray(s2, dtype=np.float64)) for s1, s2 in pairs]
    if any(s1.size == 0 or s2.size == 0 for s1, s2 in pairs):
        raise ValueError("dtw_distances requires non-empty sequences")
    n = np.array([s1.size for s1, _ in pairs], dtype=np.int64)
    m = np.array([s2.size for _, s2 in pairs], dtype=np.int64)
    big_n, big_m = int(n.max(initial=0)), int(m.max(initial=0))
    a, b = np.zeros((len(pairs), big_n)), np.zeros((len(pairs), big_m))
    for k, (s1, s2) in enumerate(pairs):
        a[k, : s1.size] = s1
        b[k, big_m - s2.size :] = s2[::-1]  # reversed: a diagonal's b values are one slice
    bad = np.flatnonzero(~(np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1)))
    if bad.size:
        raise ValueError(f"dtw_distances: pair {bad[0]} holds a non-finite value")
    ends = {}
    for k, end in enumerate((n + m).tolist()):
        ends.setdefault(end, []).append(k)
    out = np.empty(len(pairs))
    # diagonal d as an (P, N + 1) array: entry i is D[i, d - i], inf outside the table
    before, last = np.full((len(pairs), big_n + 1), np.inf), np.full((len(pairs), big_n + 1), np.inf)
    before[:, 0] = 0.0  # D[0, 0]
    for d in range(2, big_n + big_m + 1):
        lo, hi = max(1, d - big_m), min(big_n, d - 1)
        cur = np.full_like(last, np.inf)
        cell = cur[:, lo : hi + 1]
        np.minimum(last[:, lo - 1 : hi], last[:, lo : hi + 1], out=cell)  # up, left
        np.minimum(cell, before[:, lo - 1 : hi], out=cell)  # diagonal
        cell += np.abs(a[:, lo - 1 : hi] - b[:, big_m - d + lo : big_m - d + hi + 1])
        if d in ends:
            done = np.array(ends[d])
            out[done] = cur[done, n[done]]
        before, last = last, cur
    return out


def dtw_distance(s1, s2) -> float:
    """dtw_distances of the one pair (s1, s2)."""
    return float(dtw_distances([(s1, s2)])[0])


def _resample(series: np.ndarray, n: int) -> np.ndarray:
    if len(series) <= n:
        return series
    grid = np.linspace(0.0, len(series) - 1.0, n)
    return np.interp(grid, np.arange(len(series)), series)


def _curves(gap: np.ndarray, v: np.ndarray) -> tuple:
    """The bumper gap to the leader (the zone extent without one) and the
    desired gap, from the ego's ``_leader_gaps`` and speed at each step of
    a scenario window."""
    return np.where(gap < np.inf, gap, zone_extent(v)), v * DESIRED_THW_S


def _gap_curves(trace: Trace, sc: Scenario, gap: np.ndarray):
    """_curves over the scenario window of an in-memory trace."""
    return _curves(gap, trace.v[sc.t_start : sc.t_end + 1, sc.ego_id - 1])


def _front(trace: Trace, ego: int, steps) -> np.ndarray:
    """The column of ``_zones``' front vehicle at each of ``steps`` (a slice
    or an array of steps), or -1, gathered alone: the nearest other vehicle
    on the ego's lane with dx >= 0 within the zone extent, the lowest id on
    equal distance."""
    x = trace.x[steps]
    dx = x - x[:, ego, None]
    near = (trace.lane[steps] == trace.lane[steps, ego][:, None]) & (dx >= 0)
    near &= dx <= zone_extent(trace.v[steps, ego])[:, None]
    near[:, ego] = False
    dist = np.where(near, dx, np.inf)
    j = dist.argmin(axis=1)
    return np.where(dist[np.arange(len(x)), j] < np.inf, j, -1)


class _Window:
    """What the second sweep gathers of one scenario from the blocks that
    overlap it: the ego's speed and lane series, copied (a view would keep
    its whole block alive); the rows of the three instants (start,
    changepoint, end) as a 3-step Trace of the SWEPT arrays; and whether a
    vehicle cut in: after the window's first step, the front-zone vehicle
    was on another lane than the ego's one step earlier."""

    def __init__(self, sc: Scenario, source):
        n_v = source.n_vehicles
        self.sc, self.v, self.lane, self.cut_in = sc, [], [], False
        self.instants = Trace(source.dt, source.road, x=np.empty((3, n_v)), y=None, v=np.empty((3, n_v)), a=None,
                              psi=None, lane=np.empty((3, n_v), dtype=np.int64), collisions=[])

    def feed(self, block: Trace, a: int, before: np.ndarray) -> None:
        """Take steps [a, a + block.n_ts) of the trace, where the window
        overlaps them; row t of ``before`` holds the lanes of step a + t - 1."""
        sc, ego = self.sc, self.sc.ego_id - 1
        lo, hi = max(sc.t_start - a, 0), min(sc.t_end + 1 - a, block.n_ts)
        self.v.append(block.v[lo:hi, ego].copy())
        self.lane.append(block.lane[lo:hi, ego].copy())
        for k, t in enumerate((sc.t_start, sc.t_changepoint, sc.t_end)):
            if lo <= t - a < hi:
                for name in SWEPT:
                    getattr(self.instants, name)[k] = getattr(block, name)[t - a]
        first = max(lo, sc.t_start + 1 - a)
        if not self.cut_in and first < hi:
            front = _front(block, ego, slice(first, hi))
            t = first + np.flatnonzero(front >= 0)
            self.cut_in = bool(np.any(before[t, front[front >= 0]] != block.lane[t, ego]))

    def features(self, gap: np.ndarray, source) -> tuple:
        """The 47 features of the scenario with dtw_gap_desired left at 0.0,
        and the resampled (actual, desired) gap curves it is computed from;
        ``gap`` is the ego's ``_leader_gaps`` over the window, and ``source``
        the trace. Drops what the window gathered."""
        sc, ego, at = self.sc, self.sc.ego_id - 1, self.instants
        ceiling = zone_extent(at.v[:, ego])
        dists, relvs = [], []
        for j, dist, relv in _zones(at, ego, slice(None)).values():
            dists += np.where(j >= 0, dist, ceiling).tolist()
            relvs += np.where(j >= 0, relv, 0.0).tolist()
        actual, desired = _curves(gap, np.concatenate(self.v))
        ego_lanes = np.concatenate(self.lane)
        self.v = self.lane = self.instants = None
        collision = float(
            any(sc.t_start <= t <= sc.t_end and sc.ego_id in pair for t, pair in source.collisions)
        )
        features = (
            dists
            + relvs
            + [
                sc.thw_min,
                (sc.t_end - sc.t_start) * source.dt,
                0.0,
                ego_lanes[0],
                at.lane[1, ego],
                ego_lanes[-1],
                source.road.n_l,
                np.count_nonzero(np.diff(ego_lanes)),
                float(self.cut_in),
                collision,
                at.v[1, ego],
            ]
        )
        return np.array(features, dtype=np.float64), (_resample(actual, DTW_MAX_SAMPLES), _resample(desired, DTW_MAX_SAMPLES))


def _serve(source, windows):
    """The second sweep: read the steps that ``windows`` cover from
    ``source`` (a Trace or a TraceReader), THW_BLOCK steps at a time, and
    feed each block to every window that overlaps it; yield each window
    after its last step. Steps that no window covers are not read. A
    window reads the step before a block's first only from its own second
    step on, so it was fed the block before, whose last lane row is carried."""
    pending = sorted(windows, key=lambda w: w.sc.t_start, reverse=True)
    open_, a, carry = [], 0, None
    while pending or open_:
        if not open_:
            a = max(a, pending[-1].sc.t_start)
        block = source.rows(a, min(a + THW_BLOCK, source.n_ts), SWEPT)
        b = a + block.n_ts
        while pending and pending[-1].sc.t_start < b:
            open_.append(pending.pop())
        before = np.concatenate([block.lane[:1] if carry is None else carry, block.lane[:-1]])
        carry = block.lane[-1:].copy()
        for w in open_:
            w.feed(block, a, before)
        yield from (w for w in open_ if w.sc.t_end < b)
        open_ = [w for w in open_ if w.sc.t_end >= b]
        a = b


def _cut_in(trace: Trace, sc: Scenario) -> bool:
    """The second sweep's cut-in flag of one scenario."""
    (window,) = _serve(trace, [_Window(sc, trace)])
    return window.cut_in


def extract_features(sc: Scenario, trace: Trace) -> np.ndarray:
    """The canonical 47-feature vector of one scenario (see FEATURE_NAMES):
    the second sweep over that scenario alone.

    Absent zone neighbors encode as the zone-extent ceiling at that instant
    with zero relative speed; all outputs are finite.
    """
    (window,) = _serve(trace, [_Window(sc, trace)])
    row, curves = window.features(_leader_gaps(trace, slice(sc.t_start, sc.t_end + 1))[:, sc.ego_id - 1], trace)
    row[DTW_COLUMN] = dtw_distances([curves])[0]
    return row


def scenarios_to_dataset(traces_with_names) -> tuple:
    """Extract all scenarios of several (name, trace) pairs into a Dataset,
    each trace a Trace or a TraceReader: each row as extract_features gives
    it, with the DTW feature of every scenario from one dtw_distances sweep.
    A trace's gaps and THW come from the first sweep, its windows' features
    from the second.

    Ids are '<trace name>_s<k>'; the metadata list mirrors the rows with
    {id, trace, ego_id, t_start, t_end, thw_min}.
    """
    ids, rows, curves, meta = [], [], [], []
    for name, source in traces_with_names:
        gaps, thw = _gaps_and_thw(source, slice(None))
        found = _detect(source, thw)
        del thw
        windows = [_Window(sc, source) for sc in found]
        # each window's features as soon as its last step is read
        made = {w: w.features(gaps[w.sc.t_start : w.sc.t_end + 1, w.sc.ego_id - 1], source)
                for w in _serve(source, windows)}
        del gaps  # before the next trace is read
        for k, w in enumerate(windows):
            sc, sid = w.sc, f"{name}_s{k}"
            ids.append(sid)
            row, pair = made[w]
            rows.append(row)
            curves.append(pair)
            meta.append(dict(id=sid, trace=name, ego_id=sc.ego_id, t_start=sc.t_start, t_end=sc.t_end, thw_min=sc.thw_min))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))
    values[:, DTW_COLUMN] = dtw_distances(curves)
    return Dataset(feature_names=list(FEATURE_NAMES), ids=ids, values=values), meta
