"""Time-headway scenario detection, zone occupancy, and the 47-feature layout.

A scenario opens for an ego vehicle when the time headway to its leader
drops to the trigger level, closes when it recovers (or the trace ends),
and is kept only if the minimum THW undercuts the keep level. Windows of
the same ego separated by less than the merge gap fuse into one scenario;
the merged window may briefly exceed the trigger inside the fused gap.

Features are sampled at three instants (window start, the changepoint of
minimum THW, window end) from the six-zone neighborhood around the ego,
plus scalar descriptors of the whole window. The six zones of the three
instants come from one gather of their rows; the DTW distance between the
actual and the desired gap curve, the costliest descriptor, is computed
for all scenarios of a dataset in one batched sweep (dtw_distances).

A trace is read a block of THW_BLOCK steps at a time, from its files (a
``sim.io.TraceReader``) or from memory (a ``Trace``), in one sweep. It
fills the leader gaps and the speeds of every vehicle and step, the only
whole-run state, and lists the lane crossings and the cut-ins; detection
then takes the THW of one ego at a time. The rows of every scenario's
three instants are then read once more, in one call per trace, and nothing
else. extract_features runs the same sweep over the window of one
hand-built scenario.
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
THW_BLOCK = 512        # steps per block of extraction's sweep over a trace
SWEPT = ("x", "v", "lane")  # the arrays of a trace that extraction reads

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


def _fronts(trace: Trace, t: int) -> np.ndarray:
    """The column of ``_zones``' front vehicle of every ego (a row) at step
    ``t``, or -1, gathered alone: the nearest other vehicle on the ego's
    lane with dx >= 0 within the zone extent, the lowest id on equal
    distance."""
    x = trace.x[t]
    dx = x - x[:, None]
    near = (trace.lane[t] == trace.lane[t][:, None]) & (dx >= 0)
    near &= dx <= zone_extent(trace.v[t])[:, None]
    np.fill_diagonal(near, False)
    dist = np.where(near, dx, np.inf)
    j = dist.argmin(axis=1)
    return np.where(dist[np.arange(len(x)), j] < np.inf, j, -1)


def _sweep(source, steps: slice) -> tuple:
    """One pass over ``steps`` of ``source`` (a Trace or a TraceReader),
    THW_BLOCK steps at a time: the leader gaps (``_block_gaps``) and the
    speeds of every vehicle at each step, as two (steps, n_v) arrays, and
    two (2, events) arrays, a row of steps in order and a row of columns:
    the lane crossings, where a vehicle's lane differs from the step before,
    and the cut-ins, where the ego's ``_fronts`` vehicle is one that
    crossed at that step. Steps count from the trace's first. One lane row
    is carried from block to block; the sweep's first step has none before
    it, so it holds no event. Each step's values come from its own row (and
    the row before) alone, so the blocks do not change a bit."""
    lo, hi, _ = steps.indices(source.n_ts)
    gaps, v = np.empty((2, hi - lo, source.n_vehicles))
    crossings, cut_ins, carry = [], [], None
    for a in range(lo, hi, THW_BLOCK):
        block = source.rows(a, min(a + THW_BLOCK, hi), SWEPT)
        at = slice(a - lo, a - lo + block.n_ts)
        _block_gaps(block, gaps[at])
        v[at] = block.v
        crossed = block.lane != np.concatenate([block.lane[:1] if carry is None else carry, block.lane[:-1]])
        carry = block.lane[-1:].copy()
        for t in np.flatnonzero(crossed.any(axis=1)).tolist():
            front = _fronts(block, t)
            crossings += [(a + t, j) for j in np.flatnonzero(crossed[t]).tolist()]
            cut_ins += [(a + t, ego) for ego in np.flatnonzero((front >= 0) & crossed[t, front]).tolist()]
    return gaps, v, *(np.array(pairs, dtype=np.int64).reshape(-1, 2).T.copy() for pairs in (crossings, cut_ins))


def thw_series(trace: Trace, ego_id: int) -> np.ndarray:
    """The per-step THW of one ego to its current leader (inf without one:
    the gap to no leader is inf)."""
    gaps, v, _, _ = _sweep(trace, slice(None))
    return compute_thw(gaps[:, ego_id - 1], v[:, ego_id - 1])


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


def _detect(source, gaps: np.ndarray, v: np.ndarray) -> list:
    """All kept scenarios of a trace (a Trace or a TraceReader), every
    vehicle serving as ego, from the whole run's ``_sweep`` gaps and speeds;
    the THW of one ego at a time."""
    out = []
    for ego_id in range(1, source.n_vehicles + 1):
        series = compute_thw(gaps[:, ego_id - 1], v[:, ego_id - 1])
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
    desired gap, from the ego's ``_sweep`` gaps and speeds at each step of a
    scenario window."""
    return np.where(gap < np.inf, gap, zone_extent(v)), v * DESIRED_THW_S


def _features(sc: Scenario, source, at: Trace, swept: tuple, lo: int) -> tuple:
    """The 47 features of a scenario with dtw_gap_desired left at 0.0, and
    the resampled (actual, desired) gap curves it is computed from. ``at``
    holds the rows of its three instants (start, changepoint, end), and
    ``swept`` is what ``_sweep`` returned over steps that start at ``lo``,
    at or before the window's first step, and cover the window. The gap
    curves come from the ego's gaps and speeds over the window; the zones
    and the instant lanes and speed from the three rows alone. The ego's
    lane changes are its crossings after the window's first step, and a
    vehicle cut in iff a cut-in of the ego falls there."""
    ego = sc.ego_id - 1
    gaps, v, crossings, cut_ins = swept
    ceiling = zone_extent(at.v[:, ego])
    dists, relvs = [], []
    for j, dist, relv in _zones(at, ego, slice(None)).values():
        dists += np.where(j >= 0, dist, ceiling).tolist()
        relvs += np.where(j >= 0, relv, 0.0).tolist()
    window = slice(sc.t_start - lo, sc.t_end + 1 - lo)
    actual, desired = _curves(gaps[window, ego], v[window, ego])

    def count(events):
        a, b = np.searchsorted(events[0], (sc.t_start, sc.t_end), side="right")
        return np.count_nonzero(events[1, a:b] == ego)

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
            at.lane[0, ego],
            at.lane[1, ego],
            at.lane[2, ego],
            source.road.n_l,
            count(crossings),
            float(count(cut_ins) > 0),
            collision,
            at.v[1, ego],
        ]
    )
    return np.array(features, dtype=np.float64), (_resample(actual, DTW_MAX_SAMPLES), _resample(desired, DTW_MAX_SAMPLES))


def extract_features(sc: Scenario, trace: Trace) -> np.ndarray:
    """The canonical 47-feature vector of one scenario (see FEATURE_NAMES):
    a ``_sweep`` over the scenario's window and its ``_features``.

    Absent zone neighbors encode as the zone-extent ceiling at that instant
    with zero relative speed; all outputs are finite.
    """
    swept = _sweep(trace, slice(sc.t_start, sc.t_end + 1))
    row, curves = _features(sc, trace, trace.at([sc.t_start, sc.t_changepoint, sc.t_end], SWEPT), swept, sc.t_start)
    row[DTW_COLUMN] = dtw_distances([curves])[0]
    return row


def scenarios_to_dataset(traces_with_names) -> tuple:
    """Extract all scenarios of several (name, trace) pairs into a Dataset,
    each trace a Trace or a TraceReader: each row as extract_features gives
    it, with the DTW feature of every scenario from one dtw_distances sweep.
    Each trace is swept once, and the rows of its scenarios' instants are
    then read in one call.

    Ids are '<trace name>_s<k>'; the metadata list mirrors the rows with
    {id, trace, ego_id, t_start, t_end, thw_min}.
    """
    ids, rows, curves, meta = [], [], [], []
    for name, source in traces_with_names:
        swept = _sweep(source, slice(None))
        found = _detect(source, *swept[:2])
        at = source.at([t for sc in found for t in (sc.t_start, sc.t_changepoint, sc.t_end)], SWEPT)
        for k, sc in enumerate(found):
            sid = f"{name}_s{k}"
            ids.append(sid)
            row, pair = _features(sc, source, at.rows(3 * k, 3 * k + 3, SWEPT), swept, 0)
            rows.append(row)
            curves.append(pair)
            meta.append(dict(id=sid, trace=name, ego_id=sc.ego_id, t_start=sc.t_start, t_end=sc.t_end, thw_min=sc.thw_min))
        del swept, at  # before the next trace is read
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))
    values[:, DTW_COLUMN] = dtw_distances(curves)
    return Dataset(feature_names=list(FEATURE_NAMES), ids=ids, values=values), meta
