"""Time-headway scenario detection, zone occupancy, and the 47-feature layout.

A scenario opens for an ego vehicle when the time headway to its leader
drops to the trigger level, closes when it recovers (or the trace ends),
and is kept only if the minimum THW undercuts the keep level. Windows of
the same ego separated by less than the merge gap fuse into one scenario;
the merged window may briefly exceed the trigger inside the fused gap.

Features are sampled at three instants (window start, the changepoint of
minimum THW, window end) from the six-zone neighborhood around the ego,
plus scalar descriptors of the whole window.
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
    "ZoneOccupancy",
    "compute_thw",
    "zone_extent",
    "thw_series",
    "find_trigger_windows",
    "detect_scenarios",
    "assign_zones",
    "dtw_distance",
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


@dataclass
class Scenario:
    """One ego-centered THW window of a trace (timestep indices inclusive)."""

    ego_id: int
    t_start: int
    t_end: int
    thw_series: np.ndarray
    thw_min: float
    t_changepoint: int

    def __post_init__(self):
        if not self.t_start <= self.t_changepoint <= self.t_end:
            raise ValueError("changepoint outside the scenario window")


@dataclass
class ZoneOccupancy:
    """Nearest vehicle per zone: (vehicle id, |dx| m, relative speed m/s)."""

    slots: dict

    def occupied(self) -> list:
        return [z for z in ZONES if self.slots.get(z) is not None]


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
    found = _SIDES[side](dx, 0.0) & (trace.lane[steps] - trace.lane[steps, ego][:, None] == offset)
    found[:, ego] = False
    dist = np.abs(dx)
    if reach is not None:
        found &= dist <= np.reshape(reach, (-1, 1))
    dist = np.where(found, dist, np.inf)
    j = np.argmin(dist, axis=1)
    d = dist[np.arange(len(j)), j]
    return np.where(d < np.inf, j, -1), d


def thw_series(trace: Trace, ego_id: int) -> np.ndarray:
    """Per-timestep THW of one ego to its current leader (inf if none: the
    gap to no leader is inf)."""
    _, dx = _nearest(trace, ego_id - 1, slice(None), 0, "ahead")
    return compute_thw(np.maximum(dx - VEHICLE_LENGTH, 0.0), trace.v[:, ego_id - 1])


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


def detect_scenarios(trace: Trace) -> list:
    """All kept scenarios of a trace, every vehicle serving as ego."""
    out = []
    for ego_id in range(1, trace.n_vehicles + 1):
        series = thw_series(trace, ego_id)
        for t0, t1 in find_trigger_windows(series, trace.dt):
            window = series[t0 : t1 + 1]
            out.append(Scenario(ego_id, t0, t1, window.copy(), float(np.min(window)), t0 + int(np.argmin(window))))
    return out


_LANE_OFFSETS = {"left": 1, "right": -1}  # a zone name's lane prefix -> lanes left of the ego's


def _zones(trace: Trace, ego: int, steps) -> dict:
    """zone -> (column or -1, |dx|, relative speed) at each of ``steps``."""
    reach = zone_extent(trace.v[steps, ego])
    rows = np.arange(len(reach))
    out = {}
    for zone in ZONES:
        j, dist = _nearest(trace, ego, steps, _LANE_OFFSETS.get(zone.split("_")[0], 0), zone.split("_")[-1], reach)
        out[zone] = (j, dist, trace.v[steps][rows, j] - trace.v[steps, ego])
    return out


def assign_zones(trace: Trace, ego_id: int, t: int) -> ZoneOccupancy:
    """Nearest vehicle per zone around the ego at timestep t.

    Zones combine the lane offset (-1 right, 0 own, +1 left) with the sign
    of the longitudinal center distance; reach is the speed-adapted extent.
    Every vehicle falls into at most one zone.
    """
    zones = _zones(trace, ego_id - 1, [t]).items()
    return ZoneOccupancy({z: (int(j[0]) + 1, float(d[0]), float(r[0])) if j[0] >= 0 else None for z, (j, d, r) in zones})


def dtw_distance(s1, s2) -> float:
    """Classic dynamic time warping with |a - b| local cost, full window,
    boundary-aligned; returns the optimal cumulative cost."""
    s1 = np.asarray(s1, dtype=np.float64)
    s2 = np.asarray(s2, dtype=np.float64)
    if s1.size == 0 or s2.size == 0:
        raise ValueError("dtw_distance requires non-empty sequences")
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


def _resample(series: np.ndarray, n: int) -> np.ndarray:
    if len(series) <= n:
        return series
    grid = np.linspace(0.0, len(series) - 1.0, n)
    return np.interp(grid, np.arange(len(series)), series)


def _gap_curves(trace: Trace, sc: Scenario):
    """The bumper gap to the leader (the zone extent without one) and the
    desired gap, over the scenario window."""
    steps = slice(sc.t_start, sc.t_end + 1)
    _, dx = _nearest(trace, sc.ego_id - 1, steps, 0, "ahead")
    v = trace.v[steps, sc.ego_id - 1]
    actual = np.where(dx < np.inf, np.maximum(dx - VEHICLE_LENGTH, 0.0), zone_extent(v))
    return actual, v * DESIRED_THW_S


def _cut_in(trace: Trace, sc: Scenario) -> bool:
    """Whether, after the window's first step, the front-zone vehicle was
    on another lane than the ego's one step earlier."""
    ego, t = sc.ego_id - 1, np.arange(sc.t_start + 1, sc.t_end + 1)
    front, _ = _nearest(trace, ego, t, 0, "front", zone_extent(trace.v[t, ego]))
    t, front = t[front >= 0], front[front >= 0]
    return bool(np.any(trace.lane[t - 1, front] != trace.lane[t, ego]))


def extract_features(sc: Scenario, trace: Trace) -> np.ndarray:
    """The canonical 47-feature vector of one scenario (see FEATURE_NAMES).

    Absent zone neighbors encode as the zone-extent ceiling at that instant
    with zero relative speed; all outputs are finite.
    """
    ego = sc.ego_id - 1
    instants = [sc.t_start, sc.t_changepoint, sc.t_end]
    ceiling = zone_extent(trace.v[instants, ego])
    dists, relvs = [], []
    for j, dist, relv in _zones(trace, ego, instants).values():
        dists += np.where(j >= 0, dist, ceiling).tolist()
        relvs += np.where(j >= 0, relv, 0.0).tolist()
    actual, desired = _gap_curves(trace, sc)
    dtw = dtw_distance(_resample(actual, DTW_MAX_SAMPLES), _resample(desired, DTW_MAX_SAMPLES))
    ego_lanes = trace.lane[sc.t_start : sc.t_end + 1, ego]
    collision = float(
        any(sc.t_start <= t <= sc.t_end and sc.ego_id in pair for t, pair in trace.collisions)
    )
    features = (
        dists
        + relvs
        + [
            sc.thw_min,
            (sc.t_end - sc.t_start) * trace.dt,
            dtw,
            ego_lanes[0],
            trace.lane[sc.t_changepoint, ego],
            ego_lanes[-1],
            trace.road.n_l,
            np.count_nonzero(np.diff(ego_lanes)),
            float(_cut_in(trace, sc)),
            collision,
            trace.v[sc.t_changepoint, ego],
        ]
    )
    return np.array(features, dtype=np.float64)


def scenarios_to_dataset(traces_with_names) -> tuple:
    """Extract all scenarios of several (name, Trace) pairs into a Dataset.

    Ids are '<trace name>_s<k>'; the metadata list mirrors the rows with
    {id, trace, ego_id, t_start, t_end, thw_min}.
    """
    ids, rows, meta = [], [], []
    for name, trace in traces_with_names:
        for k, sc in enumerate(detect_scenarios(trace)):
            sid = f"{name}_s{k}"
            ids.append(sid)
            rows.append(extract_features(sc, trace))
            meta.append(dict(id=sid, trace=name, ego_id=sc.ego_id, t_start=sc.t_start, t_end=sc.t_end, thw_min=sc.thw_min))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))
    return Dataset(feature_names=list(FEATURE_NAMES), ids=ids, values=values), meta
