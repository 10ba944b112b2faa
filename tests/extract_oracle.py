"""The whole-trace extraction that production replaces with one block sweep
per trace, kept as it was but for the names: each trace is held whole, its
leader gaps are computed for every step at once, every window's features
are read from the whole arrays, and each window scans its own steps for a
cut-in with the per-ego front gather that production turned on its side.
Production's rows and metadata must equal this one's byte for byte.
"""

import numpy as np

from scenforest.dataset import Dataset
from scenforest.scenarios import (
    DESIRED_THW_S,
    DTW_COLUMN,
    DTW_MAX_SAMPLES,
    FEATURE_NAMES,
    _detect,
    _resample,
    _zones,
    dtw_distances,
    zone_extent,
)
from scenforest.sim import VEHICLE_LENGTH


def leader_gaps(trace) -> np.ndarray:
    """The bumper gap of every vehicle to its leader at every step of a
    whole trace, as one (n_ts, n_v) array; inf without a leader."""
    x0, lane0, n_v = trace.x, trace.lane, trace.n_vehicles
    order = np.lexsort((x0, lane0))
    x, lane = np.take_along_axis(x0, order, axis=1), np.take_along_axis(lane0, order, axis=1)
    starts = np.where((lane[:, 1:] != lane[:, :-1]) | (x[:, 1:] != x[:, :-1]), np.arange(1, n_v), n_v)
    after = np.concatenate([np.minimum.accumulate(starts[:, ::-1], axis=1)[:, ::-1], np.full((len(x), 1), n_v)], axis=1)
    nearest = np.minimum(after, n_v - 1)
    found = (after < n_v) & (np.take_along_axis(lane, nearest, axis=1) == lane)
    leader = np.empty_like(order)
    np.put_along_axis(leader, order, np.where(found, np.take_along_axis(order, nearest, axis=1), -1), axis=1)
    dx = np.where(leader >= 0, np.take_along_axis(x0, leader, axis=1) - x0, np.inf)
    return np.maximum(dx - VEHICLE_LENGTH, 0.0)


def gap_curves(trace, sc, gap):
    v = trace.v[sc.t_start : sc.t_end + 1, sc.ego_id - 1]
    return np.where(gap < np.inf, gap, zone_extent(v)), v * DESIRED_THW_S


def front(trace, ego: int, steps) -> np.ndarray:
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


def cut_in(trace, sc) -> bool:
    ego = sc.ego_id - 1
    ahead = front(trace, ego, slice(sc.t_start + 1, sc.t_end + 1))
    t = sc.t_start + 1 + np.flatnonzero(ahead >= 0)
    return bool(np.any(trace.lane[t - 1, ahead[ahead >= 0]] != trace.lane[t, ego]))


def features(sc, trace, gap) -> tuple:
    ego = sc.ego_id - 1
    instants = [sc.t_start, sc.t_changepoint, sc.t_end]
    ceiling = zone_extent(trace.v[instants, ego])
    dists, relvs = [], []
    for j, dist, relv in _zones(trace, ego, instants).values():
        dists += np.where(j >= 0, dist, ceiling).tolist()
        relvs += np.where(j >= 0, relv, 0.0).tolist()
    actual, desired = gap_curves(trace, sc, gap)
    ego_lanes = trace.lane[sc.t_start : sc.t_end + 1, ego]
    collision = float(
        any(sc.t_start <= t <= sc.t_end and sc.ego_id in pair for t, pair in trace.collisions)
    )
    row = (
        dists
        + relvs
        + [
            sc.thw_min,
            (sc.t_end - sc.t_start) * trace.dt,
            0.0,
            ego_lanes[0],
            trace.lane[sc.t_changepoint, ego],
            ego_lanes[-1],
            trace.road.n_l,
            np.count_nonzero(np.diff(ego_lanes)),
            float(cut_in(trace, sc)),
            collision,
            trace.v[sc.t_changepoint, ego],
        ]
    )
    return np.array(row, dtype=np.float64), (_resample(actual, DTW_MAX_SAMPLES), _resample(desired, DTW_MAX_SAMPLES))


def scenarios_to_dataset(traces_with_names) -> tuple:
    """(Dataset, metadata) of several (name, whole Trace) pairs."""
    ids, rows, curves, meta = [], [], [], []
    for name, trace in traces_with_names:
        gaps = leader_gaps(trace)
        for k, sc in enumerate(_detect(trace, gaps, trace.v)):
            sid = f"{name}_s{k}"
            ids.append(sid)
            row, pair = features(sc, trace, gaps[sc.t_start : sc.t_end + 1, sc.ego_id - 1])
            rows.append(row)
            curves.append(pair)
            meta.append(dict(id=sid, trace=name, ego_id=sc.ego_id, t_start=sc.t_start, t_end=sc.t_end, thw_min=sc.thw_min))
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(FEATURE_NAMES))
    values[:, DTW_COLUMN] = dtw_distances(curves)
    return Dataset(feature_names=list(FEATURE_NAMES), ids=ids, values=values), meta
