"""Trace persistence: JSON-lines states plus a small meta sidecar.

Each line is one timestep: {"t": step, "vehicles": [{"id", "x", "y", "v",
"a", "psi", "lane"}, ...], "collisions": [[id_a, id_b], ...]}. Floats are
written with Python repr, so a saved trace reloads bit-identically. The
sidecar (<stem>.meta.json) carries dt, the vehicle and step counts, and the
road configuration that the lanes are checked against on load.
"""

from __future__ import annotations

import json
from operator import itemgetter
from pathlib import Path

import numpy as np

from ..dataset import ParseError, require_keys
from .config import RoadConfig, SimConfigError
from .engine import CHANNELS, Trace, lane_overflow

__all__ = ["save_trace", "load_trace", "meta_path"]

VEHICLE_KEYS = ("id", *CHANNELS, "lane")
ROAD_KEYS = ("n_l", "lane_width", "n_vpl", "speed_limit", "d_il_max")
ROAD_INTS = ("n_l", "n_vpl")
INTEGER, NUMBER = {int}, {int, float}  # the JSON value types accepted (a bool is neither)


def meta_path(trace_path) -> Path:
    return Path(trace_path).with_suffix(".meta.json")


def save_trace(trace: Trace, path) -> None:
    path = Path(path)
    by_step: dict = {}
    for t, pair in trace.collisions:
        by_step.setdefault(t, []).append(list(pair))
    channels = [getattr(trace, name) for name in VEHICLE_KEYS[1:]]
    with open(path, "w", newline="\n") as fh:
        for t in range(trace.n_ts):
            rows = zip(*(c[t].tolist() for c in channels))
            rec = {
                "t": t,
                "vehicles": [
                    {"id": i, "x": x, "y": y, "v": v, "a": a, "psi": psi, "lane": lane}
                    for i, (x, y, v, a, psi, lane) in enumerate(rows, 1)
                ],
                "collisions": by_step.get(t, []),
            }
            fh.write(json.dumps(rec) + "\n")
    meta = {
        "dt": trace.dt,
        "n_vehicles": trace.n_vehicles,
        "n_ts": trace.n_ts,
        "road": {key: getattr(trace.road, key) for key in ROAD_KEYS},
    }
    meta_path(path).write_text(json.dumps(meta) + "\n")


def _json(text: str, at: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{at}: invalid JSON: {exc.msg}") from None


def _is_number(value, integer: bool = False) -> bool:
    return type(value) in (INTEGER if integer else NUMBER)


def _load_meta(path: Path):
    """(dt, n_vehicles, n_ts, road) of a trace sidecar."""
    meta = _json(path.read_text(), str(path))
    require_keys(meta, ("dt", "n_vehicles", "n_ts", "road"), path, "")
    require_keys(meta["road"], ROAD_KEYS, path, "road.")
    if not _is_number(meta["dt"]) or not meta["dt"] > 0:
        raise ParseError(f"{path}: dt: {meta['dt']!r} is not a positive number")
    for key in ("n_vehicles", "n_ts"):
        if not _is_number(meta[key], integer=True) or meta[key] < 1:
            raise ParseError(f"{path}: {key}: {meta[key]!r} is not a positive integer")
    road = {key: meta["road"][key] for key in ROAD_KEYS}
    for key, value in road.items():
        if not _is_number(value, integer=key in ROAD_INTS):
            raise ParseError(f"{path}: road.{key}: {value!r} is not {'an integer' if key in ROAD_INTS else 'a number'}")
    try:
        return meta["dt"], meta["n_vehicles"], meta["n_ts"], RoadConfig(**road)
    except SimConfigError as exc:
        raise ParseError(f"{path}: road: {exc}") from None


def _vehicle_rows(vehicles, n_v: int, at: str) -> list:
    """The (id, x, y, v, a, psi, lane) columns of one line's vehicles, each a
    tuple over the vehicles as listed."""
    try:
        rows = list(map(itemgetter(*VEHICLE_KEYS), vehicles))
    except (KeyError, TypeError):
        if not isinstance(vehicles, list):
            raise ParseError(f"{at}: vehicles: expected a list") from None
        for k, d in enumerate(vehicles):
            require_keys(d, VEHICLE_KEYS, at, f"vehicles[{k}].")
        raise
    if len(rows) != n_v:
        raise ParseError(f"{at}: vehicles: {len(rows)} entries, the sidecar says n_vehicles={n_v}")
    columns = list(zip(*rows))
    for name, column in zip(VEHICLE_KEYS, columns):
        integer = name in ("id", "lane")
        if not set(map(type, column)) <= (INTEGER if integer else NUMBER):
            k = next(k for k, value in enumerate(column) if not _is_number(value, integer))
            raise ParseError(f"{at}: vehicles[{k}].{name}: {column[k]!r} is not {'an integer' if integer else 'a number'}")
    return columns


def load_trace(path) -> Trace:
    """Rebuild a Trace from a JSONL file and its meta sidecar.

    Lane-change start events and the ay warning count are not part of the
    wire format; they reload as empty and zero. Raises ParseError naming
    ``path:line`` (or the sidecar's key path) for invalid JSON, a missing
    key, a value of the wrong type, a ``t`` other than the line's index, a
    vehicle id outside [1, n_vehicles] or repeated, a lane outside [1, n_l]
    or over n_vpl vehicles, and a step count other than the sidecar's.
    """
    path = Path(path)
    dt, n_v, n_ts, road = _load_meta(meta_path(path))
    channels = np.empty((len(CHANNELS), n_ts, n_v))
    lane = np.empty((n_ts, n_v), dtype=np.int64)
    in_order = tuple(range(1, n_v + 1))
    collisions = []
    count = 0
    with open(path) as fh:
        for t, line in enumerate(fh):
            at = f"{path}:{t + 1}"
            if t == n_ts:
                raise ParseError(f"{at}: more steps than the sidecar's n_ts={n_ts}")
            rec = _json(line, at)
            require_keys(rec, ("t", "vehicles", "collisions"), at, "")
            if type(rec["t"]) is not int or rec["t"] != t:
                raise ParseError(f"{at}: t: {rec['t']!r} is not the line's index {t}")
            ids, *floats, lanes = _vehicle_rows(rec["vehicles"], n_v, at)
            cols = slice(None)
            if ids != in_order:
                seen: set = set()
                for k, vid in enumerate(ids):
                    if not 1 <= vid <= n_v or vid in seen:
                        raise ParseError(f"{at}: vehicles[{k}].id: {vid} is not a new vehicle id in [1, {n_v}]")
                    seen.add(vid)
                cols = np.array(ids) - 1
            try:
                channels[:, t, cols] = floats
                lane[t, cols] = lanes
            except OverflowError:
                raise ParseError(f"{at}: vehicles: a number is out of range") from None
            pairs = rec["collisions"]
            if not isinstance(pairs, list):
                raise ParseError(f"{at}: collisions: expected a list")
            for k, pair in enumerate(pairs):
                if not (isinstance(pair, list) and len(pair) == 2 and all(_is_number(v, True) and 1 <= v <= n_v for v in pair)):
                    raise ParseError(f"{at}: collisions[{k}]: {pair!r} is not a pair of vehicle ids")
                collisions.append((t, (pair[0], pair[1])))
            count = t + 1
    if count != n_ts:
        raise ParseError(f"{path}: {count} steps, the sidecar says n_ts={n_ts}")
    outside = np.argwhere((lane < 1) | (lane > road.n_l))
    if outside.size:
        t, i = outside[0].tolist()
        raise ParseError(f"{path}:{t + 1}: vehicle {i + 1}: lane {lane[t, i]} is not in [1, {road.n_l}]")
    overflow = lane_overflow(lane, road)
    if overflow:
        t, k, held = overflow
        raise ParseError(f"{path}:{t + 1}: lane {k} holds {held} vehicles, over n_vpl={road.n_vpl}")
    return Trace(dt=dt, road=road, **dict(zip(CHANNELS, channels)), lane=lane, collisions=collisions)
