"""Trace persistence: raw channel arrays plus a JSON sidecar.

``trace_<k>.raw`` holds x, y, v, a and psi in CHANNELS order, each an
(n_ts, n_vehicles) row-major block of little-endian float64, then the lanes
as an int8 block of the same shape: 41 bytes per vehicle and step. The
sidecar ``trace_<k>.meta.json`` holds dt, n_vehicles, n_ts, the road that
the lanes are checked against on load, ``collisions`` as [[t, id_a, id_b],
...] and ``lane_change_starts`` as [[t, id, target_lane], ...]. A saved
trace reloads bit-identically.

One writer makes both files: a TraceWriter writes each block of rows it is
given at its offsets in the raw file, whose size is known from the start,
and the sidecar when it is closed. The simulate stage streams each run
through one as the engine flushes its rows; save_trace feeds one a whole
trace as a single block, so both give the same bytes.

One reader reads them back: a TraceReader checks the sidecar and every
value of the raw file a block of steps at a time, then reads any steps
[a, b) from their offsets. The extract stage reads each trace through one,
in one sweep a block of steps at a time and then, through one open of the
raw file, the rows of every scenario's three instants (``at``); load_trace
reads every step through one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..dataset import ParseError, read_json, require_keys
from .config import RoadConfig, SimConfigError, SimParams
from .engine import ARRAYS, CHANNELS, EVENTS, Trace, events_between, lane_overflow

__all__ = ["TraceWriter", "TraceReader", "save_trace", "load_trace", "meta_path", "trace_path", "trace_paths"]

FLOAT, LANE = np.dtype("<f8"), np.dtype("i1")
STEP_BYTES = len(CHANNELS) * FLOAT.itemsize + LANE.itemsize  # per vehicle and step
ROAD_KEYS = ("n_l", "lane_width", "n_vpl", "speed_limit", "d_il_max")
ROAD_INTS = ("n_l", "n_vpl")
CHECK_BLOCK = 2048  # steps per block of a TraceReader's check


def trace_path(workdir, k: int) -> Path:
    return Path(workdir) / f"trace_{k}.raw"


def trace_paths(workdir) -> list[Path]:
    """A workdir's traces in lexicographic order; each stem prefixes the ids
    of the scenarios found in its trace."""
    return sorted(Path(workdir).glob("trace_*.raw"))


def meta_path(trace_path) -> Path:
    return Path(trace_path).with_suffix(".meta.json")


class TraceWriter:
    """The files of one trace of n_ts steps of n_vehicles, written a block
    of rows at a time (a sink of ``run_simulations``). Opening it removes
    an older sidecar at ``path``, so a raw file being written never stands
    beside one; close writes the sidecar, and discard removes both files."""

    def __init__(self, path, dt: float, road: RoadConfig, n_ts: int, n_vehicles: int):
        self.path, self.n_ts, self.n_vehicles = Path(path), n_ts, n_vehicles
        self.meta = {"dt": dt, "n_vehicles": n_vehicles, "n_ts": n_ts,
                     "road": {key: getattr(road, key) for key in ROAD_KEYS}}
        meta_path(self.path).unlink(missing_ok=True)
        self.fh = open(self.path, "wb")

    def write(self, t0: int, block: list) -> None:
        """Steps t0 on of x, y, v, a, psi and lane, one (rows, n_vehicles)
        array each, at their offsets in the raw file."""
        size = self.n_ts * self.n_vehicles * FLOAT.itemsize  # of one float channel
        for c, rows in enumerate(block):
            dtype = FLOAT if c < len(CHANNELS) else LANE
            self.fh.seek(c * size + t0 * self.n_vehicles * dtype.itemsize)
            np.ascontiguousarray(rows, dtype=dtype).tofile(self.fh)

    def close(self, collisions: list, lane_change_starts: list) -> None:
        self.fh.close()
        meta = {
            **self.meta,
            "collisions": [[t, a, b] for t, (a, b) in collisions],
            "lane_change_starts": [list(event) for event in lane_change_starts],
        }
        meta_path(self.path).write_text(json.dumps(meta) + "\n")

    def discard(self) -> None:
        self.fh.close()
        self.path.unlink(missing_ok=True)
        meta_path(self.path).unlink(missing_ok=True)


def save_trace(trace: Trace, path) -> None:
    """Write a trace's raw file and sidecar: a TraceWriter fed the whole
    trace as one block."""
    writer = TraceWriter(path, trace.dt, trace.road, trace.n_ts, trace.n_vehicles)
    try:
        writer.write(0, [getattr(trace, name) for name in ARRAYS])
    except BaseException:
        writer.discard()
        raise
    writer.close(trace.collisions, trace.lane_change_starts)


def _events(meta: dict, key: str, fields: dict, path: Path) -> list:
    """The sidecar's event list ``key`` as tuples; ``fields`` maps the name
    of each entry field to its inclusive integer bounds."""
    entries = meta[key]
    if not isinstance(entries, list):
        raise ParseError(f"{path}: {key}: expected a list")
    for k, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == len(fields) and all(
                type(value) is int and lo <= value <= hi for value, (lo, hi) in zip(entry, fields.values()))):
            want = ", ".join(f"{name} in [{lo}, {hi}]" for name, (lo, hi) in fields.items())
            raise ParseError(f"{path}: {key}[{k}]: {entry!r} is not [{', '.join(fields)}] with {want}")
    return [tuple(entry) for entry in entries]


class TraceReader:
    """The files of one trace, read a block of steps at a time.

    Opening it reads the sidecar and checks the raw file's size and every
    value in it, a block of CHECK_BLOCK steps at a time: all of x, then y,
    v, a and psi, then the lanes' range, then the lanes' capacity, so the
    first defect in that order is the one reported whatever the block.
    Raises ParseError naming the sidecar, with a key path or the line of
    invalid JSON, for a missing, mistyped (a bool is never a number) or
    out-of-range value (a ``dt`` outside the simulator's (0, 0.1] and a
    road the simulator would refuse among them); and naming the raw file
    for a size other than the sidecar's, a NaN or infinite x, y, v, a or
    psi, or a lane outside [1, n_l] (both ``path: step t, vehicle i:
    ...``), or a lane over n_vpl vehicles. ``rows(a, b)`` then reads steps
    [a, b) as a Trace, as ``Trace.rows`` slices one; the reader's own
    ``collisions`` and ``lane_change_starts`` are the whole run's.
    """

    def __init__(self, path):
        self.path, sidecar = Path(path), meta_path(path)
        meta = read_json(sidecar)
        require_keys(meta, ("dt", "n_vehicles", "n_ts", "road", "collisions", "lane_change_starts"), sidecar, "")
        require_keys(meta["road"], ROAD_KEYS, sidecar, "road.")
        if type(meta["dt"]) not in (int, float) or not meta["dt"] > 0:
            raise ParseError(f"{sidecar}: dt: {meta['dt']!r} is not a positive number")
        try:
            SimParams(dt=meta["dt"])  # the simulator's range of dt
        except SimConfigError as exc:
            raise ParseError(f"{sidecar}: dt: {exc}") from None
        for key in ("n_vehicles", "n_ts"):
            if type(meta[key]) is not int or meta[key] < 1:
                raise ParseError(f"{sidecar}: {key}: {meta[key]!r} is not an integer >= 1")
        road = {key: meta["road"][key] for key in ROAD_KEYS}
        for key, value in road.items():
            if type(value) not in ((int,) if key in ROAD_INTS else (int, float)):
                raise ParseError(f"{sidecar}: road.{key}: {value!r} is not {'an integer' if key in ROAD_INTS else 'a number'}")
        try:
            self.road = RoadConfig(**road)
        except SimConfigError as exc:
            raise ParseError(f"{sidecar}: road: {exc}") from None
        self.dt, self.n_ts, self.n_vehicles = meta["dt"], meta["n_ts"], meta["n_vehicles"]
        steps, ids = (0, self.n_ts - 1), (1, self.n_vehicles)
        collisions = _events(meta, "collisions", {"t": steps, "id_a": ids, "id_b": ids}, sidecar)
        self.collisions = [(t, (a, b)) for t, a, b in collisions]
        self.lane_change_starts = _events(
            meta, "lane_change_starts", {"t": steps, "id": ids, "target_lane": (1, self.road.n_l)}, sidecar)
        size, n = self.path.stat().st_size, self.n_ts * self.n_vehicles
        if size != n * STEP_BYTES:  # checked before anything is read
            raise ParseError(f"{self.path}: {size} bytes, the sidecar's n_ts={self.n_ts} and n_vehicles={self.n_vehicles}"
                             f" make {n * STEP_BYTES}, so this file or {sidecar} is damaged")
        self._check()

    def _read(self, fh, c: int, a: int, b: int) -> np.ndarray:
        """Steps [a, b) of the array c of ARRAYS, as a Trace holds them (the
        lanes as int64)."""
        dtype = FLOAT if c < len(CHANNELS) else LANE
        out = np.empty((b - a, self.n_vehicles), dtype)
        fh.seek(c * self.n_ts * self.n_vehicles * FLOAT.itemsize + a * self.n_vehicles * dtype.itemsize)
        if fh.readinto(out) != out.nbytes:
            raise ParseError(f"{self.path}: ends before step {b} of {ARRAYS[c]}")
        return out if dtype is FLOAT else out.astype(np.int64)

    def _check(self) -> None:
        """Every value of the raw file, in the order the class docstring gives."""
        with open(self.path, "rb") as fh:
            blocks = [(a, min(a + CHECK_BLOCK, self.n_ts)) for a in range(0, self.n_ts, CHECK_BLOCK)]
            for c, name in enumerate(CHANNELS):
                for a, b in blocks:
                    values = self._read(fh, c, a, b)
                    if not (np.isfinite(values.min()) and np.isfinite(values.max())):  # NaN and inf reach the min or the max
                        t, i = np.argwhere(~np.isfinite(values))[0].tolist()
                        raise ParseError(f"{self.path}: step {a + t}, vehicle {i + 1}: {name} {values[t, i]} is not finite")
            overflow = None  # the first, reported once every lane is known to be in range
            for a, b in blocks:
                lane = self._read(fh, len(CHANNELS), a, b)
                outside = np.argwhere((lane < 1) | (lane > self.road.n_l))
                if outside.size:
                    t, i = outside[0].tolist()
                    raise ParseError(f"{self.path}: step {a + t}, vehicle {i + 1}: lane {lane[t, i]}"
                                     f" is not in [1, {self.road.n_l}]")
                at = lane_overflow(lane, self.road) if overflow is None else None
                if at:
                    overflow = (a + at[0], *at[1:])
        if overflow:
            t, k, held = overflow
            raise ParseError(f"{self.path}: step {t}: lane {k} holds {held} vehicles, over n_vpl={self.road.n_vpl}")

    def rows(self, a: int, b: int, names=ARRAYS + EVENTS) -> Trace:
        """Steps [a, b) of the arrays and events in ``names`` (the others
        None), as ``Trace.rows`` gives them: each array read from its offset
        in the raw file."""
        with open(self.path, "rb") as fh:
            arrays = [self._read(fh, c, a, b) if name in names else None for c, name in enumerate(ARRAYS)]
        return Trace(self.dt, self.road, *arrays, *events_between(self, a, b, names))

    def at(self, steps: list, names=ARRAYS) -> Trace:
        """The rows of ``steps`` of the arrays in ``names`` (the others
        None), as ``Trace.at`` gives them: one open of the raw file, and
        one read per row."""
        with open(self.path, "rb") as fh:  # no steps: the zero rows from step 0
            arrays = [np.concatenate([self._read(fh, c, t, t + 1) for t in steps] or [self._read(fh, c, 0, 0)])
                      if name in names else None for c, name in enumerate(ARRAYS)]
        return Trace(self.dt, self.road, *arrays, None, None)


def load_trace(path) -> Trace:
    """Every step of a trace, checked as a TraceReader checks it."""
    reader = TraceReader(path)
    return reader.rows(0, reader.n_ts)
