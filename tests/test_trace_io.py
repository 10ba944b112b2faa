"""Trace file layout and bit-exact reload."""

import json

import numpy as np

from scenforest.sim import CHANNELS, RoadConfig, SimParams, load_trace, meta_path, run_simulations, save_trace


def test_trace_round_trip_bit_exact(tmp_path):
    road = RoadConfig(n_l=2, n_vpl=5)
    quiet = next(run_simulations(road, [SimParams(dt=0.05, duration=20.0, seed=13)]))
    busy = next(run_simulations(road, [SimParams(dt=0.05, duration=40.0, seed=17)]))  # has collisions and lane-change starts
    assert busy.collisions and busy.lane_change_starts
    for k, trace in enumerate((quiet, busy)):
        path = tmp_path / f"trace_{k}.raw"
        save_trace(trace, path)
        loaded = load_trace(path)
        # every field reloads equal, the arrays bit for bit and dtype included
        for name in ("dt", "road", "collisions", "lane_change_starts"):
            assert getattr(loaded, name) == getattr(trace, name)
        for name in (*CHANNELS, "lane"):
            got, want = getattr(loaded, name), getattr(trace, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # saving the reloaded trace reproduces both files byte for byte
        again = tmp_path / f"again_{k}.raw"
        save_trace(loaded, again)
        assert path.read_bytes() == again.read_bytes()
        assert meta_path(path).read_bytes() == meta_path(again).read_bytes()


def test_trace_line_schema(tmp_path):
    """The file layout: 41 bytes per vehicle and step, float channels first in
    CHANNELS order, then the int8 lanes; the sidecar keys."""
    road = RoadConfig(n_l=2, n_vpl=4)
    trace = next(run_simulations(road, [SimParams(dt=0.1, duration=2.0, seed=3)]))
    path = tmp_path / "trace.raw"
    save_trace(trace, path)
    n = trace.n_ts * trace.n_vehicles
    data = path.read_bytes()
    assert len(data) == n * 41
    floats = np.frombuffer(data, "<f8", count=len(CHANNELS) * n).reshape(len(CHANNELS), trace.n_ts, trace.n_vehicles)
    for k, name in enumerate(CHANNELS):
        np.testing.assert_array_equal(floats[k], getattr(trace, name))
    np.testing.assert_array_equal(np.frombuffer(data, "i1", offset=len(CHANNELS) * n * 8), trace.lane.ravel())
    meta = json.loads((tmp_path / "trace.meta.json").read_text())
    assert list(meta) == ["dt", "n_vehicles", "n_ts", "road", "collisions", "lane_change_starts"]
    assert (meta["dt"], meta["n_vehicles"], meta["n_ts"]) == (0.1, trace.n_vehicles, trace.n_ts)
    assert meta["road"]["n_l"] == 2
    # a sidecar that still carries the dropped ay_warning_steps key loads as before
    (tmp_path / "trace.meta.json").write_text(json.dumps({**meta, "ay_warning_steps": 0}) + "\n")
    assert load_trace(path).x.tobytes() == trace.x.tobytes()
