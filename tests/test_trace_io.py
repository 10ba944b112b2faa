"""Trace JSONL wire format and bit-exact reload."""

import json

import numpy as np

from scenforest.sim import CHANNELS, RoadConfig, SimParams, load_trace, run_simulation, save_trace


def test_trace_round_trip_bit_exact(tmp_path):
    road = RoadConfig(n_l=2, n_vpl=5)
    trace = run_simulation(road, SimParams(dt=0.05, duration=20.0, seed=13))
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    # everything but the diagnostics the wire format leaves out reloads equal
    assert (loaded.dt, loaded.road, loaded.collisions) == (trace.dt, trace.road, trace.collisions)
    for name in (*CHANNELS, "lane"):
        got, want = getattr(loaded, name), getattr(trace, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert (loaded.lane_change_starts, loaded.ay_warning_steps) == ([], 0)
    # saving the reloaded trace reproduces the file byte for byte
    path2 = tmp_path / "again.jsonl"
    save_trace(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_trace_line_schema(tmp_path):
    road = RoadConfig(n_l=2, n_vpl=4)
    trace = run_simulation(road, SimParams(dt=0.1, duration=2.0, seed=3))
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == trace.n_ts
    first = json.loads(lines[0])
    assert set(first) == {"t", "vehicles", "collisions"}
    assert first["t"] == 0
    assert set(first["vehicles"][0]) == {"id", "x", "y", "v", "a", "psi", "lane"}
    meta = json.loads((tmp_path / "trace.meta.json").read_text())
    assert meta["road"]["n_l"] == 2
    assert meta["dt"] == 0.1
