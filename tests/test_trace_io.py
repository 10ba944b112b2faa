"""Trace file layout, bit-exact reload, and traces streamed as they are
simulated."""

import contextlib
import io
import json

import numpy as np
import pytest

from scenforest import cli
from scenforest.dataset import ParseError
from scenforest.sim import (
    ARRAYS,
    CHANNELS,
    EVENTS,
    RoadConfig,
    SimParams,
    TraceReader,
    TraceWriter,
    engine,
    init_scene,
    load_trace,
    meta_path,
    run_simulations,
    save_trace,
    trace_path,
)


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


def test_reader_rows_equal_trace_rows(tmp_path):
    # any steps [a, b) read from the files equal the same steps of the trace
    # in memory: the arrays bit for bit, the events of those steps counted
    # from a; the fields not named are None on both sides
    trace = next(run_simulations(RoadConfig(n_l=2, n_vpl=5), [SimParams(dt=0.05, duration=40.0, seed=17)]))
    path = tmp_path / "trace_0.raw"
    save_trace(trace, path)
    reader = TraceReader(path)
    assert (reader.dt, reader.road, reader.n_ts, reader.n_vehicles) == (trace.dt, trace.road, trace.n_ts, trace.n_vehicles)
    assert (reader.collisions, reader.lane_change_starts) == (trace.collisions, trace.lane_change_starts)
    t_lc = trace.lane_change_starts[len(trace.lane_change_starts) // 2][0]
    for (a, b), names in [((0, trace.n_ts), ARRAYS + EVENTS), ((t_lc, t_lc + 1), ARRAYS + EVENTS),
                          ((t_lc - 5, trace.n_ts), ("x", "lane", "lane_change_starts")), ((3, 10), ())]:
        got, want = reader.rows(a, b, names), trace.rows(a, b, names)
        assert (got.dt, got.road) == (trace.dt, trace.road)
        for name in ARRAYS:
            if name in names:
                assert getattr(got, name).dtype == getattr(want, name).dtype
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes() == getattr(trace, name)[a:b].tobytes()
            else:
                assert getattr(got, name) is None and getattr(want, name) is None
        for name in EVENTS:
            if name in names:
                events = [(t - a, *rest) for t, *rest in getattr(trace, name) if a <= t < b]
                assert getattr(got, name) == getattr(want, name) == events
            else:
                assert getattr(got, name) is None and getattr(want, name) is None
    assert reader.rows(t_lc, t_lc + 1).lane_change_starts[0][0] == 0


def test_reader_at_equals_trace_at(tmp_path):
    # any list of steps (repeated, out of order, at the ends or none) read
    # from the files gives the trace's rows of those steps in that order,
    # as the trace in memory does: bit for bit and dtype included; no
    # events, and the arrays not named are None
    trace = next(run_simulations(RoadConfig(n_l=2, n_vpl=5), [SimParams(dt=0.05, duration=10.0, seed=17)]))
    path = tmp_path / "trace_0.raw"
    save_trace(trace, path)
    reader = TraceReader(path)
    last = trace.n_ts - 1
    for steps, names in [([0, last, 5, 5, 2], ARRAYS), ([last], ("x", "v", "lane")), ([], ARRAYS), ([3, 1], ())]:
        got, want = reader.at(steps, names), trace.at(steps, names)
        assert (got.dt, got.road) == (trace.dt, trace.road)
        assert got.collisions is got.lane_change_starts is want.collisions is want.lane_change_starts is None
        for name in ARRAYS:
            if name in names:
                whole = getattr(trace, name)
                for rows in (getattr(got, name), getattr(want, name)):
                    assert rows.dtype == whole.dtype and rows.shape == (len(steps), trace.n_vehicles)
                    assert [row.tobytes() for row in rows] == [whole[t].tobytes() for t in steps]
            else:
                assert getattr(got, name) is None and getattr(want, name) is None


def test_reader_reads_of_a_file_cut_after_the_check(tmp_path):
    # a raw file cut short after the reader checked it fails each read that
    # reaches past its end, naming the file; reads before the cut still work
    trace = next(run_simulations(RoadConfig(n_l=2, n_vpl=5), [SimParams(dt=0.1, duration=2.0, seed=3)]))
    path = tmp_path / "trace_0.raw"
    save_trace(trace, path)
    reader = TraceReader(path)
    path.write_bytes(path.read_bytes()[:-1])  # the last vehicle's lane at the last step
    last = trace.n_ts - 1
    assert reader.at([0, last], ("x", "psi")).psi.tobytes() == trace.psi[[0, last]].tobytes()
    for read in (lambda: reader.rows(0, trace.n_ts), lambda: reader.at([0, last])):
        with pytest.raises(ParseError, match=f"ends before step {trace.n_ts} of lane") as err:
            read()
        assert str(err.value).startswith(f"{path}: ")


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


def saved_and_streamed(road, runs, workdir):
    """The files that save_trace writes for each run's in-memory trace, and
    those its TraceWriter sink writes as the engine flushes, by name."""
    saved, streamed = workdir / "saved", workdir / "streamed"
    saved.mkdir(parents=True)
    streamed.mkdir()
    for k, trace in enumerate(run_simulations(road, runs)):
        save_trace(trace, trace_path(saved, k))

    def writer(k, dt, n_ts, n_vehicles):
        return TraceWriter(trace_path(streamed, k), dt, road, n_ts, n_vehicles)

    assert list(run_simulations(road, runs, writer)) == [None] * len(runs)
    return ({p.name: p.read_bytes() for p in sorted(saved.iterdir())},
            {p.name: p.read_bytes() for p in sorted(streamed.iterdir())})


@pytest.mark.parametrize("flush_steps", [engine.FLUSH_STEPS, 7])
@pytest.mark.parametrize("case", ["steps not a multiple", "delay beyond a flush", "runs of different durations"])
def test_streamed_trace_equals_saved_trace(tmp_path, monkeypatch, case, flush_steps):
    # every flushed block lands at its offsets: the streamed files equal
    # save_trace's byte for byte, with the default flush and with one that
    # wraps a small ring many times, and both equal the files of a ring
    # that never wraps, which holds each trace whole as one block
    road = RoadConfig(n_l=3, n_vpl=4)
    runs = {
        "steps not a multiple": [SimParams(dt=0.05, duration=40.0, seed=17)],
        "delay beyond a flush": [SimParams(dt=0.002, duration=3.0, seed=5)],
        "runs of different durations": [SimParams(duration=d, seed=s) for s, d in ((3, 20.0), (4, 33.35), (5, 12.0))],
    }[case]
    n_ts = [engine._steps(p) for p in runs]
    if case == "steps not a multiple":
        assert n_ts[0] % flush_steps
    if case == "delay beyond a flush":
        _, profiles = init_scene(road, runs[0].seed)
        assert max(round(p.reaction_time / runs[0].dt) for p in profiles) > flush_steps
    if case == "runs of different durations":
        assert len(set(n_ts)) == len(n_ts)
    monkeypatch.setattr(engine, "FLUSH_STEPS", max(n_ts))
    whole, _ = saved_and_streamed(road, runs, tmp_path / "whole")
    assert len(whole) == 2 * len(runs)
    monkeypatch.setattr(engine, "FLUSH_STEPS", flush_steps)
    saved, streamed = saved_and_streamed(road, runs, tmp_path / "ring")
    assert saved == whole
    assert streamed == whole


def test_simulate_stage_streams_the_saved_traces(tmp_path):
    # the CLI stage's files equal save_trace's of the same runs in memory
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"sim": {"duration": 30.0, "runs": 2}}))
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(cfg), "--seed", "11", "--out", str(out), "simulate"]) == 0
    config = cli.load_config(str(cfg))
    runs = [cli._sim_params(config["sim"], cli.stage_seed(11, "sim", k)) for k in range(2)]
    saved, _ = saved_and_streamed(RoadConfig(**config["road"]), runs, tmp_path / "library")
    assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == saved
