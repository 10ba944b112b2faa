"""Memory budgets, as tracemalloc sees numpy's buffers.

The stages that hold an M x M matrix hold at most 1.5 float64 matrices at
M = 1000. The proximity holds its float64 accumulator, a byte-per-pair
leaf-sharing count and row blocks; ``order`` links in the loaded matrix's
own buffer and reads the matrix again for the leaf order and the heatmap.
The opt-in optimal leaf order adds to scipy's own working set (about 3.1
matrices) only its condensed d = 1 - P, half a matrix: at most 4 matrices
in all.

The ``simulate`` stage holds a ring of recent steps and streams each run's
trace to its files, so its peak does not grow with the duration. The
``extract`` stage reads each trace in one sweep, a block of steps at a
time, and keeps of the whole run only the leader gaps and the speeds, 16
bytes per vehicle and step against the raw file's 41."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from scenforest import cli, ordering, xmurf
from scenforest.dataset import Dataset, save_matrix

M = 1000
BUDGET = 1.5 * 8 * M * M  # bytes


def traced_peak(run) -> int:
    """The peak of the memory traced while ``run()`` runs, above what it
    started with."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def fitted():
    """M rows of 47 features from four latent groups, and a B = 3 forest."""
    rng = np.random.default_rng(2004)
    values = rng.normal(0.0, 3.0, size=(4, 47))[rng.integers(0, 4, size=M)] + rng.normal(size=(M, 47))
    data = Dataset([f"f{k}" for k in range(47)], [f"r{i}" for i in range(M)], values)
    return data, xmurf.fit(data, 3, seed=7)


def test_cluster_holds_at_most_one_and_a_half_matrices(fitted, tmp_path):
    data, forest = fitted
    peak = traced_peak(lambda: save_matrix(xmurf.proximity_matrix(forest, data), tmp_path / "proximity.raw"))
    assert peak <= BUDGET, f"{peak / (8 * M * M):.2f} M x M float64 matrices"


def test_order_holds_at_most_one_and_a_half_matrices(fitted, tmp_path):
    data, forest = fitted
    save_matrix(xmurf.proximity_matrix(forest, data), tmp_path / "proximity.raw")

    def order():  # the CLI stage itself
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--out", str(tmp_path), "order"]) == 0

    peak = traced_peak(order)
    assert peak <= BUDGET, f"{peak / (8 * M * M):.2f} M x M float64 matrices"


def test_optimal_leaf_order_holds_at_most_four_matrices(fitted):
    data, forest = fitted
    p = xmurf.proximity_matrix(forest, data)
    dend = ordering.linkage(p)
    import scipy.cluster.hierarchy  # noqa: F401  (its import is not the step's memory)

    peak = traced_peak(lambda: ordering.optimal_leaf_order(dend, p))
    assert peak <= 4 * 8 * M * M, f"{peak / (8 * M * M):.2f} M x M float64 matrices"


def test_simulate_peak_does_not_grow_with_duration(tmp_path):
    # two runs of 400 s peak at most 1.2 times as high as two runs of 100 s,
    # once a 1 s run has made the stage's one-off allocations untraced (dt =
    # 0.1 s halves the traced time; the ring still holds under 300 of the
    # 1000 steps of the shorter runs)
    def simulate(duration):
        cfg = tmp_path / f"sim_{duration:.0f}.json"
        cfg.write_text(json.dumps({"sim": {"dt": 0.1, "duration": duration, "runs": 2}}))
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["--config", str(cfg), "--seed", "4242", "--out", str(tmp_path / f"o_{duration:.0f}"), "simulate"]
            assert cli.main(argv) == 0

    simulate(1.0)
    short, long = (traced_peak(lambda: simulate(duration)) for duration in (100.0, 400.0))
    assert long <= 1.2 * short, f"{long} bytes at 400 s, {short} at 100 s"


def test_extract_peak_is_under_three_quarters_of_the_largest_trace(tmp_path):
    # two 200 s runs, the larger 4.1 MB on disk; a trace held whole would
    # take 48 bytes per vehicle and step, more than its file's 41
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"sim": {"duration": 200.0, "runs": 2}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(cfg), "--seed", "0", "--out", str(tmp_path), "simulate"]) == 0
    largest = max(path.stat().st_size for path in tmp_path.glob("trace_*.raw"))
    assert largest >= 4_000_000

    def extract():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--out", str(tmp_path), "extract"]) == 0

    peak = traced_peak(extract)
    assert peak <= 0.75 * largest, f"{peak / largest:.2f} times the largest trace's {largest} bytes"
