"""Memory budgets of the stages that hold an M x M matrix, as tracemalloc
sees numpy's buffers: at most 1.5 float64 matrices at M = 1000. The
proximity holds its float64 accumulator, a byte-per-pair leaf-sharing count
and row blocks; ``order`` links in the loaded matrix's own buffer and reads
the matrix again for the leaf order and the heatmap. The opt-in optimal
leaf order adds to scipy's own working set (about 3.1 matrices) only its
condensed d = 1 - P, half a matrix: at most 4 matrices in all."""

import contextlib
import io
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
