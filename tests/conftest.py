"""Shared builders for hand-crafted traces, split-search inputs and small
tie-heavy datasets."""

import numpy as np
import pytest
from hypothesis import strategies as st

from scenforest.dataset import Dataset
from scenforest.sim import RoadConfig, Trace


def build_trace(x, v, lane, dt=0.1, road=None, collisions=None):
    """Trace from per-step arrays x[t][i], v[t][i], lane[t][i]; every
    vehicle sits on its lane center, heading straight, not accelerating."""
    road = road or RoadConfig(n_l=3, n_vpl=8)
    x = np.asarray(x, dtype=float)
    lane = np.asarray(lane, dtype=np.int64)
    return Trace(
        dt=dt,
        road=road,
        x=x,
        y=(lane - 0.5) * road.lane_width,
        v=np.asarray(v, dtype=float),
        a=np.zeros_like(x),
        psi=np.zeros_like(x),
        lane=lane,
        collisions=list(collisions or []),
    )


@pytest.fixture
def trace_builder():
    return build_trace


def adjacent_doubles(start, n):
    """``start`` and the n - 1 doubles right above it."""
    out = [start]
    for _ in range(n - 1):
        out.append(float(np.nextafter(out[-1], np.inf)))
    return out


@st.composite
def value_matrix(draw, max_rows=10):
    """(M, Q) values from a small pool (ties), a run of adjacent doubles
    (midpoints that round up), and an optional constant column."""
    m = draw(st.integers(2, max_rows))
    q = draw(st.integers(1, 5))
    start = draw(st.sampled_from([1.0, float(np.nextafter(1.0, 2.0)), -0.5, 0.1, 5e-324, 1e300]))
    pool = adjacent_doubles(start, 3)
    pool += draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=3))
    x = np.array(draw(st.lists(st.sampled_from(pool), min_size=m * q, max_size=m * q))).reshape(m, q)
    constant = draw(st.integers(0, q))
    if constant < q:
        x[:, constant] = pool[0]
    return x


@st.composite
def split_batch(draw, max_rows=10):
    """(x, nodes) for one batched split search: a value matrix, and one to
    four nodes, each (rows drawn as a bag with repeats, k sorted distinct
    features), with the same k for every node."""
    x = draw(value_matrix(max_rows))
    m, q = x.shape
    k = draw(st.integers(1, q))
    nodes = []
    for _ in range(draw(st.integers(1, 4))):
        rows = np.array(draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2 * m)))
        features = np.array(sorted(draw(st.sets(st.integers(0, q - 1), min_size=k, max_size=k))))
        nodes.append((rows, features))
    return x, nodes


@st.composite
def tie_heavy_dataset(draw, max_rows=10):
    """A Dataset over a value matrix, some of whose rows are copies of others."""
    x = draw(value_matrix(max_rows))
    m, q = x.shape
    for dst, src in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=3)):
        x[dst] = x[src]
    return Dataset([f"f{k}" for k in range(q)], [f"r{i}" for i in range(m)], x)
