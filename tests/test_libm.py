"""The one exp of the package (``scenforest.libm.exp``) and the two passes
that take it on arrays, the Gompertz laws and the noise CDF: an array entry
equals the float result bit for bit, and no bit depends on numpy's CPU
dispatch."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from scenforest import libm
from scenforest.sim.dynamics import gompertz
from scenforest.xmurf.noise import NOISE_KINDS, _BETA1, _BETA2, _BETA3, _SQRT_PI, _normal_cdf, noise_cdf, noise_cdfs

TINY = 5e-324  # the least subnormal
# -inf, both zeros, subnormals and the normal boundary; exp gives 0.0 below about -745
SPECIAL = [-math.inf, 0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -2.2250738585072014e-308,
           float(np.nextafter(2.2250738585072014e-308, 0.0)), -745.2, -746.0, -1e300, 709.0]
exp_argument = st.one_of(st.sampled_from(SPECIAL), st.floats(max_value=709.0, allow_nan=False))


def bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


def elementwise(f, x: np.ndarray) -> np.ndarray:
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40), elements=exp_argument))
def test_exp_of_an_array_is_math_exp_of_each_element(x):
    assert bits(libm.exp(x)) == bits(elementwise(math.exp, x))


def test_exp_of_a_float_is_math_exp():
    for v in SPECIAL + [1.5, -3.25, 11.0]:
        got = libm.exp(v)
        assert type(got) is float and got == math.exp(v)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    arrays(np.float64, (2, n), elements=st.one_of(st.sampled_from([0.0, -0.0, math.inf]), st.floats(0.0, 1e4))),
    arrays(np.float64, n, elements=st.floats(1.5, 4.0)),
    arrays(np.float64, n, elements=st.floats(2.0, 6.0)),
    arrays(np.float64, n, elements=st.floats(0.03, 0.15)),
)))
def test_gompertz_of_a_two_row_array_equals_its_float_form(args):
    # the simulator's one Gompertz pass: gap and speed rows, one column per vehicle
    u, a_m, b, c = args
    got = gompertz(u, a_m, -b, -c)
    want = [[gompertz(u[r, i].item(), a_m[i].item(), -b[i].item(), -c[i].item()) for i in range(u.shape[1])]
            for r in range(2)]
    assert bits(got) == bits(want)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40),
              elements=st.one_of(st.sampled_from([-6.0, -3.0, 0.0, -0.0, 3.0, 6.0, TINY]), st.floats(-6.0, 6.0))))
def test_normal_cdf_of_an_array_equals_its_float_form(z):
    # noise_cdfs evaluates the bimodal form at z -+ 3, so the domain is [-6, 6]
    assert bits(_normal_cdf(z)) == bits(elementwise(_normal_cdf, z))
    assert bits(_normal_cdf(z)) == bits(elementwise(c_library_normal_cdf, z))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), max_size=3).flatmap(lambda first: st.tuples(*(
    st.lists(st.one_of(st.sampled_from([-3.0, 0.0, -0.0, 3.0] + first), st.floats(-3.0, 3.0)), max_size=30)
    for _ in NOISE_KINDS))))
def test_noise_cdfs_of_a_kind_ordered_array_equal_noise_cdf_of_each_element(by_kind):
    # the split search lays its candidates out by kind: uniform, normal, bimodal
    z = np.array([v for values in by_kind for v in values], dtype=np.float64)
    normal, bimodal = len(by_kind[0]), len(by_kind[0]) + len(by_kind[1])
    want = [noise_cdf(kind, v) for kind, values in zip(NOISE_KINDS, by_kind) for v in values]
    assert bits(noise_cdfs(z, normal, bimodal)) == bits(want)


def c_library_normal_cdf(v: float) -> float:
    """The noise CDF as the forests were grown with it: the C library's pow
    and exp, which a Python float's ** and math.exp call."""
    return 1.0 / (1.0 + math.exp(-_SQRT_PI * (_BETA1 * v**5 + _BETA2 * v**3 + _BETA3 * v)))


# fixed seeded inputs of the helper, the Gompertz pass and the noise CDFs;
# prints the hex of each result's bytes
DISPATCH_SCRIPT = """
import numpy as np
from scenforest import libm
from scenforest.sim.dynamics import gompertz
from scenforest.xmurf.noise import noise_cdfs

rng = np.random.default_rng(29)
tiny = np.ldexp(rng.uniform(-1.0, 1.0, 20000), rng.integers(-1080, 9, 20000))  # down to subnormals
x = np.concatenate([rng.uniform(-800.0, 12.0, 20000), tiny, [-np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]])
n = 500
u = np.concatenate([rng.uniform(0.0, 400.0, (2, n)), [[np.inf], [0.0]]], axis=1)
a_m, b, c = rng.uniform(1.5, 4.0, n + 1), rng.uniform(2.0, 6.0, n + 1), rng.uniform(0.03, 0.15, n + 1)
z = rng.uniform(-3.0, 3.0, 20000)
for out in (libm.exp(x), gompertz(u, a_m, -b, -c), noise_cdfs(z, 6000, 13000)):
    print(np.ascontiguousarray(out).tobytes().hex())
"""


def run_dispatch_script(**env) -> str:
    src = str(Path(libm.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", DISPATCH_SCRIPT], env=env, check=True, capture_output=True,
                          text=True).stdout


def test_exp_gompertz_and_noise_cdfs_do_not_depend_on_numpy_cpu_dispatch():
    """The three results with every numpy run-time dispatch target disabled
    equal the default run's, byte for byte; the unit-level counterpart of
    ``test_cli.py::test_pipeline_bytes_do_not_depend_on_numpy_cpu_dispatch``."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    default = run_dispatch_script()
    assert len(default.split()) == 3
    assert run_dispatch_script(NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__)) == default
