"""Virtual-noise estimation for unsupervised forest splits.

Instead of generating a synthetic noise class, each node assumes a noise
mass equal to its real datapoint count and distributes it across a
candidate split analytically: the split threshold is standardized to the
node's feature interval (which maps to [-3, 3]) and a randomly chosen CDF
gives the fraction of noise falling left of the threshold.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ..libm import exp

__all__ = [
    "NOISE_KINDS",
    "gini",
    "gini_gain",
    "standardize",
    "noise_cdf",
    "noise_cdfs",
    "estimate_noise_children",
]

NOISE_KINDS = ("uniform", "normal", "bimodal")

# Logistic approximation of the standard normal CDF (Waissi-Rossin form).
_BETA1 = -0.0004406
_BETA2 = 0.04181198
_BETA3 = 0.9
_SQRT_PI = math.sqrt(math.pi)


def gini(count_real: float, count_noise: float) -> float:
    """Two-class Gini impurity from a real count and a (fractional) noise count."""
    if count_real < 0 or count_noise < 0:
        raise ValueError("counts must be nonnegative")
    total = count_real + count_noise
    if total <= 0:
        raise ValueError("empty node: both counts zero")
    p = count_real / total
    return 2.0 * p * (1.0 - p)


def gini_gain(parent: tuple, left: tuple, right: tuple) -> float:
    """Impurity decrease of a split; counts are (real, noise) per node.

    Requires class-wise conservation: child real counts must sum exactly to
    the parent's, noise counts within 1e-9. The split search orders its
    operations differently, so this scalar form serves as the tests' oracle.
    """
    if left[0] + right[0] != parent[0]:
        raise ValueError(f"real counts not conserved: {left[0]} + {right[0]} != {parent[0]}")
    if abs(left[1] + right[1] - parent[1]) > 1e-9:
        raise ValueError(f"noise counts not conserved: {left[1]} + {right[1]} != {parent[1]}")
    m_parent = parent[0] + parent[1]
    m_left = left[0] + left[1]
    m_right = right[0] + right[1]
    return (
        gini(*parent)
        - (m_left / m_parent) * gini(*left)
        - (m_right / m_parent) * gini(*right)
    )


def standardize(tau, node_min, node_max):
    """Map a threshold to z-units of the node interval: mean at the interval
    midpoint, sigma at one sixth of the width, so the interval covers +-3 sigma.
    Takes scalars, or arrays with one candidate threshold per element."""
    if not np.greater(node_max, node_min).all():
        raise ValueError(f"degenerate feature interval [{node_min}, {node_max}]")
    mu = (node_max + node_min) / 2.0
    sigma = (node_max - node_min) / 6.0
    return (tau - mu) / sigma


def _normal_cdf(z):
    """The logistic approximation at z, valid well beyond [-3, 3]; the
    bimodal form evaluates it at z -+ 3. The powers are the C library's
    pow (``np.float_power``, which numpy does not dispatch by CPU feature,
    unlike ``**`` on an array) and the exp is libm.exp, so a float and an
    array entry take the same functions and agree bit for bit, and no bit
    depends on numpy's CPU dispatch. (Products in place of the powers are
    faster but round differently, and change some forests.)"""
    poly = _BETA1 * np.float_power(z, 5.0) + _BETA2 * np.float_power(z, 3.0) + _BETA3 * z
    return 1.0 / (1.0 + exp(-_SQRT_PI * poly))


# The plain sum of two shifted normal CDFs spans [P(-3), P(3)] ~ [0.5, 1.5]
# on [-3, 3]; _renormalize maps it onto [0, 1], so the result is a valid CDF.
_BIMODAL_LO = _normal_cdf(-6.0) + _normal_cdf(0.0)
_BIMODAL_SPAN = _normal_cdf(0.0) + _normal_cdf(6.0) - _BIMODAL_LO


def _renormalize(raw):
    return (raw - _BIMODAL_LO) / _BIMODAL_SPAN


def _bimodal_cdf(z):
    return _renormalize(_normal_cdf(z - 3.0) + _normal_cdf(z + 3.0))


_CDFS = {"uniform": lambda z: z / 6.0 + 0.5, "normal": _normal_cdf, "bimodal": _bimodal_cdf}


def noise_cdfs(z: np.ndarray, normal: int, bimodal: int) -> np.ndarray:
    """noise_cdf of each element of a z array already in [-3, 3], whose
    elements run by kind: uniform up to index ``normal``, normal up to
    index ``bimodal``, bimodal from there on. The normal CDF of every normal
    and bimodal element is one evaluation, and each element is as
    noise_cdf computes it."""
    n_normal, zb = bimodal - normal, z[bimodal:]
    shifted = _normal_cdf(np.concatenate([z[normal:bimodal], zb - 3.0, zb + 3.0]))
    bimodal_cdf = _renormalize(shifted[n_normal : n_normal + len(zb)] + shifted[n_normal + len(zb) :])
    out = np.concatenate([_CDFS["uniform"](z[:normal]), shifted[:n_normal], bimodal_cdf])
    # np.clip's values (no element is -0.0), without the checks it makes in Python
    return np.minimum(np.maximum(out, 0.0), 1.0)


def noise_cdf(kind: str, z):
    """Noise CDF value(s) at standardized threshold z, clamped to [-3, 3].

    Accepts a scalar or ndarray; nondecreasing in z with range [0, 1] for
    all three kinds.
    """
    if kind not in _CDFS:
        raise ValueError(f"unknown noise kind {kind!r}")
    z = np.asarray(z, dtype=np.float64)
    if (z < -3.0).any() or (z > 3.0).any():
        warnings.warn("standardized threshold outside [-3, 3]; clamping", stacklevel=2)
        z = np.clip(z, -3.0, 3.0)
    out = np.clip(_CDFS[kind](z), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def estimate_noise_children(m_real_node, p) -> tuple:
    """Split the node's noise mass (equal to its real count) across children.

    Takes scalars, or arrays with one node size and fraction per candidate.
    The right count is the exact complement so left + right == m_real_node
    holds bit-exactly.
    """
    if np.any(np.less(m_real_node, 1)):
        raise ValueError("node must hold at least one real datapoint")
    p = np.asarray(p, dtype=np.float64)
    if (p < 0.0).any() or (p > 1.0).any():
        raise ValueError("split fraction outside [0, 1]")
    left = m_real_node * p
    right = m_real_node - left
    if left.ndim == 0:
        return float(left), float(right)
    return left, right
