"""The C library's exp, over a float or an array, in the same bits either way.

numpy's real ``np.exp`` runs a kernel that numpy picks by CPU feature at
run time, and it differs from the C library's ``exp`` (the one ``math.exp``
calls) in the last bit on some inputs. numpy's complex exp is the C
library's ``cexp``, and at a real argument (imaginary part zero) its real
part is that same ``exp``: one numpy exp per array whose bits match
``math.exp`` element by element, whatever the dispatch. The simulator's
laws and the forest's noise CDF both take their exps here, so that a float
and an array entry agree and no artifact depends on the machine's CPU
features.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exp"]


def exp(x):
    """math.exp(x) of a float, or of each element of an array, bit for bit
    at every argument up to 709. (Above 709 the C library's cexp scales its
    argument and rounds twice; every argument in this package is below 20.)"""
    if isinstance(x, np.ndarray):
        return np.exp(x + 0j).real
    return math.exp(x)
