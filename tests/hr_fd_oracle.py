"""Finite-difference oracle for Hüsler–Reiss exponent-measure derivatives.

Central differences in log-coordinates (steps are then scale-free) with a
two-level Richardson extrapolation, applied to the exponent measure
itself.  The closed-form derivative layer of ``tailgraph.husler_reiss``
is checked against it; nothing in the package uses it.
"""

import itertools
import math

import numpy as np

from tailgraph.husler_reiss import VariogramMatrix, exponent_measure_many

FD_STEP = 1e-3


def _log_partial_many(vario: VariogramMatrix, y: np.ndarray, wrt: list[int],
                      step: float, accuracy: float) -> np.ndarray:
    """Mixed partial of Λ over distinct coordinate positions ``wrt``.

    Central differences in log-coordinates with Richardson extrapolation;
    returns ∂^k Λ / ∂y_{wrt} (k = len(wrt)), shape (n,).
    """
    y = np.asarray(y, dtype=float)
    k = len(wrt)

    def log_stencil(h: float) -> np.ndarray:
        total = np.zeros(y.shape[0])
        for signs in itertools.product((-1.0, 1.0), repeat=k):
            yy = y.copy()
            for s, pos in zip(signs, wrt):
                yy[:, pos] = yy[:, pos] * math.exp(s * h)
            total += math.prod(signs) * exponent_measure_many(
                vario, yy, accuracy=accuracy
            )
        return total / (2.0 * h) ** k

    coarse = log_stencil(step)
    fine = log_stencil(step / 2.0)
    d_log = (4.0 * fine - coarse) / 3.0
    scale = np.prod(y[:, wrt], axis=1)
    return d_log / scale


def fd_derivative(vario: VariogramMatrix, y, wrt, step: float = FD_STEP,
                  accuracy: float = 1e-8) -> np.ndarray:
    """-∂_P Λ(y) by the stencil above, shape (n,)."""
    y = np.atleast_2d(np.asarray(y, dtype=float))
    return -_log_partial_many(vario, y, list(wrt), step, accuracy)
