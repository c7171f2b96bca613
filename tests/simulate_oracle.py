"""The bisection inverter of the finite-level Hüsler–Reiss simulator,
kept as the oracle of the closed-form pair inverter in
``tailgraph.simulate``.

It solves kernel(x) = u for the single new coordinate by the bracket
search and bisection the simulator used before the pair kernel had a
closed form.  The kernel is the partition-sum form of
``transition_kernel``, which does not go through the pair closed form.
"""

import numpy as np

from tailgraph import husler_reiss as hr
from tailgraph.errors import NumericalBreakdown
from tailgraph.simulate import INVERT_TOL, _X_FLOOR


def _invert_kernel(model, sep, x_sep: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve kernel(x) = u for the single new coordinate, row-wise."""
    nb = u.shape[0]

    def kern(x):
        return np.minimum(hr._partition_kernel(model, sep, x_sep, x[:, None]), 1.0)

    base = np.max(x_sep, axis=1)
    lo = np.full(nb, _X_FLOOR)
    offset = np.full(nb, 8.0)
    hi = base + offset
    for _ in range(8):
        need = kern(hi) < u
        if not need.any():
            break
        offset[need] *= 2.0
        hi = base + np.minimum(offset, 700.0)
    else:
        raise NumericalBreakdown("could not bracket the conditional quantile")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        high = kern(mid) >= u
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
        if np.max(hi - lo) < INVERT_TOL:
            break
    return 0.5 * (lo + hi)
