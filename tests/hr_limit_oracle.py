"""The two-inverse form of the Hüsler–Reiss limiting clique update, kept
as the oracle of the conditional-Gaussian solve in
``tailgraph.husler_reiss.a2_limit_params``.

It inverts the anchored covariance Σ^{(s)} to the precision Q^{(s)},
then inverts the block Q_RR of the new vertices R: the noise covariance
is Q_RR⁻¹, the slope is −Q_RR⁻¹ Q_RS with the anchor column closing the
rows, and the noise precision is Q_RR itself.  Nothing in the package
uses it.
"""

import numpy as np

from tailgraph.errors import ConfigError
from tailgraph.husler_reiss import HuslerReissModel, sigma_anchor
from tailgraph.linalg import GaussianLaw, IndexedMatrix, IndexedVector, spd_inverse


def a2_limit_params(model: HuslerReissModel, sep, anchor: int | None = None):
    """(slope, law, noise precision) of the update of ``model`` given
    ``sep``, label-indexed as the package's (slope, law) pair is."""
    sep = tuple(sorted(int(v) for v in sep))
    rest = tuple(v for v in model.clique if v not in sep)
    if not sep or set(sep) - set(model.clique):
        raise ConfigError(f"separator {sep} invalid for clique {model.clique}")
    if not rest:
        raise ConfigError("separator covers the whole clique")
    s = anchor if anchor is not None else sep[0]
    if s not in sep:
        raise ConfigError(f"anchor {s} must lie in the separator {sep}")

    others = tuple(v for v in model.clique if v != s)  # C \ s
    sig = sigma_anchor(model.variogram, s)  # on others
    q_full = spd_inverse(sig)  # Q^{(s)} on others
    q_rr = q_full.sub(rest, rest)

    # column block: separator columns as-is, anchor column closes the rows
    cols = []
    for v in sep:
        if v == s:
            cols.append(-q_full.sub(rest, others).values.sum(axis=1))
        else:
            cols.append(q_full.sub(rest, (v,)).values[:, 0])
    qtilde = np.column_stack(cols)

    q_rr_inv = spd_inverse(q_rr)
    slope = -q_rr_inv.values @ qtilde
    slope += ((1.0 - slope.sum(axis=1)) / len(sep))[:, None]  # exact row sums

    half_gamma = np.array([model.variogram.entry(u, s) for u in others]) / 2.0
    mean = -q_rr_inv.values @ (q_full.sub(rest, others).values @ half_gamma)

    law = GaussianLaw(
        IndexedVector(rest, mean),
        IndexedMatrix.square(rest, q_rr_inv.values),
    )
    return IndexedMatrix(rest, sep, slope), law, q_rr
