"""Multivariate normal CDF with a fixed seeding contract.

Dimensions 1 and 2 are evaluated deterministically (scalar ``ndtr`` and
Genz's classical Gauss-Legendre bivariate algorithm, accurate to about
1e-14).  Dimensions 3 through 8 use separation of
variables on a square-root-of-primes lattice with eight independently
shifted batches; the value is the batch mean and the reported error is
the standard error across batches.  Requests above dimension 8 raise
:class:`DimensionTooLarge`.

Infinite upper limits are legal: ``+inf`` coordinates are marginalized
out exactly, any ``-inf`` gives probability zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _scipy
from .errors import ConfigError, DimensionTooLarge, NotSPD, NumericalBreakdown
from .linalg import GaussianLaw, cholesky_spd
from .rng import OFFSET_QUAD, check_seed, derived_rng

MAX_DIM = 8
#: Independently shifted lattices per QMC estimate; their spread is the error.
_N_BATCHES = 8

# Gauss-Legendre abscissae/weights used by the bivariate algorithm.
_GL = {
    6: (
        [0.1713244923791705, 0.3607615730481384, 0.4679139345726904],
        [0.9324695142031522, 0.6612093864662647, 0.2386191860831969],
    ),
    12: (
        [
            0.04717533638651177, 0.1069393259953183, 0.1600783285433464,
            0.2031674267230659, 0.2334925365383547, 0.2491470458134029,
        ],
        [
            0.9815606342467191, 0.9041172563704750, 0.7699026741943050,
            0.5873179542866171, 0.3678314989981802, 0.1252334085114692,
        ],
    ),
    20: (
        [
            0.01761400713915212, 0.04060142980038694, 0.06267204833410906,
            0.08327674157670475, 0.1019301198172404, 0.1181945319615184,
            0.1316886384491766, 0.1420961093183821, 0.1491729864726037,
            0.1527533871307259,
        ],
        [
            0.9931285991850949, 0.9639719272779138, 0.9122344282513259,
            0.8391169718222188, 0.7463319064601508, 0.6360536807265150,
            0.5108670019508271, 0.3737060887154196, 0.2277858511416451,
            0.07652652113349733,
        ],
    ),
}

_PRIMES = (2, 3, 5, 7, 11, 13, 17)


class CdfEstimate(NamedTuple):
    value: float
    error: float


def _bvn_upper(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal with correlation r.

    Genz's rewrite of the Drezner-Wesolowsky algorithm; absolute accuracy
    about 5e-16 away from the |r| -> 1 boundary.
    """
    twopi = 2.0 * math.pi
    h, k = dh, dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.3:
        w, x = _GL[6]
    elif abs(r) < 0.75:
        w, x = _GL[12]
    else:
        w, x = _GL[20]
    if abs(r) < 0.925:
        if abs(r) > 0:
            hs = (h * h + k * k) / 2.0
            asr = math.asin(r)
            for wi, xi in zip(w, x):
                for sign in (-1.0, 1.0):
                    sn = math.sin(asr * (sign * xi + 1.0) / 2.0)
                    bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
            bvn = bvn * asr / (2.0 * twopi)
        bvn += _scipy.ndtr(-h) * _scipy.ndtr(-k)
    else:
        if r < 0.0:
            k = -k
            hk = -hk
        if abs(r) < 1.0:
            a_sq = (1.0 - r) * (1.0 + r)
            a = math.sqrt(a_sq)
            bs = (h - k) ** 2
            c = (4.0 - hk) / 8.0
            d = (12.0 - hk) / 16.0
            asr = -(bs / a_sq + hk) / 2.0
            if asr > -100.0:
                bvn = (
                    a
                    * math.exp(asr)
                    * (1.0 - c * (bs - a_sq) * (1.0 - d * bs / 5.0) / 3.0
                       + c * d * a_sq * a_sq / 5.0)
                )
            if -hk < 100.0:
                b = math.sqrt(bs)
                bvn -= (
                    math.exp(-hk / 2.0)
                    * math.sqrt(twopi)
                    * _scipy.ndtr(-b / a)
                    * b
                    * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
                )
            half_a = a / 2.0
            for wi, xi in zip(w, x):
                for sign in (-1.0, 1.0):
                    xs = (half_a * (sign * xi + 1.0)) ** 2
                    rs = math.sqrt(1.0 - xs)
                    asr = -(bs / xs + hk) / 2.0
                    if asr > -100.0:
                        bvn += (
                            half_a
                            * wi
                            * math.exp(asr)
                            * (
                                math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                                - (1.0 + c * xs * (1.0 + d * xs))
                            )
                        )
            bvn = -bvn / twopi
        if r > 0.0:
            bvn += _scipy.ndtr(-max(h, k))
        else:
            bvn = -bvn
            if k > h:
                bvn += _scipy.ndtr(k) - _scipy.ndtr(h)
    return min(1.0, max(0.0, bvn))


def bvn_cdf(x: float, y: float, r: float) -> float:
    """P(X <= x, Y <= y) for standard bivariate normal with correlation r;
    a NaN limit raises :class:`NumericalBreakdown`."""
    if not -1.0 <= r <= 1.0:
        raise NotSPD(f"correlation {r} outside [-1, 1]")
    if math.isnan(x) or math.isnan(y):
        raise NumericalBreakdown("NaN upper limit")
    if math.isinf(x) or math.isinf(y):
        if x == -math.inf or y == -math.inf:
            return 0.0
        if x == math.inf and y == math.inf:
            return 1.0
        return float(_scipy.ndtr(min(x, y)))
    return _bvn_upper(-x, -y, r)


def _lattice_batches(dim: int, n_points: int, seed: int):
    """Shifted square-root-of-primes lattices, one (n_points, dim) block per batch."""
    q = np.sqrt(np.array(_PRIMES[:dim], dtype=float))
    k = np.arange(1, n_points + 1, dtype=float)[:, None]
    base = k * q[None, :]
    for m in range(_N_BATCHES):
        shift = derived_rng(seed, OFFSET_QUAD + m).random(dim)
        yield np.modf(base + shift[None, :])[0]


def _sorted_by_limit(b: np.ndarray, corr: np.ndarray):
    order = np.argsort(b, kind="stable")
    return b[order], corr[np.ix_(order, order)]


def _genz_batch_mean(b: np.ndarray, low: np.ndarray, w: np.ndarray) -> float:
    """Mean of the separation-of-variables integrand over one point block."""
    npts, d_minus_1 = w.shape
    e = _scipy.ndtr(b[0] / low[0, 0])
    f = np.full(npts, e)
    y = np.empty((npts, d_minus_1))
    e_run = np.full(npts, e)
    for i in range(1, d_minus_1 + 1):
        p = np.clip(e_run * w[:, i - 1], 1e-300, 1.0 - 1e-16)
        y[:, i - 1] = _scipy.ndtri(p)
        num = b[i] - y[:, :i] @ low[i, :i]
        e_run = _scipy.ndtr(num / low[i, i])
        f *= e_run
    return float(np.mean(f))


def mvn_cdf(
    upper,
    law: GaussianLaw,
    accuracy: float = 1e-6,
    seed: int = 0,
) -> CdfEstimate:
    """P(X <= upper) for X ~ law, with an error estimate.

    Parameters
    ----------
    upper : array-like
        Upper limits aligned by position with ``law.index``; ``+inf``
        entries marginalize the corresponding coordinates.  A wrong shape
        raises :class:`ConfigError`, a NaN :class:`NumericalBreakdown`.
    accuracy : float
        Target standard error for the lattice path; ignored by the
        deterministic low-dimensional paths.
    seed : int
        Master seed for the batch shifts, one of
        :func:`tailgraph.rng.check_seed`; fixed seed means bit-identical
        output.
    """
    check_seed(seed, "seed")
    vec = np.asarray(upper, dtype=float)
    if vec.shape != (law.dim,):
        raise ConfigError(f"upper limits shape {vec.shape} != dim {law.dim}")
    b = vec - law.mean.values
    if np.any(np.isnan(b)):
        raise NumericalBreakdown("NaN upper limit")
    if np.any(b == -np.inf):
        return CdfEstimate(0.0, 0.0)
    keep = ~np.isinf(b)
    b = b[keep]
    dim = int(keep.sum())
    if dim == 0:
        return CdfEstimate(1.0, 0.0)
    if dim > MAX_DIM:
        raise DimensionTooLarge(f"dimension {dim} exceeds the cap {MAX_DIM}")
    cov = law.cov.values[np.ix_(keep, keep)]
    sd = np.sqrt(np.diag(cov))
    b = b / sd
    corr = cov / np.outer(sd, sd)
    if dim == 1:
        return CdfEstimate(float(_scipy.ndtr(b[0])), 1e-16)
    if dim == 2:
        r = float(corr[0, 1])
        return CdfEstimate(bvn_cdf(b[0], b[1], r), 5e-15)

    b, corr = _sorted_by_limit(b, corr)
    low = cholesky_spd(corr, what="mvn correlation")
    n_points = 1 << 12
    while True:
        means = [
            _genz_batch_mean(b, low, w)
            for w in _lattice_batches(dim - 1, n_points, seed)
        ]
        value = float(np.mean(means))
        error = float(np.std(means, ddof=1) / math.sqrt(len(means)))
        if error <= accuracy or n_points >= (1 << 17):
            return CdfEstimate(min(1.0, max(0.0, value)), error)
        n_points *= 2
