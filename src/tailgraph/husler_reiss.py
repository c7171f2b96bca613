"""Hüsler-Reiss clique models on standard exponential margins.

A clique C carries a conditionally negative definite variogram Γ.  The
exponent measure is

    Λ(y) = sum_c (1/y_c) Φ_{|C|-1}( log(y_{C\\c}/y_c) + Γ_{C\\c,c}/2 ; 0, Σ^{(c)} )

with the anchored covariance 2Σ^{(c)}_{ij} = Γ_{ic} + Γ_{jc} - Γ_{ij}.
Conditional transition kernels, their closed-form limits, the clique
record (:class:`HuslerReissClique`) with its finite-level pair draw, and
the mean / precision recursion of the graph-wide conditional limit all
live here.

Every derivative of Λ has a closed form (Engelke, Malinowski, Kabluchko
& Schlather 2015): for a non-empty subset P of C, -∂_P Λ is the
Hüsler-Reiss density of P times a Gaussian CDF of the conditional law of
C \\ P (:func:`exponent_measure_derivative_many`).  The density (P = C),
the transition kernels and their limits are all built from it.  Only
mixed partials over distinct coordinates are ever required.  Terms are
assembled in log space, which keeps them finite at the huge Fréchet
states that exponential levels t ~ 20 induce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _scipy
from .errors import (
    ConfigError,
    EmptySubset,
    IncompatibleSeparators,
    InvalidVariogram,
    NormingIncompatible,
    NumericalBreakdown,
    UnsupportedCliqueShape,
)
from .graphs import (
    SEPARATOR_TOL,
    CliqueOrdering,
    _models_table,
    check_separator_models,
)
from .linalg import (
    GaussianLaw,
    IndexedMatrix,
    IndexedVector,
    _LabelledSquare,
    _labelled_matrix,
    cho_solve,
    cholesky_spd,
    spd_inverse,
)
from .mvn import CdfEstimate, bvn_cdf, mvn_cdf

#: Orthant accuracy of the kernel's partition sums and its limit's numerator.
_KERNEL_ACCURACY = 1e-8
_LIMIT_ACCURACY = 1e-9


@dataclass(frozen=True)
class VariogramMatrix(_LabelledSquare):
    """Symmetric, zero-diagonal, strictly conditionally negative definite."""

    index: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        index, _, vals = _labelled_matrix(self.index, self.index, self.values)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "values", vals)
        if not np.all(np.isfinite(vals)):
            raise InvalidVariogram("variogram has non-finite entries")
        if float(np.max(np.abs(vals - vals.T), initial=0.0)) > SEPARATOR_TOL:
            raise InvalidVariogram("variogram is not symmetric")
        if vals.diagonal().any():
            raise InvalidVariogram("variogram diagonal must be exactly zero")
        # strict conditional negative definiteness <=> any anchored
        # covariance is positive definite; a pair's is [[Γ_12]]
        cnd = "variogram is not strictly conditionally negative definite"
        if len(index) == 2 and not vals[1, 0] > 0.0:
            raise InvalidVariogram(cnd)
        if len(index) > 2:
            try:
                np.linalg.cholesky(_anchored_values(self, 0))
            except np.linalg.LinAlgError as exc:
                raise InvalidVariogram(cnd) from exc

    @property
    def dim(self) -> int:
        return len(self.index)


@dataclass(frozen=True)
class HuslerReissModel:
    """A clique model: vertex labels plus their variogram."""

    clique: tuple[int, ...]
    variogram: VariogramMatrix

    family = "husler_reiss"

    def __post_init__(self):
        clique = tuple(sorted(int(v) for v in self.clique))
        object.__setattr__(self, "clique", clique)
        if self.variogram.index != clique:
            object.__setattr__(self, "variogram", self.variogram.sub(clique))

    def given(self, sep) -> HuslerReissClique:
        """This clique given the separator ``sep``: empty for an
        unconditioned root, {v} for the root of a limit at v."""
        sep = tuple(sorted(sep))
        return HuslerReissClique(self, sep, tuple(v for v in self.clique if v not in sep))

    @property
    def dim(self) -> int:
        return len(self.clique)


def _anchored_values(vario: VariogramMatrix, k: int) -> np.ndarray:
    """Σ^{(c)} for the anchor c at position ``k``, over the other positions
    in order (plain array: this sits on the kernel's per-call path)."""
    keep = [j for j in range(vario.dim) if j != k]
    g = vario.values
    col = g[keep, k]
    sig = 0.5 * (col[:, None] + col[None, :] - g[keep][:, keep])
    return 0.5 * (sig + sig.T)


def sigma_anchor(vario: VariogramMatrix, anchor: int) -> IndexedMatrix:
    """Anchored covariance Σ^{(anchor)} on index \\ {anchor}; positive definite."""
    if anchor not in vario.index:
        raise ConfigError(f"anchor {anchor} not in variogram index {vario.index}")
    rest = tuple(v for v in vario.index if v != anchor)
    if not rest:
        raise EmptySubset(f"anchor {anchor} leaves no coordinates")
    sig = _anchored_values(vario, vario.index.index(anchor))
    cholesky_spd(sig, what=f"anchored covariance at {anchor}")
    return IndexedMatrix.square(rest, sig)


# ---------------------------------------------------------------------------
# exponent measure and its derivatives


def _states(y, d: int) -> np.ndarray:
    """``y`` as an (n, d) array of strictly positive states; one state of
    shape (d,) becomes one row."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.ndim != 2 or y.shape[1] != d:
        raise ConfigError(f"states of shape {y.shape} do not fit clique size {d}")
    if np.any(~(y > 0.0)):
        raise NumericalBreakdown("exponent measure needs strictly positive states")
    return y


def exponent_measure_many(vario: VariogramMatrix, y: np.ndarray,
                          accuracy: float = 1e-8) -> np.ndarray:
    """Λ(y) for a batch of states, shape (n, dim) -> (n,).

    ``+inf`` coordinates are legal and give the lower-dimensional
    measure of the remaining coordinates.
    """
    d = vario.dim
    y = _states(y, d)
    if d == 1:
        return 1.0 / y[:, 0]
    out = np.zeros(y.shape[0])
    for c in range(d):
        yc = y[:, c]
        finite = np.isfinite(yc)
        if not np.any(finite):
            continue
        rows = slice(None) if finite.all() else finite  # a view when all finite
        rest = [j for j in range(d) if j != c]
        z = np.log(y[rows][:, rest] / yc[rows, None]) + 0.5 * vario.values[rest, c]
        out[rows] += _orthant(z, _anchored_values(vario, c), accuracy) / yc[rows]
    return out


def exponent_measure_estimate(model: HuslerReissModel, y,
                              accuracy: float = 1e-8) -> CdfEstimate:
    """Λ(y) together with a conservative numerical error bound.

    One state of shape (dim,) gives floats; a batch of states of shape
    (n, dim) gives arrays of shape (n,), row by row the same values.
    The measure is a sum of one normal-CDF evaluation per finite
    coordinate, each scaled by 1/y_c: dimensions up to three are
    deterministic at rounding level, larger ones inherit the quadrature
    accuracy target.  A state with no finite coordinate has bound 0.
    """
    y = np.asarray(y, dtype=float)
    rows = _states(y, model.dim)
    value = exponent_measure_many(model.variogram, rows, accuracy=accuracy)
    finite = np.isfinite(rows)
    per_term = 5e-15 if model.dim <= 3 else accuracy
    error = finite.sum(axis=1) * per_term / np.where(finite, rows, np.inf).min(axis=1)
    if y.ndim == 1:
        return CdfEstimate(float(value[0]), float(error[0]))
    return CdfEstimate(value, error)


def exponent_measure_derivative_many(vario: VariogramMatrix, y: np.ndarray,
                                     wrt, log: bool = False,
                                     accuracy: float = 1e-8) -> np.ndarray:
    """D_P(y) = -∂_P Λ(y) over the distinct coordinate positions ``wrt``.

    With the anchor k = wrt[0], P' = P \\ k, R = C \\ P, Σ = Σ^{(k)} and
    z_i = log(y_i/y_k) + Γ_ik/2,

        D_P = φ(z_{P'}; Σ_{P'P'}) / (y_k² ∏_{i∈P'} y_i) · Φ(z_R - μ_{R|P}; Σ_{R|P}),

    where μ_{R|P} and Σ_{R|P} are the Gaussian conditional given z_{P'}.
    The density factor is assembled in log space, so it neither overflows
    nor underflows at extreme states; the CDF factor is evaluated directly
    and gives log D_P = -inf only where it underflows.  ``log=True``
    returns log D_P.  Shape (n, dim) -> (n,).

    Every row is computed by elementwise arithmetic alone (the Gaussian
    factor by forward substitution over the rows of the Cholesky factor,
    sums term by term, the CDF row by row), so a row's value is the
    same, bit for bit, in any batch, including a batch of one.
    """
    d = vario.dim
    y = _states(y, d)
    wrt = [int(p) for p in wrt]
    if not wrt or len(set(wrt)) != len(wrt) or not set(wrt) <= set(range(d)):
        raise ConfigError(f"derivative positions {wrt} invalid for clique size {d}")
    ly = np.log(y)
    k = wrt[0]
    out = -2.0 * ly[:, k]
    if len(wrt) > 1:
        out -= sum(ly[:, j] for j in wrt[1:])
    if d > 1:
        others = [j for j in range(d) if j != k]
        at = {j: m for m, j in enumerate(others)}
        p_idx = [at[j] for j in wrt[1:]]
        r_idx = [at[j] for j in others if j not in wrt]
        sig = _anchored_values(vario, k)
        z = ly[:, others] - ly[:, [k]] + 0.5 * vario.values[others, k][None, :]
        z_r = z[:, r_idx]
        cond = sig[np.ix_(r_idx, r_idx)]
        if p_idx:
            chol = np.linalg.cholesky(sig[np.ix_(p_idx, p_idx)])
            w = z[:, p_idx]  # becomes chol⁻¹ z_{P'}, by forward substitution
            for i in range(len(p_idx)):
                for j in range(i):
                    w[:, i] -= chol[i, j] * w[:, j]
                w[:, i] /= chol[i, i]
            out += (-0.5 * sum(w[:, i] * w[:, i] for i in range(len(p_idx)))
                    - np.sum(np.log(np.diag(chol)))
                    - 0.5 * len(p_idx) * math.log(2.0 * math.pi))
            if r_idx:
                gain = np.linalg.solve(chol, sig[np.ix_(p_idx, r_idx)])
                z_r = z_r - sum(w[:, [i]] * gain[i] for i in range(len(p_idx)))
                cond = cond - gain.T @ gain
        with np.errstate(divide="ignore"):
            out += np.log(_orthant(z_r, cond, accuracy))
    if log:
        return out
    with np.errstate(over="ignore"):  # +inf at the tiniest states is right
        return np.exp(out)


def _orthant(b: np.ndarray, cov: np.ndarray, accuracy: float) -> np.ndarray:
    """P(W <= b_row) for W ~ N(0, cov), row-wise; 1 when W is empty.

    Dimensions 1 and 2 are deterministic (``ndtr``, ``bvn_cdf``); larger
    ones use the quasi-Monte Carlo rule of :func:`mvn_cdf`.
    """
    n, m = b.shape
    if m == 0:
        return np.ones(n)
    sd = np.sqrt(np.diag(cov))
    if m == 1:
        return _scipy.ndtr(b[:, 0] / sd[0])
    if m == 2:
        r = cov[0, 1] / (sd[0] * sd[1])
        return np.array([bvn_cdf(b0, b1, r) for b0, b1 in b / sd])
    law = GaussianLaw.from_arrays(tuple(range(m)), np.zeros(m), cov)
    return np.array([mvn_cdf(row, law, accuracy=accuracy).value
                     for row in b])


def exponent_measure_density_many(vario: VariogramMatrix, y: np.ndarray,
                                  log: bool = False) -> np.ndarray:
    """λ(y) = -∂^d Λ / ∂y_1..∂y_d, the HR density, shape (n,); ``log=True``
    returns log λ."""
    return exponent_measure_derivative_many(vario, y, range(vario.dim), log=log)


# ---------------------------------------------------------------------------
# transition kernels


def exp_to_frechet(x):
    """Map standard-exponential states to unit-Fréchet: y = -1/log(1 - e^{-x})."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise NumericalBreakdown("exponential-scale states must be positive")
    with np.errstate(divide="ignore", over="ignore"):  # x > ~709 maps to +inf
        return -1.0 / np.log1p(-np.exp(-x))


def _log_partition_sum(vario: VariogramMatrix, y: np.ndarray, sep_pos: list[int],
                       accuracy: float) -> np.ndarray:
    """log Σ_π ∏_{B∈π} D_B over the set partitions π of the separator.

    |S| = 1 gives D_s, |S| = 2 gives D_{s1 s2} + D_{s1} D_{s2}; every term
    is positive, so the sum cannot cancel.  Larger separators are not
    supported.
    """
    def log_d(wrt):
        return exponent_measure_derivative_many(vario, y, wrt, log=True,
                                                accuracy=accuracy)

    if len(sep_pos) == 1:
        return log_d(sep_pos)
    if len(sep_pos) == 2:
        return np.logaddexp(log_d(sep_pos), log_d(sep_pos[:1]) + log_d(sep_pos[1:]))
    raise UnsupportedCliqueShape(
        f"separators of size {len(sep_pos)} are not supported (max 2)"
    )


#: √(2π), the normalizer of the standard normal density.
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def pair_kernel(a: float, y1: np.ndarray, x: np.ndarray, slope: bool = False):
    """K(x) = P(X_2 <= x | X_1 = x_1) of an HR pair with a = √Γ, given
    the Fréchet state ``y1`` of x_1; with ``slope`` also ∂K/∂x.

    With y the Fréchet state of x, w = log(y/y1), p = Φ(a/2 + w/a),
    q = Φ(a/2 − w/a) and E = exp(1/y1 − p/y1 − q/y):

        K = p E,    ∂K/∂x = E (y1 φ(a/2 − w/a)/a + p q) / expm1(x).

    E takes 1 − p as Φ(−a/2 − w/a), so nothing cancels where p is near
    1: the computed K then stays monotone at the simulator's inversion
    tolerance.  The slope uses y φ(a/2 + w/a) = y1 φ(a/2 − w/a), so it
    stays finite where y overflows.  A non-finite value (both states
    beyond double range) raises :class:`NumericalBreakdown`.
    """
    y = exp_to_frechet(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # in place where it reads plainly: these row-length temporaries
        # set the peak memory of a verify
        w = np.divide(y, y1)
        np.log(w, out=w)
        w /= a
        q = np.subtract(0.5 * a, w)
        _scipy.ndtr(q, out=q)
        np.divide(q, y, out=y)  # y is q/y from here on
        e = np.subtract(-0.5 * a, w)
        _scipy.ndtr(e, out=e)
        e /= y1
        e -= y
        np.exp(e, out=e)
        p = _scipy.ndtr(np.add(0.5 * a, w, out=y), out=y)
        if slope:
            # w becomes y1 φ(a/2 − w/a) / a
            w -= 0.5 * a
            np.square(w, out=w)
            w *= -0.5
            np.exp(w, out=w)
            w *= y1
            w /= _SQRT_2PI * a
            q *= p
            w += q
            w *= e
            dk = np.divide(w, np.expm1(x, out=q), out=w)
        k = np.multiply(p, e, out=p)
    if not np.all(np.isfinite(k)) or (slope and not np.all(np.isfinite(dk))):
        raise NumericalBreakdown(
            "Hüsler-Reiss pair kernel is not finite; the state is beyond the "
            "double-precision range of the closed form"
        )
    return (k, dk) if slope else k


def _partition_kernel(model: HuslerReissModel, sep: tuple, x_sep: np.ndarray,
                      x_rest: np.ndarray) -> np.ndarray:
    """The partition-sum kernel of :func:`transition_kernel`, unclamped,
    on rows of ``x_sep`` / ``x_rest`` (sorted ``sep``, equal row counts)."""
    rest = tuple(v for v in model.clique if v not in sep)
    pos = {v: k for k, v in enumerate(model.clique)}
    y = np.empty((x_sep.shape[0], model.dim))
    for j, v in enumerate(sep):
        y[:, pos[v]] = exp_to_frechet(x_sep[:, j])
    for j, v in enumerate(rest):
        y[:, pos[v]] = exp_to_frechet(x_rest[:, j])
    y_sep = y[:, [pos[v] for v in sep]]

    sep_vario = model.variogram.sub(sep)
    num = _log_partition_sum(model.variogram, y, [pos[v] for v in sep], _KERNEL_ACCURACY)
    den = _log_partition_sum(sep_vario, y_sep, list(range(len(sep))), _KERNEL_ACCURACY)
    lam_full = exponent_measure_many(model.variogram, y, _KERNEL_ACCURACY)
    lam_sep = exponent_measure_many(sep_vario, y_sep, _KERNEL_ACCURACY)
    with np.errstate(invalid="ignore"):
        return np.exp(num - den + lam_sep - lam_full)


def transition_kernel(model: HuslerReissModel, sep, x_sep, x_rest) -> np.ndarray:
    """Conditional law P(X_{C\\S} <= x_rest | X_S = x_sep) on exponential scale.

    With y the Fréchet states, the kernel is

        Σ_π ∏_{B∈π} D_B(y) / Σ_π ∏_{B∈π} D_B^{(S)}(y_S) · exp(Λ_S(y_S) - Λ(y)),

    π running over the set partitions of S and D^{(S)} taken on the
    separator's own measure; for a pair it is
    Φ(a/2 + log(y2/y1)/a) · exp(1/y1 - Λ(y1, y2)) with a = √Γ, evaluated
    in closed form by :func:`pair_kernel`.
    Vectorized over rows of ``x_sep`` / ``x_rest``; scalars are
    broadcast.  Rounding excursions above 1 are clamped; a non-finite
    value or a larger excursion raises :class:`NumericalBreakdown`.
    """
    sep = tuple(sorted(int(v) for v in sep))
    if not sep:
        raise EmptySubset("empty separator")
    rest = tuple(v for v in model.clique if v not in sep)
    if not rest:
        raise ConfigError("separator covers the whole clique")
    if set(sep) - set(model.clique):
        raise ConfigError(f"separator {sep} not inside clique {model.clique}")

    x_sep = np.atleast_2d(np.asarray(x_sep, dtype=float))
    x_rest = np.atleast_2d(np.asarray(x_rest, dtype=float))
    if x_sep.shape[0] == 1 and x_rest.shape[0] > 1:
        x_sep = np.repeat(x_sep, x_rest.shape[0], axis=0)
    if x_rest.shape[0] == 1 and x_sep.shape[0] > 1:
        x_rest = np.repeat(x_rest, x_sep.shape[0], axis=0)
    if x_sep.shape[1] != len(sep) or x_rest.shape[1] != len(rest):
        raise ConfigError("state widths do not match separator/rest sizes")

    if model.dim == 2:
        vals = pair_kernel(math.sqrt(model.variogram.values[0, 1]),
                           exp_to_frechet(x_sep[:, 0]), x_rest[:, 0])
    else:
        vals = _partition_kernel(model, sep, x_sep, x_rest)
    return _clamped_kernel(vals)


def _clamped_kernel(vals: np.ndarray) -> np.ndarray:
    """Kernel values with rounding excursions above 1 clamped; a NaN or
    a larger excursion raises :class:`NumericalBreakdown`."""
    if not np.all(vals <= 1.0 + 1e-9):
        worst = float(np.max(np.where(np.isnan(vals), np.inf, vals)))
        raise NumericalBreakdown(
            f"transition kernel reached {worst:.3e}, outside [0,1]; the state "
            "is beyond the double-precision range of the closed form"
        )
    return np.minimum(vals, 1.0)


# ---------------------------------------------------------------------------
# finite-level pair draws: the pair kernel inverted at one uniform

#: Absolute tolerance of the HR pair inverter, on the exponential scale:
#: every root it returns is the midpoint of a bracket narrower than this.
INVERT_TOL = 1e-10
#: Lowest state the HR pair inverter returns.
_X_FLOOR = 1e-12
#: Inverter iterations that may take a Newton step; later ones bisect,
#: which bounds the iteration count where rounding stalls Newton.
_NEWTON_STEPS = 16
_MAX_STEPS = _NEWTON_STEPS + 64


def _bracket_top(model, s: int, x1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Upper end of the inverter's bracket: x1 + 8, with the offset
    doubled, up to 700, while K(hi) < u."""
    hi = x1 + 8.0
    offset = np.full(u.shape[0], 8.0)
    rows = np.arange(u.shape[0])
    for _ in range(8):
        k = transition_kernel(model, (s,), x1[rows, None], hi[rows, None])
        rows = rows[k < u[rows]]
        if rows.size == 0:
            return hi
        offset[rows] *= 2.0
        hi[rows] = x1[rows] + np.minimum(offset[rows], 700.0)
    raise NumericalBreakdown("could not bracket the conditional quantile")


def _invert_pair(model, s: int, x1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve K(x) = u row-wise for the new coordinate of the HR pair
    ``model`` given its vertex ``s`` at the states ``x1``.

    The bracket is [_X_FLOOR, min(top, lowest evaluated x with K >= u)],
    the top that of :func:`_bracket_top`; a root below the floor comes
    back within INVERT_TOL of it.  With a = √Γ, Newton steps on the
    probit scale, x ← x − (Φ⁻¹(K) − Φ⁻¹(u)) φ(Φ⁻¹(K)) / ∂K, start from
    the limit quantile x1 − Γ/2 + a Φ⁻¹(u); every evaluation moves one
    end of the bracket, and a step that is not finite or leaves the
    bracket goes to its midpoint, as does every step after
    ``_NEWTON_STEPS`` iterations.  A step below INVERT_TOL/4 is
    certified by one evaluation INVERT_TOL/2 away on the side not yet
    bracketed.  A row ends at the midpoint of a bracket narrower than
    INVERT_TOL.

    The top is never below x1 + 8, so a row whose upper end no
    evaluation has certified computes it only when it needs a midpoint
    or when its x reaches x1 + 8 − INVERT_TOL (lo moves only to an
    evaluated x, which is below that, or to a probe, after which the row
    bisects): while x and lo stay below that, every test against the top
    comes out the same without it (hi is inf until then).  Most rows
    never compute it, and every row returns the bits it would with the
    top computed first.  The steps and the certification probes call
    :func:`pair_kernel` on the cached Fréchet states of x1, the
    probes clamped and checked as :func:`transition_kernel` does;
    the top calls :func:`transition_kernel`, which evaluates the same
    closed form.
    """
    tol = INVERT_TOL
    gamma = float(model.variogram.values[0, 1])
    a = np.sqrt(gamma)
    y1 = exp_to_frechet(x1)
    edge = x1 + 8.0 - tol
    lo = np.full(u.shape[0], _X_FLOOR)
    hi = np.full(u.shape[0], np.inf)
    out = np.empty(u.shape[0])
    rows = np.arange(u.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        zu = _scipy.ndtri(u)
        x = a * zu
    x += x1 - 0.5 * gamma
    newton = x > lo
    for it in range(_MAX_STEPS + 1):
        # hi is inf until the row has its top or a state at or above its
        # root; the top is computed only where a test could tell it from inf
        need = np.isinf(hi) & ~(newton & (x < edge))
        if need.any():
            hi[need] = _bracket_top(model, s, x1[rows[need]], u[need])
        mid = 0.5 * (lo + hi)
        done = hi - lo < tol
        if done.any():
            out[rows[done]] = mid[done]
            if done.all():
                return out
            # one array at a time, so each old array is freed before the next
            # copy is made; one tuple assignment would keep all of them alive
            keep = np.flatnonzero(~done)
            rows = rows[keep]
            y1 = y1[keep]
            u = u[keep]
            zu = zu[keep]
            lo = lo[keep]
            hi = hi[keep]
            x = x[keep]
            newton = newton[keep]
            edge = edge[keep]
            mid = mid[keep]
        if it == _MAX_STEPS:
            break
        np.copyto(x, mid, where=~(newton & (x < hi)))
        k, dk = pair_kernel(a, y1, x, slope=True)
        above = k >= u
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = _scipy.ndtri(k, out=k)
            dk /= np.exp(-0.5 * step * step)
            step -= zu
            dk *= _SQRT_2PI
            step /= dk
        near = (np.abs(step) < tol / 4) & (hi - lo >= tol)
        if near.any():
            at = np.flatnonzero(near)
            probe = x[at]
            probe += np.where(above[at], -tol / 2, tol / 2)
            probe_above = _clamped_kernel(
                pair_kernel(a, y1[at], probe)) >= u[at]
            lo[at[~probe_above]] = probe[~probe_above]
            hi[at[probe_above]] = probe[probe_above]
        x -= step
        newton = (x > lo) & ~near & (it < _NEWTON_STEPS)
    raise NumericalBreakdown("the Hüsler-Reiss pair inverter did not converge")


def a2_limit_params(model: HuslerReissModel, sep) -> tuple[IndexedMatrix, GaussianLaw]:
    """Limiting update for conditioning a clique on its separator: the
    row-stochastic slope (rows R, columns S), through which the separator
    state enters, and the Gaussian update noise on R.

    Anchored at s in S, W = X_{C\\s} - X_s is N(-Γ_{·s}/2, Σ^{(s)}), and
    the update is W_R given W_{S'} (R = C \\ S, S' = S \\ s): with
    B = Σ_{RS'} Σ_{S'S'}⁻¹ from one Cholesky solve, the noise is
    N(μ_R - B μ_{S'}, Σ_RR - B Σ_{S'R}), the slope columns are B on S'
    and 1 - rowsum(B) on s.  A pair needs no solve: (-Γ/2, Γ, 1).  The
    anchor is s = min(S); in exact arithmetic the result does not depend
    on it.
    """
    clique = model.clique
    pos = {v: k for k, v in enumerate(clique)}
    sep = tuple(sorted(int(v) for v in sep))
    if not sep or any(v not in pos for v in sep):
        raise ConfigError(f"separator {sep} invalid for clique {clique}")
    rest = tuple(v for v in clique if v not in sep)
    if not rest:
        raise ConfigError("separator covers the whole clique")
    s = sep[0]

    g = model.variogram.values
    k = pos[s]
    if len(clique) == 2:
        gam = g[pos[rest[0]], k]
        mean, cov, slope = np.array([-0.5 * gam]), np.array([[gam]]), np.ones((1, 1))
    else:
        # positions in C \ s, the order of sig
        r = [pos[v] - (pos[v] > k) for v in rest]
        sp = [pos[v] - (pos[v] > k) for v in sep if v != s]
        sig = _anchored_values(model.variogram, k)
        mu = -0.5 * g[[j for j in range(len(clique)) if j != k], k]
        cov, mean = sig[r][:, r], mu[r]
        b = np.zeros((len(r), 0))
        if sp:
            sig_sr = sig[sp][:, r]
            low = cholesky_spd(sig[sp][:, sp],
                               what=f"separator block of {clique}")
            b = cho_solve(low, sig_sr).T
            cov = cov - b @ sig_sr
            cov = 0.5 * (cov + cov.T)
            mean = mean - b @ mu[sp]
        slope = np.empty((len(rest), len(sep)))
        slope[:, [j for j, v in enumerate(sep) if v != s]] = b
        slope[:, sep.index(s)] = 1.0 - b.sum(axis=1)

    return (IndexedMatrix(rest, sep, slope),
            GaussianLaw(IndexedVector(rest, mean), IndexedMatrix.square(rest, cov)))


@dataclass(frozen=True)
class HuslerReissClique:
    """A Hüsler-Reiss clique given its separator S, built once by
    :meth:`HuslerReissModel.given` for its limit update, that of
    :func:`a2_limit_params` (computed on first use) with unit φ and the
    norming a(x) = x·slopeᵀ, b = 1, and for its finite-level draw, which
    inverts the model's pair kernel.
    """

    model: HuslerReissModel
    sep: tuple[int, ...]
    rest: tuple[int, ...]

    #: Norming power of the new vertices: b(t) = t^0.
    bexp = Fraction(0)
    #: The clique's exponent measure has a density.
    has_density = True

    @cached_property
    def params(self) -> tuple[IndexedMatrix, GaussianLaw]:
        """(slope, noise law) of :func:`a2_limit_params`."""
        return a2_limit_params(self.model, self.sep)

    @property
    def noise(self) -> GaussianLaw:
        return self.params[1]

    def a_fun(self, x_sep: np.ndarray) -> np.ndarray:
        """a(x) = x·slopeᵀ on rows of separator states."""
        return np.atleast_2d(np.asarray(x_sep, dtype=float)) @ self.params[0].values.T

    def b_fun(self, x_sep: np.ndarray) -> np.ndarray:
        return np.ones((np.atleast_2d(x_sep).shape[0], len(self.rest)))

    def update(self, coeffs, moving):
        """(ψ, φ, the new vertices' a-coefficients): the slope, unit φ and
        unit coefficients, whatever the separator coefficients ``coeffs``.
        The clique absorbs no t^{1/2} fluctuation, so a separator vertex
        marked ``moving`` raises :class:`NormingIncompatible`."""
        moving = [s for s, m in zip(self.sep, moving) if m]
        if moving:
            raise NormingIncompatible(
                f"clique {self.model.clique} is Hüsler-Reiss but separator "
                f"vertices {moving} carry t^1/2 fluctuations; the single-vertex "
                "norming degenerates — use the separator-normed noise limit "
                "(build_tail_noise)",
                witness_clique=self.model.clique,
            )
        ones = np.ones(len(self.rest))
        return self.params[0], IndexedVector(self.rest, ones), ones

    def root(self):
        """(noise law, a, b, the new vertices' a-coefficients) of the root
        update, the clique given S = {v}: its separator update."""
        return self.noise, self.a_fun, self.b_fun, np.ones(len(self.rest))

    @staticmethod
    def remainder_ok(sups) -> bool:
        """The norming defect is zero up to rounding (below 1e-10) at
        every level: the clique's normings compose exactly."""
        return max(sups) < 1e-10

    def log_densities(self, y_clique: np.ndarray, y_sep: np.ndarray):
        """log λ_C at the rows ``y_clique``, and log λ_S of the separator's
        own measure at the rows ``y_sep`` (0 given no separator)."""
        lam = exponent_measure_density_many(self.model.variogram, y_clique, log=True)
        return lam, (exponent_measure_density_many(
            self.model.variogram.sub(self.sep), y_sep, log=True) if self.sep else 0.0)

    def fill(self, xs: list, at_sep: list, at_rest: list, rng,
             scores: list, keep: bool) -> None:
        """Draw the row ``at_rest`` of each level's vertex-major block in
        ``xs`` given its row ``at_sep``, every level from the same
        uniforms, by :func:`_invert_pair`.  Given no separator (an
        unconditioned root) the first vertex is a unit exponential drawn
        first.  Latent scores are a Gaussian clique's: ``scores`` and
        ``keep`` are not read."""
        clique = self.model.clique
        if len(clique) != 2:
            raise UnsupportedCliqueShape(
                f"cannot simulate the {len(clique)}-vertex Hüsler-Reiss clique "
                f"{clique} at finite levels; only pairs are drawn"
            )
        nb = xs[0].shape[1]
        if not at_sep:
            e = rng.standard_exponential(nb)
            for x in xs:
                x[at_rest[0]] = e
            at_sep, at_rest = at_rest[:1], at_rest[1:]
        given = (self.sep or clique)[0]
        u = rng.random(nb)
        for x in xs:
            x[at_rest[0]] = _invert_pair(self.model, given, x[at_sep[0]], u)


def kernel_limit(model: HuslerReissModel, sep, offset, z_sep=None) -> float:
    """Limiting kernel value by the exponent-measure derivative ratio.

    Because the slope matrix is row-stochastic, the ratio
    D_S(u) / D^{(S)}_S(u_S) evaluated at u_S = e^{z_S},
    u_{C\\S} = e^{slope·z_S + offset} is independent of z_S and equals
    the limit of the transition kernel along the norming trajectory.  It
    is computed from the derivative layer, independently of the
    limit-parameter algebra of :func:`a2_limit_params`, against whose
    Gaussian law's CDF it is verified.
    """
    slope = a2_limit_params(model, sep)[0]
    sep, rest = slope.cols, slope.rows
    z = np.zeros(len(sep)) if z_sep is None else np.asarray(z_sep, dtype=float)
    if z.shape != (len(sep),):
        raise ConfigError(f"z_sep shape {z.shape} != separator size {len(sep)}")
    off = np.asarray(offset, dtype=float)
    if off.shape != (len(rest),):
        raise ConfigError(f"offset shape {off.shape} != residual size {len(rest)}")

    pos = {v: k for k, v in enumerate(model.clique)}
    u = np.empty((1, model.dim))
    for j, v in enumerate(sep):
        u[0, pos[v]] = math.exp(z[j])
    loc = slope.values @ z
    for j, v in enumerate(rest):
        u[0, pos[v]] = math.exp(loc[j] + off[j])

    sep_pos = [pos[v] for v in sep]
    num = exponent_measure_derivative_many(model.variogram, u, sep_pos, log=True,
                                           accuracy=_LIMIT_ACCURACY)
    den = exponent_measure_derivative_many(model.variogram.sub(sep), u[:, sep_pos],
                                           range(len(sep)), log=True)
    val = math.exp(float(num[0] - den[0]))
    if not val <= 1.0 + 1e-9:
        raise NumericalBreakdown(f"kernel limit {val:.6f} outside [0,1]")
    return min(1.0, val)


# ---------------------------------------------------------------------------
# graph-wide conditional limit (mean and precision over V \ v)


def tail_model_mean(ordering: CliqueOrdering, models: dict, v: int) -> IndexedVector:
    """Mean of the graph-wide conditional limit, indexed by V \\ {v}."""
    if v not in ordering.cliques[0]:
        raise ConfigError(f"vertex {v} not in the first clique; re-root first")
    table = _models_table(ordering, models)
    check_separator_models(ordering, table)
    mu: dict[int, float] = {}
    for i, clique in enumerate(ordering.cliques):
        model = table[clique]
        if v in clique:
            for u in clique:
                if u == v:
                    continue
                val = -model.variogram.entry(u, v) / 2.0
                if u in mu and abs(mu[u] - val) > 1e-9:
                    raise IncompatibleSeparators(
                        f"vertex {u}: mean {val} from clique {clique} "
                        f"conflicts with {mu[u]}"
                    )
                mu[u] = val
        else:
            sep = ordering.separators[i]
            slope, law = a2_limit_params(model, sep)
            z = np.array([mu[w] for w in sep])
            loc = slope.values @ z + law.mean.values
            for w, m_w in zip(slope.rows, loc):
                mu[w] = float(m_w)
    index = tuple(w for w in ordering.graph.vertices if w != v)
    return IndexedVector(index, np.array([mu[w] for w in index]))


def tail_model_precision(ordering: CliqueOrdering, models: dict, v: int) -> IndexedMatrix:
    """Precision of the graph-wide conditional limit over V \\ {v}.

    Assembled clique by clique in the running-intersection order;
    entries between vertices that share no clique are exact zeros.
    """
    if v not in ordering.cliques[0]:
        raise ConfigError(f"vertex {v} not in the first clique; re-root first")
    table = _models_table(ordering, models)
    check_separator_models(ordering, table)

    index = tuple(w for w in ordering.graph.vertices if w != v)
    pos = {w: k for k, w in enumerate(index)}
    total = np.zeros((len(index), len(index)))
    clique_cov: list[IndexedMatrix] = []

    for i, clique in enumerate(ordering.cliques):
        model = table[clique]
        sep = ordering.separators[i]
        if v in clique:
            live = tuple(w for w in clique if w != v)
            sig = sigma_anchor(model.variogram, v)  # covariance on live
            q = spd_inverse(sig)
            rows = [pos[w] for w in live]
            total[np.ix_(rows, rows)] += q.values
            if i > 0:
                sep_live = tuple(w for w in sep if w != v)
                if sep_live:
                    parent_cov = clique_cov[ordering.parents[i]]
                    p_mat = spd_inverse(parent_cov.sub(sep_live))
                    rows_s = [pos[w] for w in sep_live]
                    total[np.ix_(rows_s, rows_s)] -= p_mat.values
            clique_cov.append(sig)
        else:
            slope, law = a2_limit_params(model, sep)
            q_eps = spd_inverse(law.cov).values
            a_mat = slope.values
            rows_r = [pos[w] for w in slope.rows]
            rows_s = [pos[w] for w in sep]
            total[np.ix_(rows_r, rows_r)] += q_eps
            total[np.ix_(rows_r, rows_s)] += -q_eps @ a_mat
            total[np.ix_(rows_s, rows_r)] += -(q_eps @ a_mat).T
            total[np.ix_(rows_s, rows_s)] += a_mat.T @ q_eps @ a_mat
            parent_cov = clique_cov[ordering.parents[i]]
            c_s = parent_cov.sub(sep).values
            top = np.block([
                [law.cov.values + a_mat @ c_s @ a_mat.T, a_mat @ c_s],
                [(a_mat @ c_s).T, c_s],
            ])
            clique_cov.append(IndexedMatrix.square(slope.rows + sep, top))
    result = IndexedMatrix.square(index, 0.5 * (total + total.T))
    # zero entries must be exact; re-symmetrization above only averages
    # pairs that were written identically, so this cannot blur sparsity
    np.linalg.cholesky(result.values)
    return result
