"""Gaussian-copula clique models: normings, updates, and the limit law.

States live on the standard exponential scale; the copula is that of a
positive-definite correlation matrix R.  Conditioning on an extreme at
vertex v gives the affine norming a_j(t) = ρ_{jv}² t, b_j(t) = √t with
Gaussian limit covariance

    Σ^{(v)}_{ij} = 2 ρ_{iv} ρ_{jv} (ρ_{ij} - ρ_{iv} ρ_{jv}).

Conditioning a clique C on a separator S uses the state-dependent pair
a^{(S)}(x) = (α |x|^{1/2})² with the regression slope α = R_{C\\S,S} R_S⁻¹
and b^{(S)} = (a^{(S)})^{1/2}; the absolute value is taken literally, so
negative separator states (legal at finite levels) are accepted.  The
update pair evaluated on the incoming trajectory is

    ψ(z) = J z,   J_{js} = u_j α_{js} / c_s^{1/2},   u = α c^{1/2},
    φ_j  = u_j  = (a^{(S)}_j(c))^{1/2},

at evaluation coefficients c (= ρ²_{S,v} when entered from the root).
φ is the limit of b^{(S)}(T(z,t))/√t, i.e. the square root of a^{(S)}
*applied to* c — not the square root of J's entries; the latter fails
the vanishing-remainder requirement (see the variance checks in the
tests: a 3-chain composed with entrywise roots would inflate the end
variance from 2r₁²r₂²(1-r₁²r₂²) to an incompatible value).

The precision of the limit law equals D (R⁻¹)_{V\\v} D with
D = diag(1/(√2 ρ_{iv})) for every positive-definite R; Markovness with
respect to a graph is needed only for that precision to inherit the
graph's sparsity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _scipy
from .errors import ConfigError, DegenerateCorrelation, NotSPD
from .linalg import (
    SYMMETRY_TOL,
    GaussianLaw,
    IndexedMatrix,
    IndexedVector,
    _LabelledSquare,
    cholesky_spd,
    spd_inverse,
)


@dataclass(frozen=True)
class CorrelationMatrix(_LabelledSquare):
    """Positive-definite correlation matrix with unit diagonal."""

    index: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        mat = IndexedMatrix.square(tuple(self.index), self.values)
        object.__setattr__(self, "index", mat.rows)
        object.__setattr__(self, "values", mat.values)
        vals = self.values
        if not np.all(np.isfinite(vals)):
            raise NotSPD("correlation matrix has non-finite entries")
        mat.check_symmetric()
        if float(np.max(np.abs(np.diag(vals) - 1.0), initial=0.0)) > SYMMETRY_TOL:
            raise NotSPD("correlation diagonal must be one")
        off = vals[~np.eye(len(self.index), dtype=bool)]
        if off.size and float(np.max(np.abs(off))) >= 1.0:
            raise NotSPD("off-diagonal correlations must lie in (-1, 1)")
        try:
            np.linalg.cholesky(vals)
        except np.linalg.LinAlgError as exc:
            raise NotSPD("correlation matrix is not positive definite") from exc


@dataclass(frozen=True)
class GaussianCopulaModel:
    """A clique model: vertex labels plus their latent correlation."""

    clique: tuple[int, ...]
    correlation: CorrelationMatrix

    family = "gaussian"

    def __post_init__(self):
        clique = tuple(sorted(int(v) for v in self.clique))
        object.__setattr__(self, "clique", clique)
        if self.correlation.index != clique:
            object.__setattr__(self, "correlation", self.correlation.sub(clique))

    def given(self, sep) -> GaussianClique:
        """This clique given the separator ``sep``: empty for an
        unconditioned root, {v} for the root of a limit at v."""
        sep = tuple(sorted(sep))
        rest = tuple(u for u in self.clique if u not in sep)
        corr = self.correlation
        if not (sep and rest):
            chol = cholesky_spd(corr.values, "root correlation") if rest else None
            return GaussianClique(self, sep, rest, None, None, chol)
        alpha = separator_slope(corr, sep, rest)
        cond = conditional_scale(corr, alpha)
        return GaussianClique(
            self, sep, rest, alpha,
            GaussianLaw(IndexedVector(rest, np.zeros(len(rest))), cond),
            cholesky_spd(cond.values / 2.0, "conditional correlation"))


def _rho_with(corr: CorrelationMatrix, v: int, targets) -> np.ndarray:
    rho = np.array([corr.entry(u, v) for u in targets])
    bad = [u for u, r in zip(targets, rho) if not 0.0 < r < 1.0]
    if bad:
        raise DegenerateCorrelation(
            f"correlation with conditioning vertex {v} must lie strictly in "
            f"(0, 1); offending vertices {bad}"
        )
    return rho


def limit_scale_matrix(corr: CorrelationMatrix, v: int) -> IndexedMatrix:
    """Covariance 2 ρ_i ρ_j (ρ_{ij} − ρ_i ρ_j) over index \\ {v}."""
    rest = tuple(u for u in corr.index if u != v)
    if not rest:
        raise ConfigError(f"no coordinates left after removing {v}")
    rho = _rho_with(corr, v, rest)
    r_block = IndexedMatrix.square(corr.index, corr.values).sub(rest).values
    sig = 2.0 * np.outer(rho, rho) * (r_block - np.outer(rho, rho))
    return IndexedMatrix.square(rest, 0.5 * (sig + sig.T))


def limit_law(corr: CorrelationMatrix, v: int) -> GaussianLaw:
    """Centered limit law of (X_{V\\v} − ρ²_{·v} X_v)/√X_v given X_v extreme."""
    sig = limit_scale_matrix(corr, v)
    return GaussianLaw(IndexedVector(sig.rows, np.zeros(len(sig.rows))), sig)


def precision_identity_gap(corr: CorrelationMatrix, v: int) -> float:
    """max |Σ^{(v)} · D (R⁻¹)_{V\\v} D − I| with D = diag(1/(√2 ρ_{iv}))."""
    rest = tuple(u for u in corr.index if u != v)
    rho = _rho_with(corr, v, rest)
    sig = limit_scale_matrix(corr, v).values
    q_full = spd_inverse(IndexedMatrix.square(corr.index, corr.values))
    q_block = q_full.sub(rest).values
    d = np.diag(1.0 / (np.sqrt(2.0) * rho))
    return float(np.max(np.abs(sig @ (d @ q_block @ d) - np.eye(len(rest)))))


def separator_slope(corr: CorrelationMatrix, sep, rest) -> IndexedMatrix:
    """Regression slope α = R_{rest,S} R_S⁻¹ (rows rest, cols sep)."""
    sep = tuple(sep)
    rest = tuple(rest)
    big = IndexedMatrix.square(corr.index, corr.values)
    r_ss_inv = spd_inverse(big.sub(sep))
    alpha = big.sub(rest, sep).values @ r_ss_inv.values
    return IndexedMatrix(rest, sep, alpha)


def conditional_scale(corr: CorrelationMatrix, alpha: IndexedMatrix) -> IndexedMatrix:
    """Noise covariance 2 (R_{rest} − α R_{S,rest}) for the slope
    α = :func:`separator_slope` (rows rest, cols S), so R_S is not
    inverted a second time."""
    rest, sep = alpha.rows, alpha.cols
    big = IndexedMatrix.square(corr.index, corr.values)
    cond = 2.0 * (big.sub(rest).values - alpha.values @ big.sub(sep, rest).values)
    return IndexedMatrix.square(rest, 0.5 * (cond + cond.T))


def exp_to_normal(x: np.ndarray) -> np.ndarray:
    """Latent standard-normal score of an exponential-scale state."""
    return -_scipy.ndtri_exp(-np.asarray(x, dtype=float))


def normal_to_exp(z: np.ndarray) -> np.ndarray:
    """Exponential-scale state of a latent standard-normal score."""
    return -_scipy.log_ndtr(-np.asarray(z, dtype=float))


@dataclass(frozen=True)
class GaussianClique:
    """A Gaussian-copula clique given its separator S, built once by
    :meth:`GaussianCopulaModel.given` for its limit update and its
    finite-level draw: the slope α = R_{rest,S} R_S⁻¹, the update noise
    N(0, 2 (R_rest − α R_{S,rest})) and the Cholesky factor ``chol`` of
    the conditional correlation R_rest − α R_{S,rest}.  Given no
    separator (an unconditioned root) ``chol`` factors the clique's
    correlation; given the whole clique nothing is built.
    """

    model: GaussianCopulaModel
    sep: tuple[int, ...]
    rest: tuple[int, ...]
    alpha: IndexedMatrix | None
    noise: GaussianLaw | None
    chol: np.ndarray | None

    #: Norming power of the new vertices: b(t) = t^{1/2}.
    bexp = Fraction(1, 2)
    #: Only a Hüsler-Reiss clique has an exponent-measure density.
    has_density = False

    def a_fun(self, x_sep: np.ndarray) -> np.ndarray:
        """a^{(S)}(x) = (α |x|^{1/2})² on rows of separator states."""
        x = np.atleast_2d(np.asarray(x_sep, dtype=float))
        return (np.sqrt(np.abs(x)) @ self.alpha.values.T) ** 2

    def b_fun(self, x_sep: np.ndarray) -> np.ndarray:
        """b^{(S)} = (a^{(S)})^{1/2}."""
        return np.sqrt(self.a_fun(x_sep))

    def update(self, coeffs, moving):
        """(ψ, φ, the new vertices' a-coefficients) along separator states
        x ≈ c·t at the positive evaluation coefficients ``coeffs`` = c:
        u = α √c, φ = u, coefficients (α √c)², and ψ the Jacobian
        J_{js} = u_j α_{js} / √c_s on the separator vertices marked
        ``moving`` (those entering at t^{1/2}), zero on the others, or
        None when none moves."""
        if not self.rest:
            raise ConfigError("separator covers the whole clique")
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (len(self.sep),) or np.any(c <= 0.0):
            raise DegenerateCorrelation(
                f"evaluation coefficients must be positive, got {c}"
            )
        u = self.alpha.values @ np.sqrt(c)
        if np.any(u <= 0.0):
            raise DegenerateCorrelation(
                "nonpositive composite slope; conditioning degenerates"
            )
        psi = None
        if np.any(moving):
            jac = (u[:, None] * self.alpha.values) / np.sqrt(c)[None, :]
            psi = IndexedMatrix(self.rest, self.sep, np.where(moving, jac, 0.0))
        return psi, IndexedVector(self.rest, u), self.a_fun(c[None, :])[0]

    def root(self):
        """(noise law, a, b, the new vertices' a-coefficients) of the root
        update, the clique given S = {v}: a = ρ²x and b = √x at the
        state x of v, and the limit law of :func:`limit_law`."""
        v = self.sep[0]
        coeff = _rho_with(self.model.correlation, v, self.rest) ** 2
        width = len(self.rest)

        def a_fun(x):
            return coeff * np.atleast_2d(x)

        def b_fun(x):
            return np.repeat(np.atleast_2d(x) ** 0.5, width, axis=1)

        return limit_law(self.model.correlation, v), a_fun, b_fun, coeff

    @staticmethod
    def remainder_ok(sups) -> bool:
        """The norming defect falls from the first level to the last."""
        return sups[-1] <= sups[0]

    def fill(self, xs: list, at_sep: list, at_rest: list, rng,
             scores: list, keep: bool) -> None:
        """Draw the rows ``at_rest`` of each level's vertex-major block in
        ``xs`` given its rows ``at_sep``, every level from the same
        normals.  ``scores`` holds, per level, the latent scores of the
        separators that a later draw still reads, keyed by the separator's
        vertices (a row may hold another vertex later); ``keep`` keeps
        this draw's."""
        noise = rng.standard_normal((xs[0].shape[1], len(at_rest))) @ self.chol.T
        if not at_sep:
            w = normal_to_exp(noise).T
            for x in xs:
                x[at_rest] = w
            return
        for x, cache in zip(xs, scores):
            z_sep = cache.pop(self.sep, None)
            if z_sep is None:
                # rows × |sep| in row-major order, as the slope product
                # has always read it: its bits depend on the layout
                z_sep = np.ascontiguousarray(exp_to_normal(x[at_sep].T))
            if keep:
                cache[self.sep] = z_sep
            x[at_rest] = normal_to_exp(z_sep @ self.alpha.values.T + noise).T
