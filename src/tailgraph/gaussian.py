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

import numpy as np

from .errors import ConfigError, DegenerateCorrelation, NotSPD
from .linalg import (
    SYMMETRY_TOL,
    GaussianLaw,
    IndexedMatrix,
    IndexedVector,
    _LabelledSquare,
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


@dataclass(frozen=True)
class GaussianRootNorming:
    """Root-conditioning norming for one clique: a = coeff·t, b = √t."""

    v: int
    rest: tuple[int, ...]
    coeff: IndexedVector  # ρ²_{·v}
    law: GaussianLaw  # limit of (X_rest − coeff·X_v)/√X_v


def root_norming(model: GaussianCopulaModel, v: int) -> GaussianRootNorming:
    if v not in model.clique:
        raise ConfigError(f"{v} not in clique {model.clique}")
    corr = model.correlation
    rest = tuple(u for u in model.clique if u != v)
    rho = _rho_with(corr, v, rest)
    return GaussianRootNorming(
        v=v,
        rest=rest,
        coeff=IndexedVector(rest, rho**2),
        law=limit_law(corr, v),
    )


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


@dataclass(frozen=True)
class GaussianSeparatorNorming:
    """Separator-conditioning update for one clique at evaluation point c.

    ``a_of(x) = (α |x|^{1/2})²`` and ``b_of = sqrt(a_of)`` are the
    state-dependent norming pair; ``psi``/``phi``/``noise`` are their
    limiting update parameters along a trajectory x ≈ c t.
    """

    sep: tuple[int, ...]
    rest: tuple[int, ...]
    alpha: IndexedMatrix
    eval_coeff: IndexedVector  # c, indexed by sep
    coeff_out: IndexedVector  # a-coefficients of rest: (α √c)²
    psi: IndexedMatrix  # Jacobian of a at c: J_{js} = u_j α_{js}/√c_s
    phi: IndexedVector  # u = α √c = sqrt(a(c))
    noise: GaussianLaw  # N(0, 2·conditional covariance)

    def a_of(self, x_sep: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x_sep, dtype=float))
        root = np.sqrt(np.abs(x))
        return (root @ self.alpha.values.T) ** 2

    def b_of(self, x_sep: np.ndarray) -> np.ndarray:
        return np.sqrt(self.a_of(x_sep))


def separator_norming(model: GaussianCopulaModel, sep,
                      eval_coeff) -> GaussianSeparatorNorming:
    """Update parameters for conditioning a clique on its separator.

    ``eval_coeff`` is the vector of linear-norming coefficients of the
    separator vertices (ρ²_{S,v} when the chain starts at a root v);
    entries must be strictly positive.
    """
    sep = tuple(sorted(int(s) for s in sep))
    rest = tuple(u for u in model.clique if u not in sep)
    if not sep or set(sep) - set(model.clique):
        raise ConfigError(f"separator {sep} invalid for clique {model.clique}")
    if not rest:
        raise ConfigError("separator covers the whole clique")
    c = np.asarray(eval_coeff, dtype=float)
    if c.shape != (len(sep),) or np.any(c <= 0.0):
        raise DegenerateCorrelation(
            f"evaluation coefficients must be positive, got {c}"
        )
    corr = model.correlation
    alpha = separator_slope(corr, sep, rest)
    u = alpha.values @ np.sqrt(c)
    if np.any(u <= 0.0):
        raise DegenerateCorrelation(
            "nonpositive composite slope; conditioning degenerates"
        )
    jac = (u[:, None] * alpha.values) / np.sqrt(c)[None, :]
    noise = GaussianLaw(
        IndexedVector(rest, np.zeros(len(rest))),
        conditional_scale(corr, alpha),
    )
    return GaussianSeparatorNorming(
        sep=sep,
        rest=rest,
        alpha=alpha,
        eval_coeff=IndexedVector(sep, c),
        coeff_out=IndexedVector(rest, u**2),
        psi=IndexedMatrix(rest, sep, jac),
        phi=IndexedVector(rest, u),
        noise=noise,
    )
