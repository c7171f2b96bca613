"""Empirical diagnostics: tail-dependence estimation, weak-convergence
studies against the limit objects, and regular-variation checks of the
factorized exponent-measure density."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _scipy
from . import husler_reiss as hr
from .config import KS_CONST, TREND_SLACK, check_positive, check_t_levels
from .errors import (
    ConfigError,
    EmptySubset,
    NumericalBreakdown,
    QuantileOutOfRange,
)
from .graphs import CliqueOrdering, _models_table
from .limits import (
    SampleMatrix,
    TailGraphicalModel,
    TailNoiseModel,
    build_tail_noise,
    derive_limit,
    tail_model_moments,
)
from .rng import OFFSET_MISC, _check_rows, check_seed, derived_rng
from .simulate import _fill_levels, _plan, _Renormalizer

#: Orthant-probability accuracy of the MRV compatibility check's measures.
_MARGINAL_ACCURACY = 1e-9


def chi_estimator(samples: SampleMatrix, subset, q: float) -> float:
    """Empirical tail-dependence coefficient of the columns in ``subset``.

    Counts rows whose marginal ranks all exceed the q-th quantile and
    normalizes by the expected count under comonotonicity, so perfectly
    dependent columns give exactly 1 for any q and independent columns
    give roughly (1-q)^{|subset|-1}.  Ties are ranked in row order.  A
    column with a non-finite entry raises :class:`NumericalBreakdown`.
    """
    subset = tuple(int(u) for u in subset)
    if not subset:
        raise EmptySubset("chi needs at least one column")
    missing = set(subset) - set(samples.columns)
    if missing:
        raise ConfigError(f"columns {sorted(missing)} not in sample matrix")
    if not 0.0 < q < 1.0:
        raise QuantileOutOfRange(f"q must be in (0, 1), got {q}")
    n = samples.n
    k = max(1, round((1.0 - q) * n))
    if k >= n:
        raise QuantileOutOfRange(f"q={q} leaves no exceedances at n={n}")
    joint = np.ones(n, dtype=bool)
    for u in subset:
        col = samples.column(u)
        if not np.all(np.isfinite(col)):
            raise NumericalBreakdown(f"column {u} has non-finite entries")
        top = np.zeros(n, dtype=bool)
        top[np.argsort(col, kind="stable")[n - k:]] = True
        joint &= top
    return float(joint.sum() / k)


#: Sorted rows per block of :func:`_ks_statistic`'s search for the maximum.
_KS_BLOCK = 64


def _ks_statistic(x: np.ndarray, cdf) -> float:
    """Two-sided one-sample KS distance max(D⁺, D⁻) of x from ``cdf``,
    with the same arithmetic as ``scipy.stats.kstest`` but no p-value.
    The CDFs below give the bits of ``scipy.stats.expon.cdf`` and
    ``norm.cdf`` without importing ``scipy.stats``, which is slow.

    Exact, but F is evaluated only where the maximum can lie.  For F
    nondecreasing, no sorted row of a block lo..hi is farther than
    max((hi + 1)/n − F(x_lo), F(x_hi) − lo/n); so F is evaluated at each
    block's ends, and in full in the blocks whose bound reaches the
    largest distance at the ends, less 1e-12 for the ulp wiggles of a
    computed F; the maximum has the bits of the full evaluation.  Only a
    sample with a non-finite end (±inf, or NaN, which sorts last) is
    evaluated in full."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    at = np.arange(n)
    if n and np.isfinite(x[0]) and np.isfinite(x[-1]):
        lo = at[::_KS_BLOCK]
        hi = np.minimum(lo + _KS_BLOCK, n) - 1
        ends = np.concatenate([lo, hi])
        f = cdf(x[ends])
        best = np.maximum((ends + 1.0) / n - f, f - ends / n).max()
        bound = np.maximum((hi + 1.0) / n - f[:lo.size], f[lo.size:] - lo / n)
        at = at[np.repeat(bound >= best - 1e-12, _KS_BLOCK)[:n]]
    f = cdf(x if at.size == n else x[at])
    d_plus = ((at + 1.0) / n - f).max()
    d_minus = (f - at / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def _expon_cdf(y: np.ndarray) -> np.ndarray:
    # scipy's expm1, not numpy's: the two differ in the last bits
    f = -_scipy.expm1(-y)
    f[y <= 0] = 0.0
    return f


def ks_unit_exponential(x: np.ndarray) -> float:
    return _ks_statistic(x, _expon_cdf)


def ks_normal(x: np.ndarray, mean: float, sd: float) -> float:
    return _ks_statistic(x, lambda y: _scipy.ndtr((y - mean) / sd))


@dataclass(frozen=True)
class MarginRow:
    t: float
    vertex: int
    ks: float
    n: int
    threshold: float

    @property
    def passed(self) -> bool:
        return self.ks < self.threshold

    def to_dict(self) -> dict:
        return {"t": self.t, "vertex": self.vertex, "ks": self.ks,
                "n": self.n, "threshold": self.threshold,
                "passed": self.passed}


@dataclass(frozen=True)
class ConvergenceReport:
    v: int
    mode: str
    t_levels: tuple[float, ...]
    n: int
    seed: int
    rows: tuple[MarginRow, ...]
    mean_gap: dict  # t -> max |empirical - limit| over margins
    clique_cov_gap: dict  # t -> max |empirical - limit| over clique blocks
    slack: float = TREND_SLACK

    def margins(self, t: float) -> list[MarginRow]:
        return [r for r in self.rows if r.t == t]

    def trend_ok(self) -> bool:
        """KS distances nonincreasing (up to slack) along the t ladder,
        separately per vertex; a NaN distance fails the trend."""
        by_vertex = {}
        for r in self.rows:
            by_vertex.setdefault(r.vertex, []).append(r)
        for rows in by_vertex.values():
            ks = [r.ks for r in sorted(rows, key=lambda r: r.t)]
            if np.isnan(ks).any() or any(b > a * self.slack
                                         for a, b in zip(ks, ks[1:])):
                return False
        return True

    def final_pass(self) -> bool:
        t_last = max(self.t_levels)
        return all(r.passed for r in self.margins(t_last))

    def ks_csv(self) -> str:
        lines = ["t,vertex,ks,n,threshold,pass"]
        for r in self.rows:
            lines.append(f"{r.t!r},{r.vertex},{r.ks!r},{r.n},"
                         f"{r.threshold!r},{int(r.passed)}")
        return "\n".join(lines) + "\n"

    def gaps_csv(self) -> str:
        lines = ["t,mean_gap,clique_cov_gap"]
        for t in self.t_levels:
            lines.append(f"{t!r},{self.mean_gap[t]!r},{self.clique_cov_gap[t]!r}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "v": self.v, "mode": self.mode, "t_levels": list(self.t_levels),
            "n": self.n, "seed": self.seed,
            "rows": [r.to_dict() for r in self.rows],
            "mean_gap": {str(t): g for t, g in self.mean_gap.items()},
            "clique_cov_gap": {str(t): g for t, g in self.clique_cov_gap.items()},
            "trend_ok": self.trend_ok(),
            "final_pass": self.final_pass(),
        }


def convergence_study(ordering: CliqueOrdering, models: dict, v: int,
                      t_levels, n: int, seed: int) -> ConvergenceReport:
    """:func:`study_limit` of the limit at v, built once: the single-vertex
    tail model where the classifier finds one (the walk that classifies
    also builds it), otherwise the block-wise tail noise."""
    limit = derive_limit(ordering, models, v)[1]
    if limit is None:
        limit = build_tail_noise(ordering, models, v)
    return study_limit(limit, t_levels, n, seed)


def study_limit(limit: TailGraphicalModel | TailNoiseModel,
                t_levels, n: int, seed: int,
                ks_const: float = KS_CONST,
                workers: int = 1) -> ConvergenceReport:
    """Conditional samples, renormalized, against a built limit per level.

    A :class:`TailGraphicalModel` is studied around the conditioning
    vertex against its exact marginal moments; a :class:`TailNoiseModel`
    by separator-based renormalization against its block laws.  Each
    margin gets the two-sided KS statistic only (no p-value).  The same
    seed feeds every level (common random numbers), which makes the
    monotone-trend verdict sharp: one pass draws all levels, reading each
    random number once, and each level equals a lone
    :func:`~tailgraph.simulate.conditional_exceedance` at that level bit
    for bit.  The draws are the limit's own clique records, so no
    clique's constants are built twice.

    The study runs through the draws, and each level holds only the live
    columns.  When a column retires (no later draw or renormalization
    reads it raw) it is renormalized in place, gives its KS row and its
    mean, and its row goes to the next new column.  The gap is
    ``clique_cov_gap``: the largest entry of |empirical − limit| over the
    covariance blocks of C∖{v} for the cliques C, each taken right after
    the clique's draw.
    ``n`` must be an integer >= 2 (a sample covariance needs two rows)
    and ``ks_const`` finite and positive, else :class:`ConfigError`.
    """
    t_levels = check_t_levels(t_levels, "t_levels")
    _check_rows(n, workers, least=2)
    seed = check_seed(seed, "seed")
    ks_const = check_positive(ks_const, "ks_const")
    mode = ("condition_on_root" if isinstance(limit, TailGraphicalModel)
            else "separator_based")
    lim_mean, lim_cov = tail_model_moments(limit)
    plan = _plan(limit.ordering, limit.v, [u.record for u in limit.in_order], mode)
    pos = {u: j for j, u in enumerate(limit.z_index)}
    laws = list(zip(lim_mean.values.tolist(),
                    np.sqrt(np.diag(lim_cov.values)).tolist()))
    levels = [_Level(_Renormalizer(limit, mode, plan.columns, t), plan.slots,
                     pos, laws) for t in t_levels]

    def after(draw, arrays):
        cols = [u for u in draw.record.sep + draw.record.rest if u != limit.v]
        idx = [pos[u] for u in cols]
        block = lim_cov.values[np.ix_(idx, idx)]
        for level, x in zip(levels, arrays):
            level.retire(x, draw.retire)
            level.fold(x, cols, block, draw.retire)

    arrays = _fill_levels(plan, n, seed, workers, t_levels, after)
    threshold = float(ks_const / np.sqrt(n))
    rows = []
    mean_gap, clique_cov_gap = {}, {}
    for level in levels:
        x = arrays.pop(0)  # each level's draws are dropped once studied
        level.retire(x, (limit.v,))
        t = level.norm.t
        rows += [MarginRow(t=t, vertex=u, ks=level.ks[u], n=n, threshold=threshold)
                 for u in plan.columns]
        mean_gap[t] = float(np.max(np.abs(level.mean - lim_mean.values)))
        clique_cov_gap[t] = float(np.max(level.gaps))
    return ConvergenceReport(
        v=limit.v, mode=mode, t_levels=t_levels, n=n, seed=seed,
        rows=tuple(rows), mean_gap=mean_gap, clique_cov_gap=clique_cov_gap,
    )


class _Level:
    """One level of :func:`study_limit`, filled in as its columns retire:
    the KS distance of each column, and the mean of each margin at its
    position ``pos`` in the limit's ``z_index``, against its limit law
    (mean, sd) in ``laws``; and the covariance gaps found so far."""

    def __init__(self, norm: _Renormalizer, slots: dict, pos: dict, laws) -> None:
        self.norm, self.slots, self.pos, self.laws = norm, slots, pos, laws
        self.ks = {}
        self.mean = np.empty(len(pos))
        self.gaps = []

    def retire(self, x: np.ndarray, cols) -> None:
        """Renormalize the retiring columns ``cols`` in place, in the
        plan's order; take their KS distances, and centre each margin on
        its mean."""
        self.norm.write(x, self.slots, cols)
        for u in cols:
            row = x[self.slots[u]]
            if u not in self.pos:  # v's row
                self.ks[u] = ks_unit_exponential(row)
                continue
            j = self.pos[u]
            self.ks[u] = ks_normal(row, *self.laws[j])
            self.mean[j] = row.mean()
            row -= self.mean[j]

    def fold(self, x: np.ndarray, cols, lim_block: np.ndarray, retired) -> None:
        """The gap of one clique's covariance block over its columns
        ``cols`` (C∖{v}), just after its draw: the columns in ``retired``
        are centred in place already, and the others are renormalized and
        centred on copies."""
        z = []
        for u in cols:
            if u in retired:
                z.append(x[self.slots[u]])
            else:
                row = np.empty(x.shape[1])
                self.norm.write(x, self.slots, [u], out=[row])
                row -= row.mean()
                z.append(row)
        emp = np.empty(lim_block.shape)
        for i, a in enumerate(z):
            for j in range(i + 1):
                emp[i, j] = emp[j, i] = np.dot(a, z[j])
        emp /= x.shape[1] - 1
        self.gaps.append(np.max(np.abs(emp - lim_block)))


# ---------------------------------------------------------------------------
# regular-variation checks (HR cliques)


def factorized_density(ordering: CliqueOrdering, models: dict, y,
                       log: bool = False):
    """Graph-wide exponent-measure density: clique densities divided by
    separator-marginal densities along the ordering.

    ``y`` is one state of shape (d,), which gives a float, or a batch of
    states of shape (n, d), which gives an array of shape (n,).  Each
    clique and each non-empty separator costs one batched density call
    over all rows, and a row's value does not depend on the other rows.
    Accumulated in log space, because the product of many clique densities
    underflows; ``log=True`` returns the log density.
    """
    table = _models_table(ordering, models)
    y = np.asarray(y, dtype=float)
    cols = ordering.graph.vertices
    if y.ndim not in (1, 2) or y.shape[-1] != len(cols):
        raise ConfigError(f"states must have {len(cols)} entries per row, "
                          f"got shape {y.shape}")
    rows = y.reshape(-1, len(cols))
    pos = {u: k for k, u in enumerate(cols)}
    out = np.zeros(rows.shape[0])
    for clique, sep in zip(ordering.cliques, ordering.separators):
        rec = table[clique].given(sep)
        if not rec.has_density:
            raise ConfigError(
                "factorized density requires Hüsler-Reiss cliques (the "
                "asymptotically dependent case has a nontrivial density)"
            )
        lam, lam_sep = rec.log_densities(rows[:, [pos[u] for u in clique]],
                                         rows[:, [pos[u] for u in sep]])
        out += lam
        out -= lam_sep
    if not log:
        with np.errstate(over="ignore"):  # +inf at the tiniest states is right
            out = np.exp(out)
    return float(out[0]) if y.ndim == 1 else out


@dataclass(frozen=True)
class HomogeneityRow:
    """One homogeneity point.  ``rel_err`` comes from the log densities;
    the densities themselves may underflow to 0 on large graphs."""

    point: tuple
    density: float
    scaled_density: float
    rel_err: float

    def to_dict(self) -> dict:
        return {"point": list(self.point), "density": self.density,
                "scaled_density": self.scaled_density,
                "rel_err": self.rel_err}


@dataclass(frozen=True)
class CompatibilityRow:
    clique_a: tuple
    clique_b: tuple
    sep: tuple
    point: tuple
    lam_a: float
    lam_b: float
    gap: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.gap <= self.tol

    def to_dict(self) -> dict:
        return {"clique_a": list(self.clique_a),
                "clique_b": list(self.clique_b), "sep": list(self.sep),
                "point": list(self.point), "lam_a": self.lam_a,
                "lam_b": self.lam_b, "gap": self.gap, "tol": self.tol,
                "passed": self.passed}


@dataclass(frozen=True)
class MRVReport:
    homogeneity: tuple[HomogeneityRow, ...]
    compatibility: tuple[CompatibilityRow, ...]
    homogeneity_tol: float

    @property
    def homogeneity_ok(self) -> bool:
        return all(r.rel_err < self.homogeneity_tol for r in self.homogeneity)

    @property
    def compatibility_ok(self) -> bool:
        return all(r.passed for r in self.compatibility)

    @property
    def ok(self) -> bool:
        return self.homogeneity_ok and self.compatibility_ok

    def to_dict(self) -> dict:
        return {
            "homogeneity": [r.to_dict() for r in self.homogeneity],
            "compatibility": [r.to_dict() for r in self.compatibility],
            "homogeneity_ok": self.homogeneity_ok,
            "compatibility_ok": self.compatibility_ok,
            "ok": self.ok,
        }


def mrv_checks(ordering: CliqueOrdering, models: dict, seed: int = 0,
               n_points: int = 10, scale: float = 2.0,
               homogeneity_tol: float = 1e-4) -> MRVReport:
    """Regular-variation sanity of the factorized density.

    Homogeneity: the assembled density must scale as t^-(d+1) at t =
    ``scale`` on ``n_points`` random points, within ``homogeneity_tol``
    relative.  The points and their scaled copies go through
    :func:`factorized_density` as one batch, so each clique and separator
    density is evaluated once for all of them.
    Compatibility: adjacent cliques must induce the same separator
    exponent measure — evaluated by marginalizing each clique's measure
    (+inf padding) on the separator grid (0.5, 1, 2), one batched call
    per clique and separator; mismatched models are reported, not raised.
    ``n_points`` must be an integer >= 1, ``scale`` finite, positive and
    not 1, ``homogeneity_tol`` finite and positive, and ``seed`` one of
    :func:`tailgraph.rng.check_seed`; otherwise :class:`ConfigError`.
    """
    if (not isinstance(n_points, numbers.Integral) or isinstance(n_points, bool)
            or n_points < 1):
        raise ConfigError(f"n_points must be an integer >= 1, got {n_points!r}")
    if check_positive(scale, "scale") == 1.0:
        raise ConfigError("scale must not be 1")
    homogeneity_tol = check_positive(homogeneity_tol, "homogeneity_tol")
    check_seed(seed, "seed")
    table = _models_table(ordering, models)
    d = ordering.graph.n
    rng = derived_rng(seed, OFFSET_MISC + 1)
    ys = rng.uniform(0.5, 2.0, size=(n_points, d))
    log_all = factorized_density(ordering, models, np.vstack([ys, scale * ys]),
                                 log=True)
    hom = []
    for y, log_lam, log_scaled in zip(ys, log_all[:n_points],
                                      log_all[n_points:]):
        if not (np.isfinite(log_lam) and np.isfinite(log_scaled)):
            raise NumericalBreakdown(
                f"factorized density at {y.tolist()} has log value "
                f"{log_lam} (scaled: {log_scaled})"
            )
        gap = log_scaled + (d + 1) * np.log(scale) - log_lam
        hom.append(HomogeneityRow(
            point=tuple(y), density=float(np.exp(log_lam)),
            scaled_density=float(np.exp(log_scaled)),
            rel_err=float(abs(np.expm1(gap))),
        ))
    comp = []
    grid = (0.5, 1.0, 2.0)
    for i in range(1, len(ordering)):
        sep = ordering.separators[i]
        child = table[ordering.cliques[i]]
        parent = table[ordering.cliques[ordering.parents[i]]]
        lam_a, err_a = _marginal_measure(parent, sep, grid)
        lam_b, err_b = _marginal_measure(child, sep, grid)
        for k, g in enumerate(grid):
            comp.append(CompatibilityRow(
                clique_a=parent.clique, clique_b=child.clique, sep=sep,
                point=(g,) * len(sep), lam_a=lam_a[k], lam_b=lam_b[k],
                gap=abs(lam_a[k] - lam_b[k]),
                tol=10.0 * (err_a[k] + err_b[k]) + 1e-12,
            ))
    return MRVReport(homogeneity=tuple(hom), compatibility=tuple(comp),
                     homogeneity_tol=homogeneity_tol)


def _marginal_measure(model, sep, grid):
    """Clique exponent measure and its error bound at each grid value g,
    with the separator coordinates at g and the others at +inf, as lists."""
    y = np.full((len(grid), len(model.clique)), np.inf)
    y[:, [model.clique.index(s) for s in sep]] = np.asarray(grid)[:, None]
    est = hr.exponent_measure_estimate(model, y, accuracy=_MARGINAL_ACCURACY)
    return est.value.tolist(), est.error.tolist()
