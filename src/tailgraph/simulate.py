"""Finite-level simulator on unit-exponential margins.

Draws the pre-limit decomposable graphical model clique by clique:
Gaussian-copula cliques go through their latent normal vector exactly;
Hüsler-Reiss cliques invert the one-dimensional conditional CDF
(:func:`tailgraph.husler_reiss.transition_kernel`) by bracketed
bisection, which is unconditionally robust because the kernel is a
monotone CDF in its last argument.  All margins are exactly unit
exponential by construction.

Hüsler-Reiss cliques must introduce one new vertex at a time at finite
levels (the kernel is inverted in a single variable); wider HR cliques
are supported by the limit engine only and raise
:class:`UnsupportedCliqueShape` here.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from . import gaussian as gsn
from . import husler_reiss as hr
from .errors import (
    ConfigError,
    MissingNorming,
    NumericalBreakdown,
    UnsupportedCliqueShape,
)
from .graphs import CliqueOrdering, _models_table, check_separator_models
from .limits import SampleMatrix, TailGraphicalModel, TailNoiseModel, _rooted
from .linalg import cholesky_spd
from .rng import OFFSET_LATENT, derived_rng, run_blocks

#: Absolute tolerance of the bisection inverter, on the exponential scale.
INVERT_TOL = 1e-10
_X_FLOOR = 1e-12


def exp_to_normal(x: np.ndarray) -> np.ndarray:
    """Latent standard-normal score of an exponential-scale state."""
    return -ndtri_exp(-np.asarray(x, dtype=float))


def normal_to_exp(z: np.ndarray) -> np.ndarray:
    """Exponential-scale state of a latent standard-normal score."""
    return -log_ndtr(-np.asarray(z, dtype=float))


def _invert_kernel(model, sep, x_sep: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve kernel(x) = u for the single new coordinate, row-wise."""
    nb = u.shape[0]

    def kern(x):
        return hr.transition_kernel(model, sep, x_sep, x[:, None])

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


def _draw_root(model, clique, rng, nb: int, given=None):
    """Sample the root clique; ``given`` pins its first conditioning value
    as ``(vertex, values)``.  Returns an (nb, |clique|) array in clique
    order."""
    if len(clique) == 1:
        if given is not None:
            return np.asarray(given[1], dtype=float)[:, None]
        return rng.standard_exponential(nb)[:, None]
    fam = model.family
    if fam == "gaussian":
        corr = model.correlation
        if given is None:
            chol = cholesky_spd(corr.values, "root correlation")
            z = rng.standard_normal((nb, len(clique))) @ chol.T
            return normal_to_exp(z)
        v, x_v = given
        rest = tuple(u for u in clique if u != v)
        alpha = gsn.separator_slope(corr, (v,), rest)
        cond = gsn.conditional_scale(corr, alpha).values / 2.0
        chol = cholesky_spd(cond, "conditional correlation")
        z_v = exp_to_normal(x_v)
        z_rest = (z_v[:, None] * alpha.values.T[0][None, :]
                  + rng.standard_normal((nb, len(rest))) @ chol.T)
        out = np.empty((nb, len(clique)))
        pos = {w: k for k, w in enumerate(clique)}
        out[:, pos[v]] = x_v
        for j, w in enumerate(rest):
            out[:, pos[w]] = normal_to_exp(z_rest[:, j])
        return out
    # Hüsler-Reiss roots are bivariate at finite levels
    if len(clique) != 2:
        raise UnsupportedCliqueShape(
            f"cannot simulate a {len(clique)}-vertex Hüsler-Reiss clique at "
            "finite levels; only one new coordinate can be inverted"
        )
    if given is None:
        anchor = clique[0]
        x_anchor = rng.standard_exponential(nb)
    else:
        anchor, x_anchor = given
        x_anchor = np.asarray(x_anchor, dtype=float)
    other = clique[0] if clique[1] == anchor else clique[1]
    u = rng.random(nb)
    x_other = _invert_kernel(model, (anchor,), x_anchor[:, None], u)
    out = np.empty((nb, 2))
    pos = {w: k for k, w in enumerate(clique)}
    out[:, pos[anchor]] = x_anchor
    out[:, pos[other]] = x_other
    return out


def _draw_transition(model, clique, sep, rng, nb: int, x_sep: np.ndarray) -> np.ndarray:
    """Sample the new vertices of one clique given realized separator values
    (columns in ``sep`` order).  Returns an (nb, |rest|) array."""
    rest = tuple(w for w in clique if w not in sep)
    if model.family == "gaussian":
        alpha = gsn.separator_slope(model.correlation, sep, rest)
        cond = gsn.conditional_scale(model.correlation, alpha).values / 2.0
        chol = cholesky_spd(cond, "conditional correlation")
        z_sep = exp_to_normal(x_sep)
        z_rest = z_sep @ alpha.values.T + rng.standard_normal((nb, len(rest))) @ chol.T
        return normal_to_exp(z_rest)
    if len(rest) != 1:
        raise UnsupportedCliqueShape(
            f"Hüsler-Reiss clique {clique} introduces {len(rest)} vertices; "
            "finite-level simulation inverts one coordinate at a time"
        )
    u = rng.random(nb)
    return _invert_kernel(model, sep, x_sep, u)[:, None]


def _simulate(ordering: CliqueOrdering, table: dict, n: int, seed: int,
              workers: int, given_root=None) -> np.ndarray:
    cols = ordering.graph.vertices
    pos = {u: k for k, u in enumerate(cols)}
    values = np.empty((n, len(cols)))

    def fill(blk):
        k, start, stop = blk
        nb = stop - start
        rng = derived_rng(seed, OFFSET_LATENT + k)
        given = None
        if given_root is not None:
            v, t = given_root
            given = (v, t + rng.standard_exponential(nb))
        root_clique = ordering.cliques[0]
        block = _draw_root(table[root_clique], root_clique, rng, nb, given)
        for j, w in enumerate(root_clique):
            values[start:stop, pos[w]] = block[:, j]
        for i in range(1, len(ordering)):
            clique = ordering.cliques[i]
            sep = ordering.separators[i]
            x_sep = values[start:stop][:, [pos[s] for s in sep]]
            out = _draw_transition(table[clique], clique, sep, rng, nb, x_sep)
            rest = tuple(w for w in clique if w not in sep)
            for j, w in enumerate(rest):
                values[start:stop, pos[w]] = out[:, j]

    run_blocks(n, workers, fill)
    return values


def simulate_graphical(ordering: CliqueOrdering, models: dict, n: int,
                       seed: int, workers: int = 1) -> SampleMatrix:
    """n unconditional draws of the graphical model, exponential margins."""
    table = _models_table(ordering, models)
    check_separator_models(ordering, table)
    values = _simulate(ordering, table, n, seed, workers)
    return SampleMatrix(
        columns=ordering.graph.vertices, values=values,
        meta={"kind": "simulate", "n": n, "seed": seed,
              "margins": "exponential"},
    )


def conditional_exceedance(ordering: CliqueOrdering, models: dict, v: int,
                           t: float, n: int, seed: int,
                           workers: int = 1) -> SampleMatrix:
    """n draws given X_v > t: the v-column is t plus a fresh unit
    exponential (memorylessness is exact for exponential margins), the
    rest propagates through the same conditional kernels."""
    if t < 0:
        raise ConfigError(f"threshold must be nonnegative, got {t}")
    if v not in ordering.graph.vertices:
        raise ConfigError(f"vertex {v} not in the graph")
    ordering = _rooted(ordering, v)
    table = _models_table(ordering, models)
    check_separator_models(ordering, table)
    values = _simulate(ordering, table, n, seed, workers, given_root=(v, float(t)))
    return SampleMatrix(
        columns=ordering.graph.vertices, values=values,
        meta={"kind": "conditional", "n": n, "seed": seed, "v": v,
              "t": float(t), "margins": "exponential"},
    )


def renormalize(samples: SampleMatrix, model, mode: str) -> SampleMatrix:
    """Map conditional exponential-scale samples to fluctuation scale.

    ``mode="condition_on_root"`` uses the graph-wide per-vertex normings
    of a :class:`TailGraphicalModel`: column u becomes
    (x_u − a_u(x_v)) / b_u(x_v) at the realized root value x_v.
    ``mode="separator_based"`` uses the per-clique separator normings of
    a :class:`TailNoiseModel`: each block's new vertices are normalized
    by their own separator's realized state.  The conditioning column
    becomes x_v − t in both modes.
    """
    if mode not in ("condition_on_root", "separator_based"):
        raise ConfigError(f"unknown renormalization mode {mode!r}")
    t = samples.meta.get("t")
    if t is None:
        raise ConfigError("samples carry no threshold; renormalize expects "
                          "conditional_exceedance output")
    out = np.empty_like(samples.values)
    cols = samples.columns
    if mode == "condition_on_root":
        if not isinstance(model, TailGraphicalModel):
            raise MissingNorming(
                "condition_on_root renormalization needs the graph-wide "
                "normings of a TailGraphicalModel"
            )
        x_v = samples.column(model.v)
        for j, u in enumerate(cols):
            if u == model.v:
                out[:, j] = x_v - t
                continue
            pair = model.normings.get(u)
            if pair is None:
                raise MissingNorming(f"no norming for vertex {u}")
            out[:, j] = (samples.values[:, j] - pair.a(x_v)) / pair.b(x_v)
    else:
        if not isinstance(model, TailNoiseModel):
            raise MissingNorming(
                "separator_based renormalization needs the per-clique "
                "normings of a TailNoiseModel"
            )
        out[:, cols.index(model.v)] = samples.column(model.v) - t
        seen = {model.v}
        for blk in model.blocks:
            x_s = samples.column(blk.sep_vertex)[:, None]
            z = (samples.sub(blk.rest) - blk.a_fun(x_s)) / blk.b_fun(x_s)
            for j, u in enumerate(blk.rest):
                out[:, cols.index(u)] = z[:, j]
                seen.add(u)
        missing = set(cols) - seen
        if missing:
            raise MissingNorming(f"no block covers vertices {sorted(missing)}")
    meta = dict(samples.meta)
    meta["kind"] = f"renormalized_{mode}"
    return SampleMatrix(columns=cols, values=out, meta=meta)
