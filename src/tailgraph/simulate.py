"""Finite-level simulator on unit-exponential margins.

Draws the pre-limit decomposable graphical model clique by clique, one
uniform or standard normal per new clique coordinate, always at the same
place in each row block's random stream.  Given a conditioning vertex v,
the root is one more clique, drawn given its separator (v,); only an
unconditioned root has draws of its own.

* Gaussian-copula cliques go through their latent normal vector exactly.
* Hüsler-Reiss (HR) cliques are pairs at finite levels: each draws its
  new coordinate by inverting the closed-form pair kernel
  P(X_2 <= x | X_1 = x_1) of :mod:`husler_reiss` at one uniform.
  Safeguarded Newton steps on the probit scale run inside a bracket,
  and each root is returned as the midpoint of a bracket narrower than
  ``INVERT_TOL`` whose two ends the kernel certifies.  The bracket's
  upper end is the lowest state evaluated at or above the root, capped
  by a top searched from x_1 + 8 upward; a row searches for that top
  only when it needs a midpoint or reaches x_1 + 8 before any state at
  or above its root, about 2 % of the rows of an HR ``verify``.  A
  wider HR clique raises :class:`UnsupportedCliqueShape`.

Inverse-CDF draws keep the coupling between thresholds: two calls that
differ only in t use the same random numbers, so their samples move
together.  One pass draws a whole ladder of thresholds: each row block
reads its random numbers once and applies them to every level, and a
separator's latent normal score is computed once per block and level
for all the Gaussian cliques glued at it.  Each level fills its own
vertex-major (d × n) array, v's row first; :func:`conditional_exceedance`
is the one-level case, bit for bit.  Renormalization is elementwise, so
the convergence study runs it in place on these arrays.  All margins are
exactly unit exponential by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import _scipy
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
from .rng import OFFSET_LATENT, _check_rows, check_seed, derived_rng, run_blocks

#: Absolute tolerance of the HR pair inverter, on the exponential scale:
#: every root it returns is the midpoint of a bracket narrower than this.
INVERT_TOL = 1e-10
#: Lowest state the HR pair inverter returns.
_X_FLOOR = 1e-12
#: Inverter iterations that may take a Newton step; later ones bisect,
#: which bounds the iteration count where rounding stalls Newton.
_NEWTON_STEPS = 16
_MAX_STEPS = _NEWTON_STEPS + 64


def exp_to_normal(x: np.ndarray) -> np.ndarray:
    """Latent standard-normal score of an exponential-scale state."""
    return -_scipy.ndtri_exp(-np.asarray(x, dtype=float))


def normal_to_exp(z: np.ndarray) -> np.ndarray:
    """Exponential-scale state of a latent standard-normal score."""
    return -_scipy.log_ndtr(-np.asarray(z, dtype=float))


def _bracket_top(model, s: int, x1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Upper end of the inverter's bracket: x1 + 8, with the offset
    doubled, up to 700, while K(hi) < u."""
    hi = x1 + 8.0
    offset = np.full(u.shape[0], 8.0)
    rows = np.arange(u.shape[0])
    for _ in range(8):
        k = hr.transition_kernel(model, (s,), x1[rows, None], hi[rows, None])
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
    :func:`hr.pair_kernel` on the cached Fréchet states of x1, the
    probes clamped and checked as :func:`hr.transition_kernel` does;
    the top calls :func:`hr.transition_kernel`, which evaluates the same
    closed form.
    """
    tol = INVERT_TOL
    gamma = float(model.variogram.values[0, 1])
    a = np.sqrt(gamma)
    y1 = hr.exp_to_frechet(x1)
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
        k, dk = hr.pair_kernel(a, y1, x, slope=True)
        above = k >= u
        np.copyto(hi, x, where=above)
        np.copyto(lo, x, where=~above)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = _scipy.ndtri(k, out=k)
            dk /= np.exp(-0.5 * step * step)
            step -= zu
            dk *= hr._SQRT_2PI
            step /= dk
        near = (np.abs(step) < tol / 4) & (hi - lo >= tol)
        if near.any():
            at = np.flatnonzero(near)
            probe = x[at]
            probe += np.where(above[at], -tol / 2, tol / 2)
            probe_above = hr._clamped_kernel(
                hr.pair_kernel(a, y1[at], probe)) >= u[at]
            lo[at[~probe_above]] = probe[~probe_above]
            hi[at[probe_above]] = probe[probe_above]
        x -= step
        newton = (x > lo) & ~near & (it < _NEWTON_STEPS)
    raise NumericalBreakdown("the Hüsler-Reiss pair inverter did not converge")


@dataclass(frozen=True)
class _Draw:
    """How one clique fills its new sample rows ``rest`` from the rows
    ``sep`` already filled (vertex positions in the vertex-major block).

    ``kind`` is "exp" (a unit exponential), "joint" (an unconditioned
    Gaussian root), "gauss" (a Gaussian clique given its separator) or
    "pair" (an HR pair given one row).  Gaussian draws carry the slope
    αᵀ (|sep| × |rest|) and the Cholesky factor of the conditional (for
    "joint", the full) correlation, and ``keep`` marks one whose
    separator a later Gaussian draw reads too; HR pairs carry their model
    and the vertex ``given``.
    """

    kind: str
    sep: list[int]
    rest: list[int]
    slope: np.ndarray | None = None
    chol: np.ndarray | None = None
    model: hr.HuslerReissModel | None = None
    given: int | None = None
    keep: bool = False


@dataclass(frozen=True)
class _DrawPlan:
    """The per-clique constants of one ordering, built once per command
    and reused for every row block and every threshold.  ``v`` is the
    conditioning vertex (the root's given row), or None; ``columns``
    labels the rows of the vertex-major block: the graph's vertices, with
    v moved first when there is one."""

    ordering: CliqueOrdering
    v: int | None
    columns: tuple[int, ...]
    draws: tuple[_Draw, ...]


def _gaussian_draw(model, sep, rest, pos) -> _Draw:
    alpha = gsn.separator_slope(model.correlation, sep, rest)
    cond = gsn.conditional_scale(model.correlation, alpha).values / 2.0
    return _Draw("gauss", [pos[s] for s in sep], [pos[w] for w in rest],
                  slope=alpha.values.T,
                  chol=cholesky_spd(cond, "conditional correlation"))


def _pair_draw(model, clique, s, pos) -> _Draw:
    if len(clique) != 2:
        raise UnsupportedCliqueShape(
            f"cannot simulate the {len(clique)}-vertex Hüsler-Reiss clique "
            f"{clique} at finite levels; only pairs are drawn"
        )
    other = clique[0] if clique[1] == s else clique[1]
    return _Draw("pair", [pos[s]], [pos[other]], model=model, given=s)


def _root_draws(model, clique, pos) -> list[_Draw]:
    """Draws of the unconditioned root clique."""
    if len(clique) == 1:
        return [_Draw("exp", [], [pos[clique[0]]])]
    if model.family == "gaussian":
        chol = cholesky_spd(model.correlation.values, "root correlation")
        return [_Draw("joint", [], [pos[w] for w in clique], chol=chol)]
    pair = _pair_draw(model, clique, clique[0], pos)
    return [_Draw("exp", [], pair.sep), pair]


def _keep_shared(draws: list[_Draw]) -> tuple[_Draw, ...]:
    """The draws, each Gaussian one marked ``keep`` when a later Gaussian
    draw has the same separator."""
    later = set()
    out = []
    for d in reversed(draws):
        if d.kind == "gauss":
            key = tuple(d.sep)
            d = replace(d, keep=key in later)
            later.add(key)
        out.append(d)
    return tuple(reversed(out))


def _draw_plan(ordering: CliqueOrdering, models: dict, v: int | None = None) -> _DrawPlan:
    """Plan of :func:`simulate_graphical` (``v`` None) or of
    :func:`conditional_exceedance` at vertex v, where the root is one
    more clique, drawn given its separator (v,)."""
    if v is not None:
        ordering = _rooted(ordering, v)
    table = _models_table(ordering, models)
    check_separator_models(ordering, table)
    cols = ordering.graph.vertices
    if v is not None:
        cols = (v,) + tuple(u for u in cols if u != v)
    pos = {u: k for k, u in enumerate(cols)}
    root = ordering.cliques[0]
    if v is None:
        draws = _root_draws(table[root], root, pos)
        given = zip(ordering.cliques[1:], ordering.separators[1:])
    else:
        draws = []
        given = zip(ordering.cliques, ((v,),) + ordering.separators[1:])
    for clique, sep in given:
        model = table[clique]
        rest = tuple(w for w in clique if w not in sep)
        if not rest:  # the graph {v}
            continue
        if model.family == "gaussian":
            draws.append(_gaussian_draw(model, sep, rest, pos))
        else:
            draws.append(_pair_draw(model, clique, sep[0], pos))
    return _DrawPlan(ordering, v, cols, _keep_shared(draws))


def _fill(d: _Draw, xs: list[np.ndarray], scores: list[dict], rng) -> None:
    """Run one draw on the row blocks ``xs`` (vertex rows × block rows),
    one per level, all from the same random numbers.  ``scores`` holds,
    per level, the latent scores of the separators that a later Gaussian
    draw still reads."""
    nb = xs[0].shape[1]
    if d.kind == "exp":
        e = rng.standard_exponential(nb)
        for x in xs:
            x[d.rest[0]] = e
    elif d.kind == "joint":
        w = normal_to_exp(rng.standard_normal((nb, len(d.rest))) @ d.chol.T).T
        for x in xs:
            x[d.rest] = w
    elif d.kind == "gauss":
        noise = rng.standard_normal((nb, len(d.rest))) @ d.chol.T
        key = tuple(d.sep)
        for x, cache in zip(xs, scores):
            z_sep = cache.pop(key, None)
            if z_sep is None:
                # rows × |sep| in row-major order, as the slope product
                # has always read it: its bits depend on the layout
                z_sep = np.ascontiguousarray(exp_to_normal(x[d.sep].T))
            if d.keep:
                cache[key] = z_sep
            x[d.rest] = normal_to_exp(z_sep @ d.slope + noise).T
    else:
        u = rng.random(nb)
        for x in xs:
            x[d.rest[0]] = _invert_pair(d.model, d.given, x[d.sep[0]], u)


def _check_level(t) -> float:
    """The threshold as a float; raises :class:`ConfigError` unless it is
    a finite real >= 0 (not a bool)."""
    if (not isinstance(t, numbers.Real) or isinstance(t, bool)
            or not math.isfinite(t) or t < 0):
        raise ConfigError(f"threshold must be a finite real >= 0, got {t!r}")
    return float(t)


def _simulate(plan: _DrawPlan, n: int, seed: int, workers: int,
              levels=None) -> list[SampleMatrix]:
    """n rows of the plan: one sample matrix, or with ``levels`` (a plan
    conditioned at ``plan.v``) one per level t, whose row of v is t plus
    a unit exponential drawn first in each block.

    Each block reads its random numbers once and applies them to every
    level, so the levels share them exactly.  Each level fills its own
    C-order vertex-major (d × n) array, and the matrix's ``values`` is
    its transpose view.  The rows, and so the columns, follow
    ``plan.columns``: the graph's vertices in order, except that a
    conditioned plan puts v first, so rows 1..d−1 are the other vertices
    in graph order (a limit's ``z_index``).  No draw's bits depend on
    its row's position.  A bad level, seed, n or workers raises
    :class:`ConfigError` before any row is drawn.
    """
    ts = (None,) if levels is None else tuple(_check_level(t) for t in levels)
    seed = check_seed(seed, "seed")
    _check_rows(n, workers)
    cols = plan.columns
    arrays = [np.empty((len(cols), n)) for _ in ts]

    def fill(blk):
        k, start, stop = blk
        rng = derived_rng(seed, OFFSET_LATENT + k)
        xs = [a[:, start:stop] for a in arrays]
        if levels is not None:
            e = rng.standard_exponential(stop - start)
            for x, t in zip(xs, ts):
                x[0] = t + e  # v's row
        scores = [{} for _ in xs]
        for d in plan.draws:
            _fill(d, xs, scores, rng)

    run_blocks(n, workers, fill)
    if levels is None:
        metas = [{"kind": "simulate", "n": n, "margins": "exponential"}]
    else:
        metas = [{"kind": "conditional", "n": n, "v": plan.v, "t": t,
                  "margins": "exponential"} for t in ts]
    return [SampleMatrix(columns=cols, values=a.T, meta={**meta, "seed": seed})
            for a, meta in zip(arrays, metas)]


def simulate_graphical(ordering: CliqueOrdering, models: dict, n: int,
                       seed: int, workers: int = 1) -> SampleMatrix:
    """n unconditional draws of the graphical model, exponential margins."""
    return _simulate(_draw_plan(ordering, models), n, seed, workers)[0]


def conditional_exceedance(ordering: CliqueOrdering, models: dict, v: int,
                           t: float, n: int, seed: int,
                           workers: int = 1) -> SampleMatrix:
    """n draws given X_v > t: the v-column is t plus a fresh unit
    exponential (memorylessness is exact for exponential margins), the
    rest propagates through the same conditional kernels.  The columns
    are v first, then the other vertices in graph order; ``values`` is
    the transpose view of a C-order (d × n) array, so each column is
    contiguous.

    The random numbers do not depend on t, so the levels share them:
    this is the one-level case of the pass that
    :func:`tailgraph.diagnostics.study_limit` draws all its levels in,
    bit for bit.
    """
    if v not in ordering.graph.vertices:
        raise ConfigError(f"vertex {v} not in the graph")
    return _simulate(_draw_plan(ordering, models, v), n, seed, workers, (t,))[0]


def renormalize(samples: SampleMatrix, model, mode: str) -> SampleMatrix:
    """Map conditional exponential-scale samples to fluctuation scale.

    ``mode="condition_on_root"`` uses the graph-wide per-vertex normings
    of a :class:`TailGraphicalModel`: column u becomes
    (x_u − a_u(x_v)) / b_u(x_v) at the realized root value x_v.
    ``mode="separator_based"`` uses the per-clique separator normings of
    a :class:`TailNoiseModel`: each block's new vertices are normalized
    by their own separator's realized state.  The conditioning column
    becomes x_v − t in both modes.  The result is
    :func:`_renormalize_in_place` on a copy; ``samples`` is not touched.
    """
    meta = dict(samples.meta)
    meta["kind"] = f"renormalized_{mode}"
    # a vertex-major copy, laid out as _simulate's draws are
    out = SampleMatrix(columns=samples.columns,
                       values=samples.values.T.copy().T, meta=meta)
    _renormalize_in_place(out, model, mode)
    return out


def _renormalize_in_place(samples: SampleMatrix, model, mode: str) -> None:
    """Overwrite ``samples.values`` with :func:`renormalize`'s values.

    Elementwise, column by column, so the layout is kept: on
    :func:`_simulate`'s draws each column stays a contiguous row of the
    vertex-major array.  Every column is written after the columns it
    reads: blocks go in reverse draw order, so a separator is still raw
    when its block reads it, and v's column comes last.  A refused model
    or mode raises before anything is written."""
    kinds = {"condition_on_root": (TailGraphicalModel, "graph-wide"),
             "separator_based": (TailNoiseModel, "per-clique")}
    if mode not in kinds:
        raise ConfigError(f"unknown renormalization mode {mode!r}")
    t = samples.meta.get("t")
    if t is None:
        raise ConfigError("samples carry no threshold; renormalize expects "
                          "conditional_exceedance output")
    kind, scope = kinds[mode]
    if not isinstance(model, kind):
        raise MissingNorming(f"{mode} renormalization needs the {scope} "
                             f"normings of a {kind.__name__}")
    x = samples.values.T
    pos = {u: j for j, u in enumerate(samples.columns)}
    x_v = samples.column(model.v)
    if mode == "condition_on_root":
        for u in samples.columns:
            if u != model.v and u not in model.normings:
                raise MissingNorming(f"no norming for vertex {u}")
        scales = {}  # b(x_v) depends on the norming's power alone
        for u, k in pos.items():
            if u == model.v:
                continue
            pair = model.normings[u]
            if pair.bexp not in scales:
                scales[pair.bexp] = pair.b(x_v)
            np.subtract(x[k], pair.a(x_v), out=x[k])
            x[k] /= scales[pair.bexp]
    else:
        missing = set(samples.columns) - {model.v}.union(
            *(blk.rest for blk in model.blocks))
        if missing:
            raise MissingNorming(f"no block covers vertices {sorted(missing)}")
        for blk in reversed(model.blocks):
            x_s = x[pos[blk.sep[0]]][:, None]
            a, b = blk.a_fun(x_s), blk.b_fun(x_s)
            for j, u in enumerate(blk.rest):
                np.subtract(x[pos[u]], a[:, j], out=x[pos[u]])
                x[pos[u]] /= b[:, j]
    np.subtract(x_v, t, out=x_v)
