"""Finite-level simulator on unit-exponential margins.

Draws the pre-limit decomposable graphical model clique by clique, one
uniform or standard normal per new clique coordinate, always at the same
place in each row block's random stream.  Each clique is drawn by its
record, the clique given its separator (``model.given(sep)``), which a
limit's update reads too.  Given a conditioning vertex v, the root is
one more clique, drawn given its separator (v,); only an unconditioned
root is drawn given nothing.

* Gaussian-copula cliques go through their latent normal vector exactly
  (:class:`tailgraph.gaussian.GaussianClique`).
* Hüsler-Reiss (HR) cliques are pairs at finite levels: each draws its
  new coordinate by inverting the closed-form pair kernel at one uniform
  (:class:`tailgraph.husler_reiss.HuslerReissClique`), each root the
  midpoint of a bracket narrower than ``INVERT_TOL``.  A wider HR clique
  raises :class:`UnsupportedCliqueShape`.

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

from . import husler_reiss as hr
from .errors import ConfigError, MissingNorming
from .graphs import CliqueOrdering, _models_table, check_separator_models
from .limits import SampleMatrix, TailGraphicalModel, TailNoiseModel, _rooted
from .rng import OFFSET_LATENT, _check_rows, check_seed, derived_rng, run_blocks

#: The HR pair inverter's tolerance and floor, which the benchmark's
#: floor-entry counter (perfbench/spans.py) reads from this module.
INVERT_TOL = hr.INVERT_TOL
_X_FLOOR = hr._X_FLOOR


@dataclass(frozen=True)
class _Draw:
    """One clique's draw: its ``record`` fills the new sample rows
    ``rest`` from the rows ``sep`` already filled (vertex positions in
    the vertex-major block); ``keep`` marks one whose separator a later
    draw reads too."""

    record: object
    sep: list[int]
    rest: list[int]
    keep: bool = False


@dataclass(frozen=True)
class _DrawPlan:
    """The per-clique draws of one ordering, built once per command and
    reused for every row block and every threshold.  ``v`` is the
    conditioning vertex (the root's given row), or None; ``columns``
    labels the rows of the vertex-major block: the graph's vertices, with
    v moved first when there is one."""

    v: int | None
    columns: tuple[int, ...]
    draws: tuple[_Draw, ...]


def _plan(ordering: CliqueOrdering, v: int | None, records) -> _DrawPlan:
    """The plan of the clique records in draw order, conditioned at v or
    (``v`` None) not; each draw that shares its separator with a later
    one keeps that separator's latent scores for it."""
    cols = ordering.graph.vertices
    if v is not None:
        cols = (v,) + tuple(u for u in cols if u != v)
    pos = {u: k for k, u in enumerate(cols)}
    draws = [_Draw(rec, [pos[s] for s in rec.sep], [pos[w] for w in rec.rest])
             for rec in records]
    later = set()
    for k in reversed(range(len(draws))):
        key = tuple(draws[k].sep)
        draws[k] = replace(draws[k], keep=key in later)
        later.add(key)
    return _DrawPlan(v, cols, tuple(draws))


def _draw_plan(ordering: CliqueOrdering, models: dict, v: int | None = None) -> _DrawPlan:
    """Plan of :func:`simulate_graphical` (``v`` None) or of
    :func:`conditional_exceedance` at vertex v, where the root is one
    more clique, drawn given its separator (v,)."""
    if v is not None:
        ordering = _rooted(ordering, v)
    table = _models_table(ordering, models)
    check_separator_models(ordering, table)
    root_sep = () if v is None else (v,)
    given = zip(ordering.cliques, (root_sep,) + ordering.separators[1:])
    # a one-vertex root is row 0, which _simulate draws
    return _plan(ordering, v, [table[c].given(s) for c, s in given if len(c) > 1])


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
        if levels is not None or not plan.draws:
            # v's row, or the one vertex of a one-vertex graph
            e = rng.standard_exponential(stop - start)
            for x, t in zip(xs, ts):
                x[0] = e if t is None else t + e
        scores = [{} for _ in xs]
        for d in plan.draws:
            d.record.fill(xs, d.sep, d.rest, rng, scores, d.keep)

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
