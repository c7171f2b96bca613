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
vertex-major array, v's row first; :func:`conditional_exceedance` is the
one-level case, bit for bit.  The draws run one clique at a time over
all row blocks, so a column is complete once its clique is drawn, and a
plan may give a finished column's row to a later one.  Renormalization
is elementwise, so the convergence study runs it in place on these
arrays, column by column as they finish.  All margins are exactly unit
exponential by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import husler_reiss as hr
from .errors import ConfigError, MissingNorming
from .graphs import CliqueOrdering, _models_table, check_separator_models
from .limits import SampleMatrix, TailGraphicalModel, TailNoiseModel, _rooted
from .rng import (
    OFFSET_LATENT,
    _check_rows,
    block_bounds,
    block_runner,
    check_seed,
    derived_rng,
)

#: The HR pair inverter's tolerance and floor, which the benchmark's
#: floor-entry counter (perfbench/spans.py) reads from this module.
INVERT_TOL = hr.INVERT_TOL
_X_FLOOR = hr._X_FLOOR


@dataclass(frozen=True)
class _Draw:
    """One clique's draw: its ``record`` fills the new sample rows
    ``rest`` from the rows ``sep`` already filled (slots of the level
    arrays); ``keep`` marks a draw whose separator a later draw reads
    too.  ``retire`` lists the
    columns that no later draw or renormalization reads raw, in an order
    that renormalizes each of them before the columns it reads."""

    record: object
    sep: list[int]
    rest: list[int]
    keep: bool = False
    retire: tuple[int, ...] = ()


@dataclass(frozen=True)
class _DrawPlan:
    """The per-clique draws of one ordering, built once per command and
    reused for every row block and every threshold.  ``v`` is the
    conditioning vertex (the root's given row), or None; ``columns``
    labels the graph's vertices, with v moved first when there is one.
    Column u is row ``slots[u]`` of each level's (``width`` × n) array,
    v's row 0; ``last`` lists the columns left to retire after the last
    draw, v last."""

    v: int | None
    columns: tuple[int, ...]
    draws: tuple[_Draw, ...]
    slots: dict
    width: int
    last: tuple[int, ...]


def _plan(ordering: CliqueOrdering, v: int | None, records,
          mode: str | None = None) -> _DrawPlan:
    """The plan of the clique records in draw order, conditioned at v or
    (``v`` None) not; each draw that shares its separator with a later
    one keeps that separator's latent scores for it.

    With ``mode`` None every column keeps its row, its position in
    ``columns``, to the end.  With a renormalization ``mode`` (a plan
    conditioned at v) a column retires after the last draw that reads
    it: as a separator, or, on the separator-based route, as the block
    separator that renormalizes a column not yet retired.  Its row then
    goes to the next new column, so each level holds only the live
    columns; v stays to the end.  A column retires before the columns it
    was drawn from (by descending draw), so each is still raw when read.
    """
    cols = ordering.graph.vertices
    if v is not None:
        cols = (v,) + tuple(u for u in cols if u != v)
    drawn = {u: k for k, rec in enumerate(records) for u in rec.rest}
    retire = [[] for _ in records]
    if mode is None:
        slots = {u: k for k, u in enumerate(cols)}
        last = [u for rec in reversed(records) for u in rec.rest]
    else:
        until = dict(drawn)
        for k, rec in enumerate(records):
            until.update((s, k) for s in rec.sep)
        if mode == "separator_based":
            for rec in reversed(records):
                s = rec.sep[0]
                until[s] = max([until[s]] + [until[w] for w in rec.rest])
        until.pop(v, None)
        for u in sorted(until, key=drawn.get, reverse=True):
            retire[until[u]].append(u)
        slots, free, width = {v: 0}, [], 1
        for k, rec in enumerate(records):
            for u in rec.rest:
                if free:
                    slots[u] = free.pop()
                else:
                    slots[u], width = width, width + 1
            free += [slots[u] for u in retire[k]]
        last = []
    if v is not None:
        last.append(v)
    draws, later = [], set()
    for k in reversed(range(len(records))):
        rec = records[k]
        key = tuple(rec.sep)
        draws.append(_Draw(rec, [slots[s] for s in rec.sep],
                           [slots[w] for w in rec.rest], key in later,
                           tuple(retire[k])))
        later.add(key)
    return _DrawPlan(v, cols, tuple(reversed(draws)), slots,
                     1 + max(slots.values(), default=0), tuple(last))


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

    :func:`_fill_levels` draws them; the matrix's ``values`` is the
    transpose view of its level array.  The columns follow
    ``plan.columns`` (a plan whose columns keep their rows): the graph's
    vertices in order, except that a conditioned plan puts v first, so
    rows 1..d−1 are the other vertices in graph order (a limit's
    ``z_index``).  A bad level, seed, n or workers raises
    :class:`ConfigError` before any row is drawn.
    """
    ts = (None,) if levels is None else tuple(_check_level(t) for t in levels)
    seed = check_seed(seed, "seed")
    _check_rows(n, workers)
    arrays = _fill_levels(plan, n, seed, workers, ts)
    if levels is None:
        metas = [{"kind": "simulate", "n": n, "margins": "exponential"}]
    else:
        metas = [{"kind": "conditional", "n": n, "v": plan.v, "t": t,
                  "margins": "exponential"} for t in ts]
    return [SampleMatrix(columns=plan.columns, values=a.T, meta={**meta, "seed": seed})
            for a, meta in zip(arrays, metas)]


def _fill_levels(plan: _DrawPlan, n: int, seed: int, workers: int, ts,
                 after=None) -> list[np.ndarray]:
    """One C-order (``plan.width`` × n) array per level t of ``ts`` (None
    for unconditioned draws), column u in row ``plan.slots[u]``; the
    arguments are checked already.

    Draws run in the outer loop and row blocks in the inner one, each
    draw mapped over the blocks on one pool of ``workers`` threads.  Each
    block keeps its own generator and its own latent-score caches (one
    per level), so it reads its stream in
    draw order and every draw has the bits it would have block by block.
    Each random number is read once and applied to every level, so the
    levels share them exactly.  After each draw, when all n rows of its
    columns are filled, ``after(draw, arrays)`` may read and rewrite the
    rows that draw retires.  No draw's bits depend on its row.
    """
    arrays = [np.empty((plan.width, n)) for _ in ts]
    blocks = block_bounds(n)
    rngs = [derived_rng(seed, OFFSET_LATENT + k) for k, _, _ in blocks]
    scores = [[{} for _ in ts] for _ in blocks]

    def first(blk):
        # v's row, or the one vertex of a one-vertex graph
        k, start, stop = blk
        e = rngs[k].standard_exponential(stop - start)
        for a, t in zip(arrays, ts):
            a[0, start:stop] = e if t is None else t + e

    with block_runner(n, workers) as run:
        if ts != (None,) or not plan.draws:
            run(first)
        for d in plan.draws:
            def fill(blk, d=d):
                k, start, stop = blk
                d.record.fill([a[:, start:stop] for a in arrays], d.sep, d.rest,
                              rngs[k], scores[k], d.keep)
            run(fill)
            if after is not None:
                after(d, arrays)
    return arrays


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
    becomes x_v − t in both modes.  ``samples`` is not touched: a
    vertex-major copy, laid out as :func:`_simulate`'s draws are, is
    renormalized in place, column by column in reverse draw order (so a
    separator is still raw when its block reads it), v's column last.
    """
    norm = _Renormalizer(model, mode, samples.columns, samples.meta.get("t"))
    x = samples.values.T.copy()
    have = set(samples.columns)
    norm.write(x, {u: j for j, u in enumerate(samples.columns)},
               [u for upd in reversed(model.in_order) for u in upd.rest if u in have]
               + [model.v])
    meta = dict(samples.meta)
    meta["kind"] = f"renormalized_{mode}"
    return SampleMatrix(columns=samples.columns, values=x.T, meta=meta)


class _Renormalizer:
    """:func:`renormalize` of one level, column by column, on the rows of
    a vertex-major array.  Checks ``model`` and ``mode`` for the labels
    ``columns`` and the level ``t``, and raises before anything is
    written."""

    _KINDS = {"condition_on_root": (TailGraphicalModel, "graph-wide"),
              "separator_based": (TailNoiseModel, "per-clique")}

    def __init__(self, model, mode: str, columns, t) -> None:
        if mode not in self._KINDS:
            raise ConfigError(f"unknown renormalization mode {mode!r}")
        if t is None:
            raise ConfigError("samples carry no threshold; renormalize expects "
                              "conditional_exceedance output")
        kind, scope = self._KINDS[mode]
        if not isinstance(model, kind):
            raise MissingNorming(f"{mode} renormalization needs the {scope} "
                                 f"normings of a {kind.__name__}")
        if mode == "condition_on_root":
            for u in columns:
                if u != model.v and u not in model.normings:
                    raise MissingNorming(f"no norming for vertex {u}")
        else:
            missing = set(columns) - {model.v}.union(
                *(blk.rest for blk in model.blocks))
            if missing:
                raise MissingNorming(f"no block covers vertices {sorted(missing)}")
            self._block = {u: (k, blk, j) for k, blk in enumerate(model.blocks)
                           for j, u in enumerate(blk.rest)}
        self.model, self.mode, self.t = model, mode, t
        self._scales = {}  # b(x_v) depends on the norming's power alone

    def write(self, x: np.ndarray, slots: dict, cols, out=None) -> None:
        """Renormalize the columns ``cols``, column u being row
        ``slots[u]`` of ``x``: in place, in the order given, or into the
        rows of ``out`` in that order.  A column reads its raw row and
        raw v's row (root route) or its block separator's (separator
        route), so ``cols`` lists each column before those it reads;
        v's row becomes x_v − t, and comes last.  Consecutive columns of
        one block share its norming."""
        model = self.model
        x_v = x[slots[model.v]]
        block = None
        for j, u in enumerate(cols):
            row = x[slots[u]]
            dst = row if out is None else out[j]
            if u == model.v:
                np.subtract(row, self.t, out=dst)
            elif self.mode == "condition_on_root":
                pair = model.normings[u]
                if pair.bexp not in self._scales:
                    self._scales[pair.bexp] = pair.b(x_v)
                np.subtract(row, pair.a(x_v), out=dst)
                dst /= self._scales[pair.bexp]
            else:
                k, blk, i = self._block[u]
                if block is None or block[0] != k:
                    x_s = x[slots[blk.sep[0]]][:, None]
                    block = k, blk.a_fun(x_s), blk.b_fun(x_s)
                np.subtract(row, block[1][:, i], out=dst)
                dst /= block[2][:, i]
