"""Engine for graph-wide conditional-extreme limits.

Walks a rooted clique ordering, asks each clique's record (the clique
given its separator, ``model.given(sep)``) for its update, and composes
the updates symbolically.  Per-vertex normings have the form
a(t) = coeff · t, b(t) = t^bexp with an exact rational exponent, so
feasibility comparisons are exact:

* a Hüsler-Reiss clique absorbs separator fluctuations only when every
  incoming separator scale is t^0 (the conditioning vertex itself is
  exempt — its fluctuation is pinned to zero);
* a Gaussian clique accepts scales up to t^{1/2}; separator vertices
  entering at t^0 contribute nothing to the linear part of the update.

Each record applies its own family's rule and raises
:class:`NormingIncompatible` when it cannot absorb its separator.  The
root clique is one more clique update: C_1 given S = {v}, with ψ None and
unit φ (:func:`_root`).  A Hüsler-Reiss root is the separator update at
S = {v}; a Gaussian root carries the root law of
:func:`gaussian.limit_law` and its norming a = ρ²x, b = √x.  The limit
keeps every record, so the finite-level draws of a ``verify`` reuse them.

When a clique cannot absorb its separator's fluctuations the
single-vertex limit does not exist; classification reports the clique
as a witness and the block-wise (separator-normed) noise limit of
:func:`build_tail_noise` is the right object instead.

Both limits are the linear recursion ``Z = B Z + c + Φ ε`` along the
clique ordering (``B = 0`` for the tail noise): one :class:`CliqueUpdate`
Z_R = ψ Z_S + φ∘ε per clique, in draw order (``in_order``).  One sampler
(:func:`sample_tail_model`) draws them on a vertex-major (d × nb) block
per row block (through :func:`tailgraph.rng.block_runner`), and one
recursion (:func:`tail_model_moments`) gives the exact mean and
covariance, both for either kind and both from the updates themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .config import REMAINDER_GRID, check_levels
from .errors import EmptySubset, NormingIncompatible, NotBlockGraph
from .graphs import (
    CliqueOrdering,
    _models_table,
    check_separator_models,
    clique_ordering,
)
from .linalg import GaussianLaw, IndexedMatrix, IndexedVector, _positions
from .rng import _check_rows, block_runner, check_seed, derived_rng

HALF = Fraction(1, 2)
#: Separator fluctuations at which :func:`remainder_report` compares normings.
_Z_GRID = np.linspace(-3.0, 3.0, 13)
_COLUMN = "vertex {!r} is not a column of {}"


@dataclass(frozen=True)
class NormingPair:
    """Norming functions a(t) = coeff·t, b(t) = t^bexp."""

    coeff: float
    bexp: Fraction

    def a(self, t):
        return self.coeff * np.asarray(t, dtype=float)

    def b(self, t):
        return np.asarray(t, dtype=float) ** float(self.bexp)

    def to_dict(self) -> dict:
        return {
            "a_coeff": self.coeff,
            "a_power": "1",
            "b_scale": 1.0,
            "b_power": str(self.bexp),
        }


@dataclass(frozen=True)
class CliqueUpdate:
    """Limiting update Z_R = ψ Z_S + φ∘ε of one clique given its separator,
    the one form that sampling, moments and every other reader use.

    ``record`` is the clique given its separator, whose clique, separator,
    new vertices and family the update reports.  ``psi`` is the linear
    action on the separator fluctuations (None means the zero map),
    ``phi`` the per-vertex noise scales, ``noise`` the update noise law.
    ``a_fun``/``b_fun`` evaluate the clique's state-dependent norming pair
    at finite separator states (vectorized over rows), which the remainder
    checks and block renormalizations use.
    """

    record: object = field(compare=False, repr=False)
    psi: IndexedMatrix | None
    phi: IndexedVector
    noise: GaussianLaw
    a_fun: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)
    b_fun: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)

    @property
    def clique(self) -> tuple[int, ...]:
        return self.record.model.clique

    @property
    def sep(self) -> tuple[int, ...]:
        return self.record.sep

    @property
    def rest(self) -> tuple[int, ...]:
        return self.record.rest

    @property
    def family(self) -> str:
        return self.record.model.family

    def to_dict(self) -> dict:
        return {
            "clique": list(self.clique),
            "separator": list(self.sep),
            "new_vertices": list(self.rest),
            "family": self.family,
            "psi": self.psi.to_dict() if self.psi is not None else None,
            "phi": self.phi.to_dict(),
            "noise": self.noise.to_dict(),
        }


@dataclass(frozen=True)
class NormingVerdict:
    kind: str  # "theorem_1" or "tail_noise_required"
    witness_clique: tuple[int, ...] | None
    reason: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witness_clique": list(self.witness_clique) if self.witness_clique else None,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class SampleMatrix:
    """Rows of samples with vertex-labelled columns and provenance metadata."""

    columns: tuple[int, ...]
    values: np.ndarray
    meta: dict

    def column(self, v: int) -> np.ndarray:
        return self.values[:, _positions(self.columns, [v], _COLUMN)[0]]

    def sub(self, labels) -> np.ndarray:
        return self.values[:, _positions(self.columns, labels, _COLUMN)]

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class _Limit:
    """What both limit kinds share: the limit vector Z over ``z_index``
    (every vertex but v), drawn by its clique updates (``in_order``)."""

    ordering: CliqueOrdering
    v: int

    @property
    def z_index(self) -> tuple[int, ...]:
        return tuple(u for u in self.ordering.graph.vertices if u != self.v)


@dataclass(frozen=True)
class TailGraphicalModel(_Limit):
    """Single-vertex conditional limit assembled along the clique ordering."""

    normings: dict[int, NormingPair]
    root: CliqueUpdate | None  # C_1 given {v}; None when the graph is {v}
    updates: tuple[CliqueUpdate, ...]

    @property
    def in_order(self) -> tuple[CliqueUpdate, ...]:
        """The root, then the clique updates, in draw order."""
        return ((self.root,) if self.root is not None else ()) + self.updates

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "ordering": self.ordering.to_dict(),
            "normings": {str(u): p.to_dict() for u, p in sorted(self.normings.items())},
            "root_noise": self.root.noise.to_dict() if self.root else None,
            "updates": [u.to_dict() for u in self.updates],
        }


def _rooted(ordering: CliqueOrdering, v: int) -> CliqueOrdering:
    if v in ordering.cliques[0]:
        return ordering
    return clique_ordering(ordering.graph, v)


def _root(model, v: int) -> tuple[dict, CliqueUpdate | None]:
    """(normings of C_1, the update of C_1 given S = {v} with ψ None and
    unit φ, or None when C_1 is {v})."""
    rec = model.given((v,))
    normings = {v: NormingPair(1.0, rec.bexp)}
    if not rec.rest:
        return normings, None
    noise, a_fun, b_fun, coeff = rec.root()
    for u, c in zip(rec.rest, coeff):
        normings[u] = NormingPair(float(c), rec.bexp)
    return normings, CliqueUpdate(rec, None, IndexedVector(rec.rest, np.ones(len(rec.rest))),
                                  noise, a_fun, b_fun)


def _update(rec, coeffs, moving) -> tuple[CliqueUpdate, np.ndarray]:
    """The record's update at the separator coefficients ``coeffs``, with
    the t^{1/2} separator vertices marked ``moving``, and the a-coefficients
    of its new vertices."""
    psi, phi, coeff = rec.update(coeffs, moving)
    return CliqueUpdate(rec, psi, phi, rec.noise, rec.a_fun, rec.b_fun), coeff


def _walk(ordering: CliqueOrdering, models: dict, v: int):
    """Root pieces plus transition updates, composing normings in order:
    each clique's update along the composed normings gains its new
    vertices' normings.

    Every norming is a(t) = c·t with b(t) = t^0 (Hüsler-Reiss vertices,
    c = 1) or b(t) = t^{1/2} (Gaussian vertices; c = 1 at v).  Each
    record is told which separator vertices other than v enter at
    t^{1/2}; its family's rule decides what they do.
    """
    ordering = _rooted(ordering, v)
    table = _models_table(ordering, models)
    check_separator_models(ordering, table)
    normings, root = _root(table[ordering.cliques[0]], v)
    updates = []
    for clique, sep in zip(ordering.cliques[1:], ordering.separators[1:]):
        rec = table[clique].given(sep)
        moving = np.array([s != v and normings[s].bexp == HALF for s in sep])
        upd, coeff = _update(rec, np.array([normings[s].coeff for s in sep]), moving)
        for u, c in zip(upd.rest, coeff):
            normings[u] = NormingPair(float(c), rec.bexp)
        updates.append(upd)
    return ordering, normings, root, tuple(updates)


def build_tail_model(ordering: CliqueOrdering, models: dict, v: int) -> TailGraphicalModel:
    """Assemble the single-vertex conditional limit; the ordering is
    re-rooted at v if needed.  Raises :class:`NormingIncompatible` (with
    the witness clique) when classification fails."""
    ordering, normings, root, updates = _walk(ordering, models, v)
    return TailGraphicalModel(ordering=ordering, v=v, normings=normings,
                              root=root, updates=updates)


def derive_limit(ordering: CliqueOrdering, models: dict,
                 v: int) -> tuple[NormingVerdict, TailGraphicalModel | None]:
    """Classify and build in one walk of the ordering: the verdict plus
    the single-vertex limit, or None when the walk stops at a clique
    that needs the tail-noise limit (:func:`build_tail_noise`)."""
    try:
        model = build_tail_model(ordering, models, v)
    except NormingIncompatible as exc:
        return NormingVerdict(
            kind="tail_noise_required",
            witness_clique=exc.witness_clique,
            reason=str(exc),
        ), None
    return NormingVerdict(kind="theorem_1", witness_clique=None,
                          reason="all clique updates compose"), model


def classify_norming(ordering: CliqueOrdering, models: dict, v: int) -> NormingVerdict:
    """Decide whether the single-vertex limit exists along the ordering."""
    return derive_limit(ordering, models, v)[0]


def _free(upd: CliqueUpdate, pos: dict) -> list[tuple[int, int]]:
    """(ψ column, position ``pos[s]`` in Z) of each free separator vertex
    s of ``upd``: none when ψ is None or every separator vertex is v (not
    in ``pos``; pinned at zero), and ``upd`` is then drawn independently
    of all earlier updates as φ ∘ ε."""
    if upd.psi is None:
        return []
    return [(j, pos[s]) for j, s in enumerate(upd.sep) if s in pos]


def _draw_step(upd: CliqueUpdate, pos: dict, rng, zmat: np.ndarray) -> None:
    """Fill the rows ``pos[upd.rest]`` of one (d × nb) vertex-major block.

    The arithmetic is that of ``noise.sample`` followed by φ∘ε + ψ z_S,
    operation for operation, so samples do not depend on the layout.  A
    one-vertex update draws straight into its row.
    """
    rows = [pos[u] for u in upd.rest]
    law = upd.noise
    if len(rows) == 1:
        out = zmat[rows[0]][None, :]
        rng.standard_normal(out=out[0])
        out *= law.chol[0, 0]
        out += law.mean.values[0]
    else:
        out = law.sample(rng, zmat.shape[1]).T
    out *= upd.phi.values[:, None]
    free = _free(upd, pos)
    if len(free) == 1:
        (j, p), = free
        out += upd.psi.values[:, j:j + 1] * zmat[p]
    elif free:
        # the (nb, |S|) product, zero column included: BLAS may sum it in
        # another order in any other layout
        z_sep = np.zeros((zmat.shape[1], len(upd.sep)))
        for j, p in free:
            z_sep[:, j] = zmat[p]
        out += (z_sep @ upd.psi.values.T).T
    if len(rows) > 1:
        zmat[rows] = out


def _moments(updates: tuple[CliqueUpdate, ...],
             index: tuple[int, ...]) -> tuple[IndexedVector, IndexedMatrix]:
    """Exact mean and covariance of Z over ``index``, drawn by ``updates``.

    The recursion is linear with independent noises, so moments propagate
    in closed form: an independent update gives its rows φ∘E[ε] and the
    scaled noise covariance as its block; a dependent update gives its
    rows ψ·mean_S + φ∘E[ε] and picks up ψΣψᵀ plus the scaled noise
    covariance.

    An update costs O(|rows|·d) when one separator column is free (every
    update of a Hüsler-Reiss pair tree): its mean, cross-covariance and
    block come from that ψ column and one covariance row.  That is the
    zero-padded product below term for term, since every other term of
    the padded sums is an exact zero and the rows not yet written add a
    +0 (hence the ``+ 0.0``, which turns a -0 into +0 and nothing else).
    An update with two or more free columns multiplies the (|rows| × d)
    zero-padded ψ by the whole covariance, O(|rows|·d²).
    """
    pos = {u: k for k, u in enumerate(index)}
    d = len(index)
    mean = np.zeros(d)
    cov = np.zeros((d, d))
    for upd in updates:
        rows = [pos[u] for u in upd.rest]
        phi = upd.phi.values
        noise_cov = phi[:, None] * upd.noise.cov.values * phi[None, :]
        free = _free(upd, pos)
        if not free:
            mean[rows] = phi * upd.noise.mean.values
            cov[np.ix_(rows, rows)] = noise_cov
            continue
        if len(free) == 1:
            (j, p), = free
            col = upd.psi.values[:, j]
            m_psi = col * mean[p] + 0.0
            cross = col[:, None] * cov[p][None, :] + 0.0
            v_psi = cross[:, p][:, None] * col[None, :] + 0.0
        else:
            psi_eff = np.zeros((len(rows), d))
            for j, p in free:
                psi_eff[:, p] = upd.psi.values[:, j]
            m_psi = psi_eff @ mean
            cross = psi_eff @ cov
            v_psi = cross @ psi_eff.T
        mean[rows] = m_psi + phi * upd.noise.mean.values
        cov[rows, :] = cross
        cov[:, rows] = cross.T
        cov[np.ix_(rows, rows)] = v_psi + noise_cov
    return IndexedVector(index, mean), IndexedMatrix.square(index, cov)


def sample_tail_model(model: TailGraphicalModel | TailNoiseModel, n: int,
                      seed: int, workers: int = 1) -> SampleMatrix:
    """n joint draws of (E_v, Z_{V\\v}) from either limit kind; column v
    holds the exponential.

    Each row block draws the clique updates in order on its own (d × nb)
    block from stream k, then draws E_v, so the output bytes depend only
    on (model, n, seed), never on ``workers``.  A bad seed, n or workers
    raises :class:`ConfigError` before any row is drawn.
    """
    seed = check_seed(seed, "seed")
    _check_rows(n, workers)
    columns = model.ordering.graph.vertices
    vcol = columns.index(model.v)
    pos = {u: k for k, u in enumerate(model.z_index)}
    values = np.empty((n, len(columns)))

    def fill(blk):
        k, start, stop = blk
        rng = derived_rng(seed, k)
        zmat = np.empty((len(columns) - 1, stop - start))
        for upd in model.in_order:
            _draw_step(upd, pos, rng, zmat)
        values[start:stop, vcol] = rng.standard_exponential(stop - start)
        values[start:stop, :vcol] = zmat[:vcol].T
        values[start:stop, vcol + 1:] = zmat[vcol:].T

    with block_runner(n, workers) as run:
        run(fill)
    kind = "tail_noise" if isinstance(model, TailNoiseModel) else "tail_model"
    return SampleMatrix(columns=columns, values=values,
                        meta={"kind": kind, "v": model.v, "n": n, "seed": seed})


def tail_model_moments(model: TailGraphicalModel | TailNoiseModel
                       ) -> tuple[IndexedVector, IndexedMatrix]:
    """Exact mean and covariance of the limit vector Z_{V\\v}, of either
    limit kind; a graph with no vertex besides v raises
    :class:`EmptySubset`.

    For an all-HR graph the single-vertex limit reproduces the dedicated
    recursion (:func:`tailgraph.husler_reiss.tail_model_mean` /
    precision); for an all-Gaussian graph it reproduces the whole-graph
    closed form (:func:`tailgraph.gaussian.limit_law`).
    """
    if not model.z_index:
        raise EmptySubset(f"the graph has no vertex besides v = {model.v}, "
                          "so the limit vector is empty")
    return _moments(model.in_order, model.z_index)


# ---------------------------------------------------------------------------
# remainder verification


@dataclass(frozen=True)
class RemainderRow:
    clique: tuple[int, ...]
    t: float
    sup_a: float
    sup_b: float


@dataclass(frozen=True)
class RemainderReport:
    v: int
    rows: tuple[RemainderRow, ...]

    def max_sup(self) -> float:
        return max((max(r.sup_a, r.sup_b) for r in self.rows), default=0.0)


def verify_remainders(ordering: CliqueOrdering, models: dict, v: int,
                      t_grid=REMAINDER_GRID) -> RemainderReport:
    """:func:`remainder_report` of the single-vertex limit at v."""
    return remainder_report(build_tail_model(ordering, models, v), t_grid=t_grid)


def remainder_report(model: TailGraphicalModel,
                     t_grid=REMAINDER_GRID) -> RemainderReport:
    """Finite-level defect of each clique's norming composition.

    For every non-root clique, every level t and every separator
    fluctuation z on the grid, compares the composed single-vertex
    norming against the clique's own separator norming evaluated at the
    perturbed separator state T(z,t) = a(t) + b(t)z:

        A = [a^{(v)}_rest(t) + b^{(v)}_rest(t)·ψ(z) − a^{(S)}(T)] / b^{(S)}(T)
        B = b^{(v)}_rest(t)·φ / b^{(S)}(T) − 1

    and reports per-(clique, t) suprema of |A| and |B| over the grid,
    whose points put z = 0 at v and range each other separator vertex
    over ``_Z_GRID``.  ``t_grid`` must be a nonempty run of finite
    positive levels, else :class:`ConfigError`.
    """
    t_grid = check_levels(t_grid, "t_grid")
    rows = []
    for upd in model.updates:
        z_full = np.array(list(itertools.product(
            *((0.0,) if s == model.v else _Z_GRID for s in upd.sep))))
        npts = z_full.shape[0]
        for t in t_grid:
            big_t = np.empty((npts, len(upd.sep)))
            for j, s in enumerate(upd.sep):
                pair = model.normings[s]
                big_t[:, j] = pair.a(t) + pair.b(t) * z_full[:, j]
            a_sep = upd.a_fun(big_t)
            b_sep = upd.b_fun(big_t)
            a_v = np.array([model.normings[u].a(t) for u in upd.rest])
            b_v = np.array([model.normings[u].b(t) for u in upd.rest])
            psi_z = (z_full @ upd.psi.values.T if upd.psi is not None
                     else np.zeros((npts, len(upd.rest))))
            a_def = (a_v[None, :] + b_v[None, :] * psi_z - a_sep) / b_sep
            b_def = (b_v[None, :] * upd.phi.values[None, :]) / b_sep - 1.0
            rows.append(RemainderRow(
                clique=upd.clique, t=t,
                sup_a=float(np.max(np.abs(a_def))),
                sup_b=float(np.max(np.abs(b_def))),
            ))
    return RemainderReport(v=model.v, rows=tuple(rows))


# ---------------------------------------------------------------------------
# block-graph tail noise


@dataclass(frozen=True)
class TailNoiseModel(_Limit):
    """Independent per-clique noise blocks (ψ None, unit φ) of a block graph."""

    blocks: tuple[CliqueUpdate, ...]

    @property
    def in_order(self) -> tuple[CliqueUpdate, ...]:
        """The blocks, in draw order."""
        return self.blocks

    def mean(self) -> IndexedVector:
        return tail_model_moments(self)[0]

    def covariance(self) -> IndexedMatrix:
        return tail_model_moments(self)[1]

    def to_dict(self) -> dict:
        return {
            "v": self.v,
            "ordering": self.ordering.to_dict(),
            "blocks": [{
                "clique": list(b.clique),
                "separator_vertex": b.sep[0],
                "new_vertices": list(b.rest),
                "family": b.family,
                "law": b.noise.to_dict(),
            } for b in self.blocks],
        }


def build_tail_noise(ordering: CliqueOrdering, models: dict, v: int) -> TailNoiseModel:
    """Block-wise separator-normed limit for a block graph.

    Every separator must be a single vertex.  The first block is the root
    of the single-vertex limit, C_1 given {v} (:func:`_root`);
    later blocks condition each clique on its separator vertex.
    """
    ordering = _rooted(ordering, v)
    bad = [s for s in ordering.separators[1:] if len(s) != 1]
    if bad:
        raise NotBlockGraph(
            f"separators {bad} are not singletons; the block decomposition "
            "needs a block graph"
        )
    table = _models_table(ordering, models)
    root = _root(table[ordering.cliques[0]], v)[1]
    blocks = [root] if root is not None else []
    for clique, sep in zip(ordering.cliques[1:], ordering.separators[1:]):
        upd = _update(table[clique].given(sep), np.ones(1), np.zeros(1, bool))[0]
        blocks.append(replace(upd, psi=None,
                              phi=IndexedVector(upd.rest, np.ones(len(upd.rest)))))
    return TailNoiseModel(ordering=ordering, v=v, blocks=tuple(blocks))
