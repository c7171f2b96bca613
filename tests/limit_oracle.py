"""Reference limit sampler and moments, one loop per limit kind.

These are the clique-major loops that sampled and summarized the limit
objects before both kinds ran through one loop over their clique
updates: a theorem-1 model draws into an (n × d) matrix with one column
gather per separator, and a tail-noise model writes its block draws
column by column.  The noise-model methods, and the ``CliqueUpdate.apply`` the
sampler called, are module functions here that take the object as
``self``.  ``tailgraph.limits`` is checked against them
byte for byte; nothing in the package uses them.
"""

import concurrent.futures

import numpy as np

from tailgraph.errors import ConfigError
from tailgraph.limits import SampleMatrix, TailGraphicalModel
from tailgraph.linalg import IndexedMatrix, IndexedVector
from tailgraph.rng import block_bounds, derived_rng


def _apply(self, z_sep: np.ndarray, eps: np.ndarray) -> np.ndarray:
    out = self.phi.values[None, :] * eps
    if self.psi is not None:
        out = out + z_sep @ self.psi.values.T
    return out


def _sample_block(model: TailGraphicalModel, rng, nb: int,
                  zpos: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    zmat = np.zeros((nb, len(zpos)))
    if model.root is not None:
        root = model.root.noise.sample(rng, nb)
        for j, u in enumerate(model.root.noise.index):
            zmat[:, zpos[u]] = root[:, j]
    for upd in model.updates:
        eps = upd.noise.sample(rng, nb)
        z_sep = np.zeros((nb, len(upd.sep)))
        for j, s in enumerate(upd.sep):
            if s != model.v:
                z_sep[:, j] = zmat[:, zpos[s]]
        out = _apply(upd, z_sep, eps)
        for j, u in enumerate(upd.rest):
            zmat[:, zpos[u]] = out[:, j]
    e_v = rng.standard_exponential(nb)
    return zmat, e_v


def sample_tail_model(model: TailGraphicalModel, n: int, seed: int,
                      workers: int = 1) -> SampleMatrix:
    """n joint draws of (E_v, Z_{V\\v}); column v holds the exponential.

    Output bytes depend only on (model, n, seed): each fixed-size row
    block uses its own counter-derived stream, so worker count cannot
    affect the result.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    cols = model.ordering.graph.vertices
    zpos = {u: k for k, u in enumerate(model.z_index)}
    values = np.empty((n, len(cols)))
    vcol = cols.index(model.v)
    zcols = [cols.index(u) for u in model.z_index]

    def run_block(args):
        k, start, stop = args
        zmat, e_v = _sample_block(model, derived_rng(seed, k), stop - start, zpos)
        values[start:stop, vcol] = e_v
        if zcols:
            values[np.ix_(range(start, stop), zcols)] = zmat

    blocks = block_bounds(n)
    if workers == 1 or len(blocks) == 1:
        for blk in blocks:
            run_block(blk)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, blocks))
    return SampleMatrix(
        columns=cols, values=values,
        meta={"kind": "tail_model", "v": model.v, "n": n, "seed": seed},
    )


def tail_model_moments(model: TailGraphicalModel) -> tuple[IndexedVector, IndexedMatrix]:
    """Exact mean and covariance of the limit vector Z_{V\\v}.

    The recursion is linear with independent clique noises, so moments
    propagate in closed form: new vertices get ψ·mean_S + φ∘E[ε] and the
    covariance picks up ψΣψᵀ plus the scaled noise covariance.  For an
    all-HR graph this reproduces the dedicated recursion
    (:func:`tailgraph.husler_reiss.tail_model_mean` / precision); for an
    all-Gaussian graph it reproduces the whole-graph closed form
    (:func:`tailgraph.gaussian.limit_law`).
    """
    idx = model.z_index
    pos = {u: k for k, u in enumerate(idx)}
    mean = np.zeros(len(idx))
    cov = np.zeros((len(idx), len(idx)))
    if model.root is not None:
        rows = [pos[u] for u in model.root.noise.index]
        mean[rows] = model.root.noise.mean.values
        cov[np.ix_(rows, rows)] = model.root.noise.cov.values
    for upd in model.updates:
        psi_eff = np.zeros((len(upd.rest), len(idx)))
        if upd.psi is not None:
            for j, s in enumerate(upd.sep):
                if s != model.v:
                    psi_eff[:, pos[s]] = upd.psi.values[:, j]
        phi = upd.phi.values
        m_rest = psi_eff @ mean + phi * upd.noise.mean.values
        cross = psi_eff @ cov
        v_rest = (cross @ psi_eff.T
                  + phi[:, None] * upd.noise.cov.values * phi[None, :])
        rows = [pos[u] for u in upd.rest]
        mean[rows] = m_rest
        cov[rows, :] = cross
        cov[:, rows] = cross.T
        cov[np.ix_(rows, rows)] = v_rest
    return IndexedVector(idx, mean), IndexedMatrix.square(idx, cov)


def noise_mean(self) -> IndexedVector:
    vals = {u: 0.0 for u in self.z_index}
    for blk in self.blocks:
        for u in blk.rest:
            vals[u] = blk.noise.mean.entry(u)
    return IndexedVector(self.z_index, np.array([vals[u] for u in self.z_index]))


def noise_covariance(self) -> IndexedMatrix:
    out = np.zeros((len(self.z_index), len(self.z_index)))
    pos = {u: k for k, u in enumerate(self.z_index)}
    for blk in self.blocks:
        rows = [pos[u] for u in blk.rest]
        out[np.ix_(rows, rows)] = blk.noise.cov.values
    return IndexedMatrix.square(self.z_index, out)


def noise_sample(self, n: int, seed: int) -> SampleMatrix:
    cols = self.ordering.graph.vertices
    values = np.empty((n, len(cols)))
    vcol = cols.index(self.v)
    for k, start, stop in block_bounds(n):
        rng = derived_rng(seed, k)
        nb = stop - start
        for blk in self.blocks:
            draw = blk.noise.sample(rng, nb)
            for j, u in enumerate(blk.rest):
                values[start:stop, cols.index(u)] = draw[:, j]
        values[start:stop, vcol] = rng.standard_exponential(nb)
    return SampleMatrix(
        columns=cols, values=values,
        meta={"kind": "tail_noise", "v": self.v, "n": n, "seed": seed},
    )
