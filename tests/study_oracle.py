"""Oracles of the convergence study in ``tailgraph.diagnostics``.

:func:`ks_statistic` is the KS distance with the CDF evaluated at every
sorted point, as ``scipy.stats.kstest`` does; the study's distance
evaluates it only where the maximum can lie and must return the same
bits.

:func:`level_moments` is the study's per-level path as it was before the
study read the draws' vertex-major rows: a row-major renormalized copy
(:func:`renormalize`), a fancy column index of it, its column means and
``np.cov``.  The study must give the same bytes, and its margins the same
strides.

:func:`clique_block_gap` is the streamed study's covariance gap: a
row-major ``np.cov`` over each clique's renormalized columns, against the
limit's block.  The study folds the same blocks in from renormalized
copies of each clique's columns, so the two agree up to rounding.
"""

import numpy as np

from tailgraph.limits import SampleMatrix, tail_model_moments


def ks_statistic(x, cdf) -> float:
    """Two-sided one-sample KS distance of x from ``cdf``, in full."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.shape[0]
    f = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - f).max()
    d_minus = (f - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def renormalize(samples: SampleMatrix, model, mode: str) -> SampleMatrix:
    """Fluctuation-scale samples as one row-major (n × d) matrix."""
    t = samples.meta["t"]
    out = np.empty(samples.values.shape)
    cols = samples.columns
    if mode == "condition_on_root":
        x_v = samples.column(model.v)
        for j, u in enumerate(cols):
            if u == model.v:
                out[:, j] = x_v - t
                continue
            pair = model.normings[u]
            out[:, j] = (samples.values[:, j] - pair.a(x_v)) / pair.b(x_v)
    else:
        out[:, cols.index(model.v)] = samples.column(model.v) - t
        for blk in model.blocks:
            x_s = samples.column(blk.sep[0])[:, None]
            z = (samples.sub(blk.rest) - blk.a_fun(x_s)) / blk.b_fun(x_s)
            for j, u in enumerate(blk.rest):
                out[:, cols.index(u)] = z[:, j]
    return SampleMatrix(columns=cols, values=out, meta=dict(samples.meta))


def level_moments(draw: SampleMatrix, limit, mode: str):
    """(x_v − t, z, mean, cov) of one level: z is the (n × (d − 1))
    renormalized margins in the limit's ``z_index`` order."""
    z = renormalize(draw, limit, mode)
    root = z.column(limit.v).copy()
    z = z.sub(limit.z_index)
    k = len(limit.z_index)
    return root, z, z.mean(axis=0), np.cov(z.T).reshape(k, k)


def clique_block_gap(draw: SampleMatrix, limit, mode: str) -> float:
    """max over the cliques C of max |cov − limit| on the block C∖{v}."""
    z = renormalize(draw, limit, mode)
    cov = tail_model_moments(limit)[1].values
    pos = {u: j for j, u in enumerate(limit.z_index)}
    gaps = []
    for clique in limit.ordering.cliques:
        cols = [u for u in clique if u != limit.v]
        idx = [pos[u] for u in cols]
        emp = np.cov(z.sub(cols).T).reshape(len(cols), len(cols))
        gaps.append(np.max(np.abs(emp - cov[np.ix_(idx, idx)])))
    return float(np.max(gaps))
