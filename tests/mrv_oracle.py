"""The per-point regular-variation checks, kept as the oracle of the
batched ``tailgraph.diagnostics.mrv_checks``.

Each homogeneity point runs the whole factorization twice through the
one-state form of ``factorized_density``, and each compatibility grid
value evaluates both clique measures through the one-state
``exponent_measure_estimate``.
"""

import numpy as np

from tailgraph import husler_reiss as hr
from tailgraph.diagnostics import (
    CompatibilityRow,
    HomogeneityRow,
    MRVReport,
    factorized_density,
)
from tailgraph.errors import NumericalBreakdown
from tailgraph.graphs import CliqueOrdering, _models_table
from tailgraph.rng import OFFSET_MISC, derived_rng


def mrv_checks(ordering: CliqueOrdering, models: dict, seed: int = 0,
               n_points: int = 10, scale: float = 2.0,
               homogeneity_tol: float = 1e-4,
               accuracy: float = 1e-9) -> MRVReport:
    """Regular-variation sanity of the factorized density.

    Homogeneity: the assembled density must scale as t^-(d+1) at t =
    ``scale`` on random points, within ``homogeneity_tol`` relative.
    Compatibility: adjacent cliques must induce the same separator
    exponent measure — evaluated by marginalizing each clique's measure
    (+inf padding) on a small separator grid; mismatched models are
    reported, not raised.
    """
    table = _models_table(ordering, models)
    d = ordering.graph.n
    rng = derived_rng(seed, OFFSET_MISC + 1)
    hom = []
    for _ in range(n_points):
        y = rng.uniform(0.5, 2.0, size=d)
        log_lam = factorized_density(ordering, models, y, log=True)
        log_scaled = factorized_density(ordering, models, scale * y, log=True)
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
        for g in grid:
            x_s = np.full(len(sep), g)
            lam_a, err_a = _marginal_measure(parent, sep, x_s, accuracy)
            lam_b, err_b = _marginal_measure(child, sep, x_s, accuracy)
            tol = 10.0 * (err_a + err_b) + 1e-12
            comp.append(CompatibilityRow(
                clique_a=parent.clique, clique_b=child.clique, sep=sep,
                point=tuple(x_s), lam_a=lam_a, lam_b=lam_b,
                gap=abs(lam_a - lam_b), tol=tol,
            ))
    return MRVReport(homogeneity=tuple(hom), compatibility=tuple(comp),
                     homogeneity_tol=homogeneity_tol)


def _marginal_measure(model, sep, x_s, accuracy):
    """Clique exponent measure with non-separator coordinates at +inf."""
    y = np.full(len(model.clique), np.inf)
    pos = {u: k for k, u in enumerate(model.clique)}
    for j, s in enumerate(sep):
        y[pos[s]] = x_s[j]
    est = hr.exponent_measure_estimate(model, y, accuracy=accuracy)
    return est.value, est.error

