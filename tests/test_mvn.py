"""Multivariate normal CDF: scipy.stats is the independent oracle."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from tailgraph.errors import ConfigError, DimensionTooLarge, NumericalBreakdown
from tailgraph.linalg import GaussianLaw, IndexedMatrix, IndexedVector
from tailgraph.mvn import CdfEstimate, bvn_cdf, mvn_cdf


def make_law(index, mean, cov):
    return GaussianLaw(
        IndexedVector(index, np.asarray(mean, dtype=float)),
        IndexedMatrix.square(index, np.asarray(cov, dtype=float)),
    )


def random_corr(rng, d):
    a = rng.normal(size=(d, d + 3))
    c = a @ a.T
    s = np.sqrt(np.diag(c))
    return c / np.outer(s, s)


def test_bvn_against_scipy_grid():
    rng = np.random.default_rng(11)
    for _ in range(60):
        r = float(rng.uniform(-0.98, 0.98))
        x, y = rng.uniform(-3.5, 3.5, size=2)
        ours = bvn_cdf(x, y, r)
        ref = stats.multivariate_normal(
            cov=[[1.0, r], [r, 1.0]], allow_singular=False
        ).cdf([x, y])
        assert abs(ours - ref) < 5e-7, (x, y, r)


def test_bvn_degenerate_correlations():
    assert abs(bvn_cdf(0.3, 1.2, 1.0) - ndtr(0.3)) < 1e-14
    assert abs(bvn_cdf(0.3, -0.1, -1.0) - max(
        0.0, ndtr(0.3) + ndtr(-0.1) - 1.0)) < 1e-14


@pytest.mark.parametrize("d", [3, 4, 5])
def test_mvn_against_scipy(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(4):
        corr = random_corr(rng, d)
        upper = rng.uniform(-1.5, 2.0, size=d)
        est = mvn_cdf(upper, make_law(tuple(range(1, d + 1)), np.zeros(d), corr),
                      accuracy=1e-6, seed=5)
        ref = stats.multivariate_normal(cov=corr).cdf(upper)
        # scipy's own estimate carries error around 1e-6 as well
        assert abs(est.value - ref) < 20 * (est.error + 1e-6)


def test_mvn_deterministic_and_error_field():
    corr = random_corr(np.random.default_rng(0), 4)
    law = make_law((1, 2, 3, 4), np.zeros(4), corr)
    a = mvn_cdf(np.array([0.5, 0.2, -0.1, 1.0]), law, seed=9)
    b = mvn_cdf(np.array([0.5, 0.2, -0.1, 1.0]), law, seed=9)
    assert isinstance(a, CdfEstimate)
    assert a == b
    c = mvn_cdf(np.array([0.5, 0.2, -0.1, 1.0]), law, seed=10)
    assert a.value != c.value
    assert abs(a.value - c.value) < 5 * (a.error + c.error + 1e-9)


def test_mvn_monotone_in_upper_limits():
    corr = random_corr(np.random.default_rng(4), 3)
    law = make_law((1, 2, 3), np.zeros(3), corr)
    grid = [-0.5, 0.0, 0.8, 1.5]
    vals = [mvn_cdf(np.array([g, 0.3, 0.6]), law, accuracy=1e-7).value
            for g in grid]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_mvn_marginalization_with_inf():
    corr = random_corr(np.random.default_rng(8), 4)
    law = make_law((1, 2, 3, 4), np.zeros(4), corr)
    full = mvn_cdf(np.array([0.4, np.inf, 0.9, np.inf]), law, accuracy=1e-8)
    pair = GaussianLaw(law.mean.sub((1, 3)), law.cov.sub((1, 3)))
    two = mvn_cdf(np.array([0.4, 0.9]), pair, accuracy=1e-8)
    assert abs(full.value - two.value) < 1e-12  # both hit the bivariate path
    assert mvn_cdf(np.full(4, np.inf), law).value == 1.0
    assert mvn_cdf(np.array([0.4, -np.inf, 0.9, np.inf]), law).value == 0.0


def test_mvn_mean_shift():
    corr = random_corr(np.random.default_rng(21), 3)
    mean = np.array([0.5, -1.0, 2.0])
    shifted = mvn_cdf(mean + 0.3, make_law((1, 2, 3), mean, corr), accuracy=1e-7)
    centred = mvn_cdf(np.full(3, 0.3), make_law((1, 2, 3), np.zeros(3), corr),
                      accuracy=1e-7)
    # the subtraction (mean + 0.3) - mean is not bitwise 0.3, so the two
    # lattice integrands differ in the last ulp; compare within the errors
    assert abs(shifted.value - centred.value) < 5 * (shifted.error + centred.error)


def test_dimension_cap():
    d = 9
    law = make_law(tuple(range(1, d + 1)), np.zeros(d), np.eye(d))
    with pytest.raises(DimensionTooLarge):
        mvn_cdf(np.zeros(d), law)


@pytest.mark.parametrize("upper, seed, error", [
    ([0.0, 0.0], 0, ConfigError), ([[0.0, 0.0, 0.0]], 0, ConfigError),
    ([0.0, np.nan, 0.0], 0, NumericalBreakdown), ([0.0, 0.0, 0.0], -1, ConfigError),
    ([0.0, 0.0, 0.0], 2.5, ConfigError), ([0.0, 0.0, 0.0], True, ConfigError),
    ([0.0, 0.0, 0.0], 2 ** 64, ConfigError),
], ids=["short", "two_dimensional", "nan", "negative_seed", "fractional_seed",
        "bool_seed", "wide_seed"])
def test_mvn_rejects_bad_arguments(upper, seed, error):
    law = GaussianLaw.from_arrays((1, 2, 3), np.zeros(3), np.eye(3) + 0.2)
    with pytest.raises(error):
        mvn_cdf(np.array(upper), law, seed=seed)
