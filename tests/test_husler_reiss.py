"""Hüsler–Reiss clique machinery against closed forms and an FD oracle."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import norm

from tailgraph import husler_reiss as hr
from tailgraph.errors import (
    ConfigError,
    IncompatibleSeparators,
    InvalidVariogram,
    NotSPD,
    NumericalBreakdown,
)
from tailgraph.graphs import Graph, check_separator_models, clique_ordering
from tailgraph.linalg import spd_inverse
from tailgraph.husler_reiss import _X_FLOOR
from tailgraph.mvn import mvn_cdf

from conftest import COLLINEAR_GAMMA, hr_pair_model
from hr_fd_oracle import fd_derivative
from hr_limit_oracle import a2_limit_params as a2_oracle


def vario(index, values):
    return hr.VariogramMatrix(tuple(index), np.asarray(values, dtype=float))


def pair_measure(y1, y2, gamma):
    """Bivariate exponent measure, direct closed form."""
    s = np.sqrt(gamma)
    return (norm.cdf(s / 2 + np.log(y2 / y1) / s) / y1
            + norm.cdf(s / 2 + np.log(y1 / y2) / s) / y2)


def pair_density(y1, y2, gamma):
    """Hand-derived bivariate density: phi(log(y1/y2)/s + s/2)/(s*y1*y2^2)."""
    s = np.sqrt(gamma)
    return norm.pdf(np.log(y1 / y2) / s + s / 2) / (s * y1 * y2**2)


def pair_kernel(x1, x2, gamma):
    """Exact finite-level conditional P(X2 <= x2 | X1 = x1) on the
    exponential scale."""
    y1, y2 = hr.exp_to_frechet(x1), hr.exp_to_frechet(x2)
    s = np.sqrt(gamma)
    lam = pair_measure(y1, y2, gamma)
    return norm.cdf((np.log(y2 / y1) + gamma / 2) / s) * np.exp(1.0 / y1 - lam)


# ----------------------------------------------------------- validation


def test_variogram_validation():
    with pytest.raises(InvalidVariogram):
        vario((1, 2), [[0.1, 1.0], [1.0, 0.0]])  # diagonal
    with pytest.raises(InvalidVariogram):
        vario((1, 2), [[0.0, 1.0], [1.2, 0.0]])  # asymmetric
    with pytest.raises(InvalidVariogram):
        vario((1, 2, 3), [[0, 1, 4], [1, 0, 1], [4, 1, 0]])  # not strictly cnd
    for gamma in (0.0, -0.0, -1.0):  # a pair is cnd only for Γ_12 > 0
        with pytest.raises(InvalidVariogram):
            vario((1, 2), [[0.0, gamma], [gamma, 0.0]])
    with pytest.raises(InvalidVariogram):
        vario((1, 2), [[-0.0, 0.5], [0.5, 1e-300]])  # diagonal, however small
    assert vario((1, 2), [[-0.0, 5e-324], [5e-324, 0.0]]).dim == 2
    v = vario((3, 1), [[0.0, 2.0], [2.0, 0.0]])
    assert v.index == (3, 1)  # label order preserved at matrix level
    assert hr.HuslerReissModel((3, 1), v).clique == (1, 3)  # model sorts


def test_sigma_anchor_constant_variogram():
    v = vario((1, 2, 3), [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    sig = hr.sigma_anchor(v, 1)
    assert sig.rows == (2, 3)
    assert np.allclose(sig.values, [[2.0, 1.0], [1.0, 2.0]], atol=1e-15)
    with pytest.raises(ConfigError):
        hr.sigma_anchor(v, 9)


def test_sigma_anchor_raises_not_spd_on_a_numerically_singular_anchor():
    v = vario((1, 2, 3, 4), COLLINEAR_GAMMA)
    assert hr.sigma_anchor(v, 1).rows == (2, 3, 4)
    with pytest.raises(NotSPD):
        hr.sigma_anchor(v, 2)


def test_exp_to_frechet_round_trip():
    x = np.array([0.5, 2.0, 10.0, 40.0])
    y = hr.exp_to_frechet(x)
    assert np.allclose(np.exp(-1.0 / y), 1.0 - np.exp(-x))
    big = hr.exp_to_frechet(50.0)
    assert abs(big / np.exp(50.0) - 1.0) < 1e-12


# ------------------------------------------------------ exponent measure


def test_bivariate_measure_closed_form():
    gamma = 1.3
    model = hr_pair_model((1, 2), gamma)
    for y1, y2 in [(1.0, 1.0), (0.4, 2.0), (3.0, 0.2), (5.0, 5.0)]:
        got = hr.exponent_measure_many(model.variogram, [y1, y2])[0]
        assert abs(got - pair_measure(y1, y2, gamma)) < 1e-13


def test_measure_homogeneity_and_margins():
    v = vario((1, 2, 3), [[0, 1.0, 1.2], [1.0, 0, 0.8], [1.2, 0.8, 0]])
    y = np.array([0.7, 1.1, 2.0])
    lam = hr.exponent_measure_many(v, y)[0]
    lam2 = hr.exponent_measure_many(v, 2.0 * y)[0]
    assert abs(lam2 - lam / 2.0) < 1e-9
    # +inf drops a coordinate to the pair measure
    lam_pair = hr.exponent_measure_many(v, [0.7, 1.1, np.inf])[0]
    direct = hr.exponent_measure_many(v.sub((1, 2)), [0.7, 1.1])[0]
    assert abs(lam_pair - direct) < 1e-12
    # single-coordinate margin is exactly 1/y
    lam_one = hr.exponent_measure_many(v, [0.7, np.inf, np.inf])[0]
    assert abs(lam_one - 1.0 / 0.7) < 1e-14


def test_bivariate_density_closed_form():
    model = hr_pair_model((1, 2), 1.0)
    got = hr.exponent_measure_density_many(model.variogram, [1.0, 1.0])[0]
    assert abs(got - 0.35206532676429947) < 1e-8  # phi(1/2)
    y = np.array([0.7, 1.4])
    ref = pair_density(y[0], y[1], 1.0)
    got = hr.exponent_measure_density_many(model.variogram, y)[0]
    assert abs(got - ref) / ref < 1e-6


def test_trivariate_density_matches_bivariate_factorization():
    # on a decomposable trivariate variogram (tree metric), the density
    # factorizes across the two edges; the closed form must agree
    g12, g23 = 0.9, 0.6
    v = vario((1, 2, 3), [[0, g12, g12 + g23],
                          [g12, 0, g23],
                          [g12 + g23, g23, 0]])
    model = hr.HuslerReissModel((1, 2, 3), v)
    y = np.array([1.2, 0.8, 1.5])
    lam = hr.exponent_measure_density_many(model.variogram, y)[0]
    ref = (pair_density(y[0], y[1], g12) * pair_density(y[1], y[2], g23)
           * y[1] ** 2)  # divided by the separator density 1/y2^2
    assert abs(lam - ref) / ref < 1e-12


def test_four_clique_density_matches_tree_factorization():
    # tree metric on the star 2-1, 2-3, 2-4: the density factorizes over
    # the three edges, divided twice by the centre's density 1/y2^2
    g21, g23, g24 = 0.7, 1.1, 0.5
    v = vario((1, 2, 3, 4), [[0, g21, g21 + g23, g21 + g24],
                             [g21, 0, g23, g24],
                             [g21 + g23, g23, 0, g23 + g24],
                             [g21 + g24, g24, g23 + g24, 0]])
    model = hr.HuslerReissModel((1, 2, 3, 4), v)
    for y in ([1.2, 0.8, 1.5, 0.6], [0.5, 2.0, 1.0, 3.0]):
        y = np.array(y)
        lam = hr.exponent_measure_density_many(model.variogram, y)[0]
        ref = (pair_density(y[1], y[0], g21) * pair_density(y[1], y[2], g23)
               * pair_density(y[1], y[3], g24) * y[1] ** 4)
        assert abs(lam - ref) / ref < 1e-12


def random_variogram(rng, d):
    """Valid d-vertex variogram with off-diagonal entries in [0.3, 1.5]."""
    while True:
        g = np.zeros((d, d))
        g[np.triu_indices(d, 1)] = rng.uniform(0.3, 1.5, d * (d - 1) // 2)
        try:
            return vario(range(1, d + 1), g + g.T)
        except InvalidVariogram:
            continue


@pytest.mark.parametrize("d", [2, 3])
def test_derivatives_match_fd_oracle(d):
    # the stencil's rounding noise grows like h^-|P|; at the oracle's
    # default step it reaches ~6e-5 relative on triple partials, at 1e-2
    # it stays below 1e-7 for every subset size
    rng = np.random.default_rng(11 + d)
    for _ in range(4):
        v = random_variogram(rng, d)
        y = rng.uniform(0.5, 2.0, size=(5, d))
        for k in range(1, d + 1):
            for subset in itertools.combinations(range(d), k):
                got = hr.exponent_measure_derivative_many(v, y, subset)
                ref = fd_derivative(v, y, subset, step=1e-2)
                assert np.all(np.abs(got - ref) <= 1e-5 * ref), subset
                # the anchor (first position) is arbitrary
                flipped = hr.exponent_measure_derivative_many(v, y, subset[::-1])
                assert np.allclose(flipped, got, rtol=1e-12, atol=0.0)


@st.composite
def clique_and_states(draw):
    """An HR variogram on 2-4 vertices, from a random anchored covariance
    L Lᵀ, and 2-4 states whose coordinate ratios reach e^±400."""
    d = draw(st.integers(2, 4))
    low = np.zeros((d - 1, d - 1))
    for i in range(d - 1):
        low[i, i] = draw(st.floats(0.3, 1.5))
        for j in range(i):
            low[i, j] = draw(st.floats(-1.0, 1.0))
    sig = low @ low.T
    s = np.diag(sig)
    g = np.zeros((d, d))
    g[0, 1:] = g[1:, 0] = s
    g[1:, 1:] = s[:, None] + s[None, :] - 2.0 * sig
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    log_y = draw(st.lists(
        st.lists(st.one_of(st.floats(-5.0, 5.0),
                           st.sampled_from([-200.0, -40.0, 40.0, 200.0])),
                 min_size=d, max_size=d),
        min_size=2, max_size=4))
    return vario(range(1, d + 1), g), np.exp(np.array(log_y))


@given(clique_and_states())
def test_derivative_rows_do_not_depend_on_their_batch(case):
    v, y = case
    for k in range(1, v.dim + 1):
        for wrt in itertools.combinations(range(v.dim), k):
            for log in (False, True):
                # a loose quadrature target keeps 3-D orthants cheap; the
                # claim is bit equality, whatever the accuracy
                batch = hr.exponent_measure_derivative_many(
                    v, y, wrt, log=log, accuracy=1e-3)
                rows = [hr.exponent_measure_derivative_many(
                    v, row, wrt, log=log, accuracy=1e-3)[0] for row in y]
                assert np.array_equal(batch, rows), (wrt, log)


def test_tiny_states_overflow_to_inf_silently():
    """At Fréchet states e^-200 a trivariate log density is ~800: the
    density is +inf, and no overflow warning escapes."""
    v = vario((1, 2, 3), [[0, 1.0, 1.2], [1.0, 0, 0.8], [1.2, 0.8, 0]])
    y = np.exp(np.full((2, 3), -200.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hr.exponent_measure_derivative_many(v, y, [0, 1, 2])
        log_got = hr.exponent_measure_derivative_many(v, y, [0, 1, 2], log=True)
    assert np.all(np.isposinf(got)) and np.all(log_got > 709.0)


def test_states_of_wrong_shape_raise():
    v = random_variogram(np.random.default_rng(3), 3)
    for bad in (np.ones((2, 4)), np.ones(2), np.ones((1, 2, 3)), np.ones(())):
        with pytest.raises(ConfigError):
            hr.exponent_measure_derivative_many(v, bad, [0])
        with pytest.raises(ConfigError):
            hr.exponent_measure_many(v, bad)
    with pytest.raises(NumericalBreakdown):
        hr.exponent_measure_derivative_many(v, [[1.0, np.nan, 2.0]], [0])


# ----------------------------------------------------- transition kernel


def test_pair_kernel_matches_exact_closed_form():
    gamma = 1.0
    model = hr_pair_model((1, 2), gamma)
    for t in (5.0, 8.0, 20.0):
        for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
            got = hr.transition_kernel(model, (1,), t, t + z)[0]
            assert abs(got - pair_kernel(t, t + z, gamma)) < 1e-9


@pytest.mark.parametrize("x_sep", [2.0, 20.0, 300.0])
def test_pair_kernel_extreme_levels(x_sep):
    gamma = 0.8
    model = hr_pair_model((1, 2), gamma)
    x_rest = np.geomspace(_X_FLOOR, x_sep + 700.0, 400)  # up to the bracket cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kern = hr.transition_kernel(model, (1,), x_sep, x_rest[:, None])
    assert np.all((kern >= 0.0) & (kern <= 1.0))
    assert np.all(np.diff(kern) >= 0.0)
    with np.errstate(all="ignore"):
        ref = pair_kernel(x_sep, x_rest, gamma)
    finite = np.isfinite(ref)
    assert finite.sum() > 300
    assert np.max(np.abs(kern[finite] - ref[finite])) < 1e-12


def test_pair_kernel_limit_convention():
    """At t = 20 the kernel is within 1e-6 of the Gaussian CDF with
    mean −γ/2 and variance γ — and far from the (−γ, 2γ) variant."""
    gamma = 1.0
    model = hr_pair_model((1, 2), gamma)
    z_grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    t = 20.0
    kern = np.array([hr.transition_kernel(model, (1,), t, t + z)[0]
                     for z in z_grid])
    good = norm.cdf(z_grid, loc=-gamma / 2, scale=np.sqrt(gamma))
    bad = norm.cdf(z_grid, loc=-gamma, scale=np.sqrt(2 * gamma))
    assert np.max(np.abs(kern - good)) < 1e-6
    assert np.max(np.abs(kern - bad)) > 0.15


def test_a2_params_bivariate_closed_form():
    gamma = 1.3
    slope, law = hr.a2_limit_params(hr_pair_model((1, 2), gamma), (1,))
    assert slope.values.tolist() == [[1.0]]
    assert abs(law.mean.entry(2) + gamma / 2) < 1e-14
    assert abs(law.cov.entry(2, 2) - gamma) < 1e-14


def test_a2_params_row_sums_and_anchor_invariance():
    """The package anchors at 1; the oracle anchored at 3 agrees."""
    rng = np.random.default_rng(5)
    for _ in range(6):
        # squared Euclidean distances of points in R^3: strictly
        # conditionally negative definite for points in general position
        loc = rng.normal(size=(4, 3))
        g = np.sum((loc[:, None, :] - loc[None, :, :]) ** 2, axis=2)
        model = hr.HuslerReissModel((1, 2, 3, 4), vario((1, 2, 3, 4), g))
        p_slope, p_law = hr.a2_limit_params(model, (1, 3))
        assert np.allclose(p_slope.values.sum(axis=1), 1.0, atol=1e-14)
        slope, law, _ = a2_oracle(model, (1, 3), anchor=3)
        assert np.allclose(p_slope.values, slope.values, atol=1e-10)
        assert np.allclose(p_law.mean.values, law.mean.values, atol=1e-10)
        assert np.allclose(p_law.cov.values, law.cov.values, atol=1e-10)


def test_a2_params_match_the_two_inverse_oracle():
    """One conditional-Gaussian solve (anchored at min(S)) agrees with
    inverting Σ^{(s)} and then its R block at every anchor s of every
    separator of random cliques."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for d in range(2, 6):
        for _ in range(4):
            # squared distances of d points in general position in R^d
            loc = rng.normal(size=(d, d))
            g = np.sum((loc[:, None, :] - loc[None, :, :]) ** 2, axis=2)
            clique = tuple(range(1, d + 1))
            model = hr.HuslerReissModel(clique, vario(clique, g))
            for k in range(1, d):
                for sep in itertools.combinations(clique, k):
                    p_slope, p_law = hr.a2_limit_params(model, sep)
                    p_prec = spd_inverse(p_law.cov)
                    for anchor in sep:
                        slope, law, prec = a2_oracle(model, sep, anchor=anchor)
                        assert p_slope.rows == slope.rows
                        assert p_slope.cols == slope.cols
                        for got, ref in ((p_slope, slope), (p_law.mean, law.mean),
                                         (p_law.cov, law.cov), (p_prec, prec)):
                            gap = np.max(np.abs(got.values - ref.values))
                            worst = max(worst, gap / np.max(np.abs(ref.values)))
    assert worst < 1e-12


@pytest.mark.parametrize("gamma", [1e-310, 1e-200, 0.3, 1.3, 1e154, 1e300])
@pytest.mark.parametrize("sep", [(1,), (2,)])
def test_a2_params_pair_is_exact(gamma, sep):
    slope, law = hr.a2_limit_params(hr_pair_model((1, 2), gamma), sep)
    assert law.mean.values.tolist() == [-gamma / 2]
    assert law.cov.values.tolist() == [[gamma]]
    assert slope.values.tolist() == [[1.0]]


@pytest.mark.parametrize("clique", [(1, 2), (1, 2, 3)])
@pytest.mark.parametrize("sep", [(), (1, 4), "clique"],
                         ids=["empty", "outside", "covering"])
def test_a2_params_reject_bad_separators(clique, sep):
    g = np.full((len(clique), len(clique)), 1.0) - np.eye(len(clique))
    model = hr.HuslerReissModel(clique, vario(clique, g))
    with pytest.raises(ConfigError):
        hr.a2_limit_params(model, clique if sep == "clique" else sep)


@pytest.mark.parametrize("sep", [(1,), (1, 2)])
def test_kernel_limit_matches_closed_form_cdf(sep):
    v = vario((1, 2, 3), [[0, 1.0, 1.4], [1.0, 0, 0.9], [1.4, 0.9, 0]])
    model = hr.HuslerReissModel((1, 2, 3), v)
    slope, law = hr.a2_limit_params(model, sep)
    rest = slope.rows
    for off in ([0.0] * len(rest), [0.5] * len(rest), [-0.8] * len(rest)):
        off = np.array(off)
        ratio = hr.kernel_limit(model, sep, off,
                                z_sep=np.linspace(0.2, -0.1, len(sep)))
        closed = mvn_cdf(off, law, accuracy=1e-9).value
        assert abs(ratio - closed) < 1e-12


@pytest.mark.parametrize("z_sep", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0],
                         ids=["short", "long", "two_dimensional", "scalar"])
def test_kernel_limit_refuses_a_wrong_length_separator_state(z_sep):
    """A separator state that is not one value per separator vertex is a
    ConfigError, as a wrong offset is, not an IndexError, ValueError or
    TypeError from deep in the evaluation."""
    v = vario((1, 2, 3), [[0, 1.0, 1.4], [1.0, 0, 0.9], [1.4, 0.9, 0]])
    model = hr.HuslerReissModel((1, 2, 3), v)
    with pytest.raises(ConfigError, match="z_sep shape"):
        hr.kernel_limit(model, (1, 2), np.zeros(1), z_sep=z_sep)


# ------------------------------------------------- graph-wide closed form


def test_three_chain_mean_and_precision(hr_chain):
    ordering, models = hr_chain
    mu = hr.tail_model_mean(ordering, models, 1)
    assert np.allclose(mu.values, [-0.65, -1.0], atol=1e-14)
    prec = hr.tail_model_precision(ordering, models, 1)
    cov = spd_inverse(prec)
    assert np.allclose(cov.values, [[1.3, 1.3], [1.3, 2.0]], atol=1e-12)


def test_precision_sparsity_matches_adjacency():
    g = Graph.make(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    ordering = clique_ordering(g, 1)
    gammas = {(1, 2): 0.8, (2, 3): 1.2, (2, 4): 0.6, (4, 5): 1.4}
    models = {c: hr_pair_model(c, gammas[c]) for c in ordering.cliques}
    prec = hr.tail_model_precision(ordering, models, 1)
    for i in (2, 3, 4, 5):
        for j in (2, 3, 4, 5):
            if i != j and not g.has_edge(i, j):
                assert prec.entry(i, j) == 0.0
    assert prec.entry(2, 3) != 0.0 and prec.entry(4, 5) != 0.0


def test_separator_compatibility_gate():
    g = Graph.make(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    ordering = clique_ordering(g, 1)
    va = vario((1, 2, 3), [[0, 1.0, 1.2], [1.0, 0, 0.8], [1.2, 0.8, 0]])
    vb_bad = vario((2, 3, 4), [[0, 1.6, 1.1], [1.6, 0, 1.3], [1.1, 1.3, 0]])
    models = {(1, 2, 3): hr.HuslerReissModel((1, 2, 3), va),
              (2, 3, 4): hr.HuslerReissModel((2, 3, 4), vb_bad)}
    with pytest.raises(IncompatibleSeparators):
        check_separator_models(ordering, models)
    vb_ok = vario((2, 3, 4), [[0, 0.8, 1.1], [0.8, 0, 1.3], [1.1, 1.3, 0]])
    models[(2, 3, 4)] = hr.HuslerReissModel((2, 3, 4), vb_ok)
    check_separator_models(ordering, models)


def test_exponent_measure_estimate_reports_error():
    model = hr_pair_model((1, 2), 0.8)
    est = hr.exponent_measure_estimate(model, np.array([1.0, 2.0]))
    exact = pair_measure(1.0, 2.0, 0.8)
    assert abs(est.value - exact) < 1e-12
    assert est.error >= 0.0


def test_exponent_measure_estimate_batch_rows_equal_single_states():
    model = hr.HuslerReissModel((1, 2, 3), random_variogram(
        np.random.default_rng(5), 3))
    inf = np.inf
    y = np.array([[0.5, inf, 0.5], [1.0, 2.0, 4.0], [inf, 3.0, inf],
                  [inf, inf, inf]])
    value, error = hr.exponent_measure_estimate(model, y)
    for row, v, e in zip(y, value, error):
        assert hr.exponent_measure_estimate(model, row) == (v, e)
    # the bound: 5e-15 per finite coordinate (|C| <= 3), over the smallest
    assert error.tolist() == [2 * 5e-15 / 0.5, 3 * 5e-15 / 1.0,
                              5e-15 / 3.0, 0.0]
    assert value[3] == 0.0
