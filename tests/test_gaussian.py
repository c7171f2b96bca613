"""Gaussian-copula clique machinery: closed forms and degeneracy gates."""

import numpy as np
import pytest

from tailgraph import gaussian as gs
from tailgraph.errors import ConfigError, DegenerateCorrelation, NotSPD
from tailgraph.linalg import spd_inverse

from conftest import chain_correlation, gauss_pair_model


def corr(index, values):
    return gs.CorrelationMatrix(tuple(index), np.asarray(values, dtype=float))


# ----------------------------------------------------------- validation


def test_correlation_validation():
    with pytest.raises(NotSPD):
        corr((1, 2), [[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotSPD):
        corr((1, 2), [[1.0, 0.4], [0.6, 1.0]])  # asymmetric
    with pytest.raises(NotSPD):
        corr((1, 2), [[1.2, 0.4], [0.4, 1.0]])  # diagonal
    with pytest.raises(NotSPD):
        corr((1, 2), [[1.0, 1.0], [1.0, 1.0]])  # |rho| = 1
    with pytest.raises(NotSPD):
        # symmetric with unit diagonal but indefinite
        corr((1, 2, 3), [[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
    c = corr((1, 2), [[1.0, -0.5], [-0.5, 1.0]])  # negative rho is fine here
    assert c.entry(1, 2) == -0.5


def test_model_narrows_a_larger_correlation_to_its_clique():
    full = corr((1, 2, 3, 4), chain_correlation((0.7, 0.5, 0.6)))
    wide = gs.GaussianCopulaModel((3, 2), full)
    narrow = gs.GaussianCopulaModel((2, 3), full.sub((2, 3)))
    assert wide.clique == narrow.clique == (2, 3)
    assert wide.correlation.index == narrow.correlation.index == (2, 3)
    assert wide.correlation.values.tobytes() == narrow.correlation.values.tobytes()


def test_conditioning_requires_positive_correlation():
    flat = corr((1, 2, 3), [[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
    with pytest.raises(DegenerateCorrelation):
        gs.limit_scale_matrix(flat, 1)  # rho_{13} = 0 exactly
    neg = corr((1, 2), [[1.0, -0.5], [-0.5, 1.0]])
    with pytest.raises(DegenerateCorrelation):
        gs.GaussianCopulaModel((1, 2), neg).given((1,)).root()


# ----------------------------------------------------------- closed forms


def chain_corr(rhos):
    return corr(range(1, len(rhos) + 2), chain_correlation(rhos))


def test_limit_law_three_chain_closed_form():
    r1 = r2 = 0.5
    c = chain_corr((r1, r2))
    law = gs.limit_law(c, 1)
    assert law.mean.index == (2, 3)
    assert np.allclose(law.mean.values, 0.0, atol=0.0)
    p2, p3 = r1, r1 * r2
    expect = [[2 * p2**2 * (1 - p2**2), 2 * p2 * p3 * (r2 - p2 * p3)],
              [2 * p2 * p3 * (r2 - p2 * p3), 2 * p3**2 * (1 - p3**2)]]
    assert np.allclose(law.cov.values, expect, atol=1e-15)
    assert abs(law.cov.entry(3, 3) - 0.1171875) < 1e-15


def test_precision_identity_all_positive_definite():
    # holds for every positive-definite R, Markov or not
    markov = chain_corr((0.6, 0.5, 0.7))
    assert gs.precision_identity_gap(markov, 1) < 1e-10
    non_markov = corr((1, 2, 3),
                      [[1.0, 0.6, 0.4], [0.6, 1.0, 0.5], [0.4, 0.5, 1.0]])
    assert gs.precision_identity_gap(non_markov, 1) < 1e-10


def test_limit_precision_sparsity_is_markov_only():
    markov = chain_corr((0.6, 0.5, 0.7))
    prec = spd_inverse(gs.limit_scale_matrix(markov, 1))
    assert abs(prec.entry(2, 4)) < 1e-12  # 2 and 4 non-adjacent on the path
    assert abs(prec.entry(2, 3)) > 1e-3
    non_markov = corr((1, 2, 3),
                      [[1.0, 0.6, 0.4], [0.6, 1.0, 0.5], [0.4, 0.5, 1.0]])
    fill = spd_inverse(gs.limit_scale_matrix(non_markov, 1))
    assert abs(fill.entry(2, 3)) > 1e-3  # no cancellation without Markovness


def test_root_norming_pair():
    model = gauss_pair_model((1, 2), 0.8)
    rec = model.given((1,))
    law, a_fun, b_fun, coeff = rec.root()
    assert rec.rest == (2,)
    assert abs(coeff[0] - 0.64) < 1e-15
    assert abs(law.cov.entry(2, 2) - 2 * 0.64 * (1 - 0.64)) < 1e-15
    assert a_fun([[3.0]])[0, 0] == coeff[0] * 3.0
    assert b_fun([[4.0]])[0, 0] == 2.0
    with pytest.raises(ConfigError):
        model.given((7,))


# ------------------------------------------------- separator conditioning


def test_separator_norming_pair_identities():
    r12, r23 = 0.8, 0.6
    model = gauss_pair_model((2, 3), r23)
    c = r12**2  # coefficient the separator vertex inherits from the root
    rec = model.given((2,))
    psi, phi, coeff = rec.update(np.array([c]), np.array([True]))
    assert abs(phi.entry(3) - r23 * r12) < 1e-15
    assert abs(coeff[0] - (r23 * r12) ** 2) < 1e-15
    assert abs(psi.entry(3, 2) - r23**2) < 1e-14
    assert abs(rec.noise.cov.entry(3, 3) - 2 * (1 - r23**2)) < 1e-15
    # phi is exactly the b-coefficient at the evaluation point
    assert abs(rec.b_fun([c])[0, 0] - phi.entry(3)) < 1e-15
    # a is 1-homogeneous along the trajectory x = c t
    t = 37.0
    assert abs(rec.a_fun([c * t])[0, 0] - coeff[0] * t) < 1e-12
    # a separator vertex entering at t^0 adds nothing to the update
    assert rec.update(np.array([c]), np.array([False]))[0] is None


def test_separator_norming_expansion_along_trajectory():
    """a(ct + sqrt(t) z) = coeff_out*t + sqrt(t)*(psi z) + O(1)."""
    rm = corr((2, 3, 4, 5), [[1.0, 0.55, 0.45, 0.35],
                             [0.55, 1.0, 0.5, 0.4],
                             [0.45, 0.5, 1.0, 0.3],
                             [0.35, 0.4, 0.3, 1.0]])
    model = gs.GaussianCopulaModel((2, 3, 4, 5), rm)
    c = np.array([0.49, 0.36])
    rec = model.given((2, 3))
    psi, _, coeff = rec.update(c, np.array([True, True]))
    # psi matches a finite difference of a at the evaluation point
    h = 1e-6
    for j, s in enumerate(rec.sep):
        hi = c.copy(); hi[j] += h
        lo = c.copy(); lo[j] -= h
        fd = (rec.a_fun(hi)[0] - rec.a_fun(lo)[0]) / (2 * h)
        assert np.allclose(fd, psi.values[:, j], atol=1e-5)
    # first-order expansion at a large level
    t = 1e8
    z = np.array([0.7, -0.4])
    lin = (rec.a_fun(c * t + np.sqrt(t) * z)[0] - coeff * t) / np.sqrt(t)
    assert np.allclose(lin, psi.values @ z, atol=1e-3)
    # psi acts on the moving separator vertices only
    one = rec.update(c, np.array([False, True]))[0]
    assert one.values[:, 0].tolist() == [0.0, 0.0]
    assert one.values[:, 1].tobytes() == psi.values[:, 1].tobytes()


def test_separator_norming_degeneracy_gates():
    model = gauss_pair_model((2, 3), 0.6)
    moves = np.array([True])
    with pytest.raises(DegenerateCorrelation):
        model.given((2,)).update(np.array([0.0]), moves)  # nonpositive eval point
    neg = gs.GaussianCopulaModel(
        (2, 3), corr((2, 3), [[1.0, -0.5], [-0.5, 1.0]]))
    with pytest.raises(DegenerateCorrelation):
        neg.given((2,)).update(np.array([0.25]), moves)  # composite slope <= 0
    with pytest.raises(ConfigError):  # nothing left
        model.given((2, 3)).update(np.array([0.5, 0.5]), np.array([True, True]))


def test_conditional_scale_matches_schur_complement():
    rm = corr((2, 3, 4, 5), [[1.0, 0.55, 0.45, 0.35],
                             [0.55, 1.0, 0.5, 0.4],
                             [0.45, 0.5, 1.0, 0.3],
                             [0.35, 0.4, 0.3, 1.0]])
    sep, rest = (2, 3), (4, 5)
    got = gs.conditional_scale(rm, gs.separator_slope(rm, sep, rest)).values
    r = rm.values
    schur = r[2:, 2:] - r[2:, :2] @ np.linalg.inv(r[:2, :2]) @ r[:2, 2:]
    assert np.allclose(got, 2.0 * schur, atol=1e-12)
    np.linalg.cholesky(got)  # stays positive definite
