"""Label-indexed linear algebra and the Gaussian law container."""

import warnings

import numpy as np
import pytest

from tailgraph.errors import ConfigError, NotSPD
from tailgraph.gaussian import CorrelationMatrix
from tailgraph.husler_reiss import VariogramMatrix
from tailgraph.limits import SampleMatrix, build_tail_model, sample_tail_model
from tailgraph.linalg import (
    GaussianLaw,
    IndexedMatrix,
    IndexedVector,
    cholesky_spd,
    spd_inverse,
)
from tailgraph.mvn import mvn_cdf
from tailgraph.rng import MASK64, check_seed, derived_rng
from tailgraph.simulate import conditional_exceedance


def test_vector_labels():
    v = IndexedVector((2, 5, 9), np.array([1.0, 2.0, 3.0]))
    assert v.entry(5) == 2.0
    assert tuple(v.sub((9, 2)).values) == (3.0, 1.0)
    with pytest.raises(ConfigError):
        v.sub((2, 4))
    with pytest.raises(ConfigError):
        IndexedVector((1, 1), np.zeros(2))
    with pytest.raises(ConfigError):
        IndexedVector((1, 2), np.zeros(3))


def test_matrix_labels_and_blocks():
    m = IndexedMatrix.square((1, 3, 7), np.arange(9.0).reshape(3, 3))
    assert m.entry(3, 7) == 5.0
    blk = m.sub((7, 1))
    assert blk.rows == (7, 1)
    assert blk.values.tolist() == [[8.0, 6.0], [2.0, 0.0]]
    rect = m.sub((1,), (3, 7))
    assert rect.values.tolist() == [[1.0, 2.0]]


LABELLED = {
    "vector": IndexedVector((1, 2, 3), np.array([0.5, 1.5, 2.5])),
    "matrix": IndexedMatrix.square((1, 2, 3), np.arange(9.0).reshape(3, 3)),
    "correlation": CorrelationMatrix((1, 2, 3), np.eye(3) * 0.8 + 0.2),
    "variogram": VariogramMatrix((1, 2, 3), 1.0 - np.eye(3)),
}


@pytest.mark.parametrize("kind", sorted(LABELLED))
def test_labels_match_only_equal_labels(kind):
    """2.0 is the label 2; 2.5 and 'a' are no label, not 2 or a bare
    ValueError."""
    obj = LABELLED[kind]
    read = obj.entry if kind == "vector" else lambda u: obj.entry(u, u)
    assert read(2.0) == read(2) and repr(obj.sub((3, 2.0))) == repr(obj.sub((3, 2)))
    for bad in (2.5, "a", np.nan, [2]):
        with pytest.raises(ConfigError):
            read(bad)
        with pytest.raises(ConfigError):
            obj.sub((1, bad))
        if kind != "vector":
            with pytest.raises(ConfigError):
                obj.entry(1, bad)


LABELLED_TYPES = {
    "vector": lambda ix: IndexedVector(ix, np.array([0.5, 1.5])),
    "matrix": lambda ix: IndexedMatrix.square(ix, np.eye(2)),
    "correlation": lambda ix: CorrelationMatrix(ix, np.array([[1.0, 0.3], [0.3, 1.0]])),
    "variogram": lambda ix: VariogramMatrix(ix, 1.0 - np.eye(2)),
}


@pytest.mark.parametrize("kind", sorted(LABELLED_TYPES))
def test_labels_are_integers(kind):
    """Labels follow the seed's integer rule: ints and NumPy ints become
    ints; floats (whole ones too), bools and strings raise ConfigError,
    never truncate to a label."""
    make = LABELLED_TYPES[kind]
    obj = make((np.int64(4), 7))
    index = obj.index if kind != "matrix" else obj.rows
    assert index == (4, 7) and all(type(u) is int for u in index)
    for bad in ((1.9, 2.2), (1.5, 2), (2.7, 3), (True, 2), (1, np.bool_(True)),
                ("a", 2), (2.0, 3), (None, 1)):
        with pytest.raises(ConfigError, match="not an integer"):
            make(bad)


def test_sample_columns_match_only_equal_labels():
    samples = SampleMatrix((1, 2, 3), np.arange(6.0).reshape(2, 3), {})
    assert samples.column(2.0).tolist() == [1.0, 4.0]
    assert samples.sub((3, 2.0)).tolist() == [[2.0, 1.0], [5.0, 4.0]]
    for bad in (2.5, "a", [2]):
        with pytest.raises(ConfigError):
            samples.column(bad)
        with pytest.raises(ConfigError):
            samples.sub((1, bad))


def test_check_symmetric():
    good = IndexedMatrix.square((1, 2), np.array([[2.0, 0.5], [0.5, 1.0]]))
    good.check_symmetric()
    bad = IndexedMatrix.square((1, 2), np.array([[2.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(NotSPD):
        bad.check_symmetric()


def test_cholesky_matches_numpy_and_rejects():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5))
    spd = a @ a.T + 5 * np.eye(5)
    low = cholesky_spd(spd)
    assert np.allclose(low @ low.T, spd, atol=1e-12)
    with pytest.raises(NotSPD):
        cholesky_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    for x in (0.0, -0.0, -1.0):
        with pytest.raises(NotSPD):
            cholesky_spd(np.array([[x]]))
    for x in (5e-324, 0.3, 2.0, 1e300, np.inf):  # 1x1: the same bits as LAPACK
        want = np.linalg.cholesky(np.array([[x]]))
        assert cholesky_spd(np.array([[x]])).tobytes() == want.tobytes()


def test_spd_inverse_round_trip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4))
    spd = a @ a.T + 4 * np.eye(4)
    m = IndexedMatrix.square((2, 4, 6, 8), spd)
    inv = spd_inverse(m)
    assert inv.rows == (2, 4, 6, 8)
    assert np.allclose(inv.values @ spd, np.eye(4), atol=1e-10)


def test_spd_inverse_rejects_an_inverse_that_overflows():
    """diag(1e-310, 1) factors, but its inverse overflows: the NaN
    multiply-back gap is a failure, and no numpy warning escapes."""
    m = IndexedMatrix.square((1, 2), np.diag([1e-310, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSPD):
            spd_inverse(m)


def test_gaussian_law_marginal_and_sampling():
    mean = IndexedVector((1, 2, 3), np.array([0.0, 1.0, -1.0]))
    cov = IndexedMatrix.square(
        (1, 2, 3),
        np.array([[2.0, 0.6, 0.2], [0.6, 1.0, 0.3], [0.2, 0.3, 1.5]]),
    )
    law = GaussianLaw(mean, cov)
    sub = GaussianLaw(law.mean.sub((3, 1)), law.cov.sub((3, 1)))
    assert sub.index == (3, 1)
    assert sub.cov.entry(3, 1) == 0.2

    draws = law.sample(derived_rng(0, 1), 200_000)
    assert draws.shape == (200_000, 3)
    assert np.max(np.abs(draws.mean(axis=0) - mean.values)) < 0.02
    assert np.max(np.abs(np.cov(draws.T) - cov.values)) < 0.03
    again = law.sample(derived_rng(0, 1), 10)
    assert np.array_equal(draws[:10], again)


def test_gaussian_law_validates_shapes():
    with pytest.raises(ConfigError):
        GaussianLaw(
            IndexedVector((1, 2), np.zeros(2)),
            IndexedMatrix.square((1, 3), np.eye(2)),
        )


@pytest.mark.parametrize("cov", [[[1.0, 0.5], [0.4, 1.0]], [[1.0, 2.0], [2.0, 1.0]]],
                         ids=["asymmetric", "indefinite"])
def test_gaussian_law_rejects_a_bad_covariance(cov):
    with pytest.raises(NotSPD):
        GaussianLaw.from_arrays((1, 2), np.zeros(2), np.array(cov))


@pytest.mark.parametrize("seed, stream", [(-1, 0), (2.5, 0), (True, 0),
                                          (MASK64 + 1, 0), (0, -1), (0, MASK64 + 1)],
                         ids=["negative_seed", "fractional_seed", "bool_seed",
                              "wide_seed", "negative_stream", "wide_stream"])
def test_derived_rng_rejects_keys_outside_64_bits(seed, stream):
    with pytest.raises(ConfigError):
        derived_rng(seed, stream)


@pytest.mark.parametrize("stream, drawn", [(np.int64(5), 5), (np.uint64(5), 5),
                                           (2.0, None), (True, None)],
                         ids=["int64", "uint64", "float", "bool"])
def test_derived_rng_takes_streams_by_the_seed_rule(stream, drawn):
    """A NumPy integer stream is the int it holds; a float or a bool is
    no stream id."""
    if drawn is None:
        with pytest.raises(ConfigError):
            derived_rng(3, stream)
    else:
        got = derived_rng(3, stream).random(4)
        assert got.tobytes() == derived_rng(3, drawn).random(4).tobytes()


@pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3)], ids=["int64", "uint64"])
def test_numpy_integer_seeds_draw_the_streams_of_their_int(hr_chain, seed):
    """A NumPy integer seed is the int it holds: the same bytes as 3 in
    the limit sampler, the finite-level simulator and the lattice CDF,
    and each sample records the int.  (Shifted as np.int64, 3 << 64
    wraps to the stream of seed 0.)"""
    ordering, models = hr_chain
    model = build_tail_model(ordering, models, 1)
    for draw in (lambda s: sample_tail_model(model, 100, s),
                 lambda s: conditional_exceedance(ordering, models, 1, 4.0, 100, s)):
        got, want = draw(seed), draw(3)
        assert got.values.tobytes() == want.values.tobytes()
        assert type(got.meta["seed"]) is int and got.meta["seed"] == 3
    law = GaussianLaw.from_arrays((1, 2, 3, 4), np.zeros(4),
                                  np.full((4, 4), 0.5) + 0.5 * np.eye(4))
    upper = np.array([0.5, 0.2, -0.1, 1.0])
    assert mvn_cdf(upper, law, seed=seed) == mvn_cdf(upper, law, seed=3)
    assert mvn_cdf(upper, law, seed=seed) != mvn_cdf(upper, law, seed=0)


@pytest.mark.parametrize("seed", [np.uint64(MASK64), np.int64(-1), np.bool_(True)],
                         ids=["widest_uint64", "negative_int64", "numpy_bool"])
def test_numpy_integer_seeds_follow_the_int_rule(hr_chain, seed):
    """One integer rule: NumPy integers in [0, 2**64) are seeds, a
    negative one or a NumPy bool is not."""
    ordering, models = hr_chain
    if isinstance(seed, np.bool_) or seed < 0:
        with pytest.raises(ConfigError):
            check_seed(seed, "seed")
        with pytest.raises(ConfigError):
            conditional_exceedance(ordering, models, 1, 4.0, 10, seed)
    else:
        assert type(check_seed(seed, "seed")) is int
        assert conditional_exceedance(ordering, models, 1, 4.0, 10, seed).meta["seed"] == MASK64
