"""Moment closed forms, tail-dependence estimates, convergence studies,
and regular-variation diagnostics."""

import dataclasses
import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.stats import norm

from tailgraph import _scipy
from tailgraph import diagnostics as dg
from tailgraph import gaussian as gs
from tailgraph import husler_reiss as hr
from tailgraph import rng as rng_module
from tailgraph import simulate as sim
from tailgraph.config import load_config, parse_config
from tailgraph.diagnostics import (
    ConvergenceReport,
    MarginRow,
    chi_estimator,
    convergence_study,
    factorized_density,
    ks_normal,
    ks_unit_exponential,
    mrv_checks,
    study_limit,
)
from tailgraph.errors import (
    ConfigError,
    EmptySubset,
    NotBlockGraph,
    NumericalBreakdown,
    QuantileOutOfRange,
)
from tailgraph.graphs import Graph, clique_ordering
from tailgraph.limits import (
    SampleMatrix,
    TailGraphicalModel,
    build_tail_model,
    build_tail_noise,
    derive_limit,
    tail_model_moments,
)
from tailgraph.linalg import spd_inverse
from tailgraph.simulate import (
    _draw_plan,
    _plan,
    _simulate,
    conditional_exceedance,
    renormalize,
    simulate_graphical,
)

import mrv_oracle
import study_oracle
from conftest import (
    MIXED_GAMMA,
    MIXED_R,
    gauss_pair_model,
    hr_pair_model,
    mixed_models,
    perfbench_workloads,
)


def pair_ordering():
    return clique_ordering(Graph.make(2, [(1, 2)]), 1)


# ----------------------------------------------------- moment closed forms


def test_moments_all_hr_match_recursion(hr_chain):
    ordering, models = hr_chain
    mean, cov = tail_model_moments(build_tail_model(ordering, models, 1))
    mu = hr.tail_model_mean(ordering, models, 1)
    full = spd_inverse(hr.tail_model_precision(ordering, models, 1))
    assert np.allclose(mean.values, mu.values, atol=1e-14)
    assert np.allclose(cov.values, full.values, atol=1e-13)


def test_moments_all_gaussian_match_whole_graph_law(gauss_chain):
    ordering, models, full = gauss_chain
    mean, cov = tail_model_moments(build_tail_model(ordering, models, 1))
    law = gs.limit_law(full, 1)
    assert np.allclose(mean.values, 0.0, atol=1e-15)
    assert np.allclose(cov.values, law.cov.values, atol=1e-14)


def test_moments_mixed_block_diagonal(mixed_graph):
    graph, models = mixed_graph
    ordering = clique_ordering(graph, 1)
    mean, cov = tail_model_moments(build_tail_model(ordering, models, 1))
    rho = MIXED_R[0, 1:]
    expect = np.zeros((4, 4))
    expect[0, 0] = MIXED_GAMMA
    expect[1:, 1:] = 2.0 * np.outer(rho, rho) * (MIXED_R[1:, 1:]
                                                 - np.outer(rho, rho))
    assert np.allclose(mean.values, [-MIXED_GAMMA / 2, 0, 0, 0], atol=1e-14)
    assert np.allclose(cov.values, expect, atol=1e-14)


# ------------------------------------------------------- tail dependence


def test_chi_comonotone_is_one():
    vals = np.linspace(0.1, 5.0, 2001)
    s = SampleMatrix(columns=(1, 2, 3),
                     values=np.stack([vals, vals, vals], axis=1), meta={})
    for q in (0.5, 0.9, 0.99):
        assert chi_estimator(s, (1, 2, 3), q) == 1.0


def test_chi_independent_vanishes():
    rng = np.random.default_rng(0)
    s = SampleMatrix(columns=(1, 2),
                     values=rng.standard_exponential((200_000, 2)), meta={})
    assert abs(chi_estimator(s, (1, 2), 0.99) - 0.01) < 0.01


def test_chi_hr_pair_matches_copula_and_limit():
    model = hr_pair_model((1, 2), 1.0)
    s = simulate_graphical(pair_ordering(), {(1, 2): model}, 300_000, seed=17)
    chi_hat = chi_estimator(s, (1, 2), 0.99)
    xq = -np.log1p(-0.99)
    yq = hr.exp_to_frechet(xq)
    lam = hr.exponent_measure_many(model.variogram, [yq, yq])[0]
    chi_exact = (1 - 2 * 0.99 + np.exp(-lam)) / 0.01
    chi_limit = 2 - 2 * norm.cdf(0.5)  # unit variogram
    assert abs(chi_hat - chi_exact) < 0.03
    assert abs(chi_hat - chi_limit) < 0.03
    assert abs(chi_exact - chi_limit) < 0.005  # fast finite-level bias decay


def test_chi_gaussian_decreases_with_level():
    rho = 0.8
    models = {(1, 2): gs.GaussianCopulaModel(
        (1, 2), gs.CorrelationMatrix((1, 2), [[1.0, rho], [rho, 1.0]]))}
    s = simulate_graphical(pair_ordering(), models, 1_000_000, seed=18)
    chis = [chi_estimator(s, (1, 2), q) for q in (0.99, 0.999, 0.9999)]
    assert chis[0] > chis[1] > chis[2]


def test_chi_argument_gates():
    models = {(1, 2): hr_pair_model((1, 2), 1.0)}
    s = simulate_graphical(pair_ordering(), models, 1000, seed=0)
    with pytest.raises(EmptySubset):
        chi_estimator(s, (), 0.9)
    with pytest.raises(QuantileOutOfRange):
        chi_estimator(s, (1, 2), 1.0)
    with pytest.raises(ConfigError, match=r"columns \[9\] not in sample matrix"):
        chi_estimator(s, (1, 9), 0.9)
    with pytest.raises(QuantileOutOfRange, match="leaves no exceedances at n=1000"):
        chi_estimator(s, (1, 2), 1e-4)  # k = round(0.9999 * 1000) = n
    for bad in (np.nan, np.inf):
        values = s.values.copy()
        values[7, 1] = bad
        with pytest.raises(NumericalBreakdown):
            chi_estimator(SampleMatrix(s.columns, values, {}), (1, 2), 0.9)


# ----------------------------------------------------- KS statistics


def ks_samples():
    rng = np.random.default_rng(20231)
    out = {f"n={n}": rng.standard_normal(n) for n in (1, 2, 17, 10_000)}
    out["ties"] = np.round(rng.standard_normal(500), 1)
    out["strided"] = rng.standard_normal((400, 3))[:, 1]
    out["far"] = 40.0 + rng.standard_normal(50)
    out["edges"] = np.array([-np.inf, -1.0, -0.0, 0.0, 1e-300, 0.7, np.inf])
    return out


@pytest.mark.parametrize("name", list(ks_samples()))
def test_ks_statistics_equal_scipy_kstest(name):
    x = ks_samples()[name]
    assert ks_normal(x, 0.3, 1.7) == stats.kstest(
        x, "norm", args=(0.3, 1.7)).statistic
    assert ks_unit_exponential(np.abs(x)) == stats.kstest(
        np.abs(x), "expon").statistic
    assert ks_unit_exponential(x) == stats.kstest(x, "expon").statistic


def test_ks_statistics_propagate_nan():
    x = np.array([0.5, np.nan, 1.5, 0.1])
    assert np.isnan(stats.kstest(x, "expon").statistic)
    assert np.isnan(ks_unit_exponential(x))
    assert np.isnan(stats.kstest(x, "norm", args=(0.0, 1.0)).statistic)
    assert np.isnan(ks_normal(x, 0.0, 1.0))


@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.sampled_from([1, 2, 63, 64, 65, 3 * 64 + 5, 10_000]),
       fit=st.sampled_from(["quantiles", "draws", "shifted", "narrow", "wide"]),
       ties=st.booleans(),
       special=st.sampled_from([(), (np.inf,), (-np.inf,), (np.nan,),
                                (-np.inf, np.inf), (np.inf, np.nan)]))
@example(seed=1, n=10_000, fit="quantiles", ties=False, special=())
@example(seed=1, n=10_000, fit="shifted", ties=False, special=())
@example(seed=7, n=10_000, fit="draws", ties=False, special=())
@example(seed=6, n=10_000, fit="draws", ties=False, special=())
def test_ks_statistic_equals_the_full_cdf_oracle(seed, n, fit, ties, special):
    """The KS distance, which evaluates the CDF only in the blocks that can
    hold the maximum, has the bits of the full evaluation, for both CDFs.
    "quantiles" puts every point at its own CDF midpoint, so every row's
    distance is 0.5/n up to rounding: a near-perfect fit, which keeps
    every block; "shifted" is a heavy misfit, which keeps a few blocks.
    Exact draws keep 56 % (normal) and 59 % (exponential) of the blocks
    at seed 7, and 91 % and 99 % at seed 6.  A NaN anywhere gives NaN."""
    rng = np.random.default_rng(seed)
    mean, sd = 0.3, 1.7
    if fit == "quantiles":
        p = (np.arange(n) + 0.5) / n
        normal, expon = mean + sd * _scipy.ndtri(p), -np.log1p(-p)
    else:
        shift, scale = {"draws": (0.0, 1.0), "shifted": (3.0, 1.0),
                        "narrow": (0.0, 0.2), "wide": (0.0, 5.0)}[fit]
        normal = mean + sd * (shift + scale * rng.standard_normal(n))
        expon = shift + scale * rng.standard_exponential(n)
    for x, got, cdf in (
            (normal, lambda x: ks_normal(x, mean, sd),
             lambda y: _scipy.ndtr((y - mean) / sd)),
            (expon, ks_unit_exponential, dg._expon_cdf)):
        x = rng.permutation(np.round(x, 1) if ties else x)
        x[rng.choice(n, size=min(n, len(special)), replace=False)] = special[:n]
        want = study_oracle.ks_statistic(x, cdf)
        if np.isnan(x).any():
            assert np.isnan(got(x)) and np.isnan(want)
        else:
            assert np.float64(got(x)).tobytes() == np.float64(want).tobytes()


# ----------------------------------------------------- convergence study


def test_convergence_study_hr_chain(hr_chain):
    ordering, models = hr_chain
    rep = convergence_study(ordering, models, 1, (2.0, 4.0, 6.0),
                            100_000, seed=5)
    assert rep.mode == "condition_on_root"
    assert rep.trend_ok()
    assert rep.final_pass()
    lines = rep.ks_csv().splitlines()
    assert lines[0] == "t,vertex,ks,n,threshold,pass"
    assert len(lines) == 1 + 3 * 3  # three levels, three vertices


def test_convergence_study_deterministic(hr_chain):
    ordering, models = hr_chain
    rep = convergence_study(ordering, models, 1, (2.0, 4.0), 10_000, seed=5)
    again = convergence_study(ordering, models, 1, (2.0, 4.0), 10_000, seed=5)
    assert rep.ks_csv() == again.ks_csv()
    assert rep.gaps_csv() == again.gaps_csv()


def test_convergence_study_auto_separator_mode(mixed_graph):
    graph, models = mixed_graph
    ordering = clique_ordering(graph, 1)
    rep = convergence_study(ordering, models, 3, (8.0, 20.0), 20_000, seed=6)
    assert rep.mode == "separator_based"


@pytest.mark.parametrize("ks_last, ok", [(0.119, True), (0.121, False)])
def test_trend_fails_when_a_vertex_rises_beyond_the_slack(ks_last, ok):
    """Vertex 2 falls along the ladder; vertex 3 rises from 0.1, which the
    default slack of 1.2 forgives up to 0.12 and no further."""
    ks = {2: (0.3, 0.2, 0.1), 3: (0.2, 0.1, ks_last)}
    rows = tuple(MarginRow(t=t, vertex=u, ks=ks[u][k], n=100, threshold=1.0)
                 for k, t in enumerate((2.0, 4.0, 8.0)) for u in (2, 3))
    rep = ConvergenceReport(v=1, mode="condition_on_root", t_levels=(2.0, 4.0, 8.0),
                            n=100, seed=0, rows=rows, mean_gap={}, clique_cov_gap={})
    assert rep.trend_ok() is ok


@pytest.mark.parametrize("ladder", [(0.1, np.nan, 0.5), (np.nan, 0.2, 0.1),
                                    (0.3, 0.2, np.nan), (np.nan,)])
def test_trend_fails_on_a_nan_distance(ladder):
    """A NaN anywhere in a vertex's ladder fails the trend, though every
    comparison with a NaN is False; vertex 2's ladder alone passes."""
    levels = tuple(2.0 * 2 ** k for k in range(len(ladder)))
    rows = tuple(MarginRow(t=t, vertex=u, ks=ks, n=100, threshold=1.0)
                 for t, k in zip(levels, ladder)
                 for u, ks in ((2, 0.1), (3, k)))
    rep = ConvergenceReport(v=1, mode="condition_on_root", t_levels=levels,
                            n=100, seed=0, rows=rows, mean_gap={}, clique_cov_gap={})
    assert rep.trend_ok() is False
    assert dataclasses.replace(rep, rows=rows[::2]).trend_ok() is True


@pytest.mark.parametrize("levels", [(), (2.0, np.nan), (np.inf,), (-1.0,),
                                    (True,), ("3",), (2.0, None)])
def test_convergence_study_rejects_bad_levels(hr_chain, levels):
    ordering, models = hr_chain
    with pytest.raises(ConfigError):
        convergence_study(ordering, models, 1, levels, 100, seed=0)


@pytest.mark.parametrize("n", [1, 0, -3, 2.5, True])
def test_study_limit_needs_two_rows(hr_chain, n):
    """A sample covariance needs two rows: fewer is a ConfigError, not a
    nan gap with numpy warnings."""
    ordering, models = hr_chain
    limit = build_tail_model(ordering, models, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="n must be an integer >= 2"):
            study_limit(limit, (2.0, 4.0), n, seed=0)


@pytest.mark.parametrize("ks_const", [True, -1, 0.0, np.nan, np.inf, 10 ** 400, "2"],
                         ids=["bool", "negative", "zero", "nan", "inf", "huge",
                              "string"])
def test_study_limit_refuses_bad_ks_constants(hr_chain, monkeypatch, ks_const):
    """A KS constant that is not a finite positive real is a ConfigError,
    raised before any row is drawn: True, −1, NaN and inf would give
    thresholds of 0.0707, −0.0707, NaN and inf, and inf passes every
    margin."""
    ordering, models = hr_chain
    limit = build_tail_model(ordering, models, 1)

    def no_draws(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(sim, "derived_rng", no_draws)
    with pytest.raises(ConfigError, match="ks_const must be finite and positive"):
        study_limit(limit, (2.0, 4.0), 200, seed=0, ks_const=ks_const)


def study_case(root, case):
    """(limit, models, mode) of one convergence-study case on the 101-vertex
    perfbench Gaussian triangle tree (seed 1) or the shipped mixed tree.

    ``gauss_tree`` is studied around vertex 1, the first, on the
    theorem-1 route; ``gauss_tree_mid`` around vertex 51, in the middle.
    ``hr_root_tree`` replaces the root triangle (1, 2, 3) by the HR pairs
    (1, 2) and (1, 3), which sends vertex 51 to the separator-based
    route.  ``mixed_tree`` is studied block by block around vertex 3."""
    if case == "mixed_tree":
        cfg = load_config(root / "configs" / "mixed_tree.json")
        v = cfg.v
    else:
        doc = perfbench_workloads(root).gauss_tree(1)
        v = 1 if case == "gauss_tree" else 51
        if case == "hr_root_tree":
            pair = {"family": "husler_reiss",
                    "variogram": [[0.0, 1.0], [1.0, 0.0]]}
            assert doc["cliques"][0]["vertices"] == [1, 2, 3]
            doc["cliques"][:1] = [{"vertices": [1, 2], **pair},
                                  {"vertices": [1, 3], **pair}]
            doc["graph"]["edges"] = sorted(
                [a, b] for c in doc["cliques"] for a in c["vertices"]
                for b in c["vertices"] if a < b)
        cfg = parse_config(doc)
    ordering = cfg.ordering()
    models = cfg.models(ordering)
    limit = derive_limit(ordering, models, v)[1]
    if limit is None:
        limit = build_tail_noise(ordering, models, v)
    mode = ("condition_on_root" if isinstance(limit, TailGraphicalModel)
            else "separator_based")
    assert (mode == "separator_based") == (case in ("hr_root_tree", "mixed_tree"))
    return limit, models, mode


def study_peak(root, case, levels) -> float:
    """Traced peak of the study of ``case`` at n = 10,000, in (n × d)
    float matrices."""
    limit, models, _ = study_case(root, case)
    n = 10_000
    tracemalloc.start()
    try:
        study_limit(limit, levels, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (n * limit.ordering.graph.n * 8)


LEVEL_LADDERS = [(4.0, 8.0), (4.0, 8.0, 16.0), (4.0, 8.0, 16.0, 32.0)]


@pytest.mark.parametrize("levels", LEVEL_LADDERS)
def test_study_limit_memory_grows_by_one_matrix_per_level(pytestconfig, levels):
    """On the 101-vertex Gaussian triangle tree at n = 10,000 the study
    peaks below L + 0.5 (n × d) float matrices at L levels: each level's
    draws are renormalized and centred in place, with no other (n × d)
    temporary."""
    peak = study_peak(pytestconfig.rootpath, "gauss_tree", levels)
    assert peak <= len(levels) + 0.5, peak


@pytest.mark.parametrize("levels", LEVEL_LADDERS)
@pytest.mark.parametrize("case", ["gauss_tree_mid", "hr_root_tree"])
def test_study_limit_memory_off_the_first_vertex(pytestconfig, case, levels):
    """The same bound with v in the middle of the graph, on the theorem-1
    route and on the separator-based route."""
    peak = study_peak(pytestconfig.rootpath, case, levels)
    assert peak <= len(levels) + 0.5, peak


STUDY_CASES = ["gauss_tree", "gauss_tree_mid", "hr_root_tree", "mixed_tree"]


def study_draws(limit, models, levels, n: int, seed: int) -> list[SampleMatrix]:
    """The study's draws of each level, as lone conditional samples."""
    return _simulate(_draw_plan(limit.ordering, models, limit.v), n, seed, 1,
                     levels)


def oracle_study(limit, draws, mode: str) -> dict:
    """Per level t, study_oracle's row-major path through the draws:
    (columns, KS distances in column order, mean gap, clique-block gap,
    gap over the whole covariance)."""
    lim_mean, lim_cov = tail_model_moments(limit)
    sds = np.sqrt(np.diag(lim_cov.values))
    want = {}
    for draw in draws:
        t = draw.meta["t"]
        x_v, z, mean, cov = study_oracle.level_moments(draw, limit, mode)
        ks = [study_oracle.ks_statistic(x_v, dg._expon_cdf)]
        ks += [study_oracle.ks_statistic(
            z[:, j], lambda y, m=m, s=s: _scipy.ndtr((y - m) / s))
            for j, (m, s) in enumerate(zip(lim_mean.values, sds))]
        want[t] = (draw.columns, ks,
                   float(np.max(np.abs(mean - lim_mean.values))),
                   study_oracle.clique_block_gap(draw, limit, mode),
                   float(np.max(np.abs(cov - lim_cov.values))))
    return want


def assert_same_study(rep, want: dict) -> None:
    """The report has the oracle's KS rows and mean gaps bit for bit, and
    its clique-block gap to 1e-12 relative, at every level in order."""
    assert rep.t_levels == tuple(want)
    assert list(rep.mean_gap) == list(rep.clique_cov_gap) == list(want)
    for t, (columns, ks, mean_gap, gap, _) in want.items():
        assert [r.vertex for r in rep.margins(t)] == list(columns)
        assert [r.ks for r in rep.margins(t)] == ks
        assert rep.mean_gap[t] == mean_gap
        assert rep.clique_cov_gap[t] == pytest.approx(gap, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("case", STUDY_CASES)
def test_study_levels_equal_the_row_major_path(pytestconfig, case):
    """Each level's renormalized margins and means have the bytes of the
    row-major renormalize → sub → mean path of study_oracle, and the
    margins its strides; the report's KS rows and mean gaps follow from
    them bit for bit.  The draws' rows are (v, *z_index) wherever v lies
    in the graph, and ``renormalize`` keeps that vertex-major layout."""
    limit, models, mode = study_case(pytestconfig.rootpath, case)
    levels, n = (4.0, 8.0), 5_000
    rep = study_limit(limit, levels, n, seed=1)
    draws = study_draws(limit, models, levels, n, seed=1)
    for draw in draws:
        assert draw.columns == (limit.v,) + limit.z_index
        x_v, z_want, mean_want, _ = study_oracle.level_moments(draw, limit, mode)
        z = renormalize(draw, limit, mode).values.T
        assert z[0].tobytes() == x_v.tobytes()
        assert z[1:].T.strides == z_want.strides
        assert z[1:].T.tobytes() == z_want.tobytes()
        assert z[1:].mean(axis=1).tobytes() == mean_want.tobytes()
    assert_same_study(rep, oracle_study(limit, draws, mode))


@pytest.mark.parametrize("d", [2, 32, 33])
def test_study_writes_one_gap_name_at_every_size(pytestconfig, monkeypatch, d):
    """Small and large graphs alike stream through the study and report
    ``clique_cov_gap`` under one name in the table and the summary; a
    33-vertex plan holds fewer rows than the graph has vertices.  The
    graphs are the benchmark's HR pair trees."""
    cfg = parse_config(perfbench_workloads(pytestconfig.rootpath).hr_tree(1, d))
    ordering = cfg.ordering()
    limit = derive_limit(ordering, cfg.models(ordering), cfg.v)[1]
    plans = []
    monkeypatch.setattr(dg, "_plan", lambda *a: plans.append(_plan(*a)) or plans[-1])
    rep = study_limit(limit, (2.0,), 500, seed=1)
    [plan] = plans
    assert rep.gaps_csv().splitlines()[0] == "t,mean_gap,clique_cov_gap"
    doc = rep.to_dict()
    assert "cov_gap" not in doc and list(doc["clique_cov_gap"]) == ["2.0"]
    if d == 33:
        assert plan.width < d


@pytest.mark.parametrize("case", STUDY_CASES)
def test_streamed_study_equals_the_dense_study(pytestconfig, case):
    """Streaming the study through the draws, each level holding only its
    live columns, gives the KS rows and mean gaps of study_oracle's dense
    row-major path.  Each clique block is part of the dense covariance,
    so the clique-block gap is at most the gap over the whole covariance,
    up to the rounding of a different product."""
    limit, models, mode = study_case(pytestconfig.rootpath, case)
    levels, n = (4.0, 8.0), 5_000
    want = oracle_study(limit, study_draws(limit, models, levels, n, seed=1), mode)
    rep = study_limit(limit, levels, n, seed=1)
    assert_same_study(rep, want)
    for t, (*_, dense_gap) in want.items():
        assert rep.clique_cov_gap[t] <= dense_gap * (1 + 1e-12)


#: Live columns of the seed-1 101-vertex Gaussian tree's plan around
#: vertex 1 (rows of each level's array, v's included), and the most
#: separator score columns cached at once (each separator's latent
#: normal scores, kept for its later cliques).
TREE_LIVE_COLUMNS = 15
TREE_CACHED_SCORES = 6


@pytest.mark.parametrize("levels", LEVEL_LADDERS)
def test_streamed_study_memory_follows_the_live_columns(pytestconfig, levels):
    """At L levels the streamed study of the 101-vertex tree (n = 10,000)
    peaks below L · (live + cached + 1) + 16 columns of n floats: per
    level its live rows, its cached scores and one b(x_v) row, and 16
    for what one draw, one fold and one KS sort hold for a moment: 60, 82
    and 104 columns at 2, 3 and 4 levels, where the dense path holds 101
    per level."""
    limit, _, mode = study_case(pytestconfig.rootpath, "gauss_tree")
    plan = _plan(limit.ordering, limit.v, [u.record for u in limit.in_order], mode)
    assert plan.width == TREE_LIVE_COLUMNS
    cached, most = set(), 0
    for draw in plan.draws:
        cached.discard(draw.record.sep)
        if draw.keep:
            cached.add(draw.record.sep)
        most = max(most, sum(map(len, cached)))
    assert most == TREE_CACHED_SCORES
    bound = len(levels) * (TREE_LIVE_COLUMNS + TREE_CACHED_SCORES + 1) + 16
    peak = study_peak(pytestconfig.rootpath, "gauss_tree", levels)
    assert peak * limit.ordering.graph.n <= bound, peak


@st.composite
def chordal_models(draw):
    """(ordering, models, v) of a random connected chordal graph of 2 to
    10 vertices, grown from a random perfect elimination ordering: each
    new vertex joins an earlier vertex and at most two more of that
    vertex's attaching clique ("gaussian": every clique from one
    one-factor correlation, so cliques agree on their separators) or one
    vertex ("hr": a tree of Hüsler-Reiss (HR) pairs).  "mixed" is a block
    graph, each new vertex joining a block of at most three or starting
    a pair at one of its vertices; its pairs are HR or Gaussian at
    random, its larger blocks Gaussian."""
    n = draw(st.integers(2, 10))
    family = draw(st.sampled_from(["hr", "gaussian", "mixed"]))
    edges, attach, blocks = [], {1: (1,)}, [[1]]
    for w in range(2, n + 1):
        if family == "mixed":
            block = draw(st.sampled_from(blocks))
            if len(block) < 4 and draw(st.booleans()):
                base = tuple(block)  # w joins the block
                block.append(w)
            else:
                base = (draw(st.sampled_from(block)),)
                blocks.append([base[0], w])
        else:
            u = draw(st.integers(1, w - 1))
            others = [x for x in attach[u] if x != u]
            base = (u,)
            if family == "gaussian" and others:
                base += tuple(draw(st.lists(st.sampled_from(others), unique=True,
                                            max_size=2)))
            attach[w] = base + (w,)
        edges += [(x, w) for x in base]
    graph = Graph.make(n, edges)
    v = draw(st.integers(1, n))
    ordering = clique_ordering(graph, v)
    loadings = draw(st.lists(st.floats(0.3, 0.9), min_size=n, max_size=n))
    corr = np.outer(loadings, loadings)
    np.fill_diagonal(corr, 1.0)
    full = gs.CorrelationMatrix(graph.vertices, corr)
    models = {}
    for c in ordering.cliques:
        if len(c) == 2 and family != "gaussian" and (
                family == "hr" or draw(st.booleans())):
            models[c] = hr_pair_model(c, draw(st.floats(0.3, 1.5)))
        else:
            models[c] = gs.GaussianCopulaModel(c, full.sub(c))
    return ordering, models, v


@settings(max_examples=30)
@given(chordal_models(), st.integers(0, 2 ** 32 - 1))
def test_renormalize_equals_the_row_major_oracle(case, order_seed):
    """On random chordal graphs, with v any vertex and the sample's columns
    in any order, ``renormalize`` gives study_oracle's row-major bytes on
    the theorem-1 route and, on block graphs, on the separator-based
    route."""
    ordering, models, v = case
    limits = [derive_limit(ordering, models, v)[1]]
    try:
        limits.append(build_tail_noise(ordering, models, v))
    except NotBlockGraph:
        pass
    draw = conditional_exceedance(ordering, models, v, 4.0, 300, seed=2)
    perm = np.random.default_rng(order_seed).permutation(len(draw.columns))
    draw = SampleMatrix(columns=tuple(draw.columns[j] for j in perm),
                        values=draw.values[:, perm], meta=draw.meta)
    for limit in filter(None, limits):
        mode = ("condition_on_root" if isinstance(limit, TailGraphicalModel)
                else "separator_based")
        got = renormalize(draw, limit, mode)
        want = study_oracle.renormalize(draw, limit, mode)
        assert got.columns == want.columns
        assert got.values.tobytes() == want.values.tobytes()


@settings(max_examples=20)
@given(chordal_models())
def test_streamed_study_on_random_chordal_graphs(case):
    """On random chordal graphs the streamed study gives study_oracle's KS
    rows and mean gaps, bit for bit, and its row-major ``np.cov`` over
    each clique's renormalized columns to 1e-12 relative, with the same
    report for 1, 2 and 3 workers over three row blocks (1,024 rows each
    here)."""
    ordering, models, v = case
    limit = derive_limit(ordering, models, v)[1]
    if limit is None:
        limit = build_tail_noise(ordering, models, v)
    mode = ("condition_on_root" if isinstance(limit, TailGraphicalModel)
            else "separator_based")
    levels, n, seed = (4.0, 8.0), 2_500, 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng_module, "BLOCK", 1024)
        reps = [study_limit(limit, levels, n, seed, workers=workers)
                for workers in (1, 2, 3)]
        want = oracle_study(limit, study_draws(limit, models, levels, n, seed), mode)
    assert reps[1] == reps[0] and reps[2] == reps[0]
    assert_same_study(reps[0], want)


# ----------------------------------------------------- factorized density


def test_factorized_density_pair_closed_form():
    models = {(1, 2): hr_pair_model((1, 2), 1.0)}
    got = factorized_density(pair_ordering(), models, np.array([1.0, 1.0]))
    assert abs(got - norm.pdf(0.5)) < 1e-8
    y = np.array([0.7, 1.4])
    ref = norm.pdf(np.log(y[0] / y[1]) + 0.5) / (y[0] * y[1] ** 2)
    got = factorized_density(pair_ordering(), models, y)
    assert abs(got - ref) / ref < 1e-7


def test_factorized_density_overflows_to_inf_silently(hr_chain):
    """At Fréchet states e^-200 the chain's log density is ~800: the
    density is +inf, and no overflow warning escapes."""
    ordering, models = hr_chain
    y = np.exp(np.full((2, 3), -200.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = factorized_density(ordering, models, y)
        log_got = factorized_density(ordering, models, y, log=True)
    assert np.all(np.isposinf(got)) and np.all(log_got > 709.0)


def triangle_plus_edge():
    graph = Graph.make(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    ordering = clique_ordering(graph, 1)
    v3 = np.array([[0.0, 1.0, 1.2], [1.0, 0.0, 0.8], [1.2, 0.8, 0.0]])
    models = {
        (1, 2, 3): hr.HuslerReissModel(
            (1, 2, 3), hr.VariogramMatrix((1, 2, 3), v3)),
        (3, 4): hr_pair_model((3, 4), 0.9),
    }
    return ordering, models


# ------------------------------------------------- regular-variation checks


def test_mrv_checks_pass_on_consistent_model():
    ordering, models = triangle_plus_edge()
    rep = mrv_checks(ordering, models, seed=0)
    assert rep.homogeneity_ok
    assert max(r.rel_err for r in rep.homogeneity) < 1e-4
    assert rep.compatibility_ok
    assert rep.ok


def test_mrv_singleton_separators_always_compatible():
    # the separator marginal of a single vertex is 1/y for every
    # variogram, so a mismatch across a cut vertex cannot be detected
    # by the separator-compatibility route
    ordering, models = triangle_plus_edge()
    bad = dict(models)
    bad[(3, 4)] = hr_pair_model((3, 4), 2.5)
    rep = mrv_checks(ordering, bad, seed=0)
    assert rep.compatibility_ok


def two_triangles(compatible: bool):
    """Triangles {1,2,3} and {2,3,4}; unless ``compatible`` they disagree
    on the variogram entry of their separator (2, 3)."""
    graph = Graph.make(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    ordering = clique_ordering(graph, 1)
    va = np.array([[0.0, 1.0, 1.2], [1.0, 0.0, 0.8], [1.2, 0.8, 0.0]])
    vb = np.array([[0.0, 1.6, 1.1], [1.6, 0.0, 1.3], [1.1, 1.3, 0.0]])
    if compatible:
        vb[0, 1] = vb[1, 0] = va[1, 2]
    models = {
        (1, 2, 3): hr.HuslerReissModel(
            (1, 2, 3), hr.VariogramMatrix((1, 2, 3), va)),
        (2, 3, 4): hr.HuslerReissModel(
            (2, 3, 4), hr.VariogramMatrix((2, 3, 4), vb)),
    }
    return ordering, models


def test_mrv_two_vertex_separator_mismatch_is_flagged():
    rep = mrv_checks(*two_triangles(compatible=False), seed=0)
    assert not rep.compatibility_ok  # cliques disagree on the (2,3) margin
    assert max(r.gap for r in rep.compatibility) > 0.1
    rep = mrv_checks(*two_triangles(compatible=True), seed=0)
    assert rep.ok


def uniform_point_two_tree(seed, triangles=24):
    """HR 2-tree: vertex k >= 4 joins a uniformly drawn earlier triangle
    edge; the variogram is the squared distances of points drawn uniformly
    in the unit square, so in-clique entries go down to ~1e-3."""
    rng = np.random.default_rng([seed, 3])
    n = triangles + 2
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    gamma = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    tris, edges = [(1, 2, 3)], [(1, 2), (1, 3), (2, 3)]
    for k in range(4, n + 1):
        a, b = edges[int(rng.integers(0, len(edges)))]
        tris.append((a, b, k))
        edges += [(a, k), (b, k)]
    cliques = [{"vertices": list(t), "family": "husler_reiss",
                "variogram": gamma[np.ix_([u - 1 for u in t],
                                          [u - 1 for u in t])].tolist()}
               for t in tris]
    cfg = parse_config({
        "graph": {"vertices": n, "edges": [list(e) for e in edges]},
        "cliques": cliques, "v": 1, "t_levels": [2.0], "seed": 0,
    })
    ordering = cfg.ordering(root=cfg.v)
    return ordering, cfg.models(ordering)


@pytest.mark.parametrize("seed", range(8))
def test_mrv_checks_strongly_dependent_two_tree(seed):
    # the factorized density of this graph underflows double precision
    # (log density far below -745), so homogeneity is judged in log space
    ordering, models = uniform_point_two_tree(seed)
    rep = mrv_checks(ordering, models, seed=seed)
    assert rep.ok, max(r.rel_err for r in rep.homogeneity)


@pytest.mark.parametrize("bad", [
    {"n_points": 0}, {"n_points": -3}, {"n_points": 2.0}, {"n_points": True},
    {"scale": 0.0}, {"scale": -2.0}, {"scale": np.nan}, {"scale": np.inf},
    {"scale": 1.0}, {"homogeneity_tol": 0.0}, {"homogeneity_tol": -1e-4},
    {"homogeneity_tol": np.nan}, {"homogeneity_tol": np.inf},
    {"homogeneity_tol": True},
    {"seed": -1}, {"seed": 2.5}, {"seed": True},
])
def test_mrv_checks_rejects_vacuous_or_invalid_arguments(bad):
    ordering, models = triangle_plus_edge()
    with pytest.raises(ConfigError):
        mrv_checks(ordering, models, **{"seed": 0, **bad})


@functools.lru_cache(maxsize=None)
def cached_two_tree(seed):
    return uniform_point_two_tree(seed)


@given(seed=st.integers(0, 7),
       log_y=st.lists(st.lists(st.one_of(st.floats(-3.0, 3.0),
                                         st.sampled_from([-30.0, 30.0])),
                               min_size=26, max_size=26),
                      min_size=2, max_size=3))
def test_factorized_density_batch_equals_single_states(seed, log_y):
    ordering, models = cached_two_tree(seed)
    ys = np.exp(np.array(log_y))
    for log in (False, True):
        batch = factorized_density(ordering, models, ys, log=log)
        assert batch.shape == (len(ys),)
        single = [factorized_density(ordering, models, y, log=log) for y in ys]
        assert all(isinstance(x, float) for x in single)
        assert np.array_equal(batch, single), log


def test_factorized_density_needs_hr_cliques():
    models = {(1, 2): gauss_pair_model((1, 2), 0.5)}
    with pytest.raises(ConfigError, match="requires Hüsler-Reiss cliques"):
        factorized_density(pair_ordering(), models, np.array([1.0, 1.0]))


def test_factorized_density_rejects_bad_shapes():
    ordering, models = triangle_plus_edge()
    for bad in (np.ones(5), np.ones((2, 3)), np.ones((1, 2, 4)), np.ones(())):
        with pytest.raises(ConfigError):
            factorized_density(ordering, models, bad)


@pytest.mark.parametrize("case", [
    triangle_plus_edge,
    functools.partial(two_triangles, compatible=False),
    functools.partial(two_triangles, compatible=True),
    *(functools.partial(cached_two_tree, seed) for seed in range(8)),
], ids=["triangle+edge", "two-triangles-mismatched", "two-triangles",
        *(f"uniform-point-two-tree-{seed}" for seed in range(8))])
def test_mrv_checks_match_per_point_oracle(case, monkeypatch):
    ordering, models = case()
    want = mrv_oracle.mrv_checks(ordering, models, seed=4)

    calls = []
    density = hr.exponent_measure_density_many

    def counted(*args, **kwargs):
        calls.append(1)
        return density(*args, **kwargs)

    monkeypatch.setattr(hr, "exponent_measure_density_many", counted)
    got = mrv_checks(ordering, models, seed=4)
    # one batched density call per clique and per non-empty separator
    per_call = len(ordering.cliques) + sum(1 for s in ordering.separators if s)
    assert len(calls) == per_call
    mrv_checks(ordering, models, seed=4, n_points=1)
    assert len(calls) == 2 * per_call

    assert got.compatibility == want.compatibility
    assert [r.point for r in got.homogeneity] == [r.point for r in want.homogeneity]
    for field in ("density", "scaled_density", "rel_err"):
        np.testing.assert_allclose(
            [getattr(r, field) for r in got.homogeneity],
            [getattr(r, field) for r in want.homogeneity], rtol=1e-13, atol=0.0)
    assert (got.homogeneity_ok, got.compatibility_ok, got.ok) == (
        want.homogeneity_ok, want.compatibility_ok, want.ok)
