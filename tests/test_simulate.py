"""Exact finite-level samplers and the renormalization bridge to the limits."""

import dataclasses
import hashlib
import json
import sys
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import tailgraph
from tailgraph import diagnostics
from tailgraph import gaussian as gs
from tailgraph import husler_reiss as hr
from tailgraph import simulate as sim
from tailgraph.errors import (
    ConfigError,
    MissingNorming,
    NumericalBreakdown,
    UnsupportedCliqueShape,
)
from tailgraph.cli import main
from tailgraph.graphs import Graph, clique_ordering
from tailgraph.husler_reiss import _NEWTON_STEPS, _X_FLOOR, INVERT_TOL, _invert_pair
from tailgraph.limits import SampleMatrix, build_tail_model, build_tail_noise
from tailgraph.linalg import spd_inverse
from tailgraph.rng import BLOCK
from tailgraph.simulate import (
    _draw_plan,
    _simulate,
    conditional_exceedance,
    renormalize,
    simulate_graphical,
)

from conftest import (
    MIXED_GAMMA,
    chain_correlation,
    hr_pair_model,
    mixed_models,
    perfbench_workloads,
)
import study_oracle
from simulate_oracle import _invert_kernel
from simulate_oracle import _invert_pair as eager_invert_pair

N = 100_000
KS_BAND = 1.95 / np.sqrt(N)


def ks_exp(x):
    return stats.kstest(x, "expon").statistic


def gauss_chain_setup():
    full = gs.CorrelationMatrix((1, 2, 3), chain_correlation([0.6, 0.5]))
    graph = Graph.make(3, [(1, 2), (2, 3)])
    ordering = clique_ordering(graph, 1)
    models = {c: gs.GaussianCopulaModel(c, full.sub(c))
              for c in ordering.cliques}
    return ordering, models


# ------------------------------------------------------------ margin laws


def test_gaussian_chain_margins_and_dependence():
    ordering, models = gauss_chain_setup()
    s = simulate_graphical(ordering, models, N, seed=42)
    for u in (1, 2, 3):
        assert ks_exp(s.column(u)) < KS_BAND
    # latent correlation survives the margin transform: Kendall's tau of a
    # Gaussian copula is (2/pi) arcsin(rho)
    m = 20_000
    tau = stats.kendalltau(s.column(1)[:m], s.column(2)[:m]).statistic
    se = np.sqrt(2 * (2 * m + 5) / (9 * m * (m - 1)))
    assert abs(tau - 2.0 / np.pi * np.arcsin(0.6)) < 3 * se


def test_hr_pair_margins_and_finite_level_chi():
    model = hr_pair_model((1, 2), 1.0)
    ordering = clique_ordering(Graph.make(2, [(1, 2)]), 1)
    s = simulate_graphical(ordering, {(1, 2): model}, N, seed=1)
    for u in (1, 2):
        assert ks_exp(s.column(u)) < KS_BAND
    # P(both exceed the q-quantile)/(1-q) against the exact copula value
    q = 0.99
    xq = -np.log1p(-q)
    yq = hr.exp_to_frechet(xq)
    lam = hr.exponent_measure_many(model.variogram, [yq, yq])[0]
    chi_exact = (1 - 2 * q + np.exp(-lam)) / (1 - q)
    emp = np.mean((s.column(1) > xq) & (s.column(2) > xq)) / (1 - q)
    se = np.sqrt(chi_exact / (N * (1 - q)))
    assert abs(emp - chi_exact) < 4 * se


def test_single_vertex_graph_margin():
    ordering = clique_ordering(Graph.make(1, []), 1)
    s = simulate_graphical(ordering, {(1,): None}, N, seed=2)
    assert ks_exp(s.column(1)) < KS_BAND
    ce = conditional_exceedance(ordering, {(1,): None}, 1, 3.0, N, seed=2)
    assert ks_exp(ce.column(1) - 3.0) < KS_BAND


# ---------------------------------------------- conditional sampler routes


def test_conditional_sampler_matches_rejection():
    ordering, models = gauss_chain_setup()
    t0 = 2.0
    big = simulate_graphical(ordering, models, 400_000, seed=9)
    kept = big.values[big.column(1) > t0]
    ce = conditional_exceedance(ordering, models, 1, t0, len(kept), seed=10)
    for j in range(3):
        d = stats.ks_2samp(kept[:, j], ce.values[:, j]).statistic
        crit = 2.0 * np.sqrt((len(kept) + ce.n) / (len(kept) * ce.n))
        assert d < crit
    # the exceedance above the threshold is again unit exponential
    assert ks_exp(ce.column(1) - t0) < 1.95 / np.sqrt(ce.n)


# -------------------------------------------------------- renormalization


def test_renormalize_gaussian_pair_against_limit():
    # square-root norming carries logarithmic corrections, so the gap to
    # the limit closes slowly: ~0.21 at t=8 and ~0.066 at t=400 for this
    # pair; assert the decay and the t=400 level rather than a flat band
    rho = 0.6
    model = gs.GaussianCopulaModel(
        (1, 2), gs.CorrelationMatrix((1, 2), [[1.0, rho], [rho, 1.0]]))
    ordering = clique_ordering(Graph.make(2, [(1, 2)]), 1)
    models = {(1, 2): model}
    tm = build_tail_model(ordering, models, 1)
    sd = np.sqrt(2 * rho**2 * (1 - rho**2))
    ks = {}
    for t in (8.0, 400.0):
        ce = conditional_exceedance(ordering, models, 1, t, N, seed=5)
        z = renormalize(ce, tm, "condition_on_root")
        ks[t] = stats.kstest(z.column(2), "norm", args=(0.0, sd)).statistic
        assert np.allclose(z.column(1), ce.column(1) - t)
    assert ks[400.0] < 0.08
    assert ks[400.0] < ks[8.0] / 2


def test_renormalize_hr_chain_against_exact_moments(hr_chain):
    ordering, models = hr_chain
    tm = build_tail_model(ordering, models, 1)
    ce = conditional_exceedance(ordering, models, 1, 6.0, 50_000, seed=6)
    z = renormalize(ce, tm, "condition_on_root")
    mu = hr.tail_model_mean(ordering, models, 1)
    cov = spd_inverse(hr.tail_model_precision(ordering, models, 1))
    for u in (2, 3):
        d = stats.kstest(z.column(u), "norm",
                         args=(mu.entry(u), np.sqrt(cov.entry(u, u)))).statistic
        assert d < 0.05
    emp = np.cov(z.sub((2, 3)).T)
    assert np.max(np.abs(emp - cov.sub((2, 3)).values)) < 0.1


def test_renormalize_mixed_separator_mode(mixed_graph):
    graph, models = mixed_graph
    ordering = clique_ordering(graph, 3)
    tn = build_tail_noise(ordering, models, 3)
    root_law = tn.blocks[0].noise

    def stats_at(t):
        ce = conditional_exceedance(ordering, models, 3, t, N, seed=7)
        z = renormalize(ce, tn, "separator_based")
        d_hr = stats.kstest(
            z.column(1), "norm",
            args=(-MIXED_GAMMA / 2, np.sqrt(MIXED_GAMMA))).statistic
        d_gauss = {
            u: stats.kstest(
                z.column(u), "norm",
                args=(0.0, np.sqrt(root_law.cov.entry(u, u)))).statistic
            for u in root_law.index
        }
        cross = np.corrcoef(z.column(1), z.column(4))[0, 1]
        return d_hr, d_gauss, cross

    hr8, gauss8, _ = stats_at(8.0)
    hr50, gauss50, cross50 = stats_at(50.0)
    # the pairwise HR block converges fast once recentred on its own
    # separator; the Gaussian block keeps its slow logarithmic rate
    assert hr8 < 0.07
    assert hr50 < 0.01
    for u in root_law.index:
        assert gauss50[u] < gauss8[u]
    assert abs(cross50) < 0.01  # blocks decouple in the limit


def _renormalize_case(case, ordering, models):
    """(samples, model, mode) of one way ``renormalize`` must refuse."""
    tm = build_tail_model(ordering, models, 1)
    tn = build_tail_noise(ordering, models, 1)
    cond = conditional_exceedance(ordering, models, 1, 4.0, 50, seed=0)
    if case == "unknown_mode":
        return cond, tm, "condition_on_vertex"
    if case == "no_threshold":
        return simulate_graphical(ordering, models, 50, seed=0), tm, "condition_on_root"
    if case == "root_mode_given_noise":
        return cond, tn, "condition_on_root"
    if case == "separator_mode_given_model":
        return cond, tm, "separator_based"
    if case == "model_misses_a_norming":
        normings = {u: p for u, p in tm.normings.items() if u != 3}
        return cond, dataclasses.replace(tm, normings=normings), "condition_on_root"
    if case.startswith("samples_lack"):
        cols = (1, 3) if case.endswith("block_separator") else (2, 3)
        some = SampleMatrix(columns=cols, values=cond.sub(cols), meta=cond.meta)
        return some, *((tm, "condition_on_root") if case.endswith("root")
                       else (tn, "separator_based"))
    return cond, dataclasses.replace(tn, blocks=tn.blocks[:-1]), "separator_based"


@pytest.mark.parametrize("case, error, match", [
    ("unknown_mode", ConfigError, "unknown renormalization mode"),
    ("no_threshold", ConfigError, "no threshold"),
    ("root_mode_given_noise", MissingNorming, "^condition_on_root"),
    ("separator_mode_given_model", MissingNorming, "^separator_based"),
    ("model_misses_a_norming", MissingNorming, "no norming for vertex 3"),
    ("noise_misses_a_block", MissingNorming, r"no block covers vertices \[3\]"),
    ("samples_lack_v_root", ConfigError, "lack the conditioning column 1"),
    ("samples_lack_v_separator", ConfigError, "lack the conditioning column 1"),
    ("samples_lack_a_block_separator", ConfigError,
     r"lack the block separator columns \[2\]"),
])
def test_renormalize_refuses(hr_chain, case, error, match):
    samples, model, mode = _renormalize_case(case, *hr_chain)
    with pytest.raises(error, match=match):
        renormalize(samples, model, mode)


@pytest.mark.parametrize("name", ["hr_chain", "mixed_tree"])
def test_renormalize_leaves_its_input_alone(pytestconfig, name):
    """renormalize writes a copy: the samples keep their bytes, share no
    memory with the result, and the result has study_oracle's row-major
    bytes and the samples' strides."""
    ordering, models, v = shipped(pytestconfig, name)
    if name == "hr_chain":
        model, mode = build_tail_model(ordering, models, v), "condition_on_root"
    else:
        model, mode = build_tail_noise(ordering, models, v), "separator_based"
    samples = conditional_exceedance(ordering, models, v, 4.0, 1000, seed=2)
    before = samples.values.tobytes()
    z = renormalize(samples, model, mode)
    assert samples.values.tobytes() == before
    assert not np.shares_memory(z.values, samples.values)
    want = study_oracle.renormalize(samples, model, mode)
    assert z.values.tobytes() == want.values.tobytes()
    assert z.values.strides == samples.values.strides


# ------------------------------------------------------------ determinism


def test_simulate_determinism(hr_chain):
    """Gaussian and HR chains: the same bytes for workers 1 and 3 and on
    a rerun (three row blocks), and a run of whole blocks is a prefix."""
    for ordering, models in (gauss_chain_setup(), hr_chain):
        a = simulate_graphical(ordering, models, 70_000, seed=3)
        b = simulate_graphical(ordering, models, 70_000, seed=3, workers=3)
        assert a.values.tobytes() == b.values.tobytes()
        c = simulate_graphical(ordering, models, 70_000, seed=3)
        assert a.values.tobytes() == c.values.tobytes()
        prefix = simulate_graphical(ordering, models, 2 * BLOCK, seed=3)
        assert prefix.values.tobytes() == a.values[:2 * BLOCK].tobytes()
        other = simulate_graphical(ordering, models, 100, seed=4)
        assert not np.array_equal(a.values[:100], other.values)


def test_threshold_levels_share_random_numbers(hr_chain):
    """Two levels drawn with one seed use the same uniforms, so their
    renormalized columns move together (0.9997-0.9999 here); a sampler
    whose levels do not share their uniforms falls well below 0.99."""
    ordering, models = hr_chain
    tm = build_tail_model(ordering, models, 1)
    z = [renormalize(conditional_exceedance(ordering, models, 1, t, 20_000,
                                            seed=8), tm, "condition_on_root")
         for t in (4.0, 6.0)]
    for u in (2, 3):
        rho = stats.spearmanr(z[0].column(u), z[1].column(u)).statistic
        assert rho >= 0.99


@pytest.mark.parametrize(
    "n, seed, workers",
    [(-1, 0, 1), (2.5, 0, 1), (True, 0, 1), (10, -1, 1), (10, 2.5, 1),
     (10, True, 1), (10, 2 ** 64, 1), (0, -1, 1), (10, 0, 0), (10, 0, 2.5)],
    ids=["negative_n", "fractional_n", "bool_n", "negative_seed", "fractional_seed",
         "bool_seed", "wide_seed", "no_rows_negative_seed", "zero_workers",
         "fractional_workers"])
def test_simulators_reject_bad_arguments(hr_chain, n, seed, workers):
    """One seed rule and one row-count rule, checked before any row is
    drawn, even when there is none to draw."""
    ordering, models = hr_chain
    with pytest.raises(ConfigError):
        simulate_graphical(ordering, models, n, seed, workers=workers)
    with pytest.raises(ConfigError):
        conditional_exceedance(ordering, models, 1, 4.0, n, seed, workers=workers)


def shipped(pytestconfig, name):
    """(ordering rooted at v, models, v) of a shipped config."""
    cfg = tailgraph.load_config(pytestconfig.rootpath / "configs" / f"{name}.json")
    ordering = cfg.ordering()
    return ordering, cfg.models(ordering), cfg.v


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), -0.5,
                               True, "3", None],
                         ids=["nan", "inf", "minus_inf", "negative", "bool",
                              "string", "none"])
@pytest.mark.parametrize("name", ["gaussian_chain", "hr_chain", "mixed_tree"])
def test_conditional_exceedance_refuses_bad_thresholds(pytestconfig, monkeypatch,
                                                       name, t):
    """A level that is not a finite real >= 0 is a ConfigError, raised
    before any row is drawn, whatever the clique families."""
    ordering, models, v = shipped(pytestconfig, name)

    def no_draws(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(sim, "derived_rng", no_draws)
    with pytest.raises(ConfigError, match="threshold must be a finite real >= 0"):
        conditional_exceedance(ordering, models, v, t, 10, seed=1)
    with pytest.raises(ConfigError, match="threshold must be a finite real >= 0"):
        _simulate(_draw_plan(ordering, models, v), 10, 1, 1, (4.0, t))


#: sha256 of ``simulate_graphical(..., 70_000, seed=3).values.tobytes()``
#: per shipped config, at 1 and 3 workers alike.
UNCONDITIONAL_DIGESTS = {
    "gaussian_chain":
        "7db2b5488d721c0fd3246f59fa7fdf426cdba0b9efe1304a9e8d31f4750ae936",
    "hr_chain":
        "95312215cd013f58bfa272ad06c981d2f58ee4bece8b35c5516f1a3eaa770532",
    "mixed_tree":
        "6937a4b94a37b9e7843d57db160f097fd56f61dac0f1ba2a555a18a42dfd5c10",
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(UNCONDITIONAL_DIGESTS))
def test_fused_levels_equal_lone_levels(pytestconfig, name, workers):
    """Over three row blocks, each level of one fused pass has the bytes
    and meta of a lone conditional_exceedance at that level; the
    unconditional sampler's bytes are pinned."""
    ordering, models, v = shipped(pytestconfig, name)
    levels = (2.0, 4.0, 8.0)
    fused = _simulate(_draw_plan(ordering, models, v), 70_000, 5, workers, levels)
    assert len(fused) == len(levels)
    for t, got in zip(levels, fused):
        lone = conditional_exceedance(ordering, models, v, t, 70_000, 5,
                                      workers=workers)
        assert got.values.tobytes() == lone.values.tobytes()
        assert got.meta == lone.meta
        assert got.columns == lone.columns
    free = simulate_graphical(ordering, models, 70_000, seed=3, workers=workers)
    digest = hashlib.sha256(free.values.tobytes()).hexdigest()
    assert digest == UNCONDITIONAL_DIGESTS[name]


def test_study_limit_builds_draw_constants_once(gauss_chain, pytestconfig,
                                                tmp_path, monkeypatch):
    """Each Gaussian clique's slope is built once per (clique, separator)
    and shared by the limit and the finite-level draws: study_limit of a
    built limit builds none, at any number of levels, and a whole verify
    of the 101-vertex triangle tree builds one per clique."""
    calls = []
    slope = gs.separator_slope

    def counting(*args, **kwargs):
        calls.append(1)
        return slope(*args, **kwargs)

    monkeypatch.setattr(gs, "separator_slope", counting)
    ordering, models, _ = gauss_chain
    limit = build_tail_model(ordering, models, 1)
    assert len(calls) == len(ordering.cliques)
    for levels in ((4.0,), (4.0, 8.0, 16.0)):
        calls.clear()
        diagnostics.study_limit(limit, levels, 500, seed=1)
        assert calls == []
    doc = perfbench_workloads(pytestconfig.rootpath).gauss_tree(1)
    cfg = tmp_path / "gauss_tree.json"
    cfg.write_text(json.dumps(doc))
    calls.clear()
    res = CliRunner().invoke(main, ["verify", "--config", str(cfg), "--n", "500",
                                    "--t-levels", "4,8"])
    assert res.exit_code in (0, 4)
    assert len(calls) == len(doc["cliques"]) == 50


# ------------------------------------------------ HR pair kernel inversion


@pytest.mark.parametrize("gamma", [0.3, 1.3, 4.0])
@pytest.mark.parametrize("x_sep", [2.0, 20.0, 300.0])
def test_pair_kernel_matches_partition_kernel(x_sep, gamma):
    """The closed-form pair kernel is the partition-sum kernel on a
    pair, up to the inverter's bracket cap, its slope is the kernel's
    derivative, and transition_kernel evaluates pairs by it."""
    model = hr_pair_model((1, 2), gamma)
    a = np.sqrt(gamma)
    x = np.geomspace(_X_FLOOR, x_sep + 700.0, 400)
    y1 = np.full(x.size, hr.exp_to_frechet(x_sep))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k, dk = hr.pair_kernel(a, y1, x, slope=True)
    ref = hr._partition_kernel(model, (1,), np.full((x.size, 1), x_sep), x[:, None])
    assert np.max(np.abs(k - ref)) < 1e-12
    assert np.all(dk >= 0.0)
    assert np.array_equal(hr.pair_kernel(a, y1, x), k)
    assert np.array_equal(hr.transition_kernel(model, (1,), x_sep, x[:, None]),
                          np.minimum(k, 1.0))
    # central differences, away from the floor (where exp_to_frechet
    # loses digits) and from the overflow of y
    mid = (x >= 1e-2) & (x < 700.0)
    h = 1e-6 * np.maximum(x[mid], 1.0)
    fd = (hr.pair_kernel(a, y1[mid], x[mid] + h)
          - hr.pair_kernel(a, y1[mid], x[mid] - h)) / (2 * h)
    np.testing.assert_allclose(dk[mid], fd, rtol=1e-6, atol=1e-8)


_EDGE_U = st.sampled_from([0.0, 1e-300, 1.0 - 2.0**-53])


@given(gamma=st.floats(0.05, 9.0),
       rows=st.lists(st.tuples(st.floats(1e-3, 300.0),
                               st.one_of(_EDGE_U,
                                         st.floats(0.0, 1.0, exclude_max=True))),
                     min_size=1, max_size=8))
def test_pair_inverter_certifies_its_root(gamma, rows):
    """Each root sits in a bracket the kernel certifies, or in the floor
    bracket, and agrees with the bisection oracle.  The two kernels
    differ by up to ~5e-14, which moves a root by that over the slope:
    where the slope is tiny (u within ~1e-6 of 1) this, not the
    tolerance, bounds the agreement."""
    x1 = np.array([r[0] for r in rows])
    u = np.array([r[1] for r in rows])
    a, tol = np.sqrt(gamma), INVERT_TOL
    model = hr_pair_model((1, 2), gamma)
    x = _invert_pair(model, 1, x1.copy(), u)
    y1 = hr.exp_to_frechet(x1)
    floor = x < _X_FLOOR + tol
    assert np.all(x >= _X_FLOOR)
    k_lo = hr.pair_kernel(a, y1, np.where(floor, x, x - tol / 2))
    k_hi = hr.pair_kernel(a, y1, x + tol / 2)
    assert np.all(floor | ((k_lo < u) & (u <= k_hi)))
    oracle = _invert_kernel(model, (1,), x1[:, None], u)
    slope = hr.pair_kernel(a, y1, x, slope=True)[1]
    with np.errstate(divide="ignore"):
        bound = tol + np.where(floor, 0.0, 1e-13 / slope)
    assert np.all(np.abs(x - oracle) <= bound)


def test_pair_inverter_bisects_where_newton_stalls(monkeypatch):
    """Far in the lower tail rounding stalls Newton: this row took 147
    iterations with Newton allowed throughout.  After _NEWTON_STEPS
    iterations a row bisects, and ~43 halvings take its bracket (here
    at most 812 wide) below INVERT_TOL."""
    slope_calls = []
    kernel = hr.pair_kernel

    def counting(a, y1, x, slope=False):
        slope_calls.append(slope)
        return kernel(a, y1, x, slope)

    monkeypatch.setattr(hr, "pair_kernel", counting)
    x1, u = np.array([112.09448921960431]), np.array([8.50534874733535e-300])
    x = _invert_pair(hr_pair_model((1, 2), 9.0), 1, x1, u)
    assert sum(slope_calls) <= _NEWTON_STEPS + 48
    y1 = hr.exp_to_frechet(x1)
    assert kernel(3.0, y1, x - INVERT_TOL / 2) < u <= kernel(3.0, y1, x + INVERT_TOL / 2)


_LAZY_EDGE_U = st.one_of(_EDGE_U, st.sampled_from([1e-20, 1.0 - 1e-10, 1.0 - 1e-14]))


@given(gamma=st.floats(0.05, 9.0),
       rows=st.lists(st.tuples(st.floats(1e-3, 300.0),
                               st.one_of(_LAZY_EDGE_U,
                                         st.floats(0.0, 1.0, exclude_max=True))),
                     min_size=1, max_size=8))
def test_pair_inverter_equals_the_eager_oracle(gamma, rows):
    """Searching for a row's bracket top only when a test could read it
    changes no bit: every root equals the one of the inverter that
    searched for every top first, and a row that cannot be bracketed
    raises on both."""
    x1 = np.array([r[0] for r in rows])
    u = np.array([r[1] for r in rows])
    model = hr_pair_model((1, 2), gamma)
    try:
        want = eager_invert_pair(model, 1, x1.copy(), u)
    except NumericalBreakdown:
        with pytest.raises(NumericalBreakdown):
            _invert_pair(model, 1, x1.copy(), u)
        return
    assert _invert_pair(model, 1, x1.copy(), u).tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma, x1, u, lagging, iteration, reasons", [
    (9.0, 1.0, 1.0 - 1e-10, False, 0, {"x"}),
    (1.3, 5.0, 1e-300, False, 0, {"midpoint"}),
    (4.0, 170.0, 1e-302, False, 1, {"x"}),
    (4.0, 123.0, 1e-306, False, 1, {"midpoint", "x"}),
    (4.0, 85.0, 1.2589254117942332e-293, False, _NEWTON_STEPS + 1, {"midpoint"}),
    (9.0, 1.0, 0.9999806931413847, True, 4, {"midpoint", "lo"}),
], ids=["start_reaches_the_edge", "start_below_the_floor",
        "iterate_reaches_the_edge", "iterate_not_finite", "newton_steps_run_out",
        "probe_reaches_the_edge"])
def test_each_lazy_top_trigger_keeps_the_bits(monkeypatch, gamma, x1, u, lagging,
                                              iteration, reasons):
    """A row without a certified upper end searches for its top when it
    needs a midpoint or when x reaches the edge x1 + 8 − INVERT_TOL, at
    the start or after a step; a probe that takes lo past the edge comes
    with a midpoint.  Each row here reaches one case, read from the
    inverter's own frame at the call, and keeps the bits of the inverter
    that searched first."""
    kernel, top, calls = hr.pair_kernel, hr._bracket_top, []
    if lagging:
        # the probes and the top search (every kernel call without the
        # slope, also through transition_kernel) read K at x − INVERT_TOL,
        # so the probe above a converged iterate can fall below u, as a
        # rounding disagreement of two kernels could at a finer scale
        monkeypatch.setattr(hr, "pair_kernel", lambda a, y1, x, slope=False:
                            kernel(a, y1, x, slope=True) if slope
                            else kernel(a, y1, x - INVERT_TOL))

    def recording(model, s, x1, u):
        f = sys._getframe(1).f_locals
        need = f["need"]
        newton, x, lo, edge = (f[k][need] for k in ("newton", "x", "lo", "edge"))
        calls.append((f["it"], {name for name, hit in (
            ("midpoint", not newton[0]), ("x", not x[0] < edge[0]),
            ("lo", not lo[0] < edge[0])) if hit}))
        return top(model, s, x1, u)

    monkeypatch.setattr(hr, "_bracket_top", recording)
    model = hr_pair_model((1, 2), gamma)
    got = _invert_pair(model, 1, np.array([x1]), np.array([u]))
    assert calls == [(iteration, reasons)]
    want = eager_invert_pair(model, 1, np.array([x1]), np.array([u]))
    assert got.tobytes() == want.tobytes()


def test_bracket_top_sees_few_rows_on_hr_chain(hr_chain, monkeypatch):
    """On the shipped HR chain's draws at t = 2, 4, 6 the inverter
    searches for the top of 1,105 of its 60,000 rows (1.8 %)."""
    rows = {"top": 0, "inverted": 0}
    top, invert = hr._bracket_top, hr._invert_pair

    def counting_top(model, s, x1, u):
        rows["top"] += u.size
        return top(model, s, x1, u)

    def counting_invert(model, s, x1, u):
        rows["inverted"] += u.size
        return invert(model, s, x1, u)

    monkeypatch.setattr(hr, "_bracket_top", counting_top)
    monkeypatch.setattr(hr, "_invert_pair", counting_invert)
    ordering, models = hr_chain
    for t in (2.0, 4.0, 6.0):
        conditional_exceedance(ordering, models, 1, t, 10_000, seed=1)
    assert rows["inverted"] == 60_000
    assert 1 <= rows["top"] <= 0.05 * rows["inverted"]


def test_hr_pair_draws_call_the_module_transition_kernel(hr_chain, monkeypatch):
    """The benchmark's span recorder (perfbench/spans.py) counts HR work
    by wrapping the module attribute hr.transition_kernel, so HR pair
    draws must call the kernel through it."""
    calls = []
    kernel = hr.transition_kernel

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(hr, "transition_kernel", counting)
    ordering, models = hr_chain
    conditional_exceedance(ordering, models, 1, 4.0, 1000, seed=1)
    assert calls


# ------------------------------------------------------------- error gate


def test_hr_triangle_clique_rejected():
    tri = clique_ordering(Graph.make(3, [(1, 2), (1, 3), (2, 3)]), 1)
    vals = np.array([[0.0, 1, 1], [1, 0.0, 1], [1, 1, 0.0]])
    models = {(1, 2, 3): hr.HuslerReissModel(
        (1, 2, 3), hr.VariogramMatrix((1, 2, 3), vals))}
    with pytest.raises(UnsupportedCliqueShape):
        simulate_graphical(tri, models, 100, seed=0)
