"""Graph-wide tail limit engine: verdicts, composition, sampling, remainders."""

import importlib.util
import itertools
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import limit_oracle
from tailgraph import gaussian as gs
from tailgraph import husler_reiss as hr
from tailgraph.config import load_config, parse_config
from tailgraph.errors import (
    ConfigError,
    IncompatibleSeparators,
    NormingIncompatible,
    NotBlockGraph,
    TailgraphError,
)
from tailgraph.graphs import Graph, clique_ordering, goldner_harary
from tailgraph.limits import (
    NormingPair,
    TailGraphicalModel,
    build_tail_model,
    build_tail_noise,
    classify_norming,
    derive_limit,
    remainder_report,
    sample_tail_model,
    tail_model_moments,
    verify_remainders,
)
from tailgraph.linalg import spd_inverse

from conftest import GAUSS_2TREE, MIXED_GAMMA, MIXED_R, hr_pair_model
from test_graphs import connected_chordal


# ------------------------------------------------------------ HR 3-chain


def test_hr_chain_composes_linear_normings(hr_chain):
    ordering, models = hr_chain
    verdict = classify_norming(ordering, models, 1)
    assert verdict.kind == "theorem_1"
    assert verdict.witness_clique is None
    tm = build_tail_model(ordering, models, 1)
    unit = NormingPair(1.0, Fraction(0))
    assert all(tm.normings[u] == unit for u in (1, 2, 3))


def test_hr_chain_sampler_matches_exact_moments(hr_chain):
    ordering, models = hr_chain
    tm = build_tail_model(ordering, models, 1)
    mu = hr.tail_model_mean(ordering, models, 1).values
    cov = spd_inverse(hr.tail_model_precision(ordering, models, 1)).values
    s = sample_tail_model(tm, 400_000, seed=7)
    z = s.sub(tm.z_index)
    assert np.max(np.abs(z.mean(axis=0) - mu)) < 0.02
    assert np.max(np.abs(np.cov(z.T) - cov)) < 0.03
    ev = s.column(1)  # conditioning excess stays unit exponential
    assert abs(ev.mean() - 1.0) < 0.01
    assert abs(ev.var() - 1.0) < 0.02


def test_hr_chain_remainders_vanish(hr_chain):
    ordering, models = hr_chain
    rep = verify_remainders(ordering, models, 1, t_grid=(10.0, 1e3, 1e6))
    assert rep.max_sup() < 1e-12


@pytest.mark.parametrize("t_grid", [(0.0,), (-5.0,), (float("inf"),),
                                    (float("nan"),), (), (True,), ("10",),
                                    (10.0, 10 ** 400), 10.0],
                         ids=["zero", "negative", "inf", "nan", "empty", "bool",
                              "string", "huge", "scalar"])
def test_remainder_grid_is_checked(pytestconfig, t_grid):
    """Both remainder entry points apply the config's rule for
    ``remainder_grid``: a nonempty run of finite positive reals, no bools
    or strings."""
    cfg = load_config(pytestconfig.rootpath / "configs" / "gaussian_chain.json")
    ordering = cfg.ordering(root=1)
    models = cfg.models(ordering)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="t_grid"):
            verify_remainders(ordering, models, 1, t_grid=t_grid)
        with pytest.raises(ConfigError, match="t_grid"):
            remainder_report(build_tail_model(ordering, models, 1), t_grid=t_grid)


# ------------------------------------------------------ Gaussian 4-chain


def test_gauss_chain_composes_squared_correlations(gauss_chain):
    ordering, models, full = gauss_chain
    assert classify_norming(ordering, models, 1).kind == "theorem_1"
    tm = build_tail_model(ordering, models, 1)
    for u in (2, 3, 4):
        assert abs(tm.normings[u].coeff - full.entry(1, u) ** 2) < 1e-14
        assert tm.normings[u].bexp == Fraction(1, 2)


def test_gauss_chain_sampler_matches_whole_graph_limit(gauss_chain):
    ordering, models, full = gauss_chain
    tm = build_tail_model(ordering, models, 1)
    law = gs.limit_law(full, 1)
    s = sample_tail_model(tm, 400_000, seed=11)
    z = s.sub(tm.z_index)
    assert np.max(np.abs(z.mean(axis=0))) < 0.01
    assert np.max(np.abs(np.cov(z.T) - law.cov.values)) < 0.02


def test_gauss_chain_remainders_decay(gauss_chain):
    ordering, models, _ = gauss_chain
    tm = build_tail_model(ordering, models, 1)
    rep = verify_remainders(ordering, models, 1,
                            t_grid=(10.0, 100.0, 1000.0, 10000.0))
    for upd in tm.updates:
        sups = [max(r.sup_a, r.sup_b) for r in rep.rows if r.clique == upd.clique]
        # small composite coefficients push the state a(t)+b(t)z through
        # zero at moderate t, so the ladder may bulge before it decays:
        # gate the endpoints and the asymptotic tail, not every rung
        assert sups[-1] < sups[0], sups
        assert sups[-1] < sups[-2], sups
        assert sups[-1] < 0.25, sups


# --------------------------------------------------------- mixed families


def test_mixed_root_update_closed_form(mixed_graph):
    graph, models = mixed_graph
    ordering = clique_ordering(graph, 1)
    assert classify_norming(ordering, models, 1).kind == "theorem_1"
    tm = build_tail_model(ordering, models, 1)
    upd = tm.updates[0]  # the Gaussian 4-clique conditioned on vertex 2
    assert upd.psi is None  # linear norming has no state-dependent term
    rho = MIXED_R[0, 1:]
    assert np.allclose(upd.phi.values, rho, atol=1e-14)
    for j, u in enumerate(upd.rest):
        assert abs(tm.normings[u].coeff - rho[j] ** 2) < 1e-14
    noise = 2.0 * (MIXED_R[1:, 1:] - np.outer(rho, rho))
    assert np.allclose(upd.noise.cov.values, noise, atol=1e-12)


def test_mixed_interior_root_needs_tail_noise(mixed_graph):
    graph, models = mixed_graph
    ordering = clique_ordering(graph, 1)
    verdict = classify_norming(ordering, models, 3)
    assert verdict.kind == "tail_noise_required"
    assert verdict.witness_clique == (1, 2)
    with pytest.raises(NormingIncompatible) as err:
        build_tail_model(ordering, models, 3)
    assert err.value.witness_clique == (1, 2)


def test_mixed_tail_noise_blocks(mixed_graph):
    graph, models = mixed_graph
    ordering = clique_ordering(graph, 1)
    tn = build_tail_noise(ordering, models, 3)
    assert len(tn.blocks) == 2
    root, hr_block = tn.blocks
    assert root.clique == (2, 3, 4, 5) and root.sep == (3,)
    assert hr_block.clique == (1, 2) and hr_block.sep == (2,)
    assert abs(hr_block.noise.mean.values[0] + MIXED_GAMMA / 2) < 1e-14
    assert abs(hr_block.noise.cov.values[0, 0] - MIXED_GAMMA) < 1e-14
    law = gs.limit_law(gs.CorrelationMatrix((2, 3, 4, 5), MIXED_R), 3)
    assert np.allclose(root.noise.cov.values, law.cov.values, atol=1e-14)

    s = sample_tail_model(tn, 200_000, seed=3)
    z = s.sub(tn.z_index)
    assert np.max(np.abs(z.mean(axis=0) - tn.mean().values)) < 0.02
    assert np.max(np.abs(np.cov(z.T) - tn.covariance().values)) < 0.03
    idx = tn.z_index
    i1 = [idx.index(u) for u in hr_block.rest]
    i2 = [idx.index(u) for u in root.rest]
    cross = np.cov(z.T)[np.ix_(i1, i2)]
    assert np.max(np.abs(cross)) < 0.02  # blocks are independent


# --------------------------------------- dense chordal graph, Markov field


def test_goldner_harary_markov_composition():
    gh = goldner_harary()
    prec = np.eye(11) * 4.0
    for a, b in gh.edge_list():
        prec[a - 1, b - 1] = prec[b - 1, a - 1] = -0.35
    cov = np.linalg.inv(prec)
    d = np.sqrt(np.diag(cov))
    full = gs.CorrelationMatrix(tuple(range(1, 12)), cov / np.outer(d, d))
    ordering = clique_ordering(gh, 2)
    models = {c: gs.GaussianCopulaModel(c, full.sub(c))
              for c in ordering.cliques}
    assert classify_norming(ordering, models, 2).kind == "theorem_1"
    tm = build_tail_model(ordering, models, 2)
    # per-clique recursion must reproduce the whole-graph coefficients
    cgap = max(abs(tm.normings[u].coeff - full.entry(u, 2) ** 2)
               for u in range(1, 12) if u != 2)
    assert cgap < 1e-12
    law = gs.limit_law(full, 2)
    z = sample_tail_model(tm, 400_000, seed=19).sub(tm.z_index)
    assert np.max(np.abs(np.cov(z.T) - law.cov.values)) < 0.02


# ------------------------------------------------------------ determinism


def test_sampler_is_deterministic_and_prefix_stable(gauss_chain):
    ordering, models, _ = gauss_chain
    tm = build_tail_model(ordering, models, 1)
    a1 = sample_tail_model(tm, 70_000, seed=5, workers=1)
    a4 = sample_tail_model(tm, 70_000, seed=5, workers=4)
    assert np.array_equal(a1.values, a4.values)
    again = sample_tail_model(tm, 70_000, seed=5, workers=1)
    assert np.array_equal(a1.values, again.values)
    short = sample_tail_model(tm, 32_768, seed=5)
    assert np.array_equal(a1.values[: 32_768], short.values)
    other = sample_tail_model(tm, 1000, seed=6)
    assert not np.array_equal(a1.values[:1000], other.values)


# ------------------------------------- clique-major reference sampler


def _perfbench_workloads():
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_moments_match_oracle(limit):
    """Mean and covariance equal the reference loops byte for byte."""
    if isinstance(limit, TailGraphicalModel):
        want = limit_oracle.tail_model_moments(limit)
        got = tail_model_moments(limit)
    else:
        want = (limit_oracle.noise_mean(limit),
                limit_oracle.noise_covariance(limit))
        got = (limit.mean(), limit.covariance())
    assert got[0].index == want[0].index
    assert got[0].values.tobytes() == want[0].values.tobytes()
    assert (got[1].rows, got[1].cols) == (want[1].rows, want[1].cols)
    assert got[1].values.tobytes() == want[1].values.tobytes()


def assert_matches_oracle(limit, n=70_000, seed=5):
    """Moments and samples equal the reference loops byte for byte; n
    crosses a row-block boundary, and 1 and 3 workers must agree."""
    assert_moments_match_oracle(limit)
    if isinstance(limit, TailGraphicalModel):
        ref = limit_oracle.sample_tail_model(limit, n, seed)
    else:
        ref = limit_oracle.noise_sample(limit, n, seed)
    for workers in (1, 3):
        draw = sample_tail_model(limit, n, seed, workers=workers)
        assert (draw.columns, draw.meta) == (ref.columns, ref.meta)
        assert draw.values.tobytes() == ref.values.tobytes()


def test_shipped_limits_match_reference_sampler():
    built = []
    for path in sorted((Path(__file__).parent.parent / "configs").glob("*.json")):
        try:
            cfg = load_config(path)
            ordering = cfg.ordering(root=cfg.v)
            models = cfg.models(ordering)
        except TailgraphError:
            continue  # graph-only or non-chordal configs build no limit
        model = derive_limit(ordering, models, cfg.v)[1]
        assert_matches_oracle(model if model is not None
                              else build_tail_noise(ordering, models, cfg.v))
        built.append(path.stem)
    assert built == ["gaussian_chain", "gaussian_short_chain", "hr_block_tree",
                     "hr_chain", "mixed_tree"]


def test_hr_pair_tree_matches_reference_sampler():
    rng = np.random.default_rng(200)
    parent = {w: int(rng.integers(1, w)) for w in range(2, 201)}
    graph = Graph.make(200, list(parent.items()))
    ordering = clique_ordering(graph, 1)
    models = {c: hr_pair_model(c, float(rng.uniform(0.3, 1.5)))
              for c in ordering.cliques}
    assert_matches_oracle(build_tail_model(ordering, models, 1))


def test_hr_two_trees_match_reference_moments():
    """Seeded HR triangle 2-trees rooted at several vertices.  A triangle
    glued to an edge through the root has one free separator column, and
    its slope often has a negative entry; a sign slip in a moment step
    fails here.  The other triangles have two free separator columns."""
    workloads = _perfbench_workloads()
    one_free = two_free = negative = 0
    for seed in range(1, 31):
        cfg = parse_config(workloads.hr_tri(seed, 12))
        for v in (1, 2, 5, 9):
            ordering = cfg.ordering(root=v)
            model = build_tail_model(ordering, cfg.models(ordering), v)
            assert_moments_match_oracle(model)
            for upd in model.updates:
                free = sum(s != v for s in upd.sep)
                two_free += free == 2
                if free == 1:
                    one_free += 1
                    negative += bool(np.any(upd.psi.values < 0.0))
    assert (one_free, two_free, negative) == (326, 994, 84)
    assert_matches_oracle(model, n=40_000)


def _distance_variogram(vertices, seed):
    """Squared distances of n points in general position in R^n: strictly
    conditionally negative definite, so each clique's block is a
    variogram and separators always agree."""
    loc = np.random.default_rng(seed).normal(size=(len(vertices), len(vertices)))
    return hr.VariogramMatrix(vertices, np.sum((loc[:, None] - loc[None]) ** 2, axis=2))


@st.composite
def hr_chordal_models(draw):
    """A connected chordal graph of 2-8 vertices and cliques of at most
    four, one variogram over all its vertices, and two roots."""
    g = draw(connected_chordal(max_n=8, min_n=2, max_clique=4))
    gamma = _distance_variogram(g.vertices, draw(st.integers(0, 2 ** 32 - 1)))
    roots = draw(st.lists(st.sampled_from(g.vertices), min_size=2, max_size=2,
                          unique=True))
    return g, gamma, roots


#: Two 4-cliques on a triangle, then a triangle, a pair and a triangle:
#: rooted at 1 and 4, updates with one, two and three free separator
#: columns, which the drawn graphs seldom reach.
_FOUR_CLIQUES = Graph.make(8, [(a, b) for c in ((1, 2, 3, 4), (2, 3, 4, 5), (4, 5, 6),
                                                (6, 7), (5, 6, 8))
                               for a, b in itertools.combinations(c, 2)])


@example((_FOUR_CLIQUES, _distance_variogram(_FOUR_CLIQUES.vertices, 0), [1, 4]))
@given(hr_chordal_models())
def test_hr_chordal_limits_match_the_oracle_and_the_closed_form(case):
    """On random HR chordal graphs, at two roots each, moments and n = 300
    samples equal the reference loops byte for byte, and the mean and
    precision agree with the dedicated HR recursion."""
    g, gamma, roots = case
    for v in roots:
        ordering = clique_ordering(g, v)
        models = {c: hr.HuslerReissModel(c, gamma.sub(c)) for c in ordering.cliques}
        model = build_tail_model(ordering, models, v)
        assert_matches_oracle(model, n=300)
        mean, cov = tail_model_moments(model)
        hr_mean = hr.tail_model_mean(ordering, models, v)
        prec = hr.tail_model_precision(ordering, models, v)
        assert hr_mean.index == mean.index and prec.rows == cov.rows
        assert np.max(np.abs(hr_mean.values - mean.values)) <= 1e-10
        assert np.max(np.abs(prec.values - spd_inverse(cov).values)) <= 1e-10


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hr_precision_recursion_at_a_vertex_in_several_cliques(seed):
    """Rooted at a vertex that lies in two or more triangles, a later
    clique holds v too, and ``tail_model_precision`` subtracts the
    precision of its separator; the recursion still inverts to the
    limit's covariance, and ``tail_model_mean`` gives its mean."""
    cfg = parse_config(_perfbench_workloads().hr_tri(seed, 8))
    cliques = cfg.ordering().cliques
    shared = [v for v in cfg.graph.vertices if sum(v in c for c in cliques) >= 2]
    assert len(shared) >= 2
    for v in shared:
        ordering = cfg.ordering(root=v)
        models = cfg.models(ordering)
        mean, cov = tail_model_moments(build_tail_model(ordering, models, v))
        prec_cov = spd_inverse(hr.tail_model_precision(ordering, models, v))
        hr_mean = hr.tail_model_mean(ordering, models, v)
        assert prec_cov.rows == cov.rows and hr_mean.index == mean.index
        assert np.max(np.abs(prec_cov.values - cov.values)) <= 1e-12
        assert np.max(np.abs(hr_mean.values - mean.values)) <= 1e-12


def test_zero_covariance_keeps_its_sign_through_a_negative_slope():
    """The Gaussian block {3, 4} hangs off v = 1 alone, so it is
    independent of the HR vertex 2; vertex 5 then reads the free column 3
    with a negative slope.  Its covariance with 2 is the +0 of a sum
    started from zeros, not the -0 of slope times zero."""
    graph = Graph.make(5, [(1, 2), (1, 3), (1, 4), (3, 4), (1, 5), (3, 5)])
    ordering = clique_ordering(graph, 1)
    corr = {(1, 3, 4): [[1.0, 0.6, 0.5], [0.6, 1.0, 0.4], [0.5, 0.4, 1.0]],
            (1, 3, 5): [[1.0, 0.6, 0.7], [0.6, 1.0, 0.1], [0.7, 0.1, 1.0]]}
    models = {(1, 2): hr_pair_model((1, 2), 1.1)}
    for c, r in corr.items():
        models[c] = gs.GaussianCopulaModel(c, gs.CorrelationMatrix(c, np.array(r)))
    model = build_tail_model(ordering, models, 1)
    assert model.updates[-1].psi.values[0, 1] < 0.0
    assert_matches_oracle(model, n=40_000)
    assert not np.signbit(tail_model_moments(model)[1].entry(5, 2))


def test_hr_pair_tree_moments_match_path_sums():
    """2,000 vertices.  Z_u sums independent N(-γ_e/2, γ_e) increments
    over the edges e on the path from v = 1 to u, so the mean is -½Σγ_e
    and cov(u, w) is Σγ_e over the shared part of both paths."""
    n = 2000
    doc = _perfbench_workloads().hr_tree(1, n)
    cfg = parse_config(doc)
    ordering = cfg.ordering(root=1)
    mean, cov = tail_model_moments(build_tail_model(ordering, cfg.models(ordering), 1))
    parent, gamma = {}, {}
    for c in doc["cliques"]:
        a, b = c["vertices"]
        parent[b], gamma[b] = a, c["variogram"][0][1]
    on_path = np.zeros((n - 1, n - 1))
    for u in range(2, n + 1):
        x = u
        while x != 1:
            on_path[u - 2, x - 2] = 1.0
            x = parent[x]
    g = np.array([gamma[x] for x in range(2, n + 1)])
    assert mean.index == tuple(range(2, n + 1))
    assert np.max(np.abs(mean.values + 0.5 * on_path @ g)) < 1e-9
    assert np.max(np.abs(cov.values - (on_path * g) @ on_path.T)) < 1e-9


def test_gaussian_triangle_tree_matches_reference_sampler():
    """Triangles glued at single vertices; rooted at an interior vertex,
    and as separator-normed noise blocks."""
    rng = np.random.default_rng(3)
    edges, corr = [], {}
    for k in range(1, 21):
        glue = int(rng.integers(1, 2 * k)) if k > 1 else 1
        c = tuple(sorted((glue, 2 * k, 2 * k + 1)))
        edges += [(c[0], c[1]), (c[0], c[2]), (c[1], c[2])]
        while True:
            r = rng.uniform(0.45, 0.85, size=3)
            m = np.array([[1.0, r[0], r[1]], [r[0], 1.0, r[2]],
                          [r[1], r[2], 1.0]])
            if np.linalg.eigvalsh(m)[0] > 0.05:
                break
        corr[c] = m
    graph = Graph.make(41, edges)
    ordering = clique_ordering(graph, 2)
    models = {c: gs.GaussianCopulaModel(c, gs.CorrelationMatrix(c, corr[c]))
              for c in ordering.cliques}
    assert_matches_oracle(build_tail_model(ordering, models, 2))
    assert_matches_oracle(build_tail_noise(ordering, models, 2), n=40_000)


@pytest.mark.parametrize("v", [1, 6])
def test_goldner_harary_field_matches_reference_sampler(v):
    """Three-vertex separators, with and without the conditioning vertex:
    rooted at 1, five updates have two free separator columns and two
    have three; rooted at 6, all seven have three."""
    gh = goldner_harary()
    prec = np.eye(11) * 4.0
    for a, b in gh.edge_list():
        prec[a - 1, b - 1] = prec[b - 1, a - 1] = -0.35
    cov = np.linalg.inv(prec)
    d = np.sqrt(np.diag(cov))
    full = gs.CorrelationMatrix(tuple(range(1, 12)), cov / np.outer(d, d))
    ordering = clique_ordering(gh, v)
    models = {c: gs.GaussianCopulaModel(c, full.sub(c)) for c in ordering.cliques}
    model = build_tail_model(ordering, models, v)
    free = [sum(s != v for s in upd.sep) for upd in model.updates]
    assert (free.count(2), free.count(3)) == {1: (5, 2), 6: (0, 7)}[v]
    assert_matches_oracle(model, n=40_000)


def _long_double_moments(model):
    """Mean and covariance of ``model``'s float64 updates, by the moment
    recursion in ``np.longdouble`` through a zero-padded ψ: a reference
    whose rounding does not follow the order in which the package adds
    its free separator columns."""
    idx = model.z_index
    pos = {u: k for k, u in enumerate(idx)}
    mean = np.zeros(len(idx), np.longdouble)
    cov = np.zeros((len(idx), len(idx)), np.longdouble)
    for upd in model.in_order:
        rows = [pos[u] for u in upd.rest]
        psi = np.zeros((len(rows), len(idx)), np.longdouble)
        for j, s in enumerate(upd.sep):
            if upd.psi is not None and s in pos:
                psi[:, pos[s]] = upd.psi.values[:, j]
        phi = upd.phi.values.astype(np.longdouble)
        cross = psi @ cov
        mean[rows] = psi @ mean + phi * upd.noise.mean.values
        cov[rows, :] = cross
        cov[:, rows] = cross.T
        cov[np.ix_(rows, rows)] = (cross @ psi.T + phi[:, None]
                                   * upd.noise.cov.values * phi[None, :])
    return mean, cov


@pytest.mark.parametrize("v", [1, 5])
def test_several_free_columns_match_the_long_double_recursion(v):
    """Updates with two or more free separator columns: the seed 1-10 HR
    triangle 2-trees of ``perfbench`` and the Gaussian 2-tree of the CLI
    pins.  Every mean and covariance entry lies within 8·eps·max|Σ| of
    the same recursion in long double (1.3 at worst when written)."""
    workloads = _perfbench_workloads()
    eps = np.finfo(float).eps
    docs = [workloads.hr_tri(seed) for seed in range(1, 11)] + [GAUSS_2TREE]
    for doc in docs:
        cfg = parse_config(doc)
        ordering = cfg.ordering(root=v)
        model = build_tail_model(ordering, cfg.models(ordering), v)
        assert any(sum(s != v for s in upd.sep) >= 2 for upd in model.updates)
        mean, cov = tail_model_moments(model)
        ref_mean, ref_cov = _long_double_moments(model)
        bound = 8 * eps * np.max(np.abs(cov.values))
        assert np.max(np.abs(cov.values - ref_cov)) <= bound
        assert np.max(np.abs(mean.values - ref_mean)) <= bound


@st.composite
def gauss_chordal_models(draw):
    """A connected chordal graph of 2-8 vertices and cliques of at most
    four, the normalized inverse of c·I − A (A its adjacency, c above its
    largest degree) as correlation, Markov to the graph with positive
    entries, and a root."""
    g = draw(connected_chordal(max_n=8, min_n=2, max_clique=4))
    n = len(g.vertices)
    adj = np.zeros((n, n))
    for a, b in g.edge_list():
        adj[a - 1, b - 1] = adj[b - 1, a - 1] = 1.0
    c = adj.sum(axis=1).max() * draw(st.floats(1.1, 3.0))
    cov = np.linalg.inv(c * np.eye(n) - adj)
    d = np.sqrt(np.diag(cov))
    full = gs.CorrelationMatrix(g.vertices, cov / np.outer(d, d))
    return g, full, draw(st.sampled_from(g.vertices))


@given(gauss_chordal_models())
def test_gaussian_chordal_limit_moments_match_the_oracle_and_the_closed_form(case):
    """On random Gaussian chordal graphs the theorem-1 moments equal the
    reference loops byte for byte and lie within 1e-10 of the whole-graph
    limit law."""
    g, full, v = case
    ordering = clique_ordering(g, v)
    models = {c: gs.GaussianCopulaModel(c, full.sub(c)) for c in ordering.cliques}
    model = build_tail_model(ordering, models, v)
    assert_moments_match_oracle(model)
    mean, cov = tail_model_moments(model)
    law = gs.limit_law(full, v)
    assert law.cov.rows == cov.rows
    assert np.max(np.abs(mean.values - law.mean.values)) <= 1e-10
    assert np.max(np.abs(cov.values - law.cov.values)) <= 1e-10


# ------------------------------------------------------------- error gates


@pytest.mark.parametrize(
    "n, seed, workers",
    [(-1, 0, 1), (2.5, 0, 1), (True, 0, 1), (10, -1, 1), (10, 2.5, 1),
     (10, True, 1), (10, 2 ** 64, 1), (10, 0, 0), (10, 0, 2.5)],
    ids=["negative_n", "fractional_n", "bool_n", "negative_seed", "fractional_seed",
         "bool_seed", "wide_seed", "zero_workers", "fractional_workers"])
def test_limit_sampling_rejects_bad_arguments(hr_chain, n, seed, workers):
    ordering, models = hr_chain
    for limit in (build_tail_model(ordering, models, 1),
                  build_tail_noise(ordering, models, 1)):
        with pytest.raises(ConfigError):
            sample_tail_model(limit, n, seed, workers=workers)


@pytest.mark.parametrize("read", [lambda s: s.column(99), lambda s: s.sub([2, 99])],
                         ids=["column", "sub"])
def test_sample_columns_must_be_vertices(hr_chain, read):
    ordering, models = hr_chain
    samples = sample_tail_model(build_tail_model(ordering, models, 1), 10, 0)
    with pytest.raises(ConfigError):
        read(samples)


def two_triangle_models():
    graph = Graph.make(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    ordering = clique_ordering(graph, 1)
    models = {}
    for c in ordering.cliques:
        vals = np.full((len(c), len(c)), 1.0)
        np.fill_diagonal(vals, 0.0)
        models[c] = hr.HuslerReissModel(c, hr.VariogramMatrix(c, vals))
    return ordering, models


def test_tail_noise_requires_block_graph():
    ordering, models = two_triangle_models()
    with pytest.raises(NotBlockGraph):
        build_tail_noise(ordering, models, 1)


def test_separator_family_mismatch_is_rejected():
    ordering, models = two_triangle_models()
    c2 = ordering.cliques[1]
    rm = np.array([[1.0, 0.4, 0.3], [0.4, 1.0, 0.5], [0.3, 0.5, 1.0]])
    bad = dict(models)
    bad[c2] = gs.GaussianCopulaModel(c2, gs.CorrelationMatrix(c2, rm))
    with pytest.raises(IncompatibleSeparators):
        classify_norming(ordering, bad, 1)


def test_separator_variogram_mismatch_is_rejected():
    ordering, models = two_triangle_models()
    c2 = ordering.cliques[1]
    vals = np.full((3, 3), 2.0)
    np.fill_diagonal(vals, 0.0)
    bad = dict(models)
    bad[c2] = hr.HuslerReissModel(c2, hr.VariogramMatrix(c2, vals))
    with pytest.raises(IncompatibleSeparators):
        classify_norming(ordering, bad, 1)


def test_model_clique_must_match_its_key(hr_chain):
    ordering, models = hr_chain
    bad = dict(models)
    bad[(2, 3)] = models[(1, 2)]
    with pytest.raises(ConfigError):
        build_tail_model(ordering, bad, 1)


# ------------------------------------------------ block tree closed forms


def test_block_tree_tail_noise_closed_form():
    graph = Graph.make(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    ordering = clique_ordering(graph, 1)
    gammas = {(1, 2): 0.8, (2, 3): 1.2, (2, 4): 0.6, (4, 5): 1.4}
    models = {c: hr_pair_model(c, gammas[c]) for c in ordering.cliques}
    tn = build_tail_noise(ordering, models, 1)
    assert len(tn.blocks) == 4
    mean, cov = tn.mean(), tn.covariance()
    for u, m in ((2, -0.4), (3, -0.6), (4, -0.3), (5, -0.7)):
        assert abs(mean.entry(u) - m) < 1e-14
    for u, var in ((2, 0.8), (3, 1.2), (4, 0.6), (5, 1.4)):
        assert abs(cov.entry(u, u) - var) < 1e-14
    off = cov.values[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) == 0.0  # single-vertex blocks never couple
