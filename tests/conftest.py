"""Shared constructions used across the test modules."""

import importlib.util

import numpy as np
import pytest
from hypothesis import settings

from tailgraph import gaussian as gsn
from tailgraph import husler_reiss as hr
from tailgraph.graphs import Graph, clique_ordering

# Property tests replay the same examples on every run and carry no
# per-example deadline (a shared host's pauses are not failures).
settings.register_profile("tailgraph", derandomize=True, deadline=None,
                          max_examples=60)
settings.load_profile("tailgraph")


def perfbench_workloads(root):
    """The benchmark's config generators (``perfbench/workloads.py``
    under the repository root ``root``), loaded without importing the
    rest of the harness."""
    path = root / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hr_pair_model(clique, gamma):
    c = tuple(clique)
    m = np.array([[0.0, gamma], [gamma, 0.0]])
    return hr.HuslerReissModel(c, hr.VariogramMatrix(c, m))


def gauss_pair_model(clique, rho):
    c = tuple(clique)
    m = np.array([[1.0, rho], [rho, 1.0]])
    return gsn.GaussianCopulaModel(c, gsn.CorrelationMatrix(c, m))


def chain_correlation(rhos):
    """Markov path correlation: R[i,j] is the product of edge values."""
    d = len(rhos) + 1
    out = np.eye(d)
    for i in range(d):
        for j in range(d):
            if i != j:
                lo, hi = min(i, j), max(i, j)
                out[i, j] = np.prod(rhos[lo:hi])
    return out


@pytest.fixture(scope="session")
def hr_chain():
    """3-chain 1-2-3 of HR pairs with gamma = (1.3, 0.7), rooted at 1."""
    graph = Graph.make(3, [(1, 2), (2, 3)])
    ordering = clique_ordering(graph, 1)
    models = {(1, 2): hr_pair_model((1, 2), 1.3),
              (2, 3): hr_pair_model((2, 3), 0.7)}
    return ordering, models


@pytest.fixture(scope="session")
def gauss_chain():
    """4-chain of Gaussian-copula pairs from a Markov R with edge
    correlations (0.6, 0.5, 0.7), rooted at 1."""
    full = gsn.CorrelationMatrix((1, 2, 3, 4), chain_correlation([0.6, 0.5, 0.7]))
    graph = Graph.make(4, [(1, 2), (2, 3), (3, 4)])
    ordering = clique_ordering(graph, 1)
    models = {c: gsn.GaussianCopulaModel(c, full.sub(c)) for c in ordering.cliques}
    return ordering, models, full


MIXED_R = np.array([
    [1.00, 0.55, 0.45, 0.35],
    [0.55, 1.00, 0.50, 0.40],
    [0.45, 0.50, 1.00, 0.30],
    [0.35, 0.40, 0.30, 1.00],
])
MIXED_GAMMA = 1.1

# Γ of four collinear points (squared distances): strictly conditionally
# negative definite in exact arithmetic, but Σ^{(2)} is numerically
# singular while Σ^{(1)} is not; VariogramMatrix refuses it.
COLLINEAR_GAMMA = np.array([
    [0.0, 1.232160790202524, 3.7695948208924515, 7.617211584142656],
    [1.232160790202524, 0.0, 0.7559727641530812, 2.7569516760423127],
    [3.7695948208924515, 0.7559727641530812, 0.0, 1.086753483066603],
    [7.617211584142656, 2.7569516760423127, 1.086753483066603, 0.0],
])

#: The Gaussian 2-tree of triangles (1,2,3), (2,3,4), (3,4,5): rooted at
#: either end, each later clique is drawn given two free separator vertices.
GAUSS_2TREE = {
    "graph": {"vertices": 5, "edges": [[1, 2], [1, 3], [2, 3], [2, 4],
                                       [3, 4], [3, 5], [4, 5]]},
    "correlation": [[1.0, 0.6, 0.5, 0.4, 0.3], [0.6, 1.0, 0.7, 0.5, 0.4],
                    [0.5, 0.7, 1.0, 0.6, 0.5], [0.4, 0.5, 0.6, 1.0, 0.7],
                    [0.3, 0.4, 0.5, 0.7, 1.0]]}


def mixed_models():
    corr = gsn.CorrelationMatrix((2, 3, 4, 5), MIXED_R)
    return {(1, 2): hr_pair_model((1, 2), MIXED_GAMMA),
            (2, 3, 4, 5): gsn.GaussianCopulaModel((2, 3, 4, 5), corr)}


@pytest.fixture(scope="session")
def mixed_graph():
    """HR pair {1,2} glued at vertex 2 to a Gaussian 4-clique {2,3,4,5}."""
    graph = Graph.make(5, [(1, 2), (2, 3), (2, 4), (2, 5),
                           (3, 4), (3, 5), (4, 5)])
    return graph, mixed_models()
