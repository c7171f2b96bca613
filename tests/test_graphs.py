"""Graph engine tests; networkx serves as the independent oracle."""

import collections
import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_oracle
from tailgraph import gaussian as gs
from tailgraph import graphs
from tailgraph import husler_reiss as hr
from tailgraph.errors import (
    ConfigError,
    IncompatibleSeparators,
    NotChordal,
    NotConnected,
)
from tailgraph.graphs import (
    Graph,
    JunctionTree,
    check_separator_models,
    clique_ordering,
    goldner_harary,
    junction_tree,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edge_list())
    return h


def random_chordal(rng: np.random.Generator, n: int) -> Graph:
    """Grow a chordal graph by attaching each new vertex to a clique."""
    edges = []
    cliques = [[1]]
    for v in range(2, n + 1):
        base = cliques[rng.integers(len(cliques))]
        k = int(rng.integers(1, len(base) + 1))
        chosen = [int(u) for u in rng.choice(base, size=k, replace=False)]
        edges += [(u, v) for u in chosen]
        cliques.append(chosen + [v])
    return Graph.make(n, edges)


def relabel(g: Graph, rng: np.random.Generator) -> Graph:
    perm = dict(zip(g.vertices, rng.permutation(g.vertices) + 0))
    return Graph.make(g.n, [(int(perm[a]), int(perm[b])) for a, b in g.edge_list()])


# ---------------------------------------------------------------- basics


def test_make_rejects_bad_edges():
    with pytest.raises(ConfigError):
        Graph.make(3, [(1, 1)])
    with pytest.raises(ConfigError):
        Graph.make(3, [(1, 4)])
    with pytest.raises(ConfigError):
        Graph.make(0, [])
    with pytest.raises(ConfigError):
        Graph.make(3, [(1, 2, 3)])


def test_edge_list_sorted_and_deduped():
    g = Graph.make(3, [(2, 1), (1, 2), (3, 2)])
    assert g.edge_list() == [(1, 2), (2, 3)]
    assert g.has_edge(2, 1) and not g.has_edge(1, 3)


def test_round_trip_dict():
    g = Graph.make(4, [(1, 2), (2, 3), (3, 4)])
    assert Graph.from_dict(g.to_dict()) == g
    with pytest.raises(ConfigError):
        Graph.from_dict({"vertices": 2, "edges": [], "bogus": 1})


def test_vertex_list_gives_the_count_form_graph():
    doc = {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}
    assert Graph.from_dict(doc) == Graph.from_dict({**doc, "vertices": 3})


@pytest.mark.parametrize("doc, message", [
    ([[1, 2]], "graph document must be an object"),
    ({"edges": []}, "graph document needs 'vertices' and 'edges'"),
    ({"vertices": 2}, "graph document needs 'vertices' and 'edges'"),
    ({"vertices": "2", "edges": []}, "'vertices' must be a count or a 1..n list"),
    ({"vertices": 2.0, "edges": []}, "'vertices' must be a count or a 1..n list"),
], ids=["list", "no_vertices", "no_edges", "string_count", "float_count"])
def test_from_dict_refuses_a_malformed_document(doc, message):
    with pytest.raises(ConfigError) as err:
        Graph.from_dict(doc)
    assert str(err.value) == message


def test_isolated_vertices_hold_no_adjacency():
    """A vertex without edges has no neighbours and no set of its own, so
    a graph's memory grows with its edges, not its vertex count."""
    g = Graph.make(10 ** 6, [(1, 2)])
    assert g.neighbors(1) == {2} and g.neighbors(10 ** 6) == frozenset()
    assert len(g._adj) == 2
    with pytest.raises(NotConnected):
        clique_ordering(g, 1)


# ------------------------------------------------------- clique orderings


def test_chain_ordering_exact():
    g = Graph.make(3, [(1, 2), (2, 3)])
    o = clique_ordering(g, 1)
    assert o.cliques == ((1, 2), (2, 3))
    assert o.separators == ((), (2,))
    assert o.parents == (-1, 0)
    o3 = clique_ordering(g, 3)
    assert o3.cliques[0] == (2, 3)


def test_not_connected():
    g = Graph.make(4, [(1, 2), (3, 4)])
    with pytest.raises(NotConnected):
        clique_ordering(g, 1)


def test_not_chordal_witness_is_chordless_cycle():
    g = Graph.make(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    with pytest.raises(NotChordal) as err:
        clique_ordering(g, 1)
    cyc = err.value.witness
    assert len(cyc) >= 4
    k = len(cyc)
    for i in range(k):
        assert g.has_edge(cyc[i], cyc[(i + 1) % k])
    for i in range(k):
        for j in range(i + 2, k):
            if (i, j) != (0, k - 1):
                assert not g.has_edge(cyc[i], cyc[j])
    assert not nx.is_chordal(to_nx(g))


def test_mcs_order_reversed_is_a_perfect_elimination_order():
    g = Graph.make(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    order = graphs._mcs_order(g, 1)
    assert sorted(order) == [1, 2, 3, 4]
    for k, u in enumerate(order):
        assert g.is_clique([w for w in order[:k] if g.has_edge(u, w)])


def check_rip(ordering):
    """Each separator must sit inside one earlier clique (running
    intersection), and the cliques must cover the graph exactly."""
    seen = set(ordering.cliques[0])
    for i in range(1, len(ordering.cliques)):
        c = set(ordering.cliques[i])
        sep = c & seen
        assert sep == set(ordering.separators[i])
        assert any(sep <= set(ordering.cliques[k]) for k in range(i))
        seen |= c


def check_path_intersection(tree):
    """For every vertex, the cliques containing it span a subtree."""
    cliques = tree.cliques
    adj = {i: set() for i in range(len(cliques))}
    for child, parent, _ in tree.edges:
        adj[child].add(parent)
        adj[parent].add(child)
    for v in tree.ordering.graph.vertices:
        holding = [i for i, c in enumerate(cliques) if v in c]
        if len(holding) <= 1:
            continue
        # walk the induced subgraph; it must be connected
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in holding and w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == set(holding), f"vertex {v} cliques not a subtree"


def test_random_chordal_orderings_match_networkx():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        g = relabel(random_chordal(rng, n), rng)
        h = to_nx(g)
        assert nx.is_chordal(h)
        expected = {tuple(sorted(c)) for c in nx.chordal_graph_cliques(h)}
        for root in g.vertices:
            o = clique_ordering(g, root)
            assert set(o.cliques) == expected
            assert root in o.cliques[0]
            check_rip(o)
            check_path_intersection(junction_tree(o))


def test_junction_tree_edges_labelled_by_separators():
    g = Graph.make(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
    tree = junction_tree(clique_ordering(g, 1))
    seps = sorted(s for _, _, s in tree.edges)
    assert seps == [(2,), (2,), (4,)]
    assert len(tree.edges) == len(tree.cliques) - 1


def test_separator_multiset_invariant_under_root():
    """Different roots may produce different trees, but the separator
    multiset of a decomposable graph is unique."""
    rng = np.random.default_rng(515)
    for _ in range(10):
        g = random_chordal(rng, int(rng.integers(3, 9)))
        base = sorted(clique_ordering(g, 1).separators[1:])
        for root in g.vertices[1:]:
            assert sorted(clique_ordering(g, root).separators[1:]) == base


def test_block_graph_separators_are_single_vertices():
    chain = Graph.make(3, [(1, 2), (2, 3)])
    assert clique_ordering(chain, 1).separators == ((), (2,))
    two_triangles = Graph.make(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert clique_ordering(two_triangles, 1).separators == ((), (2, 3))


def test_goldner_harary_invariants():
    g = goldner_harary()
    assert g.n == 11
    assert len(g.edge_list()) == 27
    h = to_nx(g)
    assert nx.is_chordal(h) and nx.is_connected(h)
    o = clique_ordering(g, 2)
    assert len(o.cliques) == 8
    assert all(len(c) == 4 for c in o.cliques)
    assert sum(1 for c in o.cliques if 2 in c) == 6
    assert nx.check_planarity(h)[0]


# ------------------------------------------ quadratic reference ordering


@st.composite
def connected_chordal(draw, max_n=40, min_n=1, max_clique=None):
    """A k-tree, a star, a path, or a graph grown from a random perfect
    elimination ordering (each new vertex joins a subset of an earlier
    vertex's attaching clique that holds that vertex, cut to
    ``max_clique`` - 1 vertices when that is set), relabelled at random.
    A k-tree, k in 2..4 and at most ``max_clique``, starts from a
    k-clique, and each new vertex joins k - 1 vertices of an earlier
    k-clique.  k-trees, and k = 4 among them, come first, which the
    derandomized draws favour, so wide cliques are common."""
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(["ktree", "peo", "star", "path"]))
    if kind == "star":
        edges = [(1, w) for w in range(2, n + 1)]
    elif kind == "path":
        edges = [(w - 1, w) for w in range(2, n + 1)]
    elif kind == "ktree":
        k = min(4 - draw(st.integers(0, 2)), max_clique or 4, n)
        cliques = [tuple(range(1, k + 1))]
        edges = list(itertools.combinations(cliques[0], 2))
        for w in range(k + 1, n + 1):
            clique = draw(st.sampled_from(cliques))
            drop = draw(st.integers(0, k - 1))
            base = clique[:drop] + clique[drop + 1:]
            edges += [(x, w) for x in base]
            cliques.append(base + (w,))
    else:
        edges, attach = [], {1: (1,)}
        for w in range(2, n + 1):
            u = draw(st.integers(1, w - 1))
            keep = draw(st.lists(st.booleans(), min_size=len(attach[u]),
                                 max_size=len(attach[u])))
            base = tuple(x for x, k in zip(attach[u], keep) if k or x == u)
            if max_clique is not None:
                base = (u,) + tuple(x for x in base if x != u)[:max_clique - 2]
            edges += [(x, w) for x in base]
            attach[w] = base + (w,)
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph.make(n, [(perm[a - 1], perm[b - 1]) for a, b in edges])


def test_connected_chordal_draws_wide_cliques():
    """Over 300 derandomized graphs of at most 8 vertices and cliques of
    at most four, each rooted at its first vertex, triangles make at
    least a tenth of the cliques and 4-cliques one in fifty, and updates
    with 1, 2 and 3 free separator columns (separator vertices other
    than the root) one in a hundred each.  The counts (225 triangles and
    105 4-cliques of 1,198 cliques; 587, 64 and 51 of 898 updates) clear
    every bound by six binomial standard deviations or more, and another
    300-graph draw of the strategy cleared them by more than three, so
    the margin does not rest on one lucky draw."""
    sizes, free = collections.Counter(), collections.Counter()

    @settings(max_examples=300)
    @given(connected_chordal(max_n=8, max_clique=4))
    def count(g):
        root = g.vertices[0]
        ordering = clique_ordering(g, root)
        sizes.update(len(c) for c in ordering.cliques)
        free.update(sum(s != root for s in sep) for sep in ordering.separators[1:])

    count()
    cliques, updates = sum(sizes.values()), sum(free.values())
    assert sizes[3] >= 0.1 * cliques and sizes[4] >= 0.02 * cliques, sizes
    assert all(free[k] >= 0.01 * updates for k in (1, 2, 3)), free


@given(connected_chordal())
def test_clique_ordering_matches_quadratic_oracle(g):
    for root in g.vertices:
        assert clique_ordering(g, root) == graph_oracle.clique_ordering(g, root)
    assert graphs._mcs_order(g, 1) == graph_oracle._mcs_order(g, 1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NotChordal, NotConnected) as exc:
        return type(exc), getattr(exc, "witness", None)


@st.composite
def any_graph(draw, max_n=10):
    """A random spanning tree plus random extra edges, so cycles with
    and without chords; one time in four the last vertex loses its edges
    and the graph is disconnected."""
    n = draw(st.integers(2, max_n))
    edges = {(draw(st.integers(1, w - 1)), w) for w in range(2, n + 1)}
    edges |= draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    if draw(st.booleans()) and draw(st.booleans()):
        edges = {e for e in edges if n not in e}
    return Graph.make(n, edges)


@given(any_graph())
def test_any_graph_gives_the_oracle_outcome(g):
    """Non-chordal and disconnected graphs raise what the oracle raises."""
    for root in g.vertices:
        assert (_outcome(clique_ordering, g, root)
                == _outcome(graph_oracle.clique_ordering, g, root))


def _path_intersection_by_definition(tree: JunctionTree) -> bool:
    """Every pairwise clique intersection lies in every clique on the
    tree path between the pair, with the paths taken from networkx."""
    t = nx.Graph()
    t.add_nodes_from(range(len(tree.cliques)))
    t.add_edges_from((a, b) for a, b, _ in tree.edges)
    for i, ci in enumerate(tree.cliques):
        for j in range(i + 1, len(tree.cliques)):
            inter = set(ci) & set(tree.cliques[j])
            if any(not inter <= set(tree.cliques[k])
                   for k in nx.shortest_path(t, i, j)):
                return False
    return True


@given(connected_chordal(max_n=16), st.data())
def test_path_intersection_matches_its_definition(g, data):
    """The ordering's own tree always passes; a random tree over the same
    cliques (each clique re-parented to any earlier one) passes exactly
    when the definition holds."""
    o = clique_ordering(g, data.draw(st.sampled_from(g.vertices)))
    assert junction_tree(o).check_path_intersection()
    parents = [data.draw(st.integers(0, i - 1)) for i in range(1, len(o))]
    edges = tuple((i, p, tuple(sorted(set(o.cliques[i]) & set(o.cliques[p]))))
                  for i, p in enumerate(parents, start=1))
    tree = JunctionTree(ordering=o, edges=edges)
    assert tree.check_path_intersection() == _path_intersection_by_definition(tree)


# ---------------------------------------------------- models and separators


def triangle_pair():
    """Two triangles sharing the separator (2, 3)."""
    return clique_ordering(Graph.make(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]), 1)


def with_23(clique, base, value):
    """A 3 x 3 matrix over ``clique`` with ``base`` off the diagonal,
    except ``value`` between vertices 2 and 3."""
    m = np.full((3, 3), base)
    k, l = clique.index(2), clique.index(3)
    m[k, l] = m[l, k] = value
    return m


def hr_triangle(clique, gamma_23):
    g = with_23(clique, 1.0, gamma_23)
    np.fill_diagonal(g, 0.0)
    return hr.HuslerReissModel(clique, hr.VariogramMatrix(clique, g))


def gauss_triangle(clique, rho_23):
    r = with_23(clique, 0.5, rho_23)
    np.fill_diagonal(r, 1.0)
    return gs.GaussianCopulaModel(clique, gs.CorrelationMatrix(clique, r))


@pytest.mark.parametrize("make, agree, differ", [
    (hr_triangle, 0.8, 0.9), (gauss_triangle, 0.3, 0.4)], ids=["hr", "gaussian"])
def test_separator_check_compares_each_models_matrix(make, agree, differ):
    """The check reads each model's parameter matrix, the variogram or
    the correlation, on the separator, whatever its place in the clique."""
    ordering = triangle_pair()
    first, second = ordering.cliques
    table = {first: make(first, agree), second: make(second, agree)}
    check_separator_models(ordering, table)
    table[second] = make(second, differ)
    with pytest.raises(IncompatibleSeparators) as err:
        check_separator_models(ordering, table)
    assert str(err.value) == (f"cliques {second} and {first} disagree on "
                              f"separator (2, 3) by {abs(differ - agree):.3e}")


def test_separator_check_refuses_mixed_families():
    ordering = triangle_pair()
    first, second = ordering.cliques
    table = {first: gauss_triangle(first, 0.3), second: hr_triangle(second, 0.8)}
    with pytest.raises(IncompatibleSeparators) as err:
        check_separator_models(ordering, table)
    assert str(err.value) == (
        f"cliques {second} (husler_reiss) and {first} (gaussian) share "
        "separator (2, 3) but use different families")


def test_models_table_needs_every_clique():
    ordering = triangle_pair()
    first, second = ordering.cliques
    with pytest.raises(ConfigError) as err:
        graphs._models_table(ordering, {first: hr_triangle(first, 0.8)})
    assert str(err.value) == f"no model supplied for clique {second}"
