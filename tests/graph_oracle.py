"""Quadratic reference implementation of the clique ordering.

The maximum-cardinality search here scans every unvisited vertex for the
next maximum, and the clique pass tests every candidate against every
other one and looks up each parent by a linear scan.  The heap-based
search and the neighbour-local clique pass of ``tailgraph.graphs`` are
checked against it; nothing in the package uses it.
"""

from tailgraph.errors import ConfigError, NotChordal, NotConnected
from tailgraph.graphs import CliqueOrdering, Graph, _find_chordless_cycle


def _mcs_order(graph: Graph, start: int) -> list[int]:
    """Maximum-cardinality search visit order, ties to the smallest label."""
    weights = {v: 0 for v in graph.vertices}
    weights[start] = graph.n  # force the requested start vertex first
    order: list[int] = []
    visited: set[int] = set()
    for _ in range(graph.n):
        u = min((v for v in weights if v not in visited), key=lambda v: (-weights[v], v))
        order.append(u)
        visited.add(u)
        for w in graph.neighbors(u):
            if w not in visited:
                weights[w] += 1
    return order


def clique_ordering(graph: Graph, root_vertex: int) -> CliqueOrdering:
    """Order the maximal cliques so the first contains ``root_vertex``.

    Runs maximum-cardinality search from ``root_vertex`` and emits each
    maximal clique when its earliest vertex is visited; for a chordal
    graph this order satisfies the running-intersection property, which
    is re-verified here defensively.
    """
    if not (1 <= root_vertex <= graph.n):
        raise ConfigError(f"root vertex {root_vertex} outside 1..{graph.n}")
    if not graph.is_connected():
        raise NotConnected(f"graph on {graph.n} vertices is not connected")
    order = _mcs_order(graph, start=root_vertex)
    rank = {v: k for k, v in enumerate(order)}
    candidates: list[tuple[int, ...]] = []
    for u in order:
        earlier = [w for w in graph.neighbors(u) if rank[w] < rank[u]]
        if not graph.is_clique(earlier):
            raise NotChordal(_find_chordless_cycle(graph))
        candidates.append(tuple(sorted(earlier + [u])))
    # keep candidates that are not contained in any other candidate
    cliques: list[tuple[int, ...]] = []
    for cand in candidates:
        cs = set(cand)
        if any(cs < set(other) for other in candidates):
            continue
        if cand not in cliques:
            cliques.append(cand)

    separators: list[tuple[int, ...]] = [()]
    parents: list[int] = [-1]
    seen = set(cliques[0])
    for i, c in enumerate(cliques[1:], start=1):
        sep = tuple(v for v in c if v in seen)
        parent = next(
            (k for k in range(i) if set(sep) <= set(cliques[k])),
            None,
        )
        if parent is None:
            raise NotChordal(_find_chordless_cycle(graph))
        separators.append(sep)
        parents.append(parent)
        seen |= set(c)
    if root_vertex not in cliques[0]:
        raise AssertionError("ordering lost the requested root vertex")
    return CliqueOrdering(
        graph=graph,
        root=root_vertex,
        cliques=tuple(cliques),
        separators=tuple(separators),
        parents=tuple(parents),
    )
