"""Chordal graphs, clique orderings, and junction trees.

Vertices are the consecutive integers ``1..n``.  All routines are
deterministic: maximum-cardinality search breaks weight ties by smallest
vertex label, maximal cliques are emitted in the order their earliest
vertex is visited, and the parent of a clique is the earliest previous
clique that contains its separator.  Re-running any function on the same
graph therefore yields identical orderings, which the sampling and CLI
layers rely on for reproducibility.

The search keeps a heap of (-weight, label) entries with lazy deletion,
so it costs O((n + m) log n).  A clique candidate is compared only with
the candidates of its later neighbours, and each parent is looked up in
the list of cliques holding one separator vertex, so building the
ordering adds O(Σ_v deg(v)·ω) for clique number ω.

The chordality test is maximum-cardinality search followed by the
perfect-elimination check; on failure a chordless cycle of length >= 4
is constructed and attached to the :class:`~tailgraph.errors.NotChordal`
exception as a witness.

The per-clique models table and the separator check live beside the
ordering, so the limit engine, the Hüsler-Reiss recursion, the simulator
and the diagnostics all read one table and apply one check.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    IncompatibleSeparators,
    NormingUnavailable,
    NotChordal,
    NotConnected,
    UnsupportedNormingFamily,
)

#: Largest entrywise gap two cliques' separator blocks may show.
SEPARATOR_TOL = 1e-12


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``1..n``.

    Parameters
    ----------
    n : int
        Number of vertices (at least 1).
    edges : frozenset of 2-element frozensets
        Edge set; use :meth:`make` or :meth:`from_dict` rather than
        constructing directly.
    """

    n: int
    edges: frozenset
    _adj: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        adj = {v: set() for v in range(1, self.n + 1)}
        for i, j in map(sorted, self.edges):
            adj[i].add(j)
            adj[j].add(i)
        object.__setattr__(self, "_adj", adj)

    @staticmethod
    def make(n: int, edge_list) -> "Graph":
        # type() rather than isinstance: JSON true/false are Python ints
        if type(n) is not int or n < 1:
            raise ConfigError(f"vertex count must be an integer >= 1, got {n!r}")
        edges = set()
        for e in edge_list:
            pair = tuple(e)
            if len(pair) != 2:
                raise ConfigError(f"edge {e!r} is not a pair")
            i, j = pair
            if not (type(i) is int and type(j) is int):
                raise ConfigError(f"edge {e!r} has non-integer endpoints")
            if i == j:
                raise ConfigError(f"self-loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ConfigError(f"edge {e!r} leaves the vertex range 1..{n}")
            edges.add(frozenset((i, j)))
        return Graph(n=n, edges=frozenset(edges))

    # -- basic queries ---------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def neighbors(self, v: int) -> set[int]:
        return self._adj[v]

    def has_edge(self, i: int, j: int) -> bool:
        return frozenset((i, j)) in self.edges

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(tuple(sorted(e)) for e in self.edges)

    def is_clique(self, vs) -> bool:
        vs = list(vs)
        return all(
            self.has_edge(a, b) for k, a in enumerate(vs) for b in vs[k + 1 :]
        )

    def is_connected(self) -> bool:
        seen = {1}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for w in self.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    # -- serialization ---------------------------------------------------

    @staticmethod
    def from_dict(doc: dict) -> "Graph":
        if not isinstance(doc, dict):
            raise ConfigError("graph document must be an object")
        unknown = set(doc) - {"vertices", "edges"}
        if unknown:
            raise ConfigError(f"unknown graph fields: {sorted(unknown)}")
        if "vertices" not in doc or "edges" not in doc:
            raise ConfigError("graph document needs 'vertices' and 'edges'")
        verts = doc["vertices"]
        if isinstance(verts, int):
            n = verts
        elif isinstance(verts, list):
            if (verts != list(range(1, len(verts) + 1))
                    or not all(type(u) is int for u in verts)):
                raise ConfigError("vertex list must be consecutive 1..n")
            n = len(verts)
        else:
            raise ConfigError("'vertices' must be a count or a 1..n list")
        return Graph.make(n, doc["edges"])

    def to_dict(self) -> dict:
        return {"vertices": self.n, "edges": [list(e) for e in self.edge_list()]}


def _mcs_order(graph: Graph, start: int) -> list[int]:
    """Maximum-cardinality search visit order, ties to the smallest label.

    A heap of (-weight, vertex) entries with lazy deletion: a raise pushes
    a fresh entry.  Weights only grow, so a vertex's freshest entry pops
    before its stale ones, which then find it visited and are skipped.
    O((n + m) log n).  The graph must be connected: a vertex enters the
    heap when a neighbour is visited.
    """
    weights = [0] * (graph.n + 1)
    visited = [False] * (graph.n + 1)
    heap: list[tuple[int, int]] = []
    order: list[int] = []
    u = start  # forced first
    while True:
        order.append(u)
        visited[u] = True
        for w in graph.neighbors(u):
            if not visited[w]:
                weights[w] += 1
                heapq.heappush(heap, (-weights[w], w))
        while heap:
            u = heapq.heappop(heap)[1]
            if not visited[u]:
                break
        else:
            return order


def _find_chordless_cycle(graph: Graph) -> tuple[int, ...]:
    """Return some chordless cycle of length >= 4.

    For every path x - u - y with x, y non-adjacent, a shortest x-y path
    avoiding the rest of u's closed neighborhood closes a chordless
    cycle through u.  A non-chordal graph always contains such a triple
    (take three consecutive vertices of any chordless cycle).
    """
    for u in graph.vertices:
        nbrs = sorted(graph.neighbors(u))
        for a, x in enumerate(nbrs):
            for y in nbrs[a + 1 :]:
                if graph.has_edge(x, y):
                    continue
                banned = (graph.neighbors(u) | {u}) - {x, y}
                # BFS for the shortest x-y path outside `banned`
                prev = {x: None}
                queue = deque([x])
                while queue:
                    c = queue.popleft()
                    if c == y:
                        break
                    for w in sorted(graph.neighbors(c)):
                        if w not in prev and w not in banned:
                            prev[w] = c
                            queue.append(w)
                if y not in prev:
                    continue
                path = [y]
                while path[-1] is not None:
                    path.append(prev[path[-1]])
                path.pop()  # drop the sentinel
                path.reverse()  # x .. y
                return tuple([u] + path)
    raise AssertionError("no chordless cycle found in a non-chordal graph")


@dataclass(frozen=True)
class CliqueOrdering:
    """Maximal cliques in an order satisfying the running-intersection property.

    ``separators[i]`` is ``cliques[i]`` intersected with the union of all
    earlier cliques (empty for the first), and ``parents[i]`` is the index
    of the earliest previous clique containing that separator.  Cliques
    and separators are stored as sorted vertex tuples.
    """

    graph: Graph
    root: int
    cliques: tuple[tuple[int, ...], ...]
    separators: tuple[tuple[int, ...], ...]
    parents: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.cliques)

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "cliques": [list(c) for c in self.cliques],
            "separators": [list(s) for s in self.separators],
            "parents": list(self.parents),
        }


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
    candidates: dict[int, tuple[int, ...]] = {}
    for u in order:
        earlier = [w for w in graph.neighbors(u) if rank[w] < rank[u]]
        if not graph.is_clique(earlier):
            raise NotChordal(_find_chordless_cycle(graph))
        candidates[u] = tuple(sorted(earlier + [u]))
    # a candidate lies inside another only if that one belongs to a later
    # neighbour (a candidate's last-visited vertex is its own), so only
    # those are compared
    cliques: list[tuple[int, ...]] = []
    for u in order:
        cs = set(candidates[u])
        if not any(rank[w] > rank[u] and cs < set(candidates[w])
                   for w in graph.neighbors(u)):
            cliques.append(candidates[u])

    # parent: the earliest clique holding the separator, found among the
    # cliques that hold one separator vertex
    containing: dict[int, list[int]] = {v: [] for v in graph.vertices}
    separators: list[tuple[int, ...]] = [()]
    parents: list[int] = [-1]
    for v in cliques[0]:
        containing[v].append(0)
    for i, c in enumerate(cliques[1:], start=1):
        sep = tuple(v for v in c if containing[v])
        pool = min((containing[v] for v in sep), key=len, default=())
        parent = next((k for k in pool if set(sep) <= set(cliques[k])), None)
        if parent is None:
            raise NotChordal(_find_chordless_cycle(graph))
        separators.append(sep)
        parents.append(parent)
        for v in c:
            containing[v].append(i)
    if root_vertex not in cliques[0]:
        raise AssertionError("ordering lost the requested root vertex")
    return CliqueOrdering(
        graph=graph,
        root=root_vertex,
        cliques=tuple(cliques),
        separators=tuple(separators),
        parents=tuple(parents),
    )


def _family_of(model) -> str:
    fam = getattr(model, "family", None)
    if fam is None:
        raise NormingUnavailable(f"model {model!r} declares no norming family")
    if fam not in ("husler_reiss", "gaussian"):
        raise UnsupportedNormingFamily(f"unknown family {fam!r}")
    return fam


def _models_table(ordering: CliqueOrdering, models: dict) -> dict:
    """The model of every clique of the ordering, keyed by the clique.

    A model that names its clique must name its key.  A model may name
    none: a one-vertex graph simulates without any.
    """
    table = {}
    for c in ordering.cliques:
        key = tuple(sorted(c))
        if key not in models:
            raise ConfigError(f"no model supplied for clique {key}")
        model = models[key]
        clique = getattr(model, "clique", key)
        if clique != key:
            raise ConfigError(f"model clique {clique} does not match {key}")
        table[key] = model
    return table


def check_separator_models(ordering: CliqueOrdering, table: dict) -> None:
    """Adjacent cliques must induce the same law on shared separators.

    Singleton separators are always compatible (both families have unit
    exponential margins).  Larger separators require matching families
    and matching variogram/correlation blocks, to :data:`SEPARATOR_TOL`.
    """
    for i in range(1, len(ordering)):
        sep = ordering.separators[i]
        if len(sep) < 2:
            continue
        child = table[ordering.cliques[i]]
        parent = table[ordering.cliques[ordering.parents[i]]]
        cf, pf = _family_of(child), _family_of(parent)
        if cf != pf:
            raise IncompatibleSeparators(
                f"cliques {ordering.cliques[i]} ({cf}) and "
                f"{ordering.cliques[ordering.parents[i]]} ({pf}) share "
                f"separator {sep} but use different families"
            )
        if cf == "husler_reiss":
            gap = float(np.max(np.abs(child.variogram.sub(sep).values
                                      - parent.variogram.sub(sep).values)))
        else:
            gap = float(np.max(np.abs(child.correlation.sub(sep).values
                                      - parent.correlation.sub(sep).values)))
        if gap > SEPARATOR_TOL:
            raise IncompatibleSeparators(
                f"cliques {ordering.cliques[i]} and "
                f"{ordering.cliques[ordering.parents[i]]} disagree on "
                f"separator {sep} by {gap:.3e}"
            )


@dataclass(frozen=True)
class JunctionTree:
    """Tree over clique indices with separator-labelled edges."""

    ordering: CliqueOrdering
    edges: tuple[tuple[int, int, tuple[int, ...]], ...]  # (child, parent, separator)

    @property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        return self.ordering.cliques

    def check_path_intersection(self) -> bool:
        """Every pairwise clique intersection is contained in every clique
        on the tree path between the pair.

        Equivalently, the cliques holding each vertex span a subtree: in a
        tree they then outnumber the tree edges between them by exactly
        one, while a disconnected set of them outnumbers its edges by more.
        """
        count = Counter(u for c in self.cliques for u in c)
        for a, b, _ in self.edges:
            for u in set(self.cliques[a]) & set(self.cliques[b]):
                count[u] -= 1
        return all(k == 1 for k in count.values())

    def to_dict(self) -> dict:
        return {
            "cliques": [list(c) for c in self.cliques],
            "edges": [
                {"child": a, "parent": b, "separator": list(s)}
                for a, b, s in self.edges
            ],
        }


def junction_tree(ordering: CliqueOrdering) -> JunctionTree:
    """Junction tree induced by an ordering's parent pointers."""
    edges = tuple(
        (i, ordering.parents[i], ordering.separators[i])
        for i in range(1, len(ordering))
    )
    return JunctionTree(ordering=ordering, edges=edges)


def goldner_harary() -> Graph:
    """The Goldner–Harary graph: a planar 3-tree on 11 vertices, 27 edges.

    Built as a triangular bipyramid (equator 1,2,3 with apexes 4 and 5)
    with one extra degree-3 vertex stacked on each of its six faces.  It
    is chordal with eight maximal cliques, all of size four; vertex 2
    lies in six of the eight.
    """
    equator = [(1, 2), (2, 3), (1, 3)]
    apex = [(a, b) for a in (4, 5) for b in (1, 2, 3)]
    faces = [
        (6, (1, 2, 4)),
        (7, (2, 3, 4)),
        (8, (1, 3, 4)),
        (9, (1, 2, 5)),
        (10, (2, 3, 5)),
        (11, (1, 3, 5)),
    ]
    stacked = [(u, w) for u, face in faces for w in face]
    return Graph.make(11, equator + apex + stacked)
