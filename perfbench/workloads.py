"""Seeded workload inputs for the tailgraph benchmark.

Each generator takes the workload seed and returns a config document in
the format ``tailgraph.load_config`` reads.  The graph shape (vertex and
clique counts) is fixed per workload; the seed moves only the attachment
points and the clique parameters.  Every graph is built by adding
simplicial vertices, so it is chordal by construction, and
:func:`check_chordal` re-checks that independently of the program.
"""

from __future__ import annotations

import numpy as np

#: Shipped config run by ``hr_chain_verify``.
HR_CHAIN_CONFIG = "configs/hr_chain.json"

#: Fixed sizes.  ``hr_tri_mrv`` stays at 26 vertices: ``mrv_checks`` raises
#: ZeroDivisionError on a 42-vertex triangle 2-tree from this generator,
#: because the factorized density underflows to 0 (see NOTES.md).
GAUSS_TRIANGLES = 50
HR_TREE_VERTICES = 500
HR_TRI_TRIANGLES = 24


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed])


def check_chordal(n: int, cliques: list[list[int]]) -> None:
    """Raise ValueError unless the union of ``cliques`` is a connected
    chordal graph on 1..n for which 1..n is a reverse perfect elimination
    order (each vertex's earlier neighbours form a clique)."""
    adj = {v: set() for v in range(1, n + 1)}
    for c in cliques:
        for a in c:
            adj[a].update(w for w in c if w != a)
    for v in range(2, n + 1):
        earlier = [w for w in adj[v] if w < v]
        if not earlier:
            raise ValueError(f"vertex {v} has no earlier neighbour")
        for k, a in enumerate(earlier):
            if any(b not in adj[a] for b in earlier[k + 1:]):
                raise ValueError(f"earlier neighbours of {v} are not a clique")


def _document(n: int, cliques: list[dict], v: int, t_levels, notes: str) -> dict:
    check_chordal(n, [c["vertices"] for c in cliques])
    edges = sorted({(a, b) for c in cliques for a in c["vertices"]
                    for b in c["vertices"] if a < b})
    return {
        "graph": {"vertices": n, "edges": [list(e) for e in edges]},
        "cliques": cliques,
        "v": v,
        "t_levels": list(t_levels),
        "seed": 0,
        "notes": notes,
    }


def _triangle_correlation(rng: np.random.Generator) -> list[list[float]]:
    """Positive-definite 3x3 correlation with entries in [0.45, 0.85]."""
    while True:
        r = rng.uniform(0.45, 0.85, size=3)
        mat = np.array([[1.0, r[0], r[1]], [r[0], 1.0, r[2]],
                        [r[1], r[2], 1.0]])
        if np.linalg.eigvalsh(mat)[0] > 0.05:
            return mat.tolist()


def gauss_tree(seed: int, triangles: int = GAUSS_TRIANGLES) -> dict:
    """Gaussian-copula triangles glued at single vertices: triangle k adds
    vertices 2k and 2k+1 to a uniformly drawn earlier vertex."""
    rng = _rng(seed, 1)
    cliques = []
    for k in range(1, triangles + 1):
        glue = int(rng.integers(1, 2 * k)) if k > 1 else 1
        cliques.append({"vertices": sorted([glue, 2 * k, 2 * k + 1]),
                        "family": "gaussian",
                        "correlation": _triangle_correlation(rng)})
    return _document(2 * triangles + 1, cliques, 1, (4, 8),
                     f"{triangles} Gaussian triangles glued at single vertices")


def hr_tree(seed: int, n: int = HR_TREE_VERTICES) -> dict:
    """Random recursive tree of Hüsler-Reiss pairs, gamma ~ U[0.3, 1.5]."""
    rng = _rng(seed, 2)
    cliques = []
    for k in range(2, n + 1):
        parent = int(rng.integers(1, k))
        g = float(rng.uniform(0.3, 1.5))
        cliques.append({"vertices": [parent, k], "family": "husler_reiss",
                        "variogram": [[0.0, g], [g, 0.0]]})
    return _document(n, cliques, 1, (2,),
                     f"random recursive tree of {n - 1} Husler-Reiss pairs")


def _place(rng: np.random.Generator, points: list, a: int, b: int) -> np.ndarray:
    """A point whose squared distances to points a and b both lie in
    [0.3, 1.5], off the line through them (rejection sampling)."""
    while True:
        r = np.sqrt(rng.uniform(0.3, 1.5))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p = points[a] + r * np.array([np.cos(theta), np.sin(theta)])
        if not 0.3 <= float(((p - points[b]) ** 2).sum()) <= 1.5:
            continue
        u, w = points[b] - points[a], p - points[a]
        if abs(u[0] * w[1] - u[1] * w[0]) > 0.2:
            return p


def hr_tri(seed: int, triangles: int = HR_TRI_TRIANGLES) -> dict:
    """Hüsler-Reiss 2-tree: vertex k >= 4 joins a uniformly drawn earlier
    triangle edge.  All cliques read one variogram, the squared distances
    of seeded points in the plane, so adjacent cliques agree on their
    separators; every in-clique entry lies in [0.3, 1.5]."""
    rng = _rng(seed, 3)
    n = triangles + 2
    points = [np.zeros(2), np.array([np.sqrt(rng.uniform(0.3, 1.5)), 0.0])]
    points.append(_place(rng, points, 0, 1))
    tris = [(1, 2, 3)]
    edges = [(1, 2), (1, 3), (2, 3)]
    for k in range(4, n + 1):
        a, b = edges[int(rng.integers(0, len(edges)))]
        points.append(_place(rng, points, a - 1, b - 1))
        tris.append((a, b, k))
        edges += [(a, k), (b, k)]
    pts = np.array(points)
    gamma = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    cliques = []
    for tri in tris:
        idx = [u - 1 for u in tri]
        cliques.append({"vertices": list(tri), "family": "husler_reiss",
                        "variogram": gamma[np.ix_(idx, idx)].tolist()})
    return _document(n, cliques, 1, (2,),
                     f"Husler-Reiss 2-tree of {triangles} triangles")
