"""Graph-family generators used by tests, examples and experiment workloads.

The paper's constructions are scale-free with respect to the input graph, so
the experiments exercise them on a spread of families with different density
and expansion profiles: sparse random graphs, bounded-degree regular graphs,
low-dimensional meshes, hypercubes, trees, and a few adversarial shapes
(stars, ring-of-cliques) that stress the superclustering logic.

All generators are deterministic given an explicit ``seed`` and return
:class:`repro.graphs.Graph` instances with vertices ``0 .. n-1``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from repro.graphs.graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree",
    "random_tree",
    "caterpillar_graph",
    "erdos_renyi",
    "gnm_random_graph",
    "random_regular_graph",
    "ring_of_cliques",
    "barbell_graph",
    "lollipop_graph",
    "watts_strogatz",
    "complete_bipartite_graph",
    "preferential_attachment",
    "connected_erdos_renyi",
]


def path_graph(n: int) -> Graph:
    """Path on ``n`` vertices."""
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on ``n`` vertices (``n >= 3``)."""
    if n < 3:
        raise ValueError("cycle_graph requires n >= 3")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges)


def star_graph(n: int) -> Graph:
    """Star: vertex 0 connected to all other ``n - 1`` vertices."""
    if n < 1:
        raise ValueError("star_graph requires n >= 1")
    return Graph(n, ((0, i) for i in range(1, n)))


def complete_graph(n: int) -> Graph:
    """Clique on ``n`` vertices."""
    return Graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def grid_graph(rows: int, cols: int) -> Graph:
    """2-D grid with ``rows * cols`` vertices, row-major vertex numbering."""
    n = rows * cols
    across = [(u, u + 1) for u in range(n) if u % cols + 1 < cols]
    return Graph(n, across + [(u, u + cols) for u in range(n - cols)])


def torus_graph(rows: int, cols: int) -> Graph:
    """2-D torus (grid with wrap-around edges)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus_graph requires rows, cols >= 3")
    n = rows * cols
    return Graph(n, [(r * cols + c, r * cols + (c + 1) % cols)
                     for r in range(rows) for c in range(cols)]
                 + [(u, (u + cols) % n) for u in range(n)])


def hypercube_graph(dimension: int) -> Graph:
    """Hypercube of the given dimension (``2**dimension`` vertices)."""
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << dimension
    return Graph(n, [(u, u | 1 << bit) for u in range(n) for bit in range(dimension)
                     if not u >> bit & 1])


def binary_tree(height: int) -> Graph:
    """Complete binary tree of the given height (``2**(height+1) - 1`` vertices)."""
    if height < 0:
        raise ValueError("height must be non-negative")
    n = (1 << (height + 1)) - 1
    return Graph(n, [(u, (u - 1) // 2) for u in range(1, n)])


def random_tree(n: int, seed: Optional[int] = None) -> Graph:
    """Uniform-ish random tree: each vertex attaches to a random earlier vertex."""
    if n < 1:
        raise ValueError("random_tree requires n >= 1")
    rng = random.Random(seed)
    return Graph(n, [(u, rng.randrange(u)) for u in range(1, n)])


def caterpillar_graph(spine: int, legs_per_vertex: int) -> Graph:
    """Caterpillar: a path of ``spine`` vertices, each with pendant legs."""
    if spine < 1:
        raise ValueError("spine must be at least 1")
    n = spine * (1 + legs_per_vertex)
    legs = [(spine_vertex, leg) for spine_vertex in range(spine)
            for leg in range(spine + spine_vertex * legs_per_vertex,
                             spine + (spine_vertex + 1) * legs_per_vertex)]
    return Graph(n, [(i, i + 1) for i in range(spine - 1)] + legs)


def erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """G(n, p) random graph."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return Graph(n, _gnp_edges(n, p, random.Random(seed)))


def _gnp_edges(n: int, p: float, rng: random.Random) -> List[Tuple[int, int]]:
    """Each pair ``u < v`` in lexicographic order, kept with probability ``p``."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def connected_erdos_renyi(n: int, p: float, seed: Optional[int] = None) -> Graph:
    """G(n, p) with a random spanning tree added, guaranteeing connectivity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = _gnp_edges(n, p, random.Random(rng.randrange(1 << 30)))
    order = list(range(n))
    rng.shuffle(order)
    return Graph(n, edges + [(order[i], order[rng.randrange(i)]) for i in range(1, n)])


def gnm_random_graph(n: int, m: int, seed: Optional[int] = None) -> Graph:
    """G(n, m): a graph with exactly ``m`` distinct random edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"m={m} exceeds the maximum {max_edges} for n={n}")
    rng = random.Random(seed)
    seen: Set[Tuple[int, int]] = set()
    while len(seen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return Graph(n, seen)


def random_regular_graph(n: int, degree: int, seed: Optional[int] = None) -> Graph:
    """Random ``degree``-regular graph via networkx's pairing model.

    Falls back to retrying with fresh seeds when the pairing model produces
    multi-edges or self-loops.
    """
    import networkx as nx

    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even")
    if degree >= n:
        raise ValueError("degree must be < n")
    rng = random.Random(seed)
    for _ in range(50):
        try:
            nx_graph = nx.random_regular_graph(degree, n, seed=rng.randrange(1 << 30))
            return Graph.from_networkx(nx_graph)
        except nx.NetworkXError:  # pragma: no cover - extremely rare
            continue
    raise RuntimeError("failed to generate a random regular graph")


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """``num_cliques`` cliques of size ``clique_size`` joined in a ring.

    A classic stress shape for clustering constructions: locally dense,
    globally sparse with large diameter.
    """
    if num_cliques < 3:
        raise ValueError("ring_of_cliques requires at least 3 cliques")
    if clique_size < 1:
        raise ValueError("clique_size must be at least 1")
    n = num_cliques * clique_size
    edges = [(base + i, base + j) for base in range(0, n, clique_size)
             for i in range(clique_size) for j in range(i + 1, clique_size)]
    return Graph(n, edges + [(base, (base + clique_size) % n)
                             for base in range(0, n, clique_size)])


def barbell_graph(clique_size: int, path_length: int) -> Graph:
    """Two cliques joined by a path of the given length."""
    if clique_size < 1:
        raise ValueError("clique_size must be at least 1")
    n = 2 * clique_size + path_length
    far = clique_size + path_length
    edges = [(base + i, base + j) for base in (0, far)
             for i in range(clique_size) for j in range(i + 1, clique_size)]
    # The path runs from the first clique's last vertex to the second's first.
    return Graph(n, edges + [(a, a + 1) for a in range(clique_size - 1, far)])


def lollipop_graph(clique_size: int, path_length: int) -> Graph:
    """A clique with a path ("stick") attached to one of its vertices.

    The canonical high-diameter / locally-dense mix: the clique stresses the
    superclustering step while the stick stresses the stretch analysis.
    """
    if clique_size < 1:
        raise ValueError("clique_size must be at least 1")
    if path_length < 0:
        raise ValueError("path_length must be non-negative")
    n = clique_size + path_length
    edges = [(i, j) for i in range(clique_size) for j in range(i + 1, clique_size)]
    return Graph(n, edges + [(i - 1, i) for i in range(clique_size, n)])


def watts_strogatz(n: int, k: int, p: float, seed: Optional[int] = None) -> Graph:
    """Watts–Strogatz small-world graph (ring lattice with rewired edges).

    Parameters
    ----------
    n:
        Number of vertices (must exceed ``k``).
    k:
        Each vertex is joined to its ``k`` nearest ring neighbours (``k``
        rounded down to an even number).
    p:
        Probability of rewiring each lattice edge to a random endpoint.
    seed:
        Rewiring seed (deterministic per seed).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if k < 2 or k >= n:
        raise ValueError("watts_strogatz requires 2 <= k < n")
    rng = random.Random(seed)
    half = max(1, k // 2)
    g = Graph(n, [(u, (u + offset) % n) for u in range(n) for offset in range(1, half + 1)])
    # Rewire each lattice edge with probability p, keeping the graph simple.
    for u in range(n):
        for offset in range(1, half + 1):
            if rng.random() >= p:
                continue
            v = (u + offset) % n
            taken = g.neighbors(u)
            candidates = [w for w in range(n) if w != u and w not in taken]
            if not candidates:
                continue
            w = candidates[rng.randrange(len(candidates))]
            g.remove_edge(u, v)
            g.add_edge(u, w)
    return g


def complete_bipartite_graph(left: int, right: int) -> Graph:
    """Complete bipartite graph ``K_{left,right}`` (left vertices come first)."""
    if left < 0 or right < 0:
        raise ValueError("part sizes must be non-negative")
    return Graph(left + right, [(u, v) for u in range(left) for v in range(left, left + right)])


def preferential_attachment(n: int, m: int, seed: Optional[int] = None) -> Graph:
    """Barabási–Albert preferential-attachment graph (``m`` edges per new vertex)."""
    import networkx as nx

    if m < 1 or m >= n:
        raise ValueError("preferential_attachment requires 1 <= m < n")
    nx_graph = nx.barabasi_albert_graph(n, m, seed=seed)
    return Graph.from_networkx(nx_graph)
