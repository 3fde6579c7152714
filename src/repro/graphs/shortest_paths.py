"""Shortest-path primitives on unweighted graphs.

All constructions in the paper repeatedly run bounded breadth-first searches
("Dijkstra explorations" on an unweighted graph) from cluster centers.  This
module collects the exact-distance machinery used by the centralized
algorithms, the validators and the experiments.

The public functions keep their dict-shaped signatures but execute on the
flat-array kernels of :mod:`repro.graphs.kernels` over each graph's cached
CSR snapshot (:meth:`Graph.csr`): preallocated buffers and an
epoch-stamped visited array inside, dictionaries only at the boundary.
The original dict-based implementations survive as the module-private
``_dict_*`` functions — they are the reference the kernel equivalence
suite and the kernel benchmarks compare against.

Construction phases read one center's ball at a time through
:func:`repro.graphs.kernels.ball` (Algorithm 1, the fast emulator, the
spanner) or through :func:`bounded_bfs` (the baselines), and
:func:`multi_source_attributed` collapses "closest center" assignments
into a single pass.  Every call computes its search afresh; the golden
build corpus pins the builders' outputs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graphs import kernels
from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "bounded_bfs",
    "bfs_tree",
    "multi_source_bfs",
    "multi_source_attributed",
    "dijkstra",
    "bounded_dijkstra",
    "all_pairs_shortest_paths",
    "eccentricity",
    "diameter",
]


# ----------------------------------------------------------------------
# BFS family (kernel-backed)
# ----------------------------------------------------------------------
def bfs_distances(graph: Graph, source: int) -> Dict[int, int]:
    """Distances from ``source`` to every reachable vertex."""
    return bounded_bfs(graph, source, None)


def bounded_bfs(graph: Graph, source: int, radius: Optional[float]) -> Dict[int, int]:
    """Distances from ``source`` to all vertices within ``radius`` hops.

    Parameters
    ----------
    graph:
        The unweighted graph to explore.
    source:
        Start vertex.
    radius:
        Maximum distance to explore; ``None`` (or ``inf``) means
        unbounded.  Distances are integers, so a float radius is clamped
        to ``floor(radius)`` once up front.  Negative radii raise
        ``ValueError``.

    Returns
    -------
    dict
        ``vertex -> hop distance`` including the source at distance 0.
    """
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    return kernels.bounded_bfs(graph.csr(), source, kernels.normalize_radius(radius))


def bfs_tree(graph: Graph, source: int, radius: Optional[float] = None) -> Dict[int, int]:
    """BFS tree from ``source``: map ``vertex -> parent`` (source maps to itself).

    The tree spans exactly the vertices :func:`bounded_bfs` reaches: the
    radius is clamped the same way, and a negative one raises
    ``ValueError``.
    """
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    radius = kernels.normalize_radius(radius)
    parent: Dict[int, int] = {source: source}
    dist: Dict[int, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in parent:
                parent[v] = u
                dist[v] = du + 1
                queue.append(v)
    return parent


def multi_source_bfs(
    graph: Graph, sources: Iterable[int], radius: Optional[float] = None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Multi-source BFS.

    Returns a pair ``(dist, origin)`` where ``dist[v]`` is the distance from
    ``v`` to the closest source and ``origin[v]`` is that source.  Ties are
    broken toward the smallest source ID, which makes the result
    deterministic — the deterministic constructions rely on this.
    """
    source_list = sorted(set(sources))
    for s in source_list:
        if s not in graph:
            raise ValueError(f"source {s} not in graph")
    return kernels.multi_source_bfs(graph.csr(), source_list, kernels.normalize_radius(radius),
                                    normalized=True)


def multi_source_attributed(
    graph: Graph, sources: Iterable[int], radius: Optional[float] = None
) -> Dict[int, Tuple[int, int]]:
    """One pass mapping each reached vertex to ``(nearest source, distance)``.

    The Voronoi view of :func:`multi_source_bfs` for call sites that only
    need nearest-source assignments (e.g. "attach each cluster to its
    closest sampled center") — one multi-source kernel pass replaces a
    bounded BFS per center.  Ties break toward the smallest source ID.
    """
    dist, origin = multi_source_bfs(graph, sources, radius)
    return {v: (origin[v], d) for v, d in dist.items()}


def dijkstra(
    graph: Graph, source: int, weights: Optional[Dict[Tuple[int, int], float]] = None
) -> Dict[int, float]:
    """Dijkstra on an unweighted graph with optional per-edge weight overrides.

    With ``weights=None`` this is equivalent to :func:`bfs_distances` but is
    provided for symmetry with the paper's exposition ("Dijkstra
    exploration").  ``weights`` maps ordered pairs ``(min(u,v), max(u,v))``
    to positive weights; missing edges default to 1.
    """
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    if weights is None:
        return {v: float(d) for v, d in bfs_distances(graph, source).items()}

    def edge_weight(u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        return weights.get(key, 1.0)

    dist: Dict[int, float] = {source: 0.0}
    settled: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        for v in graph.neighbors(u):
            nd = d + edge_weight(u, v)
            if v not in settled and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def bounded_dijkstra(graph: Graph, source: int, radius: float) -> Dict[int, int]:
    """Bounded exploration in the paper's terms (a "Dijkstra exploration").

    On unweighted graphs a Dijkstra exploration to depth ``radius`` is a
    bounded BFS; this thin wrapper keeps the paper's terminology at call
    sites.
    """
    return bounded_bfs(graph, source, radius)


def all_pairs_shortest_paths(graph: Graph) -> List[Dict[int, int]]:
    """Exact all-pairs distances as a list of per-source dictionaries.

    Intended for small graphs used in exact stretch validation; quadratic
    memory in the worst case.
    """
    return [bfs_distances(graph, s) for s in graph.vertices()]


def eccentricity(graph: Graph, source: int) -> int:
    """Eccentricity of ``source`` within its connected component."""
    dist = bfs_distances(graph, source)
    return max(dist.values()) if dist else 0


def diameter(graph: Graph) -> int:
    """Diameter of the graph (max eccentricity over its largest component).

    For disconnected graphs, the diameter of the component containing the
    most vertices is reported.
    """
    if graph.num_vertices == 0:
        return 0
    components = graph.connected_components()
    largest = max(components, key=len)
    return max(eccentricity(graph, v) for v in largest)


# ----------------------------------------------------------------------
# Reference dict implementations (equivalence suite + benchmarks only)
# ----------------------------------------------------------------------
def _dict_bounded_bfs(graph: Graph, source: int, radius: Optional[float]) -> Dict[int, int]:
    """The pre-kernel dict/deque BFS, kept as the behavioural reference."""
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    dist: Dict[int, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    if radius is not None:
        return {v: d for v, d in dist.items() if d <= radius}
    return dist


def _dict_bfs_distances(graph: Graph, source: int) -> Dict[int, int]:
    """Reference unbounded BFS (see :func:`_dict_bounded_bfs`)."""
    return _dict_bounded_bfs(graph, source, None)


def _dict_multi_source_bfs(
    graph: Graph, sources: Iterable[int], radius: Optional[float] = None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The pre-kernel dict/deque multi-source BFS, kept as the reference."""
    source_list = sorted(set(sources))
    dist: Dict[int, int] = {}
    origin: Dict[int, int] = {}
    queue: deque = deque()
    for s in source_list:
        if s not in graph:
            raise ValueError(f"source {s} not in graph")
        dist[s] = 0
        origin[s] = s
        queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                origin[v] = origin[u]
                queue.append(v)
    if radius is not None:
        keep = {v for v, d in dist.items() if d <= radius}
        dist = {v: dist[v] for v in keep}
        origin = {v: origin[v] for v in keep}
    return dist, origin
