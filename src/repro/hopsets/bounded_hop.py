"""Hop-limited shortest-path distances on weighted graphs.

A ``(beta, eps)``-hopset ``H`` for a graph ``G`` guarantees that for every
pair of vertices ``u, v``::

    d^{(beta)}_{G ∪ H}(u, v) <= (1 + eps) * d_G(u, v)

where ``d^{(t)}`` denotes the minimum weight of a path using at most ``t``
edges ("hops").  This module provides the ``d^{(t)}`` machinery: a
Bellman–Ford style hop-limited single-source computation, a single-pair
convenience wrapper, and the ``G ∪ H`` union helper that overlays the
(unit-weight) input graph with the weighted hopset / emulator edges.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["union_with_graph", "hop_limited_distances", "hop_limited_distance"]


def union_with_graph(graph: Graph, overlay: Optional[WeightedGraph] = None) -> WeightedGraph:
    """Overlay ``graph`` (unit weights) with the weighted edges of ``overlay``.

    The result is the weighted graph ``G ∪ H`` on which hop-limited distances
    are evaluated.  Where both contain an edge, the smaller weight wins
    (``WeightedGraph.add_edge`` keeps the minimum), which can only help the
    hop-limited distances and never breaks the lower bound because hopset
    edge weights are themselves at least the graph distance.

    Parameters
    ----------
    graph:
        The unweighted input graph ``G``.
    overlay:
        The hopset / emulator edge set ``H``; ``None`` yields a unit-weight
        copy of ``G``.
    """
    if overlay is not None and overlay.num_vertices != graph.num_vertices:
        raise ValueError(
            f"overlay has {overlay.num_vertices} vertices but graph has {graph.num_vertices}"
        )
    union = WeightedGraph.from_graph(graph)
    if overlay is not None:
        for u, v, w in overlay.edges():
            union.add_edge(u, v, w)
    return union


def hop_limited_distances(
    weighted: WeightedGraph, source: int, max_hops: int
) -> Dict[int, float]:
    """Single-source distances using paths of at most ``max_hops`` edges.

    This is the textbook hop-bounded Bellman–Ford: ``max_hops`` relaxation
    rounds over the *current frontier* only, so the cost is
    ``O(max_hops * |E(H)|)`` in the worst case but usually far less on the
    sparse unions this package deals with.

    Parameters
    ----------
    weighted:
        The weighted graph (typically ``G ∪ H`` from :func:`union_with_graph`).
    source:
        Start vertex.
    max_hops:
        Maximum number of edges a path may use; must be non-negative.

    Returns
    -------
    dict
        ``vertex -> d^{(max_hops)}(source, vertex)`` for every vertex
        reachable within the hop budget.
    """
    if not (0 <= source < weighted.num_vertices):
        raise ValueError(f"source {source} out of range [0, {weighted.num_vertices})")
    if max_hops < 0:
        raise ValueError(f"max_hops must be non-negative, got {max_hops}")
    if weighted.num_vertices >= kernels.HOP_VECTOR_MIN_VERTICES:
        # Vectorized rounds over the cached CSR snapshot; same relaxation
        # schedule and 1e-12 improvement tolerance as the loop.
        return kernels.hop_limited(weighted.csr(), source, max_hops)
    return _scalar_hop_limited(weighted, source, max_hops)


def _scalar_hop_limited(weighted: WeightedGraph, source: int, max_hops: int) -> Dict[int, float]:
    """The relaxation rounds as a loop over the adjacency dicts, for graphs
    below :data:`~repro.graphs.kernels.HOP_VECTOR_MIN_VERTICES` vertices."""
    best: Dict[int, float] = {source: 0.0}
    frontier: Dict[int, float] = {source: 0.0}
    for _ in range(max_hops):
        next_frontier: Dict[int, float] = {}
        for u, du in frontier.items():
            for v, w in weighted.neighbors(u).items():
                nd = du + w
                if nd < best.get(v, float("inf")) - 1e-12:
                    best[v] = nd
                    previous = next_frontier.get(v, float("inf"))
                    if nd < previous:
                        next_frontier[v] = nd
        if not next_frontier:
            break
        frontier = next_frontier
    return best


def hop_limited_distance(
    weighted: WeightedGraph, source: int, target: int, max_hops: int
) -> float:
    """``d^{(max_hops)}(source, target)``; ``inf`` when no such path exists."""
    if not (0 <= target < weighted.num_vertices):
        raise ValueError(f"target {target} out of range [0, {weighted.num_vertices})")
    return hop_limited_distances(weighted, source, max_hops).get(target, float("inf"))
