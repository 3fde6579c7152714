"""Emulator / spanner validation.

An ``(alpha, beta)``-emulator ``H`` of ``G`` must satisfy, for every pair of
vertices ``u, v``::

    d_G(u, v) <= d_H(u, v) <= alpha * d_G(u, v) + beta

The left inequality (no shortening) must hold for *every* pair; the right
inequality is what the paper's stretch analysis guarantees.  This module
checks both, either exactly (all pairs within each connected component) or
on a deterministic sample of pairs for larger graphs, and reports the
worst-case observed multiplicative and additive stretch so experiments can
compare measured stretch against the theoretical ``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.sampling import sample_vertex_pairs
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_distances
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["StretchReport", "verify_emulator", "verify_spanner", "verify_no_shortening"]


@dataclass
class StretchReport:
    """Result of checking an emulator or spanner against its input graph.

    Attributes
    ----------
    pairs_checked:
        Number of (ordered-as-unordered) vertex pairs examined.
    violations:
        Pairs violating ``d_H <= alpha d_G + beta`` (empty when valid).
    shortening_violations:
        Pairs violating ``d_H >= d_G`` (must always be empty).
    max_multiplicative_stretch:
        ``max d_H / d_G`` over checked pairs with ``d_G > 0``.
    max_additive_error:
        ``max (d_H - d_G)`` over checked pairs.
    max_excess_over_guarantee:
        ``max (d_H - (alpha d_G + beta))`` — negative or zero when the
        guarantee holds on every checked pair.
    """

    alpha: float
    beta: float
    pairs_checked: int = 0
    violations: List[Tuple[int, int, float, float]] = field(default_factory=list)
    shortening_violations: List[Tuple[int, int, float, float]] = field(default_factory=list)
    max_multiplicative_stretch: float = 1.0
    max_additive_error: float = 0.0
    max_excess_over_guarantee: float = float("-inf")

    @property
    def valid(self) -> bool:
        """Whether all checked pairs satisfy both inequalities."""
        return not self.violations and not self.shortening_violations

    def record(self, u: int, v: int, d_g: float, d_h: float) -> None:
        """Record one checked pair."""
        self.pairs_checked += 1
        if d_h < d_g - 1e-9:
            self.shortening_violations.append((u, v, d_g, d_h))
        bound = self.alpha * d_g + self.beta
        if d_h > bound + 1e-9:
            self.violations.append((u, v, d_g, d_h))
        if d_g > 0:
            self.max_multiplicative_stretch = max(self.max_multiplicative_stretch, d_h / d_g)
        self.max_additive_error = max(self.max_additive_error, d_h - d_g)
        self.max_excess_over_guarantee = max(self.max_excess_over_guarantee, d_h - bound)


def verify_emulator(
    graph: Graph,
    emulator: WeightedGraph,
    alpha: float,
    beta: float,
    sample_pairs: Optional[int] = None,
    seed: int = 0,
    graph_distances: Optional[Callable[[int], Dict[int, int]]] = None,
) -> StretchReport:
    """Check the ``(alpha, beta)`` guarantee of ``emulator`` against ``graph``.

    Parameters
    ----------
    graph:
        The original unweighted graph ``G``.
    emulator:
        The candidate emulator ``H`` (weighted graph on the same vertices).
    alpha, beta:
        The guarantee to check.
    sample_pairs:
        When ``None``, every pair of vertices in the same connected component
        is checked (suitable up to a few thousand vertices).  Otherwise the
        given number of pairs is sampled deterministically.
    seed:
        Seed for the pair sampling.
    graph_distances:
        Optional ``source -> {vertex: distance}`` provider replacing the
        per-source BFS on ``graph``.  Batched sweep verification
        (:class:`repro.api.executor.GraphBaseline`) passes a memoized
        provider here so many results on one graph share the baseline
        BFS runs.
    """
    if emulator.num_vertices != graph.num_vertices:
        raise ValueError("emulator and graph must have the same vertex set")
    if graph_distances is None:
        graph_distances = lambda source: bfs_distances(graph, source)  # noqa: E731
    report = StretchReport(alpha=alpha, beta=beta)
    if sample_pairs is None:
        for source in graph.vertices():
            d_g = graph_distances(source)
            d_h = emulator.dijkstra(source)
            for target, dg in d_g.items():
                if target <= source:
                    continue
                dh = d_h.get(target, float("inf"))
                report.record(source, target, float(dg), float(dh))
    else:
        pairs = sample_vertex_pairs(graph, sample_pairs, seed=seed)
        by_source: dict = {}
        for u, v in pairs:
            by_source.setdefault(u, []).append(v)
        for source, targets in sorted(by_source.items()):
            d_g = graph_distances(source)
            d_h = emulator.dijkstra(source)
            for target in targets:
                if target not in d_g:
                    continue
                dh = d_h.get(target, float("inf"))
                report.record(source, target, float(d_g[target]), float(dh))
    return report


def verify_spanner(
    graph: Graph,
    spanner: Graph,
    alpha: float,
    beta: float,
    sample_pairs: Optional[int] = None,
    seed: int = 0,
    graph_distances: Optional[Callable[[int], Dict[int, int]]] = None,
) -> StretchReport:
    """Check the ``(alpha, beta)`` guarantee of a spanner *subgraph*.

    Also raises ``AssertionError`` if the spanner is not a subgraph of
    ``graph`` — a spanner that invents edges is not a spanner at all.
    """
    for u, v in spanner.edges():
        if not graph.has_edge(u, v):
            raise AssertionError(f"spanner edge ({u}, {v}) is not an edge of the input graph")
    weighted = WeightedGraph.from_graph(spanner)
    return verify_emulator(graph, weighted, alpha, beta, sample_pairs=sample_pairs, seed=seed,
                           graph_distances=graph_distances)


def verify_no_shortening(
    graph: Graph, emulator: WeightedGraph, sample_pairs: Optional[int] = 200, seed: int = 0
) -> bool:
    """Check that the emulator never underestimates a graph distance.

    Uses a large ``beta`` so only the lower-bound check is meaningful; this
    is the cheap sanity check used by property-based tests.
    """
    report = verify_emulator(
        graph, emulator, alpha=float("inf"), beta=float("inf"),
        sample_pairs=sample_pairs, seed=seed,
    )
    return not report.shortening_violations
