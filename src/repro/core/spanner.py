"""Near-additive spanners (Section 4 of the paper) — centralized simulation.

A ``(1 + eps, beta)``-*spanner* is a subgraph of ``G`` (not merely a weighted
graph over ``V``) whose shortest-path metric approximates ``G``'s.  Section 4
adapts the emulator construction: whenever the emulator would add an edge
``(u, v)`` of weight ``d``, the spanner adds a ``u``-``v`` path of length at
most ``d`` taken from ``G``.  Superclustering connections travel along the
ruling-forest trees, so each phase contributes at most ``n - 1``
superclustering edges, and the degree sequence is slowed down (EN17a-style,
:class:`repro.core.parameters.SpannerSchedule`) so that the interconnection
contributions decay geometrically; the total is ``O(n^(1 + 1/kappa))`` edges
(Corollary 4.4), improving on EM19's ``O(beta n^(1 + 1/kappa))``.

Each phase reads flat arrays: the ruling forest is one
:func:`repro.graphs.kernels.bfs_forest` call (``parent``, ``dist`` and
``root`` per vertex), and a member's tree path walks ``parent`` only up
to the first vertex an earlier path of the same phase joined, so every
forest edge is offered to the spanner at most once per phase.  A ``U_i``
center grows its bounded BFS tree only when it has a neighboring center
to connect to.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.congest.ruling_sets import greedy_ruling_set
from repro.core.clusters import Partition
from repro.core.emulator import NeighboringCenters, PhaseStats, forest_members
from repro.core.parameters import SpannerSchedule
from repro.core.phase_obs import annotate_phase_span
from repro.graphs.graph import Graph
from repro.graphs.kernels import bfs_forest
from repro.graphs.shortest_paths import bfs_tree
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import span

__all__ = ["SpannerResult", "NearAdditiveSpannerBuilder"]


@dataclass
class SpannerResult:
    """Output of the spanner construction.

    Attributes
    ----------
    spanner:
        The spanner subgraph (unweighted; a subgraph of the input graph).
    schedule:
        The :class:`SpannerSchedule` used.
    phase_stats:
        Per-phase statistics.
    superclustering_edges:
        Total edges added by superclustering (forest) steps.
    interconnection_edges:
        Total edges added by interconnection (path) steps.
    """

    spanner: Graph
    schedule: SpannerSchedule
    phase_stats: List[PhaseStats]
    superclustering_edges: int
    interconnection_edges: int

    @property
    def num_edges(self) -> int:
        """Number of edges in the spanner."""
        return self.spanner.num_edges

    @property
    def alpha(self) -> float:
        """Guaranteed multiplicative stretch."""
        return self.schedule.alpha

    @property
    def beta(self) -> float:
        """Guaranteed additive stretch."""
        return self.schedule.beta

    def as_weighted(self) -> WeightedGraph:
        """The spanner as a weighted graph (all edges weight 1), for validators."""
        return WeightedGraph.from_graph(self.spanner)

    def is_subgraph_of(self, graph: Graph) -> bool:
        """Whether every spanner edge is an edge of ``graph``."""
        return all(graph.has_edge(u, v) for u, v in self.spanner.edges())


class NearAdditiveSpannerBuilder:
    """Builder for the Section 4 near-additive spanner (centralized simulation)."""

    def __init__(
        self,
        graph: Graph,
        schedule: Optional[SpannerSchedule] = None,
        *,
        eps: float = 0.01,
        kappa: float = 4.0,
        rho: float = 0.45,
    ) -> None:
        self.graph = graph
        if schedule is None:
            schedule = SpannerSchedule(
                n=max(1, graph.num_vertices), eps=eps, kappa=kappa, rho=rho
            )
        if schedule.n != graph.num_vertices and graph.num_vertices > 0:
            raise ValueError(
                f"schedule built for n={schedule.n} but graph has {graph.num_vertices} vertices"
            )
        self.schedule = schedule

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(self) -> SpannerResult:
        """Run all phases and return the spanner.

        Every call starts from an empty spanner and phase record, so
        building again returns an equal result and leaves earlier ones
        untouched.
        """
        n = self.graph.num_vertices
        self.spanner = Graph(n)
        self.phase_stats: List[PhaseStats] = []
        self._superclustering_edges = 0
        self._interconnection_edges = 0
        current = Partition.singletons(n)
        for phase in range(self.schedule.num_phases):
            is_last = phase == self.schedule.ell
            with span("spanner.phase", phase=phase):
                current = self._run_phase(phase, current, superclustering_allowed=not is_last)
        return SpannerResult(
            spanner=self.spanner,
            schedule=self.schedule,
            phase_stats=self.phase_stats,
            superclustering_edges=self._superclustering_edges,
            interconnection_edges=self._interconnection_edges,
        )

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def _run_phase(
        self, phase: int, partition: Partition, *, superclustering_allowed: bool
    ) -> Partition:
        delta = self.schedule.delta(phase)
        degree_threshold = self.schedule.degree(phase)
        stats = PhaseStats(
            phase=phase,
            num_clusters=partition.num_clusters,
            delta=delta,
            degree_threshold=degree_threshold,
        )
        centers = partition.centers()
        neighbor_map = NeighboringCenters(self.graph.csr(), centers, delta)

        popular = {c for c in centers if neighbor_map.count(c) >= degree_threshold}
        stats.popular_centers = len(popular)

        # host[c] = h, offset[c] = d: the cluster centered at c joins the
        # supercluster centered at h, at distance d (-1: it joins none).
        n = self.graph.num_vertices
        host = array("l", [-1]) * n
        offset = array("d", bytes(8 * n))

        if superclustering_allowed and popular:
            separation = self.schedule.separation(phase)
            ruling = greedy_ruling_set(self.graph, popular, separation)
            # The forest reaches ceil(ruling_radius + delta) hops, the fast emulator's
            # floor(...): both kept as they were, and a kernel test pins them.
            hops = math.ceil(self.schedule.ruling_radius(phase) + delta)
            parent, dist, root_of = bfs_forest(self.graph.csr(), ruling.members, hops)
            members, roots, distances = forest_members(centers, dist, root_of)

            # Each member's tree path stops where an earlier path of this
            # phase joined, so every forest edge is offered once.
            parent = parent.tolist()
            joined = bytearray(n)
            for root in ruling.members:
                host[root] = root
                joined[root] = 1
            add_edge = self.spanner.add_edge
            added = 0
            for center, root, d in zip(members.tolist(), roots.tolist(), distances.tolist()):
                u = center
                while not joined[u]:
                    joined[u] = 1
                    added += add_edge(u, parent[u])
                    u = parent[u]
                host[center] = root
                offset[center] = d
            stats.superclustering_edges = added
            self._superclustering_edges += added
            stats.superclusters_formed = len(ruling.members)

        # Interconnection step: U_i clusters connect via shortest paths.
        for center in centers:
            if host[center] >= 0:
                continue
            stats.unpopular_centers += 1
            others, _ = neighbor_map[center]
            if not others:
                continue
            tree = bfs_tree(self.graph, center, radius=delta)
            for other in others:
                added = self._add_tree_path(other, tree)
                stats.interconnection_edges += added
                self._interconnection_edges += added

        self.phase_stats.append(stats)
        annotate_phase_span(stats, centers_explored=len(centers))
        return partition.regroup(host, offset, phase + 1)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _add_tree_path(self, vertex: int, parent: Dict[int, int]) -> int:
        """Add the tree path from ``vertex`` up to its root; return new edges."""
        added = 0
        u = vertex
        while parent.get(u, u) != u:
            p = parent[u]
            if self.spanner.add_edge(u, p):
                added += 1
            u = p
        return added

