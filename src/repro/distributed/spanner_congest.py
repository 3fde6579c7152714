"""Distributed CONGEST construction of sparse near-additive spanners (Section 4).

The spanner variant replaces every emulator edge ``(u, v)`` of weight ``d``
by a ``u``-``v`` path of length at most ``d`` taken from ``G``.  Because the
path along which an announcement travels is itself added to the spanner,
no hub splitting is required (the message only carries the destination's
identity), so a single supercluster is formed per ruling-forest tree.

The degree sequence is the EN17a-style one of
:class:`repro.core.parameters.SpannerSchedule`; with it the interconnection
contributions decay geometrically and the total size is
``O(n^(1 + 1/kappa))`` (Corollary 4.4), compared to EM19's
``O(beta * n^(1 + 1/kappa))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.congest.bellman_ford import detect_popular_clusters
from repro.congest.network import SynchronousNetwork
from repro.congest.primitives import distributed_bfs
from repro.congest.ruling_sets import greedy_ruling_set
from repro.core.clusters import Cluster, Partition
from repro.core.emulator import PhaseStats
from repro.core.parameters import SpannerSchedule
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_tree
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "DistributedSpannerResult",
    "DistributedSpannerBuilder",
]


@dataclass
class DistributedSpannerResult:
    """Output of the distributed spanner construction."""

    spanner: Graph
    schedule: SpannerSchedule
    phase_stats: List[PhaseStats]
    rounds: int
    messages: int
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
        """The spanner as a weighted graph (unit weights), for the validators."""
        weighted = WeightedGraph(self.spanner.num_vertices)
        for u, v in self.spanner.edges():
            weighted.add_edge(u, v, 1.0)
        return weighted

    def is_subgraph_of(self, graph: Graph) -> bool:
        """Whether every spanner edge is an edge of ``graph``."""
        return all(graph.has_edge(u, v) for u, v in self.spanner.edges())


class DistributedSpannerBuilder:
    """Builder running the Section 4 spanner construction on a CONGEST simulator."""

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
        self.net = SynchronousNetwork(graph)
        self.spanner = Graph(graph.num_vertices)
        self.phase_stats: List[PhaseStats] = []
        self._superclustering_edges = 0
        self._interconnection_edges = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(self) -> DistributedSpannerResult:
        """Run all phases and return the spanner result."""
        n = self.graph.num_vertices
        current = Partition.singletons(n)
        for phase in range(self.schedule.num_phases):
            is_last = phase == self.schedule.ell
            current = self._run_phase(phase, current, superclustering_allowed=not is_last)
        return DistributedSpannerResult(
            spanner=self.spanner,
            schedule=self.schedule,
            phase_stats=self.phase_stats,
            rounds=self.net.rounds_elapsed,
            messages=self.net.total_messages,
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

        detection = detect_popular_clusters(
            self.graph, centers, degree_threshold, delta, net=self.net
        )
        stats.popular_centers = len(detection.popular)

        next_partition = Partition()
        superclustered: Set[int] = set()

        if superclustering_allowed and detection.popular:
            separation = 2.0 * delta + 1.0
            charged = separation * (1.0 / self.schedule.rho) * (
                float(self.graph.num_vertices) ** self.schedule.rho
            )
            ruling = greedy_ruling_set(self.graph, detection.popular, separation, net=self.net,
                                       charged_rounds=charged)
            forest_depth = int(math.floor((2.0 / self.schedule.rho) * delta + delta))
            forest = distributed_bfs(self.net, ruling.members, depth=forest_depth)

            members_by_root: Dict[int, List[Tuple[int, int]]] = {
                r: [] for r in ruling.members
            }
            center_set = set(centers)
            for center in centers:
                if center in forest.dist:
                    root = forest.root[center]
                    if root in members_by_root and center != root:
                        members_by_root[root].append((center, forest.dist[center]))

            # Announcements travel up the forest; the paths they traverse are
            # added to the spanner.  The convergecast is pipelined: charge
            # (depth + max batch) rounds per tree.
            for root in sorted(members_by_root):
                root_cluster = partition.cluster_of_center(root)
                joined = members_by_root[root]
                member_vertices: Set[int] = set(root_cluster.members)
                radius = root_cluster.radius
                superclustered.add(root)
                for center, d in joined:
                    added = self._add_forest_path(center, forest)
                    stats.superclustering_edges += added
                    self._superclustering_edges += added
                    joined_cluster = partition.cluster_of_center(center)
                    member_vertices |= joined_cluster.members
                    radius = max(radius, d + joined_cluster.radius)
                    superclustered.add(center)
                next_partition.add(
                    Cluster(center=root, members=member_vertices, radius=radius,
                            phase_created=phase + 1)
                )
                stats.superclusters_formed += 1
                self.net.charge_rounds(forest_depth + len(joined))
                self.net.charge_messages(sum(forest.dist[c] for c, _ in joined))

        # Interconnection step: U_i clusters add shortest paths to all of
        # their neighboring clusters.
        unclustered = [c for c in centers if c not in superclustered]
        stats.unpopular_centers = len(unclustered)
        if unclustered:
            detect_popular_clusters(
                self.graph, unclustered, degree_threshold, delta, net=self.net
            )
        for center in unclustered:
            parent = bfs_tree(self.graph, center, radius=delta)
            for other in sorted(detection.knowledge.get(center, {})):
                added = self._add_path_from_tree(other, parent)
                stats.interconnection_edges += added
                self._interconnection_edges += added

        self.phase_stats.append(stats)
        return next_partition

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _add_forest_path(self, vertex: int, forest) -> int:
        """Add the forest path from ``vertex`` to its root; return new edges."""
        added = 0
        u = vertex
        while forest.parent[u] != u:
            p = forest.parent[u]
            if self.spanner.add_edge(u, p):
                added += 1
            u = p
        return added

    def _add_path_from_tree(self, target: int, parent: Dict[int, int]) -> int:
        """Add the BFS-tree path from ``target`` back to the tree root."""
        added = 0
        u = target
        while parent.get(u, u) != u:
            p = parent[u]
            if self.spanner.add_edge(u, p):
                added += 1
            u = p
        return added
