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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.congest.ruling_sets import greedy_ruling_set
from repro.core.clusters import Cluster, Partition
from repro.core.emulator import PhaseStats, neighboring_centers
from repro.core.parameters import SpannerSchedule
from repro.core.phase_obs import annotate_phase_span
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_tree
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import span

__all__ = [
    "SpannerResult",
    "NearAdditiveSpannerBuilder",
    "spanner_from_emulator",
]


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
        weighted = WeightedGraph(self.spanner.num_vertices)
        for u, v in self.spanner.edges():
            weighted.add_edge(u, v, 1.0)
        return weighted

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
        neighbor_map = neighboring_centers(self.graph.csr(), centers, delta)

        popular = {c for c in centers if len(neighbor_map[c]) >= degree_threshold}
        stats.popular_centers = len(popular)

        next_partition = Partition()
        superclustered: Set[int] = set()

        if superclustering_allowed and popular:
            separation = 2.0 * delta + 1.0
            ruling = greedy_ruling_set(self.graph, popular, separation)
            forest_depth = (2.0 / self.schedule.rho) * delta + delta
            parents, dist_to_root = self._forest_parents(ruling.members, forest_depth)
            root_of = self._roots_from_parents(parents)

            members_by_root: Dict[int, List[Tuple[int, int]]] = {r: [] for r in ruling.members}
            for center in centers:
                if center in dist_to_root and root_of.get(center) in members_by_root:
                    if center != root_of[center]:
                        members_by_root[root_of[center]].append((center, dist_to_root[center]))

            for root in sorted(members_by_root):
                root_cluster = partition.cluster_of_center(root)
                joined = members_by_root[root]
                member_vertices: Set[int] = set(root_cluster.members)
                radius = root_cluster.radius
                superclustered.add(root)
                for center, d in joined:
                    added = self._add_forest_path(center, parents)
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

        # Interconnection step: U_i clusters connect via shortest paths.
        for center in centers:
            if center in superclustered:
                continue
            stats.unpopular_centers += 1
            parent = bfs_tree(self.graph, center, radius=delta)
            for other, _ in neighbor_map[center]:
                added = self._add_path_from_tree(other, parent)
                stats.interconnection_edges += added
                self._interconnection_edges += added

        self.phase_stats.append(stats)
        annotate_phase_span(stats, centers_explored=len(centers))
        return next_partition

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _forest_parents(
        self, roots: Set[int], depth: float
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Parent pointers and distances of the BFS forest rooted at ``roots``."""
        from collections import deque

        parent: Dict[int, int] = {}
        dist: Dict[int, int] = {}
        queue: deque = deque()
        for r in sorted(roots):
            parent[r] = r
            dist[r] = 0
            queue.append(r)
        adjacency = self.graph.csr().adjacency()  # neighbor lists in ascending order
        while queue:
            u = queue.popleft()
            if dist[u] >= depth:
                continue
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return parent, dist

    @staticmethod
    def _roots_from_parents(parents: Dict[int, int]) -> Dict[int, int]:
        """Map every forest vertex to the root of its tree."""
        roots: Dict[int, int] = {}

        def find(v: int) -> int:
            chain = []
            while parents[v] != v and v not in roots:
                chain.append(v)
                v = parents[v]
            root = roots.get(v, v)
            for u in chain:
                roots[u] = root
            return root

        for v in parents:
            roots[v] = find(v)
        return roots

    def _add_forest_path(self, vertex: int, parents: Dict[int, int]) -> int:
        """Add the forest path from ``vertex`` up to its root; return new edges."""
        added = 0
        u = vertex
        while parents.get(u, u) != u:
            p = parents[u]
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


def spanner_from_emulator(graph: Graph, emulator_result) -> SpannerResult:
    """Derive a subgraph spanner from an emulator, EM19-style.

    Every emulator edge ``(u, v)`` of weight ``w`` is realized by a
    shortest ``u``–``v`` path of ``graph`` (``w`` is a path length the
    construction measured, so ``d_G(u, v) <= w`` and a BFS of radius
    ``w`` from ``u`` reaches ``v``).  Any emulator path of weight ``W``
    then maps to a spanner walk of length at most ``W``, so the spanner
    inherits the emulator's ``(alpha, beta)`` stretch.  The size is the
    EM19-flavoured ``O(beta * n^(1 + 1/kappa))`` rather than Corollary
    4.4's ``O(n^(1 + 1/kappa))`` — this is the price of deriving from
    the ruling-set based *fast* emulator instead of re-running the
    Section 4 degree-slowdown schedule.
    """
    spanner = Graph(graph.num_vertices)
    added = 0
    # One bounded BFS per distinct source serves all of its emulator
    # edges: the BFS tree's parent pointers do not depend on the radius,
    # so exploring to the deepest target yields the same per-target
    # shortest paths as one exploration per edge would.
    targets_by_source: Dict[int, List[int]] = {}
    radius_by_source: Dict[int, float] = {}
    for u, v, w in emulator_result.emulator.edges():
        targets_by_source.setdefault(u, []).append(v)
        radius_by_source[u] = max(radius_by_source.get(u, 0.0), w)
    for u in sorted(targets_by_source):
        parent = bfs_tree(graph, u, radius=radius_by_source[u])
        full = None
        for v in sorted(targets_by_source[u]):
            tree = parent
            if v not in tree:  # defensive: w should always dominate d_G(u, v)
                if full is None:
                    full = bfs_tree(graph, u)
                tree = full
                if v not in tree:
                    continue
            x = v
            while tree.get(x, x) != x:
                p = tree[x]
                if spanner.add_edge(x, p):
                    added += 1
                x = p
    return SpannerResult(
        spanner=spanner,
        schedule=emulator_result.schedule,
        phase_stats=emulator_result.phase_stats,
        superclustering_edges=0,
        interconnection_edges=added,
    )
