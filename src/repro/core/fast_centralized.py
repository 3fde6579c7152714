"""Fast centralized construction (Section 3.3 of the paper).

This variant simulates the distributed construction centrally.  Instead of
considering cluster centers one at a time (Algorithm 1), each phase:

1. detects the set of *popular* clusters (those with at least ``deg_i``
   neighboring clusters within distance ``delta_i``);
2. computes a ``(2 delta_i + 1, rul_i)``-ruling set of the popular centers;
3. grows a BFS forest of depth ``rul_i + delta_i`` from the ruling set and
   forms one supercluster per tree, containing every cluster whose center is
   spanned by that tree (no hub splitting is needed centrally — Section 3.3);
4. interconnects every cluster that was not superclustered (``U_i``) with
   all of its neighboring clusters.

The resulting emulator satisfies the same ``n^(1 + 1/kappa)`` size bound
(eq. 18-19) and the Section 3 stretch bound, and the per-phase work is
``O(|E|)`` explorations of radius ``O(delta_i / rho)``, matching the
``O(|E| * beta * n^rho)`` running-time flavour of Theorem 3.13.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.congest.ruling_sets import greedy_ruling_set
from repro.core.charging import ChargeLedger, EdgeKind
from repro.core.clusters import Cluster, Partition
from repro.core.emulator import EmulatorResult, PhaseStats, neighboring_centers
from repro.core.parameters import DistributedSchedule
from repro.core.phase_obs import annotate_phase_span
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import multi_source_bfs
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import span

__all__ = ["FastCentralizedBuilder"]


class FastCentralizedBuilder:
    """Ruling-set driven centralized builder (Section 3.3).

    Parameters
    ----------
    graph:
        The unweighted input graph.
    schedule:
        A :class:`DistributedSchedule`; if omitted, one is created from
        ``eps``, ``kappa`` and ``rho``.
    eps, kappa, rho:
        Convenience parameters used when ``schedule`` is not supplied.
    """

    def __init__(
        self,
        graph: Graph,
        schedule: Optional[DistributedSchedule] = None,
        *,
        eps: float = 0.01,
        kappa: float = 4.0,
        rho: float = 0.45,
    ) -> None:
        self.graph = graph
        if schedule is None:
            schedule = DistributedSchedule(
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
    def build(self) -> EmulatorResult:
        """Run all phases and return the construction result.

        Every call starts from an empty ``H``, ledger and phase record, so
        building again returns an equal result and leaves earlier ones
        untouched.
        """
        n = self.graph.num_vertices
        self.emulator = WeightedGraph(n)
        self.ledger = ChargeLedger()
        self.phase_stats: List[PhaseStats] = []
        self.unclustered_centers: Dict[int, List[int]] = {}
        current = Partition.singletons(n)
        self.partitions = [current]
        for phase in range(self.schedule.num_phases):
            is_last = phase == self.schedule.ell
            with span("emulator.phase", phase=phase):
                current = self._run_phase(phase, current, superclustering_allowed=not is_last)
            self.partitions.append(current)
        return EmulatorResult(
            emulator=self.emulator,
            schedule=self.schedule,  # type: ignore[arg-type]
            ledger=self.ledger,
            phase_stats=self.phase_stats,
            unclustered_centers=self.unclustered_centers,
            partitions=self.partitions,
        )

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def _run_phase(
        self, phase: int, partition: Partition, *, superclustering_allowed: bool
    ) -> Partition:
        """Execute one phase (superclustering step + interconnection step)."""
        delta = self.schedule.delta(phase)
        degree_threshold = self.schedule.degree(phase)
        stats = PhaseStats(
            phase=phase,
            num_clusters=partition.num_clusters,
            delta=delta,
            degree_threshold=degree_threshold,
        )
        centers = partition.centers()

        # Neighbor map: for every center, the other centers within delta and
        # their exact distances (the centralized analogue of Algorithm 2).
        neighbor_map = neighboring_centers(self.graph.csr(), centers, delta)

        popular = {c for c in centers if len(neighbor_map[c]) >= degree_threshold}
        stats.popular_centers = len(popular)

        next_partition = Partition()
        superclustered: Set[int] = set()

        if superclustering_allowed and popular:
            separation = self.schedule.separation(phase)
            ruling = greedy_ruling_set(self.graph, popular, separation)
            forest_depth = self.schedule.ruling_radius(phase) + delta
            dist_to_root, root_of = multi_source_bfs(self.graph, ruling.members, forest_depth)

            # One supercluster per ruling tree, containing every cluster of
            # P_i whose center is spanned by that tree.
            members_by_root: Dict[int, List[Tuple[int, int]]] = {r: [] for r in ruling.members}
            for center in centers:
                if center in dist_to_root and root_of[center] in members_by_root:
                    if center != root_of[center]:
                        members_by_root[root_of[center]].append((center, dist_to_root[center]))

            for root in sorted(members_by_root):
                root_cluster = partition.cluster_of_center(root)
                joined = members_by_root[root]
                member_vertices: Set[int] = set(root_cluster.members)
                radius = root_cluster.radius
                superclustered.add(root)
                for center, d in joined:
                    self._add_edge(root, center, float(d), charged_to=center, phase=phase,
                                   kind=EdgeKind.SUPERCLUSTERING)
                    stats.superclustering_edges += 1
                    joined_cluster = partition.cluster_of_center(center)
                    member_vertices |= joined_cluster.members
                    radius = max(radius, d + joined_cluster.radius)
                    superclustered.add(center)
                next_partition.add(
                    Cluster(center=root, members=member_vertices, radius=radius,
                            phase_created=phase + 1)
                )
                stats.superclusters_formed += 1

        # Interconnection step: clusters that were not superclustered join
        # U_i and connect to all of their neighboring clusters.
        phase_unclustered: List[int] = []
        for center in centers:
            if center in superclustered:
                continue
            phase_unclustered.append(center)
            stats.unpopular_centers += 1
            for other, d in neighbor_map[center]:
                added = self.emulator.has_edge(center, other)
                self._add_edge(center, other, d, charged_to=center, phase=phase,
                               kind=EdgeKind.INTERCONNECTION)
                if not added:
                    stats.interconnection_edges += 1

        self.unclustered_centers[phase] = phase_unclustered
        self.phase_stats.append(stats)
        annotate_phase_span(stats, centers_explored=len(centers))
        return next_partition

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _add_edge(
        self, u: int, v: int, weight: float, *, charged_to: int, phase: int, kind: EdgeKind
    ) -> None:
        """Insert an emulator edge and record its charge."""
        self.emulator.add_edge(u, v, weight)
        self.ledger.charge(u, v, weight, charged_to=charged_to, phase=phase, kind=kind)
