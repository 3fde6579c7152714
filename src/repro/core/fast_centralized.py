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

import math
from array import array
from typing import Dict, List, Optional

import numpy as np

from repro.congest.ruling_sets import greedy_ruling_set
from repro.core.charging import ChargeLedger, EdgeColumns
from repro.core.clusters import Partition
from repro.core.emulator import EmulatorResult, NeighboringCenters, PhaseStats, forest_members
from repro.core.parameters import DistributedSchedule
from repro.core.phase_obs import annotate_phase_span
from repro.graphs.graph import Graph
from repro.graphs.kernels import bfs_forest
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
        """Execute one phase (superclustering step + interconnection step).

        The phase's edges go into ``H`` and the ledger in bulk, in the order
        the construction adds them, and ``P_{phase+1}`` is ``P_phase``
        relabelled through each cluster's host.
        """
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
        # Popularity reads only the counts; a list is computed when a U_i
        # center interconnects.
        neighbor_map = NeighboringCenters(self.graph.csr(), centers, delta)

        popular = {c for c in centers if neighbor_map.count(c) >= degree_threshold}
        stats.popular_centers = len(popular)

        # host[c] = h, offset[c] = d: the cluster centered at c joins the
        # supercluster centered at h, at distance d (-1: it joins none).
        n = self.graph.num_vertices
        host = array("l", [-1]) * n
        offset = array("d", bytes(8 * n))
        # The phase's emulator edges in insertion order: superclustering
        # edges, then interconnection edges.
        joins, links = EdgeColumns(), EdgeColumns()

        if superclustering_allowed and popular:
            separation = self.schedule.separation(phase)
            ruling = greedy_ruling_set(self.graph, popular, separation)
            # The forest reaches floor(ruling_radius + delta) hops, the spanner's
            # ceil(...): both kept as they were, and a kernel test pins them.
            hops = math.floor(self.schedule.ruling_radius(phase) + delta)
            _, dist, root_of = bfs_forest(self.graph.csr(), ruling.members, hops)

            # One supercluster per ruling tree, containing every cluster of
            # P_i whose center is spanned by that tree.
            members, roots, distances = forest_members(centers, dist, root_of)
            for root in ruling.members:
                host[root] = root
            np.asarray(host)[members] = roots
            np.asarray(offset)[members] = distances
            joins.supercluster(roots.tolist(), members.tolist(), distances.tolist())
            stats.superclusters_formed = len(ruling.members)
            stats.superclustering_edges = len(joins)

        # Interconnection step: clusters that were not superclustered join
        # U_i and connect to all of their neighboring clusters.
        phase_unclustered = [c for c in centers if host[c] < 0]
        stats.unpopular_centers = len(phase_unclustered)
        for center in phase_unclustered:
            links.interconnect(center, *neighbor_map[center])
        self.emulator.add_edges(joins.u, joins.v, joins.weight)
        stats.interconnection_edges = self.emulator.add_edges(links.u, links.v, links.weight)
        self.ledger.record(phase, joins)
        self.ledger.record(phase, links)

        self.unclustered_centers[phase] = phase_unclustered
        self.phase_stats.append(stats)
        annotate_phase_span(stats, centers_explored=len(centers))
        return partition.regroup(host, offset, phase + 1)
