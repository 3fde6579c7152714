"""Algorithm 1 — the centralized ultra-sparse near-additive emulator.

This is the paper's primary contribution (Section 2).  Given an unweighted
undirected graph ``G`` on ``n`` vertices and parameters ``eps`` and ``kappa``,
the construction produces a weighted graph ``H`` on the same vertex set such
that for all ``u, v``::

    d_G(u, v) <= d_H(u, v) <= (1 + 34 * eps * ell) * d_G(u, v) + 30 * (1/eps)^(ell-1)

with ``ell = ceil(log2((kappa+1)/2))``, and ``H`` has **at most
n^(1 + 1/kappa) edges** (leading constant exactly 1 — Lemma 2.4).

The algorithm follows the superclustering-and-interconnection (SAI) scheme:

* ``P_0`` is the partition of ``V`` into singletons.
* In each phase ``i`` the algorithm considers the remaining cluster centers
  one by one.  A center with fewer than ``deg_i`` neighboring centers (within
  distance ``delta_i``) is *unpopular*: it is interconnected with all of its
  neighboring centers and its cluster joins ``U_i``.  A center with at least
  ``deg_i`` neighboring centers is *popular*: a supercluster is formed around
  it containing all those neighbors, and every other center within distance
  ``2 * delta_i`` is parked in the buffer set ``N_i`` (it may later be
  absorbed by another supercluster; if not, it joins this one at the end of
  the phase).  The buffer set is what replaces the EP01 ground partition and
  is the reason the leading constant in the size bound is 1.
* The superclusters formed in phase ``i`` are the input ``P_{i+1}``.
* In the final phase ``ell`` the superclustering step is skipped (the paper
  proves ``|P_ell| <= deg_ell``, so no center is popular anyway).

Every inserted edge is recorded in a :class:`repro.core.charging.ChargeLedger`
so the tests can check the charging invariants the size proof relies on.

The builder computes only what the algorithm reads.  Each considered center
is explored to depth ``delta_i``, which is all the neighbor set needs; only
a popular center then fetches its ``2 * delta_i`` ball for ``N_i``.  A phase
collects its edges as plain ``(u, v, weight, charged_to, kind)`` rows and
hands them to ``H`` and to the ledger in one call each when it ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.charging import ChargeLedger, ChargeRow, EdgeKind
from repro.core.clusters import Cluster, Partition
from repro.core.parameters import CentralizedSchedule
from repro.core.phase_obs import annotate_phase_span
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import PhaseExplorer, active_exploration_cache, bounded_bfs
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import span

__all__ = ["PhaseStats", "EmulatorResult", "UltraSparseEmulatorBuilder"]


@dataclass
class PhaseStats:
    """Per-phase execution statistics of the SAI construction."""

    phase: int
    num_clusters: int
    delta: float
    degree_threshold: float
    popular_centers: int = 0
    unpopular_centers: int = 0
    superclusters_formed: int = 0
    buffered_centers: int = 0
    interconnection_edges: int = 0
    superclustering_edges: int = 0

    @property
    def edges_added(self) -> int:
        """Total edges added to the emulator during this phase."""
        return self.interconnection_edges + self.superclustering_edges


@dataclass
class EmulatorResult:
    """Output of the emulator construction.

    Attributes
    ----------
    emulator:
        The weighted emulator graph ``H``.
    schedule:
        The parameter schedule the construction was run with.
    ledger:
        The edge-charging ledger (one record per inserted edge).
    phase_stats:
        Per-phase statistics in phase order.
    unclustered:
        ``U_i`` sets: map ``phase -> list of clusters`` that joined ``U_i``.
    partitions:
        The partial partitions ``P_0 .. P_{ell+1}`` (``P_{ell+1}`` is empty
        when the canonical schedule is used).
    """

    emulator: WeightedGraph
    schedule: CentralizedSchedule
    ledger: ChargeLedger
    phase_stats: List[PhaseStats]
    unclustered: Dict[int, List[Cluster]]
    partitions: List[Partition]

    @property
    def num_edges(self) -> int:
        """Number of edges in the emulator."""
        return self.emulator.num_edges

    @property
    def size_bound(self) -> float:
        """The guaranteed bound ``n^(1 + 1/kappa)``."""
        return self.schedule.max_edges

    @property
    def alpha(self) -> float:
        """Guaranteed multiplicative stretch."""
        return self.schedule.alpha

    @property
    def beta(self) -> float:
        """Guaranteed additive stretch."""
        return self.schedule.beta

    def within_size_bound(self) -> bool:
        """Whether the constructed emulator respects the paper's size bound."""
        return self.num_edges <= self.size_bound + 1e-9


class UltraSparseEmulatorBuilder:
    """Builder object running Algorithm 1 on a given graph.

    Parameters
    ----------
    graph:
        The unweighted input graph ``G``.
    schedule:
        A :class:`CentralizedSchedule`; if omitted, one is created from
        ``eps`` and ``kappa``.
    eps, kappa:
        Convenience parameters used when ``schedule`` is not supplied.
    """

    def __init__(
        self,
        graph: Graph,
        schedule: Optional[CentralizedSchedule] = None,
        *,
        eps: float = 0.1,
        kappa: float = 4.0,
    ) -> None:
        self.graph = graph
        if schedule is None:
            schedule = CentralizedSchedule(n=max(1, graph.num_vertices), eps=eps, kappa=kappa)
        if schedule.n != graph.num_vertices and graph.num_vertices > 0:
            raise ValueError(
                f"schedule built for n={schedule.n} but graph has {graph.num_vertices} vertices"
            )
        self.schedule = schedule
        self.emulator = WeightedGraph(graph.num_vertices)
        self.ledger = ChargeLedger()
        self.phase_stats: List[PhaseStats] = []
        self.unclustered: Dict[int, List[Cluster]] = {}
        self.partitions: List[Partition] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(self) -> EmulatorResult:
        """Run all phases and return the construction result."""
        n = self.graph.num_vertices
        current = Partition.singletons(n)
        self.partitions = [current]
        for phase in range(self.schedule.num_phases):
            is_last = phase == self.schedule.ell
            with span("emulator.phase", phase=phase):
                current = self._run_phase(phase, current, superclustering_allowed=not is_last)
            self.partitions.append(current)
        return EmulatorResult(
            emulator=self.emulator,
            schedule=self.schedule,
            ledger=self.ledger,
            phase_stats=self.phase_stats,
            unclustered=self.unclustered,
            partitions=self.partitions,
        )

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def _run_phase(
        self, phase: int, partition: Partition, *, superclustering_allowed: bool
    ) -> Partition:
        """Execute one phase of Algorithm 1 and return ``P_{phase+1}``.

        Centers are explored to depth ``delta`` (batched along the
        consideration order by a :class:`PhaseExplorer`); a popular center
        then widens its ball to ``2 * delta`` with :func:`bounded_bfs`,
        unless its ``delta`` ball already covers its whole component.  The
        phase's edges are inserted into ``H`` and recorded in the ledger in
        bulk at the end, in the order the algorithm adds them.
        """
        delta = self.schedule.delta(phase)
        degree_threshold = self.schedule.degree(phase)
        stats = PhaseStats(
            phase=phase,
            num_clusters=partition.num_clusters,
            delta=delta,
            degree_threshold=degree_threshold,
        )

        # Live center sets for this phase.  ``in_s`` are centers still
        # awaiting consideration; ``buffered`` maps a center in N_i to the
        # supercluster center recorded when it was parked, plus the distance
        # to that supercluster center.
        centers = partition.centers()
        in_s: Set[int] = set(centers)
        buffered: Dict[int, Tuple[int, float]] = {}
        next_partition = Partition()
        phase_unclustered: List[Cluster] = []

        # Supercluster assembly state: center -> (member clusters, radius witness).
        supercluster_members: Dict[int, List[Tuple[Cluster, float]]] = {}

        # The phase's emulator edges as ``(u, v, weight, charged_to, kind)``
        # rows in insertion order; H and the ledger take them in one call
        # each at the end of the phase.
        rows: List[ChargeRow] = []

        # Centers are explored to depth delta only: that ball defines the
        # neighbor set Gamma, and only a popular center reads the 2*delta
        # ball (Algorithm 1, lines 18-20).  Centers absorbed into a
        # supercluster leave ``in_s`` before they are reached, so the
        # explorer prefetches batched chunks along the consideration order
        # rather than exploring the whole phase up front — skipped centers
        # cost at most one wasted chunk member.
        explorer = PhaseExplorer(self.graph, centers, delta)
        radius = explorer.radius

        for center in centers:
            if center not in in_s:
                continue
            in_s.discard(center)
            cluster = partition.cluster_of_center(center)

            ball = explorer.explore(center)
            neighbors = sorted(
                (other, float(d))
                for other, d in ball.items()
                if other != center and (other in in_s or other in buffered)
            )

            # Emulator edges to every neighboring center are added in both
            # the popular and the unpopular case (Algorithm 1, lines 7-8).
            is_popular = superclustering_allowed and len(neighbors) >= degree_threshold

            if not is_popular:
                rows.extend(
                    (center, other, d, center, EdgeKind.INTERCONNECTION) for other, d in neighbors
                )
                stats.interconnection_edges += len(neighbors)
                stats.unpopular_centers += 1
                phase_unclustered.append(cluster)
                continue

            # Popular center: form a supercluster around it.
            stats.popular_centers += 1
            stats.superclusters_formed += 1
            joined: List[Tuple[Cluster, float]] = []
            for other, d in neighbors:
                rows.append((center, other, d, other, EdgeKind.SUPERCLUSTERING))
                joined.append((partition.cluster_of_center(other), d))
                in_s.discard(other)
                buffered.pop(other, None)
            stats.superclustering_edges += len(neighbors)
            supercluster_members[center] = [(cluster, 0.0)] + joined

            # Park every still-unconsidered center within distance 2*delta in
            # the buffer set N_i, remembering this supercluster as its host of
            # record (Algorithm 1, lines 18-20).  A delta ball that stopped
            # short of depth delta already holds the center's whole component.
            if radius is not None and max(ball.values()) >= radius:
                ball = bounded_bfs(self.graph, center, 2.0 * delta)
            for other, d in ball.items():
                if other in in_s:
                    in_s.discard(other)
                    buffered[other] = (center, float(d))
                    stats.buffered_centers += 1

        # End of phase: buffered centers that were never absorbed join the
        # supercluster recorded when they were parked (Algorithm 1, lines 22-26).
        for other in sorted(buffered):
            host, d = buffered[other]
            rows.append((host, other, d, other, EdgeKind.SUPERCLUSTERING))
            supercluster_members[host].append((partition.cluster_of_center(other), d))
        stats.superclustering_edges += len(buffered)

        self.emulator.add_edges(rows)
        self.ledger.record(phase, rows)

        # Materialize the superclusters of P_{phase+1}.
        for center in sorted(supercluster_members):
            pieces = supercluster_members[center]
            members: Set[int] = set()
            radius = 0.0
            for piece_cluster, d in pieces:
                members |= piece_cluster.members
                radius = max(radius, d + piece_cluster.radius)
            next_partition.add(
                Cluster(center=center, members=members, radius=radius, phase_created=phase + 1)
            )

        self.unclustered[phase] = phase_unclustered
        self.phase_stats.append(stats)
        annotate_phase_span(stats, explorer, active_exploration_cache(self.graph))
        return next_partition
