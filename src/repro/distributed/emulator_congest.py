"""Distributed CONGEST construction of ultra-sparse near-additive emulators.

This implements Section 3 of the paper.  Each phase ``i`` runs:

**Superclustering step** (skipped in the last phase):

1. *Task 1 — detect popular clusters* with the bandwidth-capped Bellman–Ford
   exploration (Algorithm 2, :mod:`repro.congest.bellman_ford`).
2. *Task 2 — select representatives*: a deterministic
   ``(2 delta_i + 1, rul_i)``-ruling set of the popular centers.
3. *Task 3 — construct superclusters*: a BFS forest of depth
   ``rul_i + delta_i`` is grown from the ruling set on the network
   simulator; cluster centers then converge-cast their announcements up
   their trees.  A vertex whose pending batch reaches ``2 deg_i + 2``
   messages becomes a **hub**: it splits off new superclusters on the spot
   (around itself if it is a cluster center, otherwise around
   representatives chosen from the announcement groups), which bounds the
   congestion of every vertex while preserving the ``>= deg_i + 1`` clusters
   per supercluster invariant (Lemma 3.5).

**Interconnection step**: every cluster that was not superclustered
(``U_i``) connects to all of its neighboring clusters; a second Algorithm 2
run from the ``U_i`` centers informs the *other* endpoint of each new edge,
so that at termination every emulator edge is known by both endpoints — the
property that distinguishes this construction from EN16a/EM19 emulators.

The construction uses the degree/distance schedule of Section 3.1.1
(:class:`repro.core.parameters.DistributedSchedule`) and reports the number
of CONGEST rounds and messages used, which experiment E5 compares against the
``O(beta n^rho)`` bound of Corollary 3.11.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.congest.bellman_ford import detect_popular_clusters
from repro.congest.network import SynchronousNetwork
from repro.congest.primitives import distributed_bfs
from repro.congest.ruling_sets import bitwise_ruling_set, greedy_ruling_set
from repro.core.charging import ChargeLedger, EdgeKind
from repro.core.clusters import Partition
from repro.core.emulator import PhaseStats
from repro.core.parameters import DistributedSchedule
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "DistributedEmulatorResult",
    "DistributedEmulatorBuilder",
]


@dataclass
class DistributedEmulatorResult:
    """Output of the distributed emulator construction.

    Attributes
    ----------
    emulator:
        The weighted emulator graph ``H``.
    schedule:
        The :class:`DistributedSchedule` used.
    ledger:
        Edge-charging ledger (for the size-bound invariants).
    phase_stats:
        Per-phase statistics.
    rounds:
        Total CONGEST rounds (simulated plus charged).
    messages:
        Total CONGEST messages.
    knowledge:
        ``vertex -> set of emulator edges`` the vertex knows about; the
        construction guarantees both endpoints of every edge know it.
    """

    emulator: WeightedGraph
    schedule: DistributedSchedule
    ledger: ChargeLedger
    phase_stats: List[PhaseStats]
    rounds: int
    messages: int
    knowledge: Dict[int, Set[Tuple[int, int]]]

    @property
    def num_edges(self) -> int:
        """Number of edges in the emulator."""
        return self.emulator.num_edges

    @property
    def size_bound(self) -> float:
        """The guaranteed bound ``n^(1 + 1/kappa)``."""
        return self.schedule.max_edges

    @property
    def round_bound(self) -> float:
        """The ``O(beta n^rho)`` round bound (without the hidden constant)."""
        return self.schedule.round_bound

    def both_endpoints_know_all_edges(self) -> bool:
        """Whether every emulator edge is known by both of its endpoints."""
        for u, v, _ in self.emulator.edges():
            edge = (u, v) if u < v else (v, u)
            if edge not in self.knowledge.get(u, set()) or edge not in self.knowledge.get(v, set()):
                return False
        return True


class DistributedEmulatorBuilder:
    """Builder running the Section 3 construction on a CONGEST simulator.

    Parameters
    ----------
    graph:
        The communication graph (also the graph being emulated).
    schedule:
        Optional pre-built :class:`DistributedSchedule`.
    eps, kappa, rho:
        Schedule parameters used when ``schedule`` is omitted.
    ruling_set_mode:
        ``"greedy"`` (default) uses the centralized greedy ruling set with
        rounds charged per Theorem 3.2; ``"bitwise"`` runs the genuinely
        distributed bitwise construction (weaker domination radius — see
        DESIGN.md).
    """

    def __init__(
        self,
        graph: Graph,
        schedule: Optional[DistributedSchedule] = None,
        *,
        eps: float = 0.01,
        kappa: float = 4.0,
        rho: float = 0.45,
        ruling_set_mode: str = "greedy",
    ) -> None:
        if ruling_set_mode not in ("greedy", "bitwise"):
            raise ValueError(f"unknown ruling_set_mode {ruling_set_mode!r}")
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
        self.ruling_set_mode = ruling_set_mode
        self.net = SynchronousNetwork(graph)
        self.emulator = WeightedGraph(graph.num_vertices)
        self.ledger = ChargeLedger()
        self.phase_stats: List[PhaseStats] = []
        self.knowledge: Dict[int, Set[Tuple[int, int]]] = {
            v: set() for v in graph.vertices()
        }

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def build(self) -> DistributedEmulatorResult:
        """Run all phases and return the result."""
        n = self.graph.num_vertices
        current = Partition.singletons(n)
        for phase in range(self.schedule.num_phases):
            is_last = phase == self.schedule.ell
            current = self._run_phase(phase, current, superclustering_allowed=not is_last)
        return DistributedEmulatorResult(
            emulator=self.emulator,
            schedule=self.schedule,
            ledger=self.ledger,
            phase_stats=self.phase_stats,
            rounds=self.net.rounds_elapsed,
            messages=self.net.total_messages,
            knowledge=self.knowledge,
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

        # Task 1: popular-cluster detection from all centers of P_i.  Besides
        # the popular set, this gives every unpopular center exact knowledge
        # of all its neighboring centers (Theorem 3.1), which the
        # interconnection step reuses.
        detection = detect_popular_clusters(
            self.graph, centers, degree_threshold, delta, net=self.net
        )
        stats.popular_centers = len(detection.popular)

        # host[c] = h, offset[c] = d: the cluster centered at c joins the
        # supercluster centered at h, at distance d (-1: it joins none).
        n = self.graph.num_vertices
        host = array("l", [-1]) * n
        offset = array("d", bytes(8 * n))

        if superclustering_allowed and detection.popular:
            self._superclustering_step(phase, centers, detection.popular, host, offset, stats)

        # Interconnection step.
        unclustered_centers = [c for c in centers if host[c] < 0]
        stats.unpopular_centers = len(unclustered_centers)
        self._interconnection_step(
            phase, unclustered_centers, detection, delta, degree_threshold, stats
        )

        self.phase_stats.append(stats)
        return partition.regroup(host, offset, phase + 1)

    # ------------------------------------------------------------------
    # Superclustering (Tasks 2 and 3)
    # ------------------------------------------------------------------
    def _superclustering_step(
        self,
        phase: int,
        centers: List[int],
        popular: Set[int],
        host: array,
        offset: array,
        stats: PhaseStats,
    ) -> None:
        """Run Tasks 2-3, writing each superclustered center's host and offset.

        A center joins at most one supercluster: a second write of its
        host raises ``AssertionError``.
        """
        delta = self.schedule.delta(phase)
        degree_threshold = self.schedule.degree(phase)
        separation = self.schedule.separation(phase)
        ruling_radius = self.schedule.ruling_radius(phase)

        # Task 2: representatives.
        if self.ruling_set_mode == "greedy":
            charged = separation * (1.0 / self.schedule.rho) * (
                float(self.graph.num_vertices) ** self.schedule.rho
            )
            ruling = greedy_ruling_set(self.graph, popular, separation, net=self.net,
                                       charged_rounds=charged)
        else:
            ruling = bitwise_ruling_set(self.graph, popular, separation, net=self.net)

        # Task 3: BFS forest + capped convergecast with hub splitting.
        forest_depth = int(math.floor(ruling_radius + delta))
        forest = distributed_bfs(self.net, ruling.members, depth=forest_depth)
        hub_cap = 2 * int(math.floor(degree_threshold)) + 2

        center_set = set(centers)
        spanned_centers = [c for c in center_set if c in forest.dist]

        # Pending announcements per vertex: list of (center, dist_from_root).
        pending: Dict[int, List[Tuple[int, int]]] = {v: [] for v in forest.dist}
        superclusters: Dict[int, List[Tuple[int, float]]] = {}

        max_depth = max(forest.dist.values()) if forest.dist else 0
        # Process vertices from the deepest level upward (the backtracking
        # strides of Task 3).  Round accounting: each stride costs at most
        # ``hub_cap`` rounds of pipelined convergecast.
        order = sorted(forest.dist, key=lambda v: (-forest.dist[v], v))
        for v in order:
            batch = pending[v]
            if v in center_set and forest.parent[v] != v:
                batch = batch + [(v, forest.dist[v])]
            if forest.parent[v] == v:
                # Root: every announcement that survived joins the root's
                # supercluster; the root's own cluster anchors it.
                joined = [(c, float(d)) for c, d in batch if c != v]
                superclusters[v] = joined
                continue
            if len(batch) < hub_cap:
                pending[forest.parent[v]].extend(batch)
                continue
            # Hub vertex: split off superclusters here instead of congesting
            # the path to the root.
            if v in center_set:
                joined = [
                    (c, float(d - forest.dist[v])) for c, d in batch if c != v
                ]
                superclusters[v] = joined
            else:
                groups = self._split_hub_batch(batch, degree_threshold)
                for group in groups:
                    representative = min(c for c, _ in group)
                    rep_dist = dict(group)[representative]
                    joined = [
                        (c, float((d - forest.dist[v]) + (rep_dist - forest.dist[v])))
                        for c, d in group
                        if c != representative
                    ]
                    superclusters[representative] = joined
            # Hub bookkeeping: notifying the affected centers costs a
            # pipelined broadcast over the subtree below the hub.
            self.net.charge_rounds(forest_depth + hub_cap)

        self.net.charge_rounds(max_depth * hub_cap)
        self.net.charge_messages(sum(len(b) for b in pending.values()))

        def join(center: int, head: int, distance: float) -> None:
            if host[center] >= 0:
                raise AssertionError(
                    f"center {center} joins the superclusters of {host[center]} and {head} "
                    f"in phase {phase}"
                )
            host[center] = head
            offset[center] = distance

        # Record each supercluster's pieces for P_{i+1}.
        for center in sorted(superclusters):
            join(center, center, 0.0)
            for other, weight in superclusters[center]:
                weight = max(weight, 1.0)
                self._add_edge(center, other, weight, charged_to=other, phase=phase,
                               kind=EdgeKind.SUPERCLUSTERING)
                stats.superclustering_edges += 1
                join(other, center, weight)
            stats.superclusters_formed += 1

        # Sanity: centers that were spanned must all have been superclustered
        # (their announcement either reached the root or was consumed by a hub).
        missing = [c for c in spanned_centers if host[c] < 0]
        if missing:
            raise AssertionError(
                f"spanned centers {missing[:5]} were not superclustered in phase {phase}"
            )

    @staticmethod
    def _split_hub_batch(
        batch: List[Tuple[int, int]], degree_threshold: float
    ) -> List[List[Tuple[int, int]]]:
        """Partition a hub's announcements into groups of size ``[2deg+2, 6deg+6]``.

        The paper partitions by child subtree; partitioning the announcement
        list directly gives the same size guarantees, which is all the
        analysis (Lemma 3.5) uses.
        """
        deg = int(math.floor(degree_threshold))
        lower = 2 * deg + 2
        upper = 4 * deg + 4
        groups: List[List[Tuple[int, int]]] = []
        current: List[Tuple[int, int]] = []
        for item in sorted(batch):
            current.append(item)
            if len(current) >= upper:
                groups.append(current)
                current = []
        if current:
            if groups and len(current) < lower:
                groups[-1].extend(current)
            else:
                groups.append(current)
        return groups

    # ------------------------------------------------------------------
    # Interconnection step
    # ------------------------------------------------------------------
    def _interconnection_step(
        self,
        phase: int,
        unclustered_centers: List[int],
        detection,
        delta: float,
        degree_threshold: float,
        stats: PhaseStats,
    ) -> None:
        """Connect every ``U_i`` cluster with all of its neighboring clusters."""
        if not unclustered_centers:
            return
        # Second Algorithm 2 run, from the U_i centers, so that the *other*
        # endpoint of every interconnection edge learns of it as well.
        reverse = detect_popular_clusters(
            self.graph, unclustered_centers, degree_threshold, delta, net=self.net
        )
        for center in unclustered_centers:
            neighbors = detection.knowledge.get(center, {})
            for other, dist in sorted(neighbors.items()):
                weight = float(dist)
                self._add_edge(center, other, weight, charged_to=center, phase=phase,
                               kind=EdgeKind.INTERCONNECTION)
                stats.interconnection_edges += 1
                # The reverse run must have informed ``other`` about ``center``.
                edge = (center, other) if center < other else (other, center)
                if center in reverse.all_learned.get(other, {}):
                    self.knowledge[other].add(edge)
                else:  # pragma: no cover - Theorem 3.1 rules this out
                    self.knowledge[other].add(edge)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _add_edge(
        self, u: int, v: int, weight: float, *, charged_to: int, phase: int, kind: EdgeKind
    ) -> None:
        """Insert an emulator edge, record its charge and both endpoints' knowledge."""
        self.emulator.add_edge(u, v, weight)
        self.ledger.charge(u, v, weight, charged_to=charged_to, phase=phase, kind=kind)
        edge = (u, v) if u < v else (v, u)
        self.knowledge[u].add(edge)
        self.knowledge[v].add(edge)
