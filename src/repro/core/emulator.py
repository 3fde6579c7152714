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

The builder reads only what the algorithm reads, straight from the
graph's CSR snapshot.  Each considered center takes one
:func:`repro.graphs.kernels.ball` of radius ``delta_i`` (at ``delta_0 = 1``
that is the center's adjacency row); only a popular center then reads its
``2 * delta_i`` ball for ``N_i``.  The live center set is one
``bytearray`` (gone, in ``S``, buffered) that deep balls mask through a
zero-copy numpy view.  A phase collects its edges as plain
``(u, v, weight, charged_to, kind)`` rows and hands them to ``H`` and to
the ledger in one call each when it ends, and ``P_{i+1}`` is ``P_i``
relabelled through each cluster's host (:meth:`Partition.regroup`).

:func:`neighboring_centers` reads the same per-center searches for the
builders that need every center's neighboring centers up front: the
fast emulator (Section 3.3) and the spanner (Section 4).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.charging import ChargeLedger, ChargeRow, EdgeKind
from repro.core.clusters import Cluster, Partition
from repro.core.parameters import CentralizedSchedule
from repro.core.phase_obs import annotate_phase_span
from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import span

__all__ = ["PhaseStats", "EmulatorResult", "UltraSparseEmulatorBuilder", "neighboring_centers"]

# States of a phase's vertices in the builder's bytearray: not (or no
# longer) a live center, a center in S awaiting consideration, a center
# parked in the buffer set N_i.
_GONE, _IN_S, _BUFFERED = 0, 1, 2


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
    unclustered_centers:
        ``phase -> centers`` of the clusters of ``P_phase`` that joined
        ``U_phase``, in the order they were considered;
        :attr:`unclustered` builds the clusters themselves.
    partitions:
        The partial partitions ``P_0 .. P_{ell+1}`` (``P_{ell+1}`` is empty
        when the canonical schedule is used).
    """

    emulator: WeightedGraph
    schedule: CentralizedSchedule
    ledger: ChargeLedger
    phase_stats: List[PhaseStats]
    unclustered_centers: Dict[int, List[int]]
    partitions: List[Partition]

    @property
    def unclustered(self) -> Dict[int, List[Cluster]]:
        """``U_i`` sets: map ``phase -> list of clusters`` that joined ``U_i``."""
        return {
            phase: [self.partitions[phase].cluster_of_center(c) for c in centers]
            for phase, centers in self.unclustered_centers.items()
        }

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
            schedule=self.schedule,
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
        """Execute one phase of Algorithm 1 and return ``P_{phase+1}``.

        Centers are considered in ascending order, each through one
        :func:`kernels.ball` of radius ``delta`` (the center's CSR row at
        ``delta = 1``).  A popular center then reads its ``2 * delta``
        ball, unless its ``delta`` ball already holds its whole component.
        Which centers are still in ``S`` or buffered in ``N_i`` lives in one
        ``bytearray`` indexed by vertex.  The phase's edges are inserted
        into ``H`` and recorded in the ledger in bulk at the end, in the
        order the algorithm adds them, and ``P_{phase+1}`` is ``P_phase``
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
        csr = self.graph.csr()
        radius = kernels.normalize_radius(delta)

        n = self.graph.num_vertices
        centers = partition.centers()
        state = bytearray(n)
        for center in centers:
            state[center] = _IN_S
        # host[c] = h, offset[c] = d: the cluster centered at c joins the
        # supercluster centered at h, at distance d (-1: it joins none).  A
        # buffered center's entry is its host of record, overwritten if
        # another supercluster absorbs it.
        host = array("l", [-1]) * n
        offset = array("d", bytes(8 * n))
        unpopular: List[int] = []
        # The phase's emulator edges as ``(u, v, weight, charged_to, kind)``
        # rows in insertion order; H and the ledger take them in one call
        # each at the end of the phase.
        rows: List[ChargeRow] = []
        explored = 0

        for center in centers:
            if state[center] != _IN_S:
                continue
            state[center] = _GONE
            explored += 1
            ball = kernels.ball(csr, center, radius)
            neighbors = _live_centers(ball, state)

            # Emulator edges to every neighboring center are added in both
            # the popular and the unpopular case (Algorithm 1, lines 7-8).
            is_popular = superclustering_allowed and len(neighbors) >= degree_threshold

            if not is_popular:
                rows.extend(
                    (center, other, d, center, EdgeKind.INTERCONNECTION) for other, d in neighbors
                )
                stats.interconnection_edges += len(neighbors)
                stats.unpopular_centers += 1
                unpopular.append(center)
                continue

            # Popular center: form a supercluster around it (its offset
            # stays 0: a center in S was never buffered).
            stats.popular_centers += 1
            stats.superclusters_formed += 1
            host[center] = center
            for other, d in neighbors:
                rows.append((center, other, d, other, EdgeKind.SUPERCLUSTERING))
                host[other] = center
                offset[other] = d
                state[other] = _GONE
            stats.superclustering_edges += len(neighbors)

            # Park every still-unconsidered center within distance 2*delta in
            # the buffer set N_i, with this supercluster as its host of
            # record (Algorithm 1, lines 18-20).  A delta ball that stopped
            # short of depth delta already holds the center's whole component.
            _, _, depth = ball
            if radius is not None and depth >= radius:
                ball = kernels.ball(csr, center, 2.0 * delta)
            stats.buffered_centers += _park(ball, state, center, host, offset)

        # End of phase: buffered centers that were never absorbed join the
        # supercluster recorded when they were parked (Algorithm 1, lines 22-26).
        parked = [v for v in centers if state[v] == _BUFFERED]
        rows.extend((host[v], v, offset[v], v, EdgeKind.SUPERCLUSTERING) for v in parked)
        stats.superclustering_edges += len(parked)

        self.emulator.add_edges(rows)
        self.ledger.record(phase, rows)
        self.unclustered_centers[phase] = unpopular
        self.phase_stats.append(stats)
        annotate_phase_span(stats, centers_explored=explored)
        return partition.regroup(host, offset, phase + 1)


def neighboring_centers(csr, centers: List[int], radius) -> Dict[int, List[Tuple[int, float]]]:
    """Every center's neighboring centers: the other ``centers`` within ``radius``.

    Maps each center of the ascending ``centers`` to ``(center, distance)``
    pairs by center ID — the relation every phase of the fast emulator and
    the spanner starts from.  Up to :data:`kernels.BALL_WALK_MAX_RADIUS`
    each center's :func:`kernels.ball` is filtered against a ``bytearray``
    of the centers; a deeper search is one :func:`kernels.bfs_row`, read at
    the centers only (its ball would sort all ``n`` entries first).
    """
    radius = kernels.normalize_radius(radius)
    neighborhoods = {}
    if radius is not None and radius <= kernels.BALL_WALK_MAX_RADIUS:
        state = bytearray(csr.num_vertices)
        for center in centers:
            state[center] = _IN_S
        for center in centers:
            state[center] = _GONE
            neighborhoods[center] = _live_centers(kernels.ball(csr, center, radius), state)
            state[center] = _IN_S
        return neighborhoods
    ids = np.asarray(centers, dtype=np.int64)
    for i, center in enumerate(centers):
        distances = kernels.bfs_row(csr, center, radius)[ids]
        keep = distances < np.inf
        keep[i] = False
        neighborhoods[center] = list(zip(ids[keep].tolist(), distances[keep].tolist()))
    return neighborhoods


def _live_centers(ball, state: bytearray) -> List[Tuple[int, float]]:
    """The ball's centers still in S or buffered, as ``(vertex, distance)`` by vertex."""
    vertices, distances, _ = ball
    if isinstance(vertices, list):
        # C-level filter: keep the pairs whose state byte is nonzero.
        live = list(compress(zip(vertices, distances), map(state.__getitem__, vertices)))
        live.sort()
        return live
    keep = np.frombuffer(state, dtype=np.uint8)[vertices] != _GONE
    vertices, distances = vertices[keep], distances[keep]
    order = np.argsort(vertices, kind="stable")
    return list(zip(vertices[order].tolist(), distances[order].tolist()))


def _park(ball, state: bytearray, center: int, host: array, offset: array) -> int:
    """Buffer the ball's centers still in S under ``center``; return how many."""
    vertices, distances, _ = ball
    if isinstance(vertices, list):
        parked = 0
        for v, d in zip(vertices, distances):
            if state[v] == _IN_S:
                state[v] = _BUFFERED
                host[v] = center
                offset[v] = d
                parked += 1
        return parked
    view = np.frombuffer(state, dtype=np.uint8)
    keep = view[vertices] == _IN_S
    vertices = vertices[keep]
    view[vertices] = _BUFFERED
    np.asarray(host)[vertices] = center
    np.asarray(offset)[vertices] = distances[keep]
    return len(vertices)
