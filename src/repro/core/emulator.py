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
graph's CSR snapshot, and gets each center's live neighboring centers
back in ascending vertex order, so at ``delta_0 = 1`` and in the deep
phases no center sorts, builds a dict or walks a ball.  The live center
set is one ``bytearray`` (gone, in ``S``, buffered).  At ``delta_0 = 1``
a considered center's neighboring centers are its CSR row filtered by
that bytearray.  A popular center then parks the centers of ``S`` in its
neighbours' rows: it has just absorbed every live center of its own row,
so each of those is at distance exactly 2.  Deeper phases read the
finite entries of one :func:`repro.graphs.kernels.bfs_row` per center
(ascending by construction) and mask them through the bytearray's numpy
view, and only a popular center reads its ``2 * delta_i`` row for
``N_i``.  A phase appends its edges to flat ``array`` columns
(:class:`repro.core.charging.EdgeColumns`: ``u``, ``v``, ``weight``,
``charged_to`` and a kind byte) and hands them to ``H`` and to the ledger
in one call each when it ends, and ``P_{i+1}`` is ``P_i`` relabelled
through each cluster's host (:meth:`Partition.regroup`).

:class:`NeighboringCenters` serves the builders that decide every
center's popularity up front, the fast emulator (Section 3.3) and the
spanner (Section 4).  Popularity needs only a count, so it counts first
(in numpy at radius <= 1, from each center's vertex-ordered
neighbourhood at radius 2, and beyond by one unbounded row per connected
component whenever the radius is at least twice that row's depth), and
it computes a center's list only when the center interconnects: the
centers left in ``U_i``, and every center of the final phase.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.charging import ChargeLedger, EdgeColumns
from repro.core.clusters import Cluster, Partition
from repro.core.parameters import CentralizedSchedule
from repro.core.phase_obs import annotate_phase_span
from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph
from repro.obs import span

__all__ = [
    "PhaseStats",
    "EmulatorResult",
    "UltraSparseEmulatorBuilder",
    "NeighboringCenters",
    "forest_members",
]

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

        Which centers are still in ``S`` or buffered in ``N_i`` lives in one
        ``bytearray`` indexed by vertex, seeded through its numpy view.
        Centers are considered in ascending order, each reading its live
        neighboring centers in ascending vertex order
        (:func:`_centers_within`: the center's CSR row at ``delta = 1``,
        the finite entries of one :func:`kernels.bfs_row` in deep phases).
        A popular center then parks the centers of ``S`` within
        ``2 * delta`` (:func:`_park`: its neighbours' rows at ``delta =
        1``), unless its ``delta`` ball already held its whole component.
        The phase's edges are inserted into ``H`` and recorded in the
        ledger in bulk at the end, in the order the algorithm adds them,
        and ``P_{phase+1}`` is ``P_phase`` relabelled through each
        cluster's host.
        """
        delta = self.schedule.delta(phase)
        degree_threshold = self.schedule.degree(phase)
        csr = self.graph.csr()
        radius = kernels.normalize_radius(delta)
        wide = kernels.normalize_radius(2.0 * delta)

        n = self.graph.num_vertices
        centers = partition.centers()
        state = bytearray(n)
        view = np.frombuffer(state, dtype=np.uint8)
        view[partition.center_ids()] = _IN_S
        # host[c] = h, offset[c] = d: the cluster centered at c joins the
        # supercluster centered at h, at distance d (-1: it joins none).  A
        # buffered center's entry is its host of record, overwritten if
        # another supercluster absorbs it.
        host = array("l", [-1]) * n
        offset = array("d", bytes(8 * n))
        unpopular: List[int] = []
        # The phase's emulator edges in insertion order; H and the ledger
        # take them in one call each at the end of the phase.
        edges = EdgeColumns()
        explored = interconnections = buffered = 0

        for center in centers:
            if state[center] != _IN_S:
                continue
            state[center] = _GONE
            explored += 1
            others, distances, depth = _centers_within(csr, center, radius, state)

            # Emulator edges to every neighboring center are added in both
            # the popular and the unpopular case (Algorithm 1, lines 7-8).
            is_popular = superclustering_allowed and len(others) >= degree_threshold

            if not is_popular:
                edges.interconnect(center, others, distances)
                interconnections += len(others)
                unpopular.append(center)
                continue

            # Popular center: form a supercluster around it (its offset
            # stays 0: a center in S was never buffered).
            host[center] = center
            edges.supercluster([center] * len(others), others, distances)
            for other, d in zip(others, distances):
                host[other] = center
                offset[other] = d
                state[other] = _GONE

            # Park every still-unconsidered center within distance 2*delta in
            # the buffer set N_i, with this supercluster as its host of
            # record (Algorithm 1, lines 18-20).  A delta ball that stopped
            # short of depth delta holds the center's whole component, whose
            # live centers were all just absorbed: none is left to park.
            if radius is not None and depth >= radius:
                buffered += _park(csr, center, wide, state, host, offset)

        # End of phase: buffered centers that were never absorbed join the
        # supercluster recorded when they were parked (Algorithm 1, lines
        # 22-26), in ascending order like every center loop.
        parked = np.flatnonzero(view == _BUFFERED)
        edges.supercluster(np.asarray(host)[parked].tolist(), parked.tolist(),
                           np.asarray(offset)[parked].tolist())

        popular = explored - len(unpopular)
        stats = PhaseStats(
            phase=phase,
            num_clusters=partition.num_clusters,
            delta=delta,
            degree_threshold=degree_threshold,
            popular_centers=popular,
            unpopular_centers=len(unpopular),
            superclusters_formed=popular,
            buffered_centers=buffered,
            interconnection_edges=interconnections,
            superclustering_edges=len(edges) - interconnections,
        )
        self.emulator.add_edges(edges.u, edges.v, edges.weight)
        self.ledger.record(phase, edges)
        self.unclustered_centers[phase] = unpopular
        self.phase_stats.append(stats)
        annotate_phase_span(stats, centers_explored=explored)
        return partition.regroup(host, offset, phase + 1)


def forest_members(centers: List[int], dist, root):
    """The centers a ruling forest spans, other than its roots.

    ``dist`` and ``root`` are the arrays of :func:`kernels.bfs_forest`.
    Returns ``(members, roots, distances)`` int64 arrays ordered by root,
    then by center ID: the order in which the SAI builders join each
    member's cluster to the supercluster of its tree's root.
    """
    members = np.asarray(centers, dtype=np.int64)
    members = members[dist.take(members) > 0]
    roots = root.take(members)
    by_root = np.argsort(roots, kind="stable")
    members = members.take(by_root)
    return members, roots.take(by_root), dist.take(members)


class NeighboringCenters(Mapping):
    """Each center's neighboring centers: the other ``centers`` within ``radius``.

    The relation every phase of the fast emulator and the spanner starts
    from: a read-only mapping from each center of the ascending
    ``centers`` to its neighboring centers and their distances, as two
    lists ``(others, distances)`` by center ID.
    :meth:`count` is known up front, because the popularity test reads
    only the count; a list is computed on first read, because only the
    centers that join ``U_i`` (and every center of a final phase)
    interconnect.  The counts come from the cheapest search that decides
    them:

    * radius <= 1: each center's center-neighbors, counted in numpy from
      the CSR buffers;
    * radius 2: each center's vertex-ordered neighbourhood, the rows of
      its CSR row (:func:`_centers_within`), whose list is kept;
    * deeper: one unbounded :func:`kernels.bfs_row` from each connected
      component's smallest center.  When ``radius >= 2 * ecc`` every pair
      of the component is within ``radius`` (``d(u, w) <= d(u, c) +
      d(c, w)``), so each of its ``k`` centers has ``k - 1`` neighbors and
      no other search runs until a list is read (one unbounded row then).
      Otherwise each center reads its bounded row as before (the first
      center's is the unbounded row masked at the radius), and its list
      is kept.
    """

    def __init__(self, csr, centers: List[int], radius) -> None:
        self._csr = csr
        self._centers = centers
        self._radius = kernels.normalize_radius(radius)
        self._counts: Dict[int, int] = {}
        self._lists: Dict[int, Tuple[List[int], List[float]]] = {}
        # center -> (its component's centers, the first center's distances
        # to them or None): the lists a covered component reads lazily.
        self._covered: Dict[int, tuple] = {}
        self._is_center = bytearray(csr.num_vertices)
        for center in centers:
            self._is_center[center] = 1
        if self._radius is not None and self._radius <= 1:
            self._count_adjacent(centers)
        elif self._radius == 2:
            self._walk_balls(centers)
        else:
            self._count_by_component(centers)

    def count(self, center: int) -> int:
        """How many other centers lie within the radius of ``center``."""
        return self._counts[center]

    def __getitem__(self, center: int) -> Tuple[List[int], List[float]]:
        neighbors = self._lists.get(center)
        if neighbors is None:
            if center not in self._counts:
                raise KeyError(center)
            neighbors = self._lists[center] = self._read(center)
        return neighbors

    def __iter__(self):
        return iter(self._centers)

    def __len__(self) -> int:
        return len(self._centers)

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def _count_adjacent(self, centers: List[int]) -> None:
        if self._radius == 0:
            self._counts = dict.fromkeys(centers, 0)
            return
        indptr, indices = self._csr.numpy_views()
        ids = np.asarray(centers, dtype=np.int64)
        hits = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(self._is_center, dtype=np.uint8)[indices], out=hits[1:])
        counts = hits[indptr[ids + 1]] - hits[indptr[ids]]
        self._counts = dict(zip(centers, counts.tolist()))

    def _walk_balls(self, centers: List[int]) -> None:
        state = self._is_center
        for center in centers:
            state[center] = _GONE
            others, distances, _ = _centers_within(self._csr, center, self._radius, state)
            state[center] = _IN_S
            self._lists[center] = (others, distances)
            self._counts[center] = len(others)

    def _count_by_component(self, centers: List[int]) -> None:
        if not centers:
            return
        radius = self._radius
        ids = np.asarray(centers, dtype=np.int64)
        labels = self._csr.component_labels()[ids]
        order = np.argsort(labels, kind="stable")
        groups = np.split(ids[order], np.flatnonzero(np.diff(labels[order])) + 1)
        for group in groups:
            first = int(group[0])
            if len(group) == 1:
                self._counts[first] = 0
                self._lists[first] = ([], [])
                continue
            row = kernels.bfs_row(self._csr, first)
            if radius is None or radius >= 2 * row[np.isfinite(row)].max():
                known = len(group) - 1
                for center in group.tolist():
                    self._counts[center] = known
                    self._covered[center] = (group, None)
                self._covered[first] = (group, row[group])
                continue
            for center in group.tolist():
                if center != first:
                    row = kernels.bfs_row(self._csr, center, radius)
                reach = row[group]
                keep = (reach <= radius) & (group != center)
                others = group[keep].tolist()
                self._lists[center] = (others, reach[keep].tolist())
                self._counts[center] = len(others)

    # ------------------------------------------------------------------
    # Lazy lists
    # ------------------------------------------------------------------
    def _read(self, center: int) -> Tuple[List[int], List[float]]:
        covered = self._covered.pop(center, None)
        if covered is None:  # radius <= 1 (a row never holds its own vertex)
            return _centers_within(self._csr, center, self._radius, self._is_center)[:2]
        group, reach = covered
        if reach is None:
            reach = kernels.bfs_row(self._csr, center)[group]
        keep = group != center
        return group[keep].tolist(), reach[keep].tolist()


def _centers_within(csr, center: int, radius: Optional[int], state: bytearray):
    """The centers within ``radius`` of ``center`` whose ``state`` byte is set.

    Returns ``(others, distances, depth)``: those centers in ascending
    vertex order, their distances as floats, and the depth of the
    center's ball (the largest distance of any vertex within ``radius``:
    below ``radius`` only when the ball holds the center's whole
    component).  ``radius`` is normalized (``None`` = unbounded) and
    ``center``'s own byte must be clear.  At radius <= 1 this is the
    center's CSR row, filtered; at radius 2 the rows of that row, sorted
    once; deeper, the finite entries of one :func:`kernels.bfs_row`, which
    come in vertex order.
    """
    if radius is not None and radius <= 2:
        adjacency = csr.adjacency()
        row = adjacency[center] if radius else []
        others = list(compress(row, map(state.__getitem__, row)))
        if radius < 2 or not row:
            return others, [1.0] * len(others), 1 if row else 0
        far = set(chain.from_iterable(map(adjacency.__getitem__, row)))
        far.difference_update(row)
        far.discard(center)
        pairs = sorted(chain(zip(others, repeat(1.0)),
                             zip(compress(far, map(state.__getitem__, far)), repeat(2.0))))
        return [v for v, _ in pairs], [d for _, d in pairs], 2 if far else 1
    dense = kernels.bfs_row(csr, center, radius)
    reached = np.flatnonzero(np.isfinite(dense))
    live = reached[np.frombuffer(state, dtype=np.uint8)[reached] != _GONE]
    return live.tolist(), dense[live].tolist(), int(dense[reached].max())


def _park(csr, center: int, radius: Optional[int], state: bytearray,
          host: array, offset: array) -> int:
    """Buffer the centers of S within ``radius`` of ``center`` under it; return how many.

    Every center closer than ``radius`` must already have left S: a
    popular center absorbs each live center within ``delta``, and
    ``radius`` is ``2 * delta`` clamped, so up to radius 2 that leaves
    only the centers at distance exactly ``radius``.  Those are the
    vertices of S that ``radius`` steps along the CSR rows reach, which
    the center parks straight from the rows; deeper, one
    :func:`kernels.bfs_row` finds them.  Each such center gets the same
    host and offset whichever order parks it.
    """
    if radius is not None and radius <= 2:
        adjacency = csr.adjacency()
        reach = [center]
        for _ in range(radius):
            reach = chain.from_iterable(map(adjacency.__getitem__, reach))
        distance = float(radius)
        parked = 0
        for v in reach:
            if state[v] == _IN_S:
                state[v] = _BUFFERED
                host[v] = center
                offset[v] = distance
                parked += 1
        return parked
    dense = kernels.bfs_row(csr, center, radius)
    view = np.frombuffer(state, dtype=np.uint8)
    reached = np.flatnonzero(np.isfinite(dense))
    parked = reached[view[reached] == _IN_S]
    view[parked] = _BUFFERED
    np.asarray(host)[parked] = center
    np.asarray(offset)[parked] = dense[parked]
    return len(parked)
