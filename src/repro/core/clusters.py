"""Cluster and partial-partition machinery used by the SAI constructions.

The superclustering-and-interconnection (SAI) approach maintains, for each
phase ``i``, a *partial partition* ``P_i`` of the vertex set into clusters,
each with a designated center.  Superclusters built in phase ``i`` become the
clusters of ``P_{i+1}``; clusters that are never superclustered drop out of
the partial partition (they join the sets ``U_i``), which is why the
partition is partial.

This module provides:

* :class:`Cluster` — an immutable-by-convention cluster with a center, a
  member set, and a radius witness (the distance in the emulator built so
  far from the center to the farthest member);
* :class:`Partition` — a collection of pairwise-disjoint clusters with
  membership lookup, used for ``P_i``.  It is stored as flat arrays (a
  center label per vertex, a radius and a creation phase per center):
  ``P_0`` costs ``O(n)`` array fills, Algorithm 1 forms ``P_{i+1}`` by
  relabelling ``P_i`` (:meth:`Partition.regroup`), and the
  :class:`Cluster` views are built only when a caller reads them.  The
  other builders still assemble partitions cluster by cluster with
  :meth:`Partition.add`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set

import numpy as _np

__all__ = ["Cluster", "Partition"]


@dataclass
class Cluster:
    """A cluster of the partial partition ``P_i``.

    Attributes
    ----------
    center:
        The designated center vertex ``r_C`` (always a member).
    members:
        The vertex set of the cluster.
    radius:
        An upper bound on ``max_{v in C} d_H(r_C, v)`` maintained by the
        construction (the *witnessed* radius, used by the radius-bound
        invariant tests).
    phase_created:
        The phase in which this cluster was formed (0 for singletons).
    """

    center: int
    members: Set[int] = field(default_factory=set)
    radius: float = 0.0
    phase_created: int = 0

    def __post_init__(self) -> None:
        if not self.members:
            self.members = {self.center}
        if self.center not in self.members:
            raise ValueError(
                f"cluster center {self.center} must be a member of the cluster"
            )

    @classmethod
    def singleton(cls, vertex: int) -> "Cluster":
        """A phase-0 singleton cluster ``{v}`` centered at ``v``."""
        return cls(center=vertex, members={vertex}, radius=0.0, phase_created=0)

    @property
    def size(self) -> int:
        """Number of vertices in the cluster."""
        return len(self.members)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def frozen_members(self) -> FrozenSet[int]:
        """An immutable snapshot of the member set."""
        return frozenset(self.members)

    def merged_with(
        self,
        others: Iterable["Cluster"],
        new_center: Optional[int] = None,
        radius: Optional[float] = None,
        phase_created: Optional[int] = None,
    ) -> "Cluster":
        """Return a new supercluster containing this cluster and ``others``.

        Parameters
        ----------
        others:
            The clusters merged into the supercluster.
        new_center:
            Center of the supercluster (defaults to this cluster's center).
        radius:
            Radius witness of the supercluster; defaults to the maximum of
            the constituent radii (callers normally pass the proper bound).
        phase_created:
            Phase index recorded on the new cluster.
        """
        center = self.center if new_center is None else new_center
        members = set(self.members)
        max_radius = self.radius
        for other in others:
            members |= other.members
            max_radius = max(max_radius, other.radius)
        if center not in members:
            raise ValueError(f"new center {center} is not a member of the merged cluster")
        return Cluster(
            center=center,
            members=members,
            radius=max_radius if radius is None else radius,
            phase_created=self.phase_created if phase_created is None else phase_created,
        )

    def __repr__(self) -> str:
        return (
            f"Cluster(center={self.center}, size={len(self.members)}, "
            f"radius={self.radius}, phase={self.phase_created})"
        )


class Partition:
    """A partial partition: pairwise-disjoint clusters kept as flat arrays.

    ``center_of[v]`` is the center of the cluster holding vertex ``v``
    (``-1`` when ``v`` is uncovered); each center ``c`` has its witnessed
    radius at ``radius[c]`` and its phase at ``phase_created[c]``.  A
    vertex carries one label, so clusters are disjoint by construction.
    :class:`Cluster` objects are built only when a caller reads them: all
    at once, by one pass over ``center_of``, and cached until the
    partition changes.  A partition pickles as its arrays.
    """

    def __init__(self, clusters: Iterable[Cluster] = ()) -> None:
        self._center_of = array("l")
        self._radius = array("d")
        self._phase = array("l")
        self._centers = array("l")  # ascending
        self._num_covered = 0
        self._clusters: Optional[Dict[int, Cluster]] = None
        for cluster in clusters:
            self.add(cluster)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def singletons(cls, num_vertices: int) -> "Partition":
        """The phase-0 partition of ``{0 .. n-1}`` into singletons."""
        partition = cls()
        partition._grow(num_vertices)  # radius 0.0 and phase 0 everywhere
        partition._center_of = array("l", range(num_vertices))
        partition._centers = array("l", partition._center_of)
        partition._num_covered = num_vertices
        return partition

    def add(self, cluster: Cluster) -> None:
        """Add a cluster; raises if it overlaps an existing cluster.

        Radii are stored as floats.
        """
        center = cluster.center
        if self.has_center(center):
            raise ValueError(f"a cluster centered at {center} already exists")
        if min(cluster.members) < 0:
            raise ValueError(f"cluster {cluster!r} has a negative vertex")
        self._grow(max(cluster.members) + 1)
        center_of = self._center_of
        for v in cluster.members:
            if center_of[v] >= 0:
                raise ValueError(
                    f"vertex {v} already belongs to the cluster centered at {center_of[v]}"
                )
        for v in cluster.members:
            center_of[v] = center
        self._radius[center] = cluster.radius
        self._phase[center] = cluster.phase_created
        insort(self._centers, center)
        self._num_covered += len(cluster.members)
        self._clusters = None

    def remove(self, center: int) -> Cluster:
        """Remove and return the cluster centered at ``center``."""
        cluster = self.cluster_of_center(center)
        for v in cluster.members:
            self._center_of[v] = -1
        del self._centers[bisect_left(self._centers, center)]
        self._num_covered -= len(cluster.members)
        del self._clusters[center]
        return cluster

    def regroup(self, host: array, offset: array, phase_created: int) -> "Partition":
        """The partition of superclusters assembled from this one's clusters.

        ``host`` and ``offset`` are indexed by vertex: the cluster centered
        at ``c`` joins the supercluster centered at ``host[c]``, at distance
        ``offset[c]`` from it, or drops out when ``host[c]`` is ``-1``.
        Every host hosts itself at distance 0.  A supercluster's radius is
        the largest ``offset[c] + radius[c]`` over its pieces.  Every vertex
        is relabelled in one array pass.
        """
        n = len(self._center_of)
        host_of = _np.asarray(host)
        centers = _np.asarray(self._centers)
        pieces = centers[host_of[centers] >= 0]
        hosts = host_of[pieces]
        lookup = _np.full(n, -1, dtype="l")
        lookup[pieces] = hosts
        labels = _np.asarray(self._center_of)
        relabelled = _np.where(labels >= 0, lookup[labels], -1)
        radius = _np.zeros(n)
        reach = _np.asarray(offset)[pieces] + _np.asarray(self._radius)[pieces]
        _np.maximum.at(radius, hosts, reach)
        phase = _np.zeros(n, dtype="l")
        phase[hosts] = phase_created
        result = Partition()
        result._center_of = array("l", relabelled.tobytes())
        result._radius = array("d", radius.tobytes())
        result._phase = array("l", phase.tobytes())
        result._centers = array("l", _np.unique(hosts).tobytes())
        result._num_covered = int(_np.count_nonzero(relabelled >= 0))
        return result

    def _grow(self, size: int) -> None:
        """Extend the vertex-indexed arrays to ``size`` entries."""
        extra = size - len(self._center_of)
        if extra > 0:
            self._center_of.extend(array("l", [-1]) * extra)
            self._radius.extend(array("d", bytes(self._radius.itemsize * extra)))
            self._phase.extend(array("l", bytes(self._phase.itemsize * extra)))

    def _grouped(self) -> Dict[int, Cluster]:
        """Every cluster by center: member sets grouped in one pass."""
        if self._clusters is None:
            members: Dict[int, Set[int]] = {c: set() for c in self._centers}
            for v, c in enumerate(self._center_of):
                if c >= 0:
                    members[c].add(v)
            radius, phase = self._radius, self._phase
            self._clusters = {
                c: Cluster(center=c, members=vs, radius=radius[c], phase_created=phase[c])
                for c, vs in members.items()
            }
        return self._clusters

    def __getstate__(self) -> Dict[str, object]:
        return dict(self.__dict__, _clusters=None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cluster_of_center(self, center: int) -> Cluster:
        """The cluster whose center is ``center`` (KeyError if absent)."""
        return self._grouped()[center]

    def cluster_of_vertex(self, vertex: int) -> Optional[Cluster]:
        """The cluster containing ``vertex``, or ``None`` if unclustered."""
        if not self.covers(vertex):
            return None
        return self._grouped()[self._center_of[vertex]]

    def has_center(self, center: int) -> bool:
        """Whether some cluster is centered at ``center``."""
        return 0 <= center < len(self._center_of) and self._center_of[center] == center

    def covers(self, vertex: int) -> bool:
        """Whether ``vertex`` belongs to some cluster of this partition."""
        return 0 <= vertex < len(self._center_of) and self._center_of[vertex] >= 0

    def centers(self) -> List[int]:
        """Sorted list of all cluster centers."""
        return self._centers.tolist()

    def clusters(self) -> List[Cluster]:
        """All clusters, sorted by center ID (deterministic order)."""
        return list(self._grouped().values())

    def covered_vertices(self) -> Set[int]:
        """The union of all clusters."""
        return {v for v, c in enumerate(self._center_of) if c >= 0}

    # ------------------------------------------------------------------
    # Metrics / invariants
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Number of clusters in the partial partition."""
        return len(self._centers)

    @property
    def num_covered(self) -> int:
        """Number of vertices covered by the partial partition."""
        return self._num_covered

    def max_radius(self) -> float:
        """The maximum witnessed radius over all clusters (0 for empty)."""
        return max((self._radius[c] for c in self._centers), default=0.0)

    def is_partition_of(self, num_vertices: int) -> bool:
        """Whether this partial partition actually covers all of ``0 .. n-1``."""
        return self._num_covered == num_vertices and all(
            c < 0 for c in self._center_of[num_vertices:]
        )

    def validate_disjoint(self) -> None:
        """Re-derive the clusters from the labels and check they are disjoint.

        Each center must label itself (a center labelled otherwise would lie
        in two clusters), each label must name a center, and the labels
        must cover exactly ``num_covered`` vertices.
        """
        center_of = self._center_of
        centers = set(self._centers)
        if len(centers) != len(self._centers):
            raise AssertionError("a center is listed twice")
        for c in self._centers:
            if not self.has_center(c):
                label = center_of[c] if c < len(center_of) else -1
                raise AssertionError(
                    f"clusters overlap on vertex {c}: it is a center but labelled {label}"
                )
        covered = 0
        for v, c in enumerate(center_of):
            if c >= 0:
                if c not in centers:
                    raise AssertionError(f"vertex {v} is labelled {c}, which is not a center")
                covered += 1
        if covered != self._num_covered:
            raise AssertionError(f"{covered} vertices labelled, {self._num_covered} recorded")

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._centers)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters())

    def __repr__(self) -> str:
        return f"Partition(clusters={self.num_clusters}, covered={self.num_covered})"
