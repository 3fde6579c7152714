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
  membership lookup, used for ``P_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set

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
    """A partial partition: a collection of pairwise-disjoint clusters.

    Supports lookup of the cluster containing a vertex, lookup by center,
    and validation that clusters are indeed disjoint.
    """

    def __init__(self, clusters: Iterable[Cluster] = ()) -> None:
        self._by_center: Dict[int, Cluster] = {}
        self._vertex_to_center: Dict[int, int] = {}
        for cluster in clusters:
            self.add(cluster)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def singletons(cls, num_vertices: int) -> "Partition":
        """The phase-0 partition of ``{0 .. n-1}`` into singletons.

        Singletons are disjoint by construction, so both maps are filled
        directly instead of through :meth:`add` and its overlap check.
        """
        partition = cls()
        partition._by_center = {v: Cluster.singleton(v) for v in range(num_vertices)}
        partition._vertex_to_center = {v: v for v in range(num_vertices)}
        return partition

    def add(self, cluster: Cluster) -> None:
        """Add a cluster; raises if it overlaps an existing cluster."""
        if cluster.center in self._by_center:
            raise ValueError(f"a cluster centered at {cluster.center} already exists")
        for v in cluster.members:
            if v in self._vertex_to_center:
                raise ValueError(
                    f"vertex {v} already belongs to the cluster centered at "
                    f"{self._vertex_to_center[v]}"
                )
        self._by_center[cluster.center] = cluster
        for v in cluster.members:
            self._vertex_to_center[v] = cluster.center

    def remove(self, center: int) -> Cluster:
        """Remove and return the cluster centered at ``center``."""
        cluster = self._by_center.pop(center)
        for v in cluster.members:
            del self._vertex_to_center[v]
        return cluster

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cluster_of_center(self, center: int) -> Cluster:
        """The cluster whose center is ``center`` (KeyError if absent)."""
        return self._by_center[center]

    def cluster_of_vertex(self, vertex: int) -> Optional[Cluster]:
        """The cluster containing ``vertex``, or ``None`` if unclustered."""
        center = self._vertex_to_center.get(vertex)
        if center is None:
            return None
        return self._by_center[center]

    def has_center(self, center: int) -> bool:
        """Whether some cluster is centered at ``center``."""
        return center in self._by_center

    def covers(self, vertex: int) -> bool:
        """Whether ``vertex`` belongs to some cluster of this partition."""
        return vertex in self._vertex_to_center

    def centers(self) -> List[int]:
        """Sorted list of all cluster centers."""
        return sorted(self._by_center)

    def clusters(self) -> List[Cluster]:
        """All clusters, sorted by center ID (deterministic order)."""
        return [self._by_center[c] for c in sorted(self._by_center)]

    def covered_vertices(self) -> Set[int]:
        """The union of all clusters."""
        return set(self._vertex_to_center)

    # ------------------------------------------------------------------
    # Metrics / invariants
    # ------------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        """Number of clusters in the partial partition."""
        return len(self._by_center)

    @property
    def num_covered(self) -> int:
        """Number of vertices covered by the partial partition."""
        return len(self._vertex_to_center)

    def max_radius(self) -> float:
        """The maximum witnessed radius over all clusters (0 for empty)."""
        if not self._by_center:
            return 0.0
        return max(c.radius for c in self._by_center.values())

    def is_partition_of(self, num_vertices: int) -> bool:
        """Whether this partial partition actually covers all of ``0 .. n-1``."""
        return len(self._vertex_to_center) == num_vertices and all(
            0 <= v < num_vertices for v in self._vertex_to_center
        )

    def validate_disjoint(self) -> None:
        """Re-validate disjointness from scratch (defensive check for tests)."""
        seen: Set[int] = set()
        for cluster in self._by_center.values():
            overlap = seen & cluster.members
            if overlap:
                raise AssertionError(f"clusters overlap on vertices {sorted(overlap)[:5]}")
            seen |= cluster.members

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_center)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters())

    def __repr__(self) -> str:
        return f"Partition(clusters={len(self._by_center)}, covered={self.num_covered})"
