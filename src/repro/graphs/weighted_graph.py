"""Weighted, undirected graph used to represent emulators.

An emulator ``H`` of an unweighted graph ``G`` is a weighted graph over the
same vertex set whose edge weights equal graph distances in ``G``.  This
module provides the weighted-graph container plus the Dijkstra machinery
used to evaluate distances in ``H`` when validating stretch.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = ["WeightedGraph"]


class WeightedGraph:
    """A weighted undirected simple graph on vertices ``0 .. n-1``.

    Edge weights must be positive.  Adding an edge that already exists keeps
    the *minimum* of the old and new weight — this is the natural semantics
    for emulators, where an edge's weight represents an upper bound on the
    distance between its endpoints.
    """

    __slots__ = ("_n", "_adj", "_num_edges", "_csr")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, float]] = (),
    ) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        self._n = num_vertices
        self._adj: List[Dict[int, float]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0
        self._csr = None
        self.add_edges(edges)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) weighted edges."""
        return self._num_edges

    def vertices(self) -> range:
        """The vertex set ``0 .. n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate edges as ``(u, v, weight)`` with ``u < v``."""
        for u in range(self._n):
            for v, w in self._adj[u].items():
                if u < v:
                    yield (u, v, w)

    def neighbors(self, u: int) -> Dict[int, float]:
        """Mapping ``neighbor -> weight`` for vertex ``u`` (do not mutate)."""
        self._check_vertex(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        """Number of incident edges of ``u``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge ``(u, v)`` is present."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises ``KeyError`` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._adj[u][v]

    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, weight: float) -> bool:
        """Add edge ``(u, v)`` with ``weight``; keep the minimum on duplicates.

        Returns ``True`` if a new edge was created, ``False`` if an existing
        edge was kept (possibly with a reduced weight).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if v in self._adj[u]:
            if weight < self._adj[u][v]:
                self._adj[u][v] = weight
                self._adj[v][u] = weight
                self._csr = None
            return False
        self._adj[u][v] = weight
        self._adj[v][u] = weight
        self._num_edges += 1
        self._csr = None
        return True

    def add_edges(self, rows: Iterable[Sequence]) -> int:
        """Add every ``(u, v, weight, ...)`` row in order, like :meth:`add_edge`.

        Columns past the weight are ignored, so a builder's charge rows can
        be passed as they are.  Duplicates keep the minimum weight.  Every
        row is validated before anything is inserted, so a bad row raises
        the same ``ValueError`` as :meth:`add_edge` and leaves the graph
        unchanged.  Returns the number of new edges.
        """
        rows = list(rows)
        n = self._n
        for row in rows:
            u, v, weight = row[0], row[1], row[2]
            if not (0 <= u < n and 0 <= v < n):
                self._check_vertex(u)
                self._check_vertex(v)
            if u == v:
                raise ValueError(f"self-loops are not allowed (vertex {u})")
            if weight <= 0:
                raise ValueError(f"edge weight must be positive, got {weight}")
        adj = self._adj
        created = 0
        for row in rows:
            u, v, weight = row[0], row[1], row[2]
            neighbors = adj[u]
            old = neighbors.get(v)
            if old is None:
                neighbors[v] = weight
                adj[v][u] = weight
                created += 1
            elif weight < old:
                neighbors[v] = weight
                adj[v][u] = weight
        if rows:
            self._num_edges += created
            self._csr = None
        return created

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge ``(u, v)``; returns ``True`` if it was present."""
        if not self.has_edge(u, v):
            return False
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1
        self._csr = None
        return True

    # ------------------------------------------------------------------
    # Shortest paths (Dijkstra) on the weighted graph
    # ------------------------------------------------------------------
    def dijkstra(self, source: int, max_distance: Optional[float] = None) -> Dict[int, float]:
        """Single-source shortest-path distances from ``source``.

        Parameters
        ----------
        source:
            The source vertex.
        max_distance:
            If given, vertices farther than this are not reported and the
            search is pruned at that radius.  ``inf`` is the same as
            ``None``; NaN and negative values raise ``ValueError``.

        Returns
        -------
        dict
            Mapping ``vertex -> distance`` for every reachable vertex within
            the radius.

        Notes
        -----
        Runs on the flat-array kernels (:mod:`repro.graphs.kernels`) over
        the cached CSR snapshot; the legacy dict-of-dicts walk survives
        as :meth:`_dict_dijkstra`, the reference implementation of the
        kernel equivalence suite.
        """
        self._check_vertex(source)
        from repro.graphs import kernels

        return kernels.dijkstra(self.csr(), source, max_distance)

    def _dict_dijkstra(
        self, source: int, max_distance: Optional[float] = None
    ) -> Dict[int, float]:
        """Reference dict-based Dijkstra (tests and benchmarks only)."""
        self._check_vertex(source)
        dist: Dict[int, float] = {source: 0.0}
        heap: List[Tuple[float, int]] = [(0.0, source)]
        settled: Dict[int, float] = {}
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            for v, w in self._adj[u].items():
                nd = d + w
                if max_distance is not None and nd > max_distance:
                    continue
                if v not in settled and nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return settled

    def distance(self, u: int, v: int) -> float:
        """Exact distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0.0
        dist = self.dijkstra(u)
        return dist.get(v, float("inf"))

    def distances_from(self, source: int) -> Dict[int, float]:
        """Alias for :meth:`dijkstra` without a radius bound."""
        return self.dijkstra(source)

    # ------------------------------------------------------------------
    # Interoperability
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a weighted :class:`networkx.Graph`."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_weighted_edges_from(self.edges())
        return g

    def copy(self) -> "WeightedGraph":
        """Return an independent copy."""
        g = WeightedGraph(self._n)
        g._adj = [dict(neigh) for neigh in self._adj]
        g._num_edges = self._num_edges
        # CSR snapshots are immutable and safe to share between copies.
        g._csr = self._csr
        return g

    def csr(self):
        """The flat-array snapshot (:class:`repro.graphs.csr.WeightedCSRGraph`).

        Compiled on first use, cached on the instance, and dropped by any
        mutation — the same lifecycle as :meth:`Graph.csr`.
        """
        if self._csr is None:
            from repro.graphs.csr import WeightedCSRGraph

            self._csr = WeightedCSRGraph.from_weighted_graph(self)
        return self._csr

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"_n": self._n, "_adj": self._adj, "_num_edges": self._num_edges}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # pre-1.4 slots pickle: (None, slot dict)
            state = state[1]
        self._n = state["_n"]
        self._adj = state["_adj"]
        self._num_edges = state["_num_edges"]
        self._csr = None

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self._n}, m={self._num_edges})"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise ValueError(f"vertex {u} out of range [0, {self._n})")
