"""Weighted, undirected graph used to represent emulators.

An emulator ``H`` of an unweighted graph ``G`` is a weighted graph over the
same vertex set whose edge weights equal graph distances in ``G``.  This
module provides the weighted-graph container plus the Dijkstra machinery
used to evaluate distances in ``H`` when validating stretch.

The container's state is three flat columns in first-insertion order:
each edge's smaller endpoint ``lo``, larger endpoint ``hi`` and
``weight``.  The builders hand over a whole phase's edges as columns
(:meth:`WeightedGraph.add_edges`), which validates and merges them in
numpy.  Three views are caches, built on first use: a pair index for the
per-edge calls (:meth:`~WeightedGraph.add_edge`,
:meth:`~WeightedGraph.has_edge`, :meth:`~WeightedGraph.weight`), the
per-vertex maps behind :meth:`~WeightedGraph.neighbors`, and the CSR
snapshot.  A bulk insert drops them; :meth:`~WeightedGraph.add_edge`
and :meth:`~WeightedGraph.remove_edge` keep the first two current, so
inserting edge by edge stays amortized ``O(1)`` per edge.
"""

from __future__ import annotations

import heapq
from array import array
from math import inf
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.csr import WeightedCSRGraph, buffer_view

__all__ = ["WeightedGraph"]


class WeightedGraph:
    """A weighted undirected simple graph on vertices ``0 .. n-1``.

    Edge weights must be positive and finite.  Adding an edge that already
    exists keeps the *minimum* of the old and new weight, and the edge's
    first position — this is the natural semantics for emulators, where an
    edge's weight represents an upper bound on the distance between its
    endpoints.
    """

    __slots__ = ("_n", "_lo", "_hi", "_weight", "_index", "_maps", "_csr")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Tuple[int, int, float]] = (),
    ) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        self._n = num_vertices
        self._set_columns(array("l"), array("l"), array("d"))
        columns = tuple(zip(*edges))
        if columns:
            self.add_edges(*columns[:3])

    @classmethod
    def from_graph(cls, graph) -> "WeightedGraph":
        """A unit-weight copy of the unweighted ``graph``, edges in ``graph.edges()`` order."""
        tails, heads = graph.csr().forward_edges()
        copy = cls(graph.num_vertices)
        copy.add_edges(tails, heads, np.ones(len(tails)))
        return copy

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
        return len(self._lo)

    def vertices(self) -> range:
        """The vertex set ``0 .. n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate edges as ``(u, v, weight)`` with ``u < v``.

        By ``u``, and in insertion order among the edges of one ``u``.
        """
        lo, hi, weight = self._columns()
        order = np.argsort(lo, kind="stable")
        return zip(lo[order].tolist(), hi[order].tolist(), weight[order].tolist())

    def neighbors(self, u: int) -> Dict[int, float]:
        """Mapping ``neighbor -> weight`` for vertex ``u``, in insertion order (do not mutate)."""
        self._check_vertex(u)
        return self._neighbor_maps()[u]

    def degree(self, u: int) -> int:
        """Number of incident edges of ``u``."""
        return len(self.neighbors(u))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge ``(u, v)`` is present."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return self._key(u, v) in self._pair_index()

    def weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises ``KeyError`` if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        position = self._pair_index().get(self._key(u, v))
        if position is None:
            raise KeyError((u, v))
        return self._weight[position]

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
        self._check_edge(u, v, weight)
        index = self._pair_index()
        key = self._key(u, v)
        position = index.get(key)
        if position is None:
            index[key] = len(self._lo)
            self._lo.append(min(u, v))
            self._hi.append(max(u, v))
            self._weight.append(weight)
        elif weight < self._weight[position]:
            self._weight[position] = weight
        else:
            return False
        if self._maps is not None:
            self._maps[u][v] = self._maps[v][u] = float(weight)
        self._csr = None
        return position is None

    def add_edges(self, u: Sequence[int], v: Sequence[int], weight: Sequence[float]) -> int:
        """Add the edges ``(u[i], v[i])`` of weight ``weight[i]`` in order, like :meth:`add_edge`.

        The three columns are equal-length sequences (lists, ``array``s or
        numpy arrays).  Duplicates keep their first position and the
        minimum weight.  Every edge is validated before anything is
        inserted, so a bad edge raises the same ``ValueError`` as
        :meth:`add_edge` would on the first one and leaves the graph
        unchanged.  Returns the number of new edges.

        A call re-sorts every column, ``O((m + k) log(m + k))`` for ``k``
        new rows on ``m`` edges, and drops the caches: insert whole phases,
        not many small batches (:meth:`add_edge` is the per-edge path).
        """
        u = np.asarray(u, dtype="l")
        v = np.asarray(v, dtype="l")
        weight = np.asarray(weight, dtype=np.float64)
        if not len(u) == len(v) == len(weight):
            raise ValueError(
                f"edge columns differ in length: {len(u)}, {len(v)} and {len(weight)}")
        if not len(u):
            return 0
        n = self._n
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v) | ~((weight > 0) & (weight < inf))
        if bad.any():
            first = int(bad.argmax())
            self._check_edge(int(u[first]), int(v[first]), float(weight[first]))
        old_lo, old_hi, old_weight = self._columns()
        lo = np.concatenate((old_lo, np.minimum(u, v)))
        hi = np.concatenate((old_hi, np.maximum(u, v)))
        weight = np.concatenate((old_weight, weight))
        # Group equal pairs: each keeps its first position and its lightest weight.
        keys = lo * n + hi
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        lightest = np.minimum.reduceat(weight[order], starts)
        first = order[starts]
        placed = np.argsort(first)
        first, lightest = first[placed], lightest[placed]
        created = len(first) - len(old_lo)
        self._set_columns(array("l", lo[first].tobytes()), array("l", hi[first].tobytes()),
                          array("d", lightest.tobytes()))
        return created

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove edge ``(u, v)``; returns ``True`` if it was present.

        ``O(m)``: the later edges move up one position in the columns, and
        their entries in the pair index with them.
        """
        if not self.has_edge(u, v):
            return False
        index = self._pair_index()
        position = index.pop(self._key(u, v))
        lo, hi = self._lo, self._hi
        del lo[position], hi[position], self._weight[position]
        n = self._n
        for moved in range(position, len(lo)):
            index[lo[moved] * n + hi[moved]] = moved
        if self._maps is not None:
            del self._maps[u][v], self._maps[v][u]
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
        the cached CSR snapshot; a walk over the neighbor maps survives
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
            for v, w in self.neighbors(u).items():
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
        g._set_columns(array("l", self._lo), array("l", self._hi), array("d", self._weight))
        # CSR snapshots are immutable and safe to share between copies.
        g._csr = self._csr
        return g

    def csr(self):
        """The flat-array snapshot (:class:`repro.graphs.csr.WeightedCSRGraph`).

        Compiled on first use from the columns, cached on the instance, and
        dropped by any mutation — the same lifecycle as :meth:`Graph.csr`.
        """
        if self._csr is None:
            self._csr = WeightedCSRGraph.from_edges(self._n, *self._columns())
        return self._csr

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"_n": self._n, "_lo": self._lo, "_hi": self._hi, "_weight": self._weight}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # pre-1.4 slots pickle: (None, slot dict)
            state = state[1]
        self._n = state["_n"]
        if "_adj" not in state:
            self._set_columns(state["_lo"], state["_hi"], state["_weight"])
            return
        # A dict-of-dicts pickle: its edges() order becomes the column
        # order, and its dicts are the neighbor maps as they were.
        self._set_columns(array("l"), array("l"), array("d"))
        for u, neighbors in enumerate(state["_adj"]):
            for v, w in neighbors.items():
                if u < v:
                    self._lo.append(u)
                    self._hi.append(v)
                    self._weight.append(w)
        self._maps = state["_adj"]

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise ValueError(f"vertex {u} out of range [0, {self._n})")

    def _check_edge(self, u: int, v: int, weight: float) -> None:
        """The one validation of an inserted edge (``ValueError`` if bad)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        if not 0 < weight < inf:
            raise ValueError(f"edge weight must be positive and finite, got {weight}")

    def _set_columns(self, lo: array, hi: array, weight: array) -> None:
        """Replace the columns and drop every cache built from them."""
        self._lo, self._hi, self._weight = lo, hi, weight
        self._index: Optional[Dict[int, int]] = None
        self._maps: Optional[List[Dict[int, float]]] = None
        self._csr = None

    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy numpy views of ``(lo, hi, weight)``."""
        return buffer_view(self._lo), buffer_view(self._hi), buffer_view(self._weight)

    def _key(self, u: int, v: int) -> int:
        """The pair index's key of edge ``(u, v)``."""
        return u * self._n + v if u < v else v * self._n + u

    def _pair_index(self) -> Dict[int, int]:
        """Cache: each edge's key -> its position in the columns."""
        if self._index is None:
            n = self._n
            self._index = {lo * n + hi: i for i, (lo, hi) in enumerate(zip(self._lo, self._hi))}
        return self._index

    def _neighbor_maps(self) -> List[Dict[int, float]]:
        """Cache: per-vertex ``neighbor -> weight`` maps in insertion order."""
        if self._maps is None:
            maps: List[Dict[int, float]] = [{} for _ in range(self._n)]
            for lo, hi, w in zip(self._lo, self._hi, self._weight):
                maps[lo][hi] = w
                maps[hi][lo] = w
            self._maps = maps
        return self._maps
