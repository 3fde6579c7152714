"""Unweighted, undirected simple graph over integer vertex IDs.

The emulator and spanner constructions of the paper operate on unweighted
undirected graphs whose vertices are labelled ``0 .. n-1``.  This module
provides a small, dependency-free adjacency-list representation tuned for
the access patterns of those algorithms (neighbor iteration, bounded BFS,
membership queries) plus conversion to and from :mod:`networkx` for
interoperability with generators and validation code.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Set, Tuple

__all__ = ["Graph"]


class Graph:
    """An unweighted, undirected simple graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_vertices:
        Number of vertices.  Vertices are always the integers
        ``0, 1, ..., num_vertices - 1``.
    edges:
        Optional iterable of ``(u, v)`` pairs to add on construction.

    Notes
    -----
    Self-loops are rejected and parallel edges are silently deduplicated,
    matching the simple-graph model of the paper.
    """

    __slots__ = ("_n", "_adj", "_num_edges", "_hash", "_csr")

    def __init__(self, num_vertices: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        self._n = num_vertices
        self._adj: List[Set[int]] = [set() for _ in range(num_vertices)]
        self._num_edges = 0
        self._hash: "str | None" = None
        self._csr = None
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    def vertices(self) -> range:
        """Iterate the vertex set ``0 .. n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate edges as pairs ``(u, v)`` with ``u < v``, in ascending order.

        The order depends on the edge set alone, not on how the neighbor
        sets were built, so it survives a pickle round trip.
        """
        for u in range(self._n):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        self._check_vertex(u)
        return len(self._adj[u])

    def neighbors(self, u: int) -> Set[int]:
        """The neighbor set of ``u`` (do not mutate)."""
        self._check_vertex(u)
        return self._adj[u]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``(u, v)`` is present."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already existed.
        Raises ``ValueError`` for self-loops or out-of-range endpoints.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._hash = None
        self._csr = None
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the edge ``(u, v)``; returns ``True`` if it was present."""
        if not self.has_edge(u, v):
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        self._hash = None
        self._csr = None
        return True

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent copy of this graph."""
        g = Graph(self._n)
        g._adj = [set(neigh) for neigh in self._adj]
        g._num_edges = self._num_edges
        # Same content, so the memoized digest stays valid; the CSR
        # snapshot is immutable and safe to share (a later mutation only
        # drops the mutated instance's reference).
        g._hash = self._hash
        g._csr = self._csr
        return g

    def subgraph_edges(self, edge_list: Iterable[Tuple[int, int]]) -> "Graph":
        """Return a graph on the same vertex set containing only ``edge_list``."""
        return Graph(self._n, edge_list)

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph is connected)."""
        if self._n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self._n

    def connected_components(self) -> List[List[int]]:
        """Return the connected components as sorted vertex lists."""
        seen: Set[int] = set()
        components: List[List[int]] = []
        for start in range(self._n):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.append(v)
                        stack.append(v)
            components.append(sorted(comp))
        return components

    def content_hash(self) -> str:
        """Canonical SHA-256 fingerprint of the graph's content.

        Two graphs get the same hash exactly when they are equal (same
        vertex count, same edge set) — edge insertion order, removals, and
        the identity of the Python object are irrelevant.  This is the
        graph half of the content-addressed result-cache key
        (:mod:`repro.api.cache`), so it must stay stable across processes
        and interpreter versions; only the graph content goes in.

        The digest is memoized after the first computation and dropped by
        :meth:`add_edge` / :meth:`remove_edge` — a sweep hashes the same
        graph once per record, and re-sorting every adjacency list each
        time dominated cache-key cost.
        """
        if self._hash is not None:
            return self._hash
        digest = hashlib.sha256()
        digest.update(f"n={self._n}".encode("ascii"))
        for u in range(self._n):
            for v in sorted(self._adj[u]):
                if u < v:
                    digest.update(f";{u},{v}".encode("ascii"))
        self._hash = digest.hexdigest()
        return self._hash

    def csr(self):
        """The graph's flat-array CSR snapshot (:class:`repro.graphs.csr.CSRGraph`).

        Compiled on first use and cached on the instance with the same
        lifecycle as the memoized :meth:`content_hash`: any mutation
        drops the snapshot, the next kernel call recompiles it.  The
        snapshot is immutable — callers may hold it across calls.
        """
        if self._csr is None:
            from repro.graphs.csr import CSRGraph

            self._csr = CSRGraph.from_graph(self)
        return self._csr

    def degree_histogram(self) -> Dict[int, int]:
        """Map degree value -> number of vertices with that degree."""
        hist: Dict[int, int] = {}
        for u in range(self._n):
            d = len(self._adj[u])
            hist[d] = hist.get(d, 0) + 1
        return hist

    # ------------------------------------------------------------------
    # Interoperability
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (vertices 0..n-1)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build a :class:`Graph` from a networkx graph.

        Vertices are relabelled to ``0 .. n-1`` in sorted order of the
        original labels (which must be sortable).
        """
        nodes = sorted(nx_graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        g = cls(len(nodes))
        for u, v in nx_graph.edges():
            if u == v:
                continue
            g.add_edge(index[u], index[v])
        return g

    @classmethod
    def from_edge_list(cls, num_vertices: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """Construct from an explicit edge list."""
        return cls(num_vertices, edges)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __getstate__(self):
        # Only the graph content travels; the memoized digest and CSR
        # snapshot are rebuilt on demand in the receiving process.
        return {"_n": self._n, "_adj": self._adj, "_num_edges": self._num_edges}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # pre-1.4 slots pickle: (None, slot dict)
            state = state[1]
        self._n = state["_n"]
        self._adj = state["_adj"]
        self._num_edges = state["_num_edges"]
        self._hash = None
        self._csr = None

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < self._n

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._num_edges})"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise ValueError(f"vertex {u} out of range [0, {self._n})")
