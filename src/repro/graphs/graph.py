"""Unweighted, undirected simple graph over integer vertex IDs.

The emulator and spanner constructions of the paper operate on unweighted
undirected graphs whose vertices are labelled ``0 .. n-1``, and every
builder reads the graph through its CSR (compressed sparse row) arrays.
So :class:`Graph` *is* those arrays:

* ``indptr``: ``array('l')`` of length ``n + 1`` -- vertex ``u``'s
  neighbors live at positions ``indptr[u] .. indptr[u + 1]``;
* ``indices``: ``array('i')`` of length ``2m`` -- the concatenated,
  per-vertex-sorted neighbor lists.

The arrays are never mutated in place.  Construction validates and
ingests a whole edge list in numpy (one sort of the directed keys
``u * n + v``), and :meth:`Graph.add_edges` merges a batch the same way.
The per-edge :meth:`Graph.add_edge` / :meth:`Graph.remove_edge` write a
small per-vertex edit overlay instead, which :meth:`Graph.has_edge`,
:meth:`Graph.neighbors` and :meth:`Graph.degree` merge on read and
:meth:`Graph.csr` folds into new arrays with one numpy merge.  The CSR
snapshot wraps the arrays without a copy, and a pickle ships just the
two arrays.  Conversion to and from :mod:`networkx` is kept for
interoperability with generators and validation code.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from itertools import chain
from operator import index
from typing import Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph, buffer_view

__all__ = ["Graph"]

#: Edges per ``update`` call of :meth:`Graph.content_hash`: bounds the
#: formatted text held at once.
_HASH_CHUNK = 1 << 16

#: Per-vertex edit overlay: ``edits[u][v]`` is ``True`` for an edge added
#: to the arrays' edge set and ``False`` for one removed from it.
_Edits = Dict[int, Dict[int, bool]]


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
    Self-loops and out-of-range endpoints are rejected with a
    ``ValueError`` and non-integer endpoints with a ``TypeError``;
    parallel edges are silently deduplicated, matching the simple-graph
    model of the paper.
    """

    __slots__ = ("_n", "_state", "_num_edges", "_hash", "_csr")

    def __init__(self, num_vertices: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be non-negative, got {num_vertices}")
        self._n = num_vertices
        self._set_arrays(array("l", bytes(array("l").itemsize * (num_vertices + 1))),
                         array("i"), 0)
        endpoints = _endpoints(edges)
        if len(endpoints):
            self.add_edges(endpoints[0::2], endpoints[1::2])

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

        The order depends on the edge set alone, not on how it was built,
        so it survives a pickle round trip.
        """
        tails, heads = self.csr().forward_edges()
        return zip(tails.tolist(), heads.tolist())

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        self._check_vertex(u)
        indptr, _, edits = self._state
        edited = edits.get(u)
        degree = indptr[u + 1] - indptr[u]
        if edited:
            degree += sum(1 if added else -1 for added in edited.values())
        return degree

    def neighbors(self, u: int) -> Set[int]:
        """The neighbor set of ``u``: a fresh set, the caller's to keep."""
        self._check_vertex(u)
        indptr, indices, edits = self._state
        neighbors = set(indices[indptr[u]:indptr[u + 1]])
        for v, added in edits.get(u, {}).items():
            if added:
                neighbors.add(v)
            else:
                neighbors.discard(v)
        return neighbors

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``(u, v)`` is present."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        indptr, indices, edits = self._state
        edited = edits.get(u)
        if edited is not None and v in edited:
            return edited[v]
        end = indptr[u + 1]
        position = bisect_left(indices, v, indptr[u], end)
        return position < end and indices[position] == v

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Add the undirected edge ``(u, v)``.

        Returns ``True`` if the edge was new, ``False`` if it already existed.
        Raises ``ValueError`` for self-loops or out-of-range endpoints.
        """
        u, v = index(u), index(v)
        self._check_edge(u, v)
        if self.has_edge(u, v):
            return False
        self._edit(u, v, True)
        self._num_edges += 1
        return True

    def add_edges(self, u, v) -> int:
        """Add the edges ``(u[i], v[i])``, like :meth:`add_edge` on each.

        ``u`` and ``v`` are equal-length integer sequences (lists,
        ``array``s or numpy arrays).  Every edge is validated before
        anything is inserted, so a bad edge raises the error
        :meth:`add_edge` would raise on the first one and leaves the graph
        unchanged.  Returns the number of new edges.

        A call re-sorts every edge, ``O((m + k) log(m + k))`` for ``k``
        new edges on ``m``: insert whole batches, not many small ones
        (:meth:`add_edge` is the per-edge path).
        """
        u, v = np.asarray(u), np.asarray(v)
        if len(u) != len(v):
            raise ValueError(f"edge columns differ in length: {len(u)} and {len(v)}")
        if not len(u):
            return 0
        if "O" in (u.dtype.kind, v.dtype.kind):  # e.g. an endpoint beyond int64
            for a, b in zip(u.tolist(), v.tolist()):
                self._check_edge(index(a), index(b))
        for column in (u, v):
            if column.dtype.kind not in "iubO":
                raise TypeError(f"edge endpoints must be integers, got {column.dtype}")
        n = self._n
        outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        given = u, v  # a uint64 endpoint beyond int64 wraps in the cast below
        u, v = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False)
        bad = outside | (u == v)
        if bad.any():
            first = int(bad.argmax())
            self._check_edge(int(given[0][first]), int(given[1][first]))
        keys = np.concatenate((_directed_keys(n, *self._arrays()), u * n + v, v * n + u))
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        created = len(keys) // 2 - self._num_edges
        if created:
            self._set_arrays(*_csr_arrays(n, keys), self._num_edges + created)
        return created

    def remove_edge(self, u: int, v: int) -> bool:
        """Remove the edge ``(u, v)``; returns ``True`` if it was present."""
        u, v = index(u), index(v)
        if not self.has_edge(u, v):
            return False
        self._edit(u, v, False)
        self._num_edges -= 1
        return True

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent copy of this graph."""
        g = Graph.__new__(Graph)
        indptr, indices, edits = self._state
        # The arrays are never mutated in place, so the copy shares them;
        # only the edit overlay is copied.
        g._n, g._num_edges = self._n, self._num_edges
        g._state = (indptr, indices, {u: dict(edited) for u, edited in edits.items()})
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
        return not self._n or not self.csr().component_labels().any()

    def connected_components(self) -> List[List[int]]:
        """Return the connected components as sorted vertex lists."""
        if not self._n:
            return []
        labels = self.csr().component_labels()
        members = np.argsort(labels, kind="stable")  # ascending within a component
        return [part.tolist() for part in
                np.split(members, np.cumsum(np.bincount(labels))[:-1])]

    def content_hash(self) -> str:
        """Canonical SHA-256 fingerprint of the graph's content.

        Two graphs get the same hash exactly when they are equal (same
        vertex count, same edge set) — edge insertion order, removals, and
        the identity of the Python object are irrelevant.  This is the
        graph half of the content-addressed result-cache key
        (:mod:`repro.api.cache`), so it must stay stable across processes
        and interpreter versions; only the graph content goes in: the text
        ``n=<n>`` followed by ``;<u>,<v>`` for every edge in
        :meth:`edges` order.

        The digest is memoized after the first computation and dropped by
        any mutation — a sweep hashes the same graph once per record.
        """
        if self._hash is not None:
            return self._hash
        digest = hashlib.sha256()
        digest.update(f"n={self._n}".encode("ascii"))
        tails, heads = self.csr().forward_edges()
        for start in range(0, len(tails), _HASH_CHUNK):
            chunk = zip(tails[start:start + _HASH_CHUNK].tolist(),
                        heads[start:start + _HASH_CHUNK].tolist())
            digest.update("".join([f";{u},{v}" for u, v in chunk]).encode("ascii"))
        self._hash = digest.hexdigest()
        return self._hash

    def csr(self):
        """The graph's flat-array CSR snapshot (:class:`repro.graphs.csr.CSRGraph`).

        Wraps the graph's arrays without a copy, after folding any pending
        edits into new ones.  Cached on the instance with the same
        lifecycle as the memoized :meth:`content_hash`: any mutation drops
        the snapshot.  The snapshot is immutable — callers may hold it
        across calls.
        """
        if self._csr is None:
            self._csr = CSRGraph(self._n, *self._arrays())
        return self._csr

    def degree_histogram(self) -> Dict[int, int]:
        """Map degree value -> number of vertices with that degree."""
        counts = np.bincount(np.diff(self.csr().numpy_views()[0]))
        return {degree: int(count) for degree, count in enumerate(counts.tolist()) if count}

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
        position = {node: i for i, node in enumerate(nodes)}
        return cls(len(nodes), [(position[u], position[v])
                                for u, v in nx_graph.edges() if u != v])

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
        indptr, indices = self._arrays()
        return {"_n": self._n, "_indptr": indptr, "_indices": indices}

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # pre-1.4 slots pickle: (None, slot dict)
            state = state[1]
        if "_adj" in state:  # a list-of-sets pickle: each vertex's neighbor set
            self.__init__(state["_n"], [(u, v) for u, neighbors in enumerate(state["_adj"])
                                        for v in neighbors if u < v])
            return
        self._n = state["_n"]
        self._set_arrays(state["_indptr"], state["_indices"], len(state["_indices"]) // 2)

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < self._n

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._n == other._n and self._num_edges == other._num_edges
                and self._arrays() == other._arrays())

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._num_edges})"

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self._n):
            raise ValueError(f"vertex {u} out of range [0, {self._n})")

    def _check_edge(self, u: int, v: int) -> None:
        """The one validation of an inserted edge (``ValueError`` if bad)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (vertex {u})")

    def _set_arrays(self, indptr: array, indices: array, num_edges: int) -> None:
        """Install new arrays with an empty overlay; drop the caches."""
        # One attribute holds the arrays and the overlay, so a reader (or
        # a concurrent fold) never sees new arrays with the old overlay.
        self._state = (indptr, indices, {})
        self._num_edges = num_edges
        self._hash = None
        self._csr = None

    def _edit(self, u: int, v: int, added: bool) -> None:
        """Record the insertion (``added``) or removal of edge ``(u, v)``."""
        edits = self._state[2]
        for a, b in ((u, v), (v, u)):
            edited = edits.setdefault(a, {})
            if edited.pop(b, None) is None:  # a re-edit cancels the first
                edited[b] = added
            elif not edited:
                del edits[a]
        self._hash = None
        self._csr = None

    def _arrays(self) -> Tuple[array, array]:
        """``(indptr, indices)`` with the edit overlay folded in."""
        indptr, indices, edits = self._state
        if edits:
            n = self._n
            keys = _directed_keys(n, indptr, indices)
            removed = _edit_keys(n, edits, False)
            if len(removed):
                keys = keys[~np.isin(keys, removed, assume_unique=True)]
            keys = np.concatenate((keys, _edit_keys(n, edits, True)))
            keys.sort()
            indptr, indices = _csr_arrays(n, keys)
            self._state = (indptr, indices, {})
        return indptr, indices


# ----------------------------------------------------------------------
# Array helpers
# ----------------------------------------------------------------------
def _endpoints(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """``edges`` flattened to ``u0, v0, u1, v1, ...`` as an int64 array.

    A non-integer endpoint raises ``TypeError``, an item that is not a
    pair the ``ValueError`` of unpacking it.  An endpoint beyond int64
    makes an object array, which :meth:`Graph.add_edges` checks edge by
    edge (so it reports the vertex out of range).
    """
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    if set(map(len, edges)) - {2}:
        for u, v in edges:  # raises on the first item that is not a pair
            pass
    flat = list(chain.from_iterable(edges))
    packed = array("q")
    try:
        packed.fromlist(flat)  # faster than array(iterable)
    except OverflowError:
        return np.array(flat, dtype=object)
    return buffer_view(packed)


def _directed_keys(n: int, indptr: array, indices: array) -> np.ndarray:
    """The sorted keys ``u * n + v`` of every CSR entry (both directions)."""
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(buffer_view(indptr)))
    return tails * n + buffer_view(indices)


def _edit_keys(n: int, edits: _Edits, added: bool) -> np.ndarray:
    """The keys ``u * n + v`` of the overlay's added (or removed) entries."""
    return np.fromiter((u * n + v for u, edited in edits.items()
                        for v, state in edited.items() if state is added), np.int64)


def _csr_arrays(n: int, keys: np.ndarray) -> Tuple[array, array]:
    """``(indptr, indices)`` of the sorted, distinct directed keys."""
    tails = keys // n if n else keys
    indptr = np.zeros(n + 1, dtype=np.dtype("l"))
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    return _pack("l", indptr), _pack("i", keys - tails * n)


def _pack(typecode: str, values: np.ndarray) -> array:
    """``values`` copied into an ``array`` of ``typecode``."""
    packed = array(typecode)
    packed.frombytes(np.ascontiguousarray(values, dtype=typecode).view(np.uint8))
    return packed

