"""Flat-array CSR snapshots of the graph classes.

The construction and serving hot paths are dominated by graph
explorations (BFS / Dijkstra).  A CSR (compressed sparse row) snapshot
holds the whole adjacency structure in two flat buffers —

* ``indptr``: ``array('l')`` of length ``n + 1`` — vertex ``u``'s
  neighbors live at positions ``indptr[u] .. indptr[u + 1]``;
* ``indices``: ``array('i')`` of length ``2m`` — the concatenated,
  per-vertex-sorted neighbor lists

— (plus an aligned ``weights`` ``array('d')`` for the weighted variant)
so the kernels in :mod:`repro.graphs.kernels` can walk edges with flat
reads instead of per-call dictionaries, and the vectorized ones can
operate on the buffers wholesale (:func:`numpy.frombuffer` views are
zero-copy, and the same buffers back a :class:`scipy.sparse.csr_matrix`).

A snapshot is immutable.  :meth:`Graph.csr` / :meth:`WeightedGraph.csr`
make one lazily and cache it on the graph instance with the same
lifecycle as the memoized ``content_hash`` — any mutation drops the
cached snapshot and the next kernel call makes a new one.  An unweighted
:class:`~repro.graphs.graph.Graph` already stores these two arrays, so
its snapshot wraps them without a copy.  A weighted snapshot is compiled
from the weighted graph's edge columns in one numpy lexsort
(:meth:`WeightedCSRGraph.from_edges`).

Derived views (Python adjacency lists for the scalar kernels, numpy /
scipy wrappers for the vectorized ones, the unit graph the row kernel
walks in breadth-first order, the connected-component labels, and the
per-snapshot epoch workspace) are built on first use and excluded from
pickling, so a snapshot travels to worker processes as just its flat
buffers.
"""

from __future__ import annotations

from array import array
from typing import Any, List, Optional, Tuple

import numpy as _np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["CSRGraph", "WeightedCSRGraph", "buffer_view"]


def buffer_view(buffer: array):
    """A zero-copy numpy view of an ``array`` (of its typecode)."""
    if not len(buffer):  # frombuffer rejects empty buffers
        return _np.empty(0, dtype=buffer.typecode)
    return _np.frombuffer(buffer, dtype=buffer.typecode)


class CSRGraph:
    """An immutable CSR snapshot of an unweighted :class:`~repro.graphs.graph.Graph`."""

    __slots__ = ("num_vertices", "indptr", "indices", "_adjacency", "_numpy",
                 "_scipy", "_components", "_bfs_rows", "_workspace")

    def __init__(self, num_vertices: int, indptr: array, indices: array) -> None:
        self.num_vertices = num_vertices
        self.indptr = indptr
        self.indices = indices
        self._adjacency: Optional[List[List[int]]] = None
        self._numpy: Optional[Tuple[Any, Any]] = None
        self._scipy: Any = None
        self._components: Any = None
        #: Whether unbounded rows take the breadth-first-order kernel:
        #: ``None`` until :mod:`repro.graphs.kernels` decides on the first one.
        self._bfs_rows: Optional[bool] = None
        self._workspace: Any = None

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (``len(indices) / 2``)."""
        return len(self.indices) // 2

    # ------------------------------------------------------------------
    # Derived views (lazy, not pickled)
    # ------------------------------------------------------------------
    def adjacency(self) -> List[List[int]]:
        """Per-vertex sorted neighbor lists, for the scalar kernels.

        Plain Python lists are the fastest container to *iterate* from
        interpreted code; the flat buffers remain the canonical storage
        and the list view is materialized once per snapshot.
        """
        if self._adjacency is None:
            indptr, flat = self.indptr.tolist(), self.indices.tolist()
            self._adjacency = [flat[start:end] for start, end in zip(indptr, indptr[1:])]
        return self._adjacency

    def numpy_views(self):
        """Zero-copy ``(indptr, indices)`` numpy views."""
        if self._numpy is None:
            self._numpy = (buffer_view(self.indptr), buffer_view(self.indices))
        return self._numpy

    def forward_edges(self):
        """Columns ``(u, v)`` of the edges with ``u < v``, in ascending order."""
        indptr, heads = self.numpy_views()[:2]
        tails = _np.repeat(_np.arange(self.num_vertices, dtype=heads.dtype), _np.diff(indptr))
        forward = tails < heads
        return tails[forward], heads[forward]

    def scipy_matrix(self):
        """The snapshot as a unit-weight ``scipy.sparse.csr_matrix``.

        Data is float64 so :func:`scipy.sparse.csgraph.dijkstra` does not
        re-convert the matrix on every call.
        """
        if self._scipy is None:
            self._scipy = _build_scipy_matrix(self, data=None)
        return self._scipy

    def component_labels(self):
        """Each vertex's connected-component label as an int32 numpy array.

        One :func:`scipy.sparse.csgraph.connected_components` call per
        snapshot.
        """
        if self._components is None:
            self._components = connected_components(self.scipy_matrix(), directed=False)[1]
        return self._components

    def unit_matrix(self):
        """A unit-weight ``csr_matrix`` whose hop distances between vertices
        ``0 .. n - 1`` are the snapshot's distances: here, the snapshot."""
        return self.scipy_matrix()

    # ------------------------------------------------------------------
    # Pickling: ship only the flat buffers
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {"num_vertices": self.num_vertices,
                "indptr": self.indptr, "indices": self.indices}

    def __setstate__(self, state) -> None:
        self.__init__(state["num_vertices"], state["indptr"], state["indices"])

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.num_vertices}, m={self.num_edges})"


class WeightedCSRGraph(CSRGraph):
    """CSR snapshot of a :class:`~repro.graphs.weighted_graph.WeightedGraph`.

    Adds a ``weights`` buffer aligned with ``indices`` and a pair-list
    adjacency view for the scalar Dijkstra kernel.
    """

    __slots__ = ("weights", "_pairs", "_subdivision")

    def __init__(self, num_vertices: int, indptr: array, indices: array,
                 weights: array) -> None:
        super().__init__(num_vertices, indptr, indices)
        self.weights = weights
        self._pairs: Optional[List[List[Tuple[int, float]]]] = None
        self._subdivision: Any = None

    @classmethod
    def from_edges(cls, num_vertices: int, lo, hi, weights) -> "WeightedCSRGraph":
        """Compile a snapshot from edge columns: edge ``i`` joins ``lo[i]``
        and ``hi[i]`` with weight ``weights[i]``, each edge listed once.

        Both directions of every edge go through one numpy lexsort by
        ``(tail, head)``, so neighbor lists come out sorted per vertex.
        """
        tails = _np.concatenate((lo, hi))
        heads = _np.concatenate((hi, lo))
        order = _np.lexsort((heads, tails))
        indptr = _np.zeros(num_vertices + 1, dtype=_np.dtype("l"))
        _np.cumsum(_np.bincount(tails, minlength=num_vertices), out=indptr[1:])
        return cls(num_vertices, array("l", indptr.tobytes()),
                   array("i", heads[order].astype(_np.dtype("i")).tobytes()),
                   array("d", _np.concatenate((weights, weights))[order].tobytes()))

    def adjacency_pairs(self) -> List[List[Tuple[int, float]]]:
        """Per-vertex sorted ``(neighbor, weight)`` lists for the scalar kernels."""
        if self._pairs is None:
            indptr = self.indptr.tolist()
            flat = list(zip(self.indices.tolist(), self.weights.tolist()))
            self._pairs = [flat[start:end] for start, end in zip(indptr, indptr[1:])]
        return self._pairs

    def numpy_views(self):
        """Zero-copy ``(indptr, indices, weights)`` numpy views."""
        if self._numpy is None:
            self._numpy = tuple(map(buffer_view, (self.indptr, self.indices, self.weights)))
        return self._numpy

    def scipy_matrix(self):
        """The snapshot as a weighted ``scipy.sparse.csr_matrix``."""
        if self._scipy is None:
            self._scipy = _build_scipy_matrix(self, data=self.weights)
        return self._scipy

    def subdivision_size(self) -> Optional[int]:
        """Dummy vertices of the unit subdivision (``sum(w - 1)`` over the
        edges), or ``None`` when a weight is not a positive integer."""
        weights = self.numpy_views()[2]
        if not (weights >= 1).all() or (weights % 1).any():
            return None
        return int(weights.sum()) // 2 - self.num_edges

    def unit_matrix(self):
        """The unit subdivision as a ``csr_matrix``.

        Each edge of integer weight ``w`` becomes a chain of ``w - 1``
        dummy vertices, numbered from ``n`` on in edge order, so hop
        distances between original vertices equal weighted distances.
        Built once per snapshot; ``ValueError`` unless every weight is a
        positive integer (see :meth:`subdivision_size`).
        """
        if self._subdivision is None:
            self._subdivision = self._build_subdivision()
        return self._subdivision

    def _build_subdivision(self):
        dummies = self.subdivision_size()
        if dummies is None:
            raise ValueError("a unit subdivision needs positive-integer weights")
        if dummies == 0:  # every weight is 1: the snapshot itself
            return self.scipy_matrix()
        indptr, indices, weights = self.numpy_views()
        n = self.num_vertices
        tails = _np.repeat(_np.arange(n, dtype=_np.int32), _np.diff(indptr))
        forward = tails < indices
        u, v = tails[forward], indices[forward]
        links = weights[forward].astype(_np.int64)  # unit edges per chain
        # Edge e's chain u, first[e], ..., last[e], v (first > last: no dummies).
        first = n + _np.cumsum(links - 1) - (links - 1)
        last = first + links - 2
        # An original vertex keeps its degree: its entry for an edge points
        # at the other end, or at the chain's dummy next to it.  The reverse
        # entries (row v, column u) come in the edges' (v, u) order.
        backward = _np.lexsort((u, v))
        neighbor = indices.astype(_np.int64)
        neighbor[forward] = _np.where(links > 1, first, v)
        neighbor[~forward] = _np.where(links[backward] > 1, last[backward], u[backward])
        # Each dummy's two neighbors: its predecessor and successor on the chain.
        chain = _np.repeat(_np.arange(links.shape[0]), links - 1)
        dummy = _np.arange(n, n + dummies)
        before = _np.where(dummy == first[chain], u[chain], dummy - 1)
        after = _np.where(dummy == last[chain], v[chain], dummy + 1)
        size = n + dummies
        return csr_matrix(
            (_np.ones(neighbor.shape[0] + 2 * dummies),
             _np.concatenate((neighbor, _np.stack((before, after), axis=1).ravel())),
             _np.concatenate((indptr, indptr[-1] + 2 * _np.arange(1, dummies + 1)))),
            shape=(size, size),
        )

    def __getstate__(self):
        state = super().__getstate__()
        state["weights"] = self.weights
        return state

    def __setstate__(self, state) -> None:
        self.__init__(state["num_vertices"], state["indptr"], state["indices"],
                      state["weights"])


def _build_scipy_matrix(csr: CSRGraph, data: Optional[array]):
    indptr, indices = csr.numpy_views()[:2]
    values = _np.ones(len(indices)) if data is None else buffer_view(data)
    n = csr.num_vertices
    return csr_matrix((values, indices, indptr), shape=(n, n))
