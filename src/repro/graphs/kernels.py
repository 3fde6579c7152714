"""Flat-array exploration kernels over CSR snapshots.

Every construction in the paper is, at runtime, a pile of (bounded) BFS
explorations from cluster centers; the serving layer answers queries with
single-source searches.  These kernels run those explorations on the flat
buffers of :class:`~repro.graphs.csr.CSRGraph` instead of
``List[Set[int]]`` adjacency with ``Dict[int, int]`` frontiers: distances
live in preallocated buffers, and an **epoch-stamped visited buffer**
replaces the per-call membership dict (bumping one integer invalidates
the whole buffer, so no per-call ``O(n)`` clear and no per-call
allocation).  Results are converted to plain dicts only at the boundary,
matching the signatures in :mod:`repro.graphs.shortest_paths`.  The
serving layer skips that conversion: :func:`bfs_row` and
:func:`dijkstra_row` return a dense float64 row (``inf`` for unreached
vertices), bit for bit the row of :func:`scipy.sparse.csgraph.dijkstra`
(see *Rows* below).  The construction phases read one center's
neighbourhood at a time (see *Phase explorations* below).

Each call picks its path from its radius and the snapshot's size alone:

* a bounded search runs a scalar level-synchronous loop over the
  snapshot's adjacency-list view — output-sensitive (cost proportional
  to the explored ball, like the dict implementations), so a radius-2
  ball on a large graph does not pay for a dense ``n``-vector;
* an unbounded search on at least :data:`VECTOR_MIN_VERTICES` vertices
  runs the C row kernels below over a ``csr_matrix`` sharing the same
  buffers and converts the row to a dict; multi-source BFS runs a
  vectorized level-synchronous expansion over zero-copy
  :func:`numpy.frombuffer` views of the CSR buffers instead;
* hop-limited Bellman–Ford vectorizes from
  :data:`HOP_VECTOR_MIN_VERTICES` vertices.

Smaller unbounded searches stay on the scalar loops, where per-call
vectorization overhead outweighs the saved per-edge work.  The tests
cover both sides of each selection by monkeypatching its threshold.

Rows
----
A bounded row is one :func:`scipy.sparse.csgraph.dijkstra` call with a
``limit`` (a Fibonacci-heap search that stops at the bound).  An
unbounded row is cheaper as one :func:`scipy.sparse.csgraph.breadth_first_order`
over the snapshot's unit graph, with hop distances rebuilt from the
order and its predecessors in ``log2(levels)`` numpy passes; a weighted
snapshot with positive-integer weights walks its unit subdivision (each
weight-``w`` edge a chain of ``w - 1`` dummy vertices).  Each snapshot
picks once, from its weights and its first row (:func:`_unbounded_row`):
long, thin graphs (paths, narrow grids, ring lattices) and heavy
subdivisions keep the heap, where it measured faster.  Both kernels give
the same row bit for bit.

Determinism
-----------
Distances are unique, and multi-source origins are canonical: ties are
broken toward the **smallest source ID** on every path.  (With sources
enqueued in ascending order, the scalar frontier stays grouped by
origin, so the first claimer of a vertex carries the minimum origin
among its predecessors; the vectorized expansion computes that minimum
directly.  Both equal the dict implementation's documented behaviour.)
Dict *iteration order* is canonical too: BFS, multi-source and Dijkstra
results iterate in ascending ``(distance, vertex)`` order on every
path, so seeded consumers that materialize an order (e.g. workload
generators sampling a BFS ball) do not depend on which path answered.

Phase explorations
------------------
Every construction phase reads, for each cluster center, the other
centers within one radius.  The builders want them in ascending vertex
order, so they read the snapshot directly
(:func:`repro.core.emulator._centers_within`): at radius <= 1 the
center's adjacency row, at radius 2 the rows of that row, deeper the
finite entries of one :func:`bfs_row`, which :func:`numpy.flatnonzero`
returns in vertex order.  Algorithm 1 reads it once per considered
center and parks a popular center's ``2 * delta`` neighbours from the
same rows, and the baselines take :func:`bfs_row` or
:func:`bounded_bfs` directly.  :func:`ball` returns a ball in the
canonical ``(distance, vertex)`` order instead; the seeded ``local``
query workload reads one per source, and its streams depend on that
order.  The fast emulator and the spanner read
:class:`repro.core.emulator.NeighboringCenters`, which counts before it
lists: past radius 2 it runs one unbounded :func:`bfs_row` per
connected component (labels from
:meth:`~repro.graphs.csr.CSRGraph.component_labels`), and a component
whose every pair lies within the radius needs no other search until a
center's list is read.  There is no batching layer and no cross-build
cache, because per-center searches measured faster and lighter than
both.  :func:`multi_source_bfs` covers the call sites that only need
Voronoi-style nearest-source assignments (see
:func:`repro.graphs.shortest_paths.multi_source_attributed`): one pass
returning each vertex's closest source and distance with the documented
smallest-source-ID tie-break.  The one exception to the canonical order
is :func:`hop_limited`, whose vectorized path emits ascending vertex
order while the scalar loop in :mod:`repro.hopsets.bounded_hop` emits
discovery order — its consumers are lookup-only.

The ruling-forest trees of the fast emulator and the spanner come from
:func:`bfs_forest`: one breadth-first order over the snapshot extended
by a virtual root, returned as ``(parent, dist, root)`` arrays that equal
the first-in first-out dict forest, parents included.
"""

from __future__ import annotations

import threading
from heapq import heappop, heappush
from math import floor, inf, isinf, isnan
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import breadth_first_order as _scipy_bfs_order
from scipy.sparse.csgraph import dijkstra as _scipy_csgraph_dijkstra

from repro.graphs.csr import CSRGraph, WeightedCSRGraph

__all__ = [
    "bfs_distances",
    "bounded_bfs",
    "multi_source_bfs",
    "bfs_forest",
    "dijkstra",
    "bfs_row",
    "dijkstra_row",
    "finite_entries",
    "ball",
    "hop_limited",
    "normalize_radius",
    "normalize_max_distance",
]

#: Unbounded searches below this vertex count stay on the scalar loops:
#: per-call vectorization overhead beats the saved per-edge work there.
VECTOR_MIN_VERTICES = 2048
#: Hop-limited Bellman–Ford vectorizes earlier: its per-round work is
#: O(frontier edges) with float arithmetic, which the scalar loop pays
#: dearly for.
HOP_VECTOR_MIN_VERTICES = 512

#: Weighted-Dijkstra epsilon matching the hop-limited Bellman–Ford
#: tolerance in :mod:`repro.hopsets.bounded_hop`.
_EPS = 1e-12


def normalize_radius(radius) -> Optional[int]:
    """Clamp an exploration radius once, up front.

    ``None`` and ``+inf`` mean unbounded.  Distances on unweighted graphs
    are integers, so a float radius is equivalent to ``floor(radius)``;
    clamping here (instead of comparing floats in the hot loop) is both
    faster and explicit.  Negative radii are rejected — an exploration of
    negative depth is a caller bug, not an empty result.
    """
    if radius is None:
        return None
    if isinstance(radius, float):
        if isnan(radius):
            raise ValueError("radius must not be NaN")
        if isinf(radius):
            if radius < 0:
                raise ValueError(f"radius must be non-negative, got {radius}")
            return None
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return int(floor(radius))


def normalize_max_distance(max_distance) -> Optional[float]:
    """The weighted-search bound as a float, or ``None`` for unbounded.

    The Dijkstra counterpart of :func:`normalize_radius`: ``None`` and
    ``+inf`` mean unbounded (so ``inf`` takes the same kernels as
    ``None``); NaN and negative bounds raise ``ValueError``.
    """
    if max_distance is None:
        return None
    limit = float(max_distance)
    if isnan(limit):
        raise ValueError("max_distance must not be NaN")
    if limit < 0:
        raise ValueError(f"max_distance must be non-negative, got {max_distance}")
    return None if isinf(limit) else limit


# ----------------------------------------------------------------------
# Epoch-stamped workspace
# ----------------------------------------------------------------------
class _Workspace:
    """Preallocated per-snapshot, per-thread buffers reused by kernel calls.

    ``stamp[v] == epoch`` means "visited in the current call"; bumping
    ``epoch`` invalidates every entry at once.  The scalar and vectorized
    kernels keep separate stamp buffers but share the epoch counter, so
    a buffer can never observe a stale stamp as current.
    """

    __slots__ = ("n", "epoch", "stamp", "origin", "dist", "settled",
                 "np_stamp", "np_origin", "np_dist")

    def __init__(self, n: int) -> None:
        self.n = n
        self.epoch = 0
        self.stamp = [0] * n
        self.origin = [0] * n
        self.dist = [0.0] * n
        self.settled = [0] * n
        self.np_stamp = None
        self.np_origin = None
        self.np_dist = None

    def next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch

    def numpy_buffers(self):
        if self.np_stamp is None:
            self.np_stamp = _np.zeros(self.n, dtype=_np.int64)
            self.np_origin = _np.zeros(self.n, dtype=_np.int64)
            self.np_dist = _np.zeros(self.n, dtype=_np.float64)
        return self.np_stamp, self.np_origin, self.np_dist


def _workspace(csr: CSRGraph) -> _Workspace:
    """The calling thread's workspace for ``csr``.

    One per thread: concurrent kernel calls on one snapshot (a serving
    engine computing misses for different sources) must not share the
    stamp and distance buffers.
    """
    local = csr._workspace
    if local is None:
        local = csr._workspace = threading.local()
    ws = getattr(local, "ws", None)
    if ws is None or ws.n != csr.num_vertices:
        ws = local.ws = _Workspace(csr.num_vertices)
    return ws


def _check_source(csr: CSRGraph, source: int) -> None:
    if not (0 <= source < csr.num_vertices):
        raise ValueError(f"source {source} not in graph")


# ----------------------------------------------------------------------
# Single-source BFS
# ----------------------------------------------------------------------
def bfs_distances(csr: CSRGraph, source: int, *, as_float: bool = False) -> Dict[int, int]:
    """Hop distances from ``source`` to every reachable vertex."""
    return bounded_bfs(csr, source, None, as_float=as_float)


def bounded_bfs(
    csr: CSRGraph, source: int, radius=None, *, as_float: bool = False
) -> Dict[int, int]:
    """Hop distances from ``source`` to all vertices within ``radius``.

    ``radius=None`` (or ``inf``) is unbounded; float radii are clamped to
    ``floor(radius)`` once up front; negative radii raise ``ValueError``.
    With ``as_float=True`` the values are floats (for the serving layer,
    which speaks float distances throughout).
    """
    _check_source(csr, source)
    r = normalize_radius(radius)
    if r is None and csr.num_vertices >= VECTOR_MIN_VERTICES:
        return _dense_to_dict(bfs_row(csr, source), as_float)
    return _scalar_bfs(csr, source, r, as_float)


def _scalar_bfs(csr: CSRGraph, source: int, r: Optional[int], as_float: bool) -> Dict:
    adjacency = csr.adjacency()
    ws = _workspace(csr)
    stamp = ws.stamp
    epoch = ws.next_epoch()
    stamp[source] = epoch
    out = {source: 0.0 if as_float else 0}
    frontier = [source]
    depth = 0
    while frontier and (r is None or depth < r):
        depth += 1
        reached: List[int] = []
        append = reached.append
        for u in frontier:
            for v in adjacency[u]:
                if stamp[v] != epoch:
                    stamp[v] = epoch
                    append(v)
        if not reached:
            break
        reached.sort()
        value = float(depth) if as_float else depth
        for v in reached:
            out[v] = value
        frontier = reached
    return out


def bfs_row(csr: CSRGraph, source: int, radius=None):
    """Hop distances from ``source`` as a dense float64 row (``inf`` = unreached).

    The row equals :func:`scipy.sparse.csgraph.dijkstra` (unweighted) over
    the snapshot's cached ``csr_matrix``, bit for bit; an unbounded row of
    a plain snapshot may come from :func:`_bfs_order_row` instead (see
    :func:`_unbounded_row`).  The serving layer keeps this row as it is
    instead of converting it to an ``n``-entry dict.
    """
    _check_source(csr, source)
    r = normalize_radius(radius)
    if r is None and not isinstance(csr, WeightedCSRGraph):
        return _unbounded_row(csr, source, unweighted=True)
    return _scipy_row(csr, source, inf if r is None else float(r), unweighted=True)


def _scipy_row(csr: CSRGraph, source: int, limit: float, *, unweighted: bool):
    return _scipy_csgraph_dijkstra(csr.scipy_matrix(), unweighted=unweighted,
                                   indices=source, limit=limit)


# ----------------------------------------------------------------------
# Unbounded rows in breadth-first order
# ----------------------------------------------------------------------
#: A weighted snapshot's unbounded rows walk its unit subdivision only
#: while the subdivision adds at most this many dummy vertices per vertex
#: (``sum(w - 1) / n``); a longer chain graph loses to the heap.  Per row
#: on emulators of n = 10^4 graphs, heap vs breadth-first order (2-vCPU
#: x86 VM, Python 3.11, scipy 1.17): gnm m = 4n default build, 0.64 dummies
#: per vertex, 2.29 vs 0.97 ms; gnm m = 2n ultra-sparse, 1.24, 2.00 vs
#: 0.87 ms; random tree ultra-sparse, 1.40, 1.75 vs 0.99 ms; random tree
#: fast, 1.67, 1.47 vs 1.70 ms; grid ultra-sparse, 2.11, 1.69 vs 2.00 ms.
ROW_BFS_MAX_DUMMIES_PER_VERTEX = 1.5
#: A snapshot whose first unbounded row averages fewer reached (unit-graph)
#: vertices per level than this keeps the heap: a long, thin graph is the
#: heap's best case (a tiny frontier) and breadth-first order's worst
#: (``log2(levels)`` reconstruction passes).  Unweighted rows at n = 10^4,
#: heap vs breadth-first order, by vertices per level: gnm m = 4n, 1250,
#: 1.67 vs 0.53 ms; 100 x 100 grid, 75, 0.96 vs 0.38 ms; 10 x 1000 grid,
#: 15, 0.47 vs 0.52 ms; ring of 8-cliques, 16, 0.41 vs 0.42 ms; path,
#: 1.5, 0.24 vs 0.50 ms.  At n = 2000 a 44 x 45 grid (33 per level) still
#: runs 0.19 vs 0.08 ms.
ROW_BFS_MIN_LEVEL_WIDTH = 32


def _unbounded_row(csr: CSRGraph, source: int, *, unweighted: bool):
    """An unbounded row of the snapshot's own metric, by the faster kernel.

    Each snapshot picks once.  It walks its unit graph
    (:meth:`~repro.graphs.csr.CSRGraph.unit_matrix`) in breadth-first
    order if its weights are positive integers whose subdivision stays
    under :data:`ROW_BFS_MAX_DUMMIES_PER_VERTEX`, and its first row's
    levels average at least :data:`ROW_BFS_MIN_LEVEL_WIDTH` vertices;
    otherwise every row is scipy's heap Dijkstra.  Both give the same
    row bit for bit.
    """
    use = csr._bfs_rows
    if use is False:
        return _scipy_row(csr, source, inf, unweighted=unweighted)
    if use is None and isinstance(csr, WeightedCSRGraph):
        dummies = csr.subdivision_size()
        if dummies is None or dummies > ROW_BFS_MAX_DUMMIES_PER_VERTEX * csr.num_vertices:
            csr._bfs_rows = False
            return _scipy_row(csr, source, inf, unweighted=unweighted)
    row, levels, reached = _bfs_order_row(csr.unit_matrix(), source, csr.num_vertices)
    if use is None:
        csr._bfs_rows = levels * ROW_BFS_MIN_LEVEL_WIDTH <= reached
    return row


def _bfs_order_row(unit, source: int, n: int):
    """``(row, levels, reached)`` of one breadth-first search of ``unit``.

    ``row`` holds the hop distances to vertices ``0 .. n - 1`` as float64
    (``inf`` = unreached), ``levels`` is the largest hop distance and
    ``reached`` the number of vertices of ``unit`` the search reached.

    Breadth-first order enqueues children in their parents' order, so
    parent positions never decrease along the order.  Pointer jumping over
    positions (each vertex's distance to its current ancestor, then the
    ancestor's ancestor) reaches the source from every vertex in
    ``ceil(log2(levels))`` vectorized passes, one Python step per
    doubling rather than per level.
    """
    order, parents = _scipy_bfs_order(unit, source, return_predecessors=True)
    parents[source] = source
    position = _np.empty(unit.shape[0], dtype=_np.intp)
    position[order] = _np.arange(order.shape[0])
    ancestor = position.take(parents.take(order))
    depth = _np.ones(order.shape[0], dtype=_np.intp)
    depth[0] = 0
    # Ancestor positions never decrease along the order, so once the last
    # vertex's ancestor is the source (position 0) every vertex's is.
    while ancestor[-1]:
        depth += depth.take(ancestor)
        ancestor = ancestor.take(ancestor)
    row = _np.full(unit.shape[0], inf)
    row[order] = depth
    if unit.shape[0] > n:  # drop the subdivision's dummy vertices
        row = row[:n].copy()
    return row, int(depth[-1]), order.shape[0]


def finite_entries(dense):
    """``(vertices, distances)`` arrays of a dense row's finite entries.

    Both come in the canonical ascending ``(distance, vertex)`` order
    every kernel's dict iterates in.
    """
    unreachable = _np.isinf(dense)
    if unreachable.any():
        reached = _np.flatnonzero(~unreachable)
        values = dense[reached]
    else:
        reached = _np.arange(dense.shape[0], dtype=_np.int64)
        values = dense
    # Stable two-key sort: distance major, vertex ID minor — the same
    # iteration order the scalar and multi-source kernels produce.
    order = _np.lexsort((reached, values))
    return reached[order], values[order]


def _dense_to_dict(dense, as_float: bool) -> Dict:
    """Dense distance vector -> dict in canonical ``(distance, vertex)`` order."""
    reached, values = finite_entries(dense)
    if not as_float:
        values = values.astype(_np.int64)
    return dict(zip(reached.tolist(), values.tolist()))


# ----------------------------------------------------------------------
# Balls (one source's neighbourhood in canonical order)
# ----------------------------------------------------------------------
#: :func:`ball` walks the snapshot's adjacency lists up to this radius;
#: deeper balls take one :func:`bfs_row` C search.  A radius-2 walk reads
#: only the source's row and its neighbors' rows; a radius-3 walk may
#: read most of the edge set.  Per ball on gnm graphs, walk vs row (2-vCPU
#: x86 VM, Python 3.11, scipy 1.17): n = 5000, mean degree 8: radius 2
#: 17 vs 75 us, radius 3 139 vs 156 us; mean degree 40: radius 2 324 vs
#: 696 us, radius 3 2942 vs 1642 us (n = 20000: 8.5 vs 6.9 ms).  The
#: builders' vertex-ordered reads in :mod:`repro.core.emulator` split at
#: the same radius: rows up to 2, one :func:`bfs_row` beyond.
BALL_WALK_MAX_RADIUS = 2


def ball(csr: CSRGraph, source: int, radius) -> Tuple[Any, Any, int]:
    """The vertices within ``radius`` of ``source``: ``(vertices, distances, depth)``.

    ``vertices`` and ``distances`` come in the canonical ascending
    ``(distance, vertex)`` order (``source`` first), distances as floats
    like the emulator's edge weights, and ``depth`` is the largest
    distance reached: a ball whose depth stays below its radius holds the
    source's whole component.  Radii clamp like :func:`bounded_bfs`
    (``None`` = unbounded).

    Balls up to :data:`BALL_WALK_MAX_RADIUS` walk the adjacency lists and
    come back as lists (a radius-1 ball is the source's row); deeper balls
    are one :func:`bfs_row` search, returned as the
    numpy arrays of :func:`finite_entries` so callers can mask them
    without a Python loop.
    """
    _check_source(csr, source)
    r = normalize_radius(radius)
    if r is not None and r <= BALL_WALK_MAX_RADIUS:
        if r == 1:
            row = csr.adjacency()[source]
            return [source] + row, [0.0] + [1.0] * len(row), 1 if row else 0
        dist = _scalar_bfs(csr, source, r, True)
        return list(dist), list(dist.values()), int(next(reversed(dist.values())))
    vertices, distances = finite_entries(bfs_row(csr, source, r))
    return vertices, distances, int(distances[-1])


# ----------------------------------------------------------------------
# Multi-source BFS (smallest-source-ID tie-breaking)
# ----------------------------------------------------------------------
def multi_source_bfs(
    csr: CSRGraph, sources: Iterable[int], radius=None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Multi-source BFS returning ``(dist, origin)``.

    ``origin[v]`` is the closest source, ties broken toward the smallest
    source ID (the deterministic constructions rely on this).  Sources
    may repeat and come in any order; one outside the graph raises
    ``ValueError``, and ``radius`` clamps like :func:`bounded_bfs`.
    """
    n = csr.num_vertices
    source_list = sorted(set(sources))
    for s in source_list:
        if not (0 <= s < n):
            raise ValueError(f"source {s} not in graph")
    r = normalize_radius(radius)
    if not source_list:
        return {}, {}
    if r is None and n >= VECTOR_MIN_VERTICES:
        return _numpy_multi_source(csr, source_list)
    return _scalar_multi_source(csr, source_list, r)


def _scalar_multi_source(
    csr: CSRGraph, source_list: List[int], r: Optional[int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    adjacency = csr.adjacency()
    ws = _workspace(csr)
    stamp, origin = ws.stamp, ws.origin
    epoch = ws.next_epoch()
    dist_out: Dict[int, int] = {}
    origin_out: Dict[int, int] = {}
    for s in source_list:
        stamp[s] = epoch
        origin[s] = s
        dist_out[s] = 0
        origin_out[s] = s
    # The frontier is traversed in *claim order* (grouped by origin, the
    # invariant behind the tie-breaking guarantee); only the emitted
    # per-level dict entries are sorted by vertex ID.
    frontier = source_list
    depth = 0
    while frontier and (r is None or depth < r):
        depth += 1
        reached: List[int] = []
        append = reached.append
        for u in frontier:
            origin_u = origin[u]
            for v in adjacency[u]:
                if stamp[v] != epoch:
                    stamp[v] = epoch
                    origin[v] = origin_u
                    append(v)
        if not reached:
            break
        for v in sorted(reached):
            dist_out[v] = depth
            origin_out[v] = origin[v]
        frontier = reached
    return dist_out, origin_out


def _numpy_multi_source(
    csr: CSRGraph, source_list: List[int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    indptr, indices = csr.numpy_views()
    ws = _workspace(csr)
    stamp, origin, _ = ws.numpy_buffers()
    epoch = ws.next_epoch()
    frontier = _np.array(source_list, dtype=_np.int64)
    stamp[frontier] = epoch
    origin[frontier] = frontier
    dist_out: Dict[int, int] = {}
    origin_out: Dict[int, int] = {}
    for s in source_list:
        dist_out[s] = 0
        origin_out[s] = s
    depth = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        cum = _np.empty(counts.shape[0] + 1, dtype=_np.int64)
        cum[0] = 0
        _np.cumsum(counts, out=cum[1:])
        offsets = _np.repeat(starts - cum[:-1], counts) + _np.arange(total)
        neigh = indices[offsets]
        parent_origin = _np.repeat(origin[frontier], counts)
        fresh = stamp[neigh] != epoch
        neigh = neigh[fresh]
        parent_origin = parent_origin[fresh]
        if neigh.size == 0:
            break
        # Per discovered vertex, keep the minimum parent origin — the
        # canonical smallest-source tie-break.
        order = _np.lexsort((parent_origin, neigh))
        neigh = neigh[order]
        parent_origin = parent_origin[order]
        first = _np.empty(neigh.shape[0], dtype=bool)
        first[0] = True
        _np.not_equal(neigh[1:], neigh[:-1], out=first[1:])
        frontier = neigh[first].astype(_np.int64)
        claimed = parent_origin[first]
        stamp[frontier] = epoch
        origin[frontier] = claimed
        depth += 1
        for v, o in zip(frontier.tolist(), claimed.tolist()):
            dist_out[v] = depth
            origin_out[v] = o
    return dist_out, origin_out


# ----------------------------------------------------------------------
# BFS forests (ruling-forest trees of the SAI builders)
# ----------------------------------------------------------------------
def bfs_forest(csr: CSRGraph, roots: Iterable[int], hops=None):
    """The BFS forest grown from ``roots``: ``(parent, dist, root)`` int64 arrays.

    Equal to a first-in first-out BFS whose queue starts with the sorted
    roots and reads each vertex's neighbors in ascending order: ``parent[v]``
    is the first dequeued neighbor of ``v`` one level up (a root is its own
    parent), ``dist[v]`` its hop distance to the forest and ``root[v]`` the
    root of its tree, so a tie goes to the smallest root.  Vertices that
    are unreached or beyond ``hops`` read ``-1`` in all three arrays.
    ``hops`` clamps like :func:`bounded_bfs` (``None`` = unbounded).

    One :func:`scipy.sparse.csgraph.breadth_first_order` call walks the
    snapshot extended by a virtual vertex whose row is the sorted roots;
    scipy also dequeues first-in first-out and reads each row in CSR
    order, so its predecessors are the FIFO parents.  Depths and roots
    come from one pointer-jumping loop over breadth-first positions (see
    :func:`_bfs_order_row`), in which each root points at itself.
    """
    n = csr.num_vertices
    sources = sorted(set(roots))
    for s in sources:
        if not (0 <= s < n):
            raise ValueError(f"source {s} not in graph")
    h = normalize_radius(hops)
    parent = _np.full(n, -1, dtype=_np.int64)
    dist = parent.copy()
    root = parent.copy()
    if not sources:
        return parent, dist, root
    matrix = csr.scipy_matrix()
    k = len(sources)
    indptr = _np.append(matrix.indptr, matrix.indptr[-1] + k)
    indices = _np.concatenate((matrix.indices, _np.asarray(sources, dtype=matrix.indices.dtype)))
    extended = _csr_matrix((_np.ones(indices.shape[0]), indices, indptr), shape=(n + 1, n + 1))
    order, predecessors = _scipy_bfs_order(extended, n, directed=True,
                                           return_predecessors=True)
    order = order[1:]  # drop the virtual vertex; the roots come first
    position = _np.empty(n + 1, dtype=_np.intp)
    position[order] = _np.arange(order.shape[0])
    ancestor = position.take(predecessors.take(order))
    ancestor[:k] = _np.arange(k)
    depth = _np.ones(order.shape[0], dtype=_np.int64)
    depth[:k] = 0
    # Depth never decreases along the order, so once the last vertex's
    # ancestor is a root (position below k) every vertex's is.
    while ancestor[-1] >= k:
        depth += depth.take(ancestor)
        ancestor = ancestor.take(ancestor)
    if h is not None:
        kept = int(_np.searchsorted(depth, h, side="right"))
        order, depth, ancestor = order[:kept], depth[:kept], ancestor[:kept]
    parent[order] = predecessors.take(order)
    parent[sources] = sources
    dist[order] = depth
    root[order] = order.take(ancestor)
    return parent, dist, root


# ----------------------------------------------------------------------
# Dijkstra on weighted CSR
# ----------------------------------------------------------------------
def dijkstra(
    wcsr: WeightedCSRGraph, source: int, max_distance: Optional[float] = None
) -> Dict[int, float]:
    """Single-source shortest-path distances on a weighted snapshot.

    Matches :meth:`WeightedGraph.dijkstra`: vertices beyond
    ``max_distance`` are neither reported nor expanded.
    """
    _check_source(wcsr, source)
    limit = normalize_max_distance(max_distance)
    if limit is None and wcsr.num_vertices >= VECTOR_MIN_VERTICES:
        return _dense_to_dict(dijkstra_row(wcsr, source), as_float=True)
    return _scalar_dijkstra(wcsr, source, limit)


def dijkstra_row(wcsr: WeightedCSRGraph, source: int, max_distance: Optional[float] = None):
    """Weighted distances from ``source`` as a dense float64 row (``inf`` = unreached).

    The row form of :func:`dijkstra`, bit for bit
    :func:`scipy.sparse.csgraph.dijkstra` over the snapshot's cached
    weighted ``csr_matrix``, with vertices beyond ``max_distance`` left at
    ``inf``.  An unbounded row may come from one breadth-first search of
    the unit subdivision instead (see :func:`_unbounded_row`).
    """
    _check_source(wcsr, source)
    limit = normalize_max_distance(max_distance)
    if limit is None:
        return _unbounded_row(wcsr, source, unweighted=False)
    return _scipy_row(wcsr, source, limit, unweighted=False)


def _scalar_dijkstra(
    wcsr: WeightedCSRGraph, source: int, max_distance: Optional[float]
) -> Dict[int, float]:
    pairs = wcsr.adjacency_pairs()
    ws = _workspace(wcsr)
    stamp, settled, dist = ws.stamp, ws.settled, ws.dist
    epoch = ws.next_epoch()
    stamp[source] = epoch
    dist[source] = 0.0
    out: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if settled[u] == epoch:
            continue
        settled[u] = epoch
        out[u] = d
        for v, w in pairs[u]:
            nd = d + w
            if max_distance is not None and nd > max_distance:
                continue
            if settled[v] != epoch and (stamp[v] != epoch or nd < dist[v]):
                stamp[v] = epoch
                dist[v] = nd
                heappush(heap, (nd, v))
    return out


# ----------------------------------------------------------------------
# Hop-limited Bellman–Ford on weighted CSR
# ----------------------------------------------------------------------
def hop_limited(
    wcsr: WeightedCSRGraph, source: int, max_hops: int
) -> Dict[int, float]:
    """Vectorized hop-limited single-source distances (``d^{(t)}``).

    Semantics match :func:`repro.hopsets.bounded_hop.hop_limited_distances`
    (relaxations only from the vertices improved in the previous round,
    improvements below ``1e-12`` ignored); values may differ from the
    scalar implementation by at most that tolerance.
    """
    _check_source(wcsr, source)
    if max_hops < 0:
        raise ValueError(f"max_hops must be non-negative, got {max_hops}")
    indptr, indices, weights = wcsr.numpy_views()
    ws = _workspace(wcsr)
    stamp, _, best = ws.numpy_buffers()
    epoch = ws.next_epoch()
    stamp[source] = epoch
    best[source] = 0.0
    frontier = _np.array([source], dtype=_np.int64)
    for _ in range(max_hops):
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        cum = _np.empty(counts.shape[0] + 1, dtype=_np.int64)
        cum[0] = 0
        _np.cumsum(counts, out=cum[1:])
        offsets = _np.repeat(starts - cum[:-1], counts) + _np.arange(total)
        neigh = indices[offsets].astype(_np.int64)
        candidate = _np.repeat(best[frontier], counts) + weights[offsets]
        current = _np.where(stamp[neigh] == epoch, best[neigh], _np.inf)
        improving = candidate < current - _EPS
        neigh = neigh[improving]
        candidate = candidate[improving]
        if neigh.size == 0:
            break
        order = _np.lexsort((candidate, neigh))
        neigh = neigh[order]
        candidate = candidate[order]
        first = _np.empty(neigh.shape[0], dtype=bool)
        first[0] = True
        _np.not_equal(neigh[1:], neigh[:-1], out=first[1:])
        frontier = neigh[first]
        best[frontier] = candidate[first]
        stamp[frontier] = epoch
    reached = _np.flatnonzero(stamp == epoch)
    return dict(zip(reached.tolist(), best[reached].tolist()))
