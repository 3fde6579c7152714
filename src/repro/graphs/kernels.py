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
matching the signatures in :mod:`repro.graphs.shortest_paths`.

Three backends implement the kernels:

``python``
    Scalar level-synchronous loops over the snapshot's adjacency-list
    view.  Always available, output-sensitive (cost proportional to the
    explored ball, like the dict implementations), and measurably faster
    than the dict path at every size.
``numpy``
    Vectorized level-synchronous expansion over zero-copy
    :func:`numpy.frombuffer` views of the CSR buffers.  Wins on large
    unbounded searches; used when numpy is importable.
``scipy``
    :func:`scipy.sparse.csgraph.dijkstra` over a ``csr_matrix`` sharing
    the same buffers — C-compiled search, the fastest unbounded backend.

``auto`` (the default) picks per call: bounded explorations stay on the
scalar backend (output-sensitive — a radius-2 ball on a large graph
should not pay for a dense ``n``-vector), unbounded searches use scipy,
then numpy, above :data:`VECTOR_MIN_VERTICES` vertices.  Set
``REPRO_KERNEL_BACKEND=python|numpy|scipy`` (or call
:func:`set_backend`) to force one backend, e.g. to run the equivalence
suite against every implementation.

Determinism
-----------
Distances are unique, and multi-source origins are canonical: ties are
broken toward the **smallest source ID** on every backend.  (With
sources enqueued in ascending order, the scalar frontier stays grouped
by origin, so the first claimer of a vertex carries the minimum origin
among its predecessors; the vectorized backend computes that minimum
directly.  Both equal the dict implementation's documented behaviour.)
Dict *iteration order* is canonical too: BFS, multi-source and Dijkstra
results iterate in ascending ``(distance, vertex)`` order on every
backend, so seeded consumers that materialize an order (e.g. workload
generators sampling a BFS ball) are reproducible regardless of which
backend answered.

Batched explorations
--------------------
Every construction phase explores the graph from *many* centers at the
same radius.  :func:`batched_bfs` runs those explorations as chunked
multi-source kernel passes — scipy's ``indices=`` batch API, a
slot-flattened numpy frontier expansion, or a scalar per-source loop,
selected exactly like the single-source backends — and yields one
distance dict per source, each **byte-identical** (same entries, same
canonical iteration order) to what :func:`bounded_bfs` returns for that
source.  The chunk size is driven by a byte budget
(``REPRO_BATCH_MEMORY_BUDGET``, default 64 MiB) so a 10k-center phase
never materializes a dense ``centers x n`` matrix, and
``REPRO_BATCH_DISABLE=1`` collapses the whole layer back to per-source
calls for transparency diffs.  :func:`multi_source_attributed` covers
the call sites that only need Voronoi-style nearest-source assignments:
one pass returning each vertex's closest source and distance with the
documented smallest-source-ID tie-break.  The one exception is :func:`hop_limited`, whose
vectorized path emits ascending vertex order while the scalar loop in
:mod:`repro.hopsets.bounded_hop` emits discovery order — its consumers
are lookup-only.
"""

from __future__ import annotations

import os
import threading
import warnings
from heapq import heappop, heappush
from math import floor, isinf, isnan
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.graphs.csr import CSRGraph, WeightedCSRGraph

__all__ = [
    "bfs_distances",
    "bounded_bfs",
    "batched_bfs",
    "multi_source_bfs",
    "multi_source_attributed",
    "dijkstra",
    "hop_limited",
    "normalize_radius",
    "batch_chunk_size",
    "batching_disabled",
    "set_backend",
    "get_backend",
    "available_backends",
    "DEFAULT_BATCH_MEMORY_BUDGET",
]

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_KERNEL_BACKEND
    _np = None

try:
    from scipy.sparse.csgraph import dijkstra as _scipy_csgraph_dijkstra
except ImportError:  # pragma: no cover - exercised via REPRO_KERNEL_BACKEND
    _scipy_csgraph_dijkstra = None

_BACKENDS = ("auto", "python", "numpy", "scipy")

#: Unbounded searches below this vertex count stay on the scalar backend:
#: per-call vectorization overhead beats the saved per-edge work there.
VECTOR_MIN_VERTICES = 2048
#: Hop-limited Bellman–Ford vectorizes earlier: its per-round work is
#: O(frontier edges) with float arithmetic, which the scalar loop pays
#: dearly for.
HOP_VECTOR_MIN_VERTICES = 512

#: Weighted-Dijkstra epsilon matching the hop-limited Bellman–Ford
#: tolerance in :mod:`repro.hopsets.bounded_hop`.
_EPS = 1e-12


def _initial_backend() -> str:
    name = os.environ.get("REPRO_KERNEL_BACKEND", "auto").strip().lower()
    if name not in _BACKENDS:
        warnings.warn(
            f"unknown REPRO_KERNEL_BACKEND {name!r}; falling back to 'auto' "
            f"(valid: {', '.join(_BACKENDS)})",
            RuntimeWarning,
        )
        return "auto"
    # A forced-but-unimportable backend must not silently degrade: a run
    # that claims to exercise the scipy path had better have scipy.
    if (name == "numpy" and _np is None) or (
        name == "scipy" and _scipy_csgraph_dijkstra is None
    ):
        warnings.warn(
            f"REPRO_KERNEL_BACKEND={name} requested but {name} is not "
            "importable; falling back to 'auto'",
            RuntimeWarning,
        )
        return "auto"
    return name


_BACKEND = _initial_backend()


def set_backend(name: str) -> None:
    """Force a kernel backend (``auto``/``python``/``numpy``/``scipy``).

    Forcing a backend that is not importable raises ``ValueError`` — the
    equivalence suite relies on a forced backend actually running.
    """
    global _BACKEND
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; valid: {', '.join(_BACKENDS)}")
    if name == "numpy" and _np is None:
        raise ValueError("numpy backend requested but numpy is not importable")
    if name == "scipy" and _scipy_csgraph_dijkstra is None:
        raise ValueError("scipy backend requested but scipy is not importable")
    _BACKEND = name


def get_backend() -> str:
    """The currently selected backend name."""
    return _BACKEND


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this interpreter (``python`` is always present)."""
    names = ["python"]
    if _np is not None:
        names.append("numpy")
    if _scipy_csgraph_dijkstra is not None:
        names.append("scipy")
    return tuple(names)


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


# ----------------------------------------------------------------------
# Batched explorations (one kernel pass per chunk of sources)
# ----------------------------------------------------------------------
#: Default byte budget for one batched exploration chunk (64 MiB).
DEFAULT_BATCH_MEMORY_BUDGET = 64 * 1024 * 1024

#: Bytes a batched pass materializes per source per vertex: the SpMM
#: expansion holds dense frontier/product/visited/distance planes
#: (8 + 8 + 1 + 8 bytes), the scipy batch one dense float64 row.
#: Deliberately the most conservative of the backends.
_BATCH_BYTES_PER_VERTEX = 32

#: Direction-optimizing switch: a batched level expansion leaves the
#: output-sensitive gather mode for dense SpMM steps once the frontier's
#: incident edges exceed ``nnz * chunk / _DENSE_FRONTIER_FRACTION`` —
#: past that, one C sparse-matrix product per level beats gathering.
_DENSE_FRONTIER_FRACTION = 16

#: Transient bytes one gathered frontier edge costs (offset, key and
#: repeated-slot int64s).  Gather levels whose edge count would push the
#: transients past the memory budget are processed in segments of at
#: most ``budget / _GATHER_BYTES_PER_EDGE`` edges, so the budget bounds
#: per-level transients as well as the per-chunk planes (relevant on
#: numpy-only installs, where no dense SpMM switch caps the gather).
_GATHER_BYTES_PER_EDGE = 24

#: ``auto`` uses a vectorized batch only when one chunk's dense plane
#: (``chunk x num_vertices``) has at least this many cells; below it the
#: fixed per-call scipy/numpy overhead beats the saved per-edge work and
#: the scalar per-source loop wins (same reasoning as
#: :data:`VECTOR_MIN_VERTICES` for single-source calls — late, tiny
#: construction phases must not pay vectorization overhead).
BATCH_VECTOR_MIN_CELLS = 32768


def batching_disabled() -> bool:
    """Whether ``REPRO_BATCH_DISABLE`` forces per-source explorations.

    The knob exists for transparency checks: batched and per-source
    explorations are byte-identical, and CI diffs full build outputs
    with the layer on and off to enforce that.
    """
    return os.environ.get("REPRO_BATCH_DISABLE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def _memory_budget(memory_budget: Optional[int]) -> int:
    if memory_budget is None:
        raw = os.environ.get("REPRO_BATCH_MEMORY_BUDGET", "").strip()
        if raw:
            try:
                memory_budget = int(raw)
            except ValueError:
                warnings.warn(
                    f"REPRO_BATCH_MEMORY_BUDGET {raw!r} is not an integer; "
                    f"using the default ({DEFAULT_BATCH_MEMORY_BUDGET} bytes)",
                    RuntimeWarning,
                )
                memory_budget = DEFAULT_BATCH_MEMORY_BUDGET
        else:
            memory_budget = DEFAULT_BATCH_MEMORY_BUDGET
    if memory_budget < 1:
        raise ValueError(f"memory_budget must be positive, got {memory_budget}")
    return memory_budget


def batch_chunk_size(
    num_vertices: int, num_sources: int, memory_budget: Optional[int] = None
) -> int:
    """Sources per batched pass under ``memory_budget`` bytes.

    A chunk costs about ``32 * num_vertices`` bytes per source (the
    dense frontier/visited/distance planes of the SpMM expansion — the
    other backends cost less), so the chunk size is the budget divided
    by that — clamped to ``[1, num_sources]`` so a tiny budget degrades
    to single-source passes instead of failing.
    """
    budget = _memory_budget(memory_budget)
    per_source = _BATCH_BYTES_PER_VERTEX * max(1, num_vertices)
    chunk = max(1, budget // per_source)
    return int(max(1, min(chunk, max(1, num_sources))))


def batched_bfs(
    csr: CSRGraph,
    sources: Iterable[int],
    radius=None,
    *,
    as_float: bool = False,
    memory_budget: Optional[int] = None,
):
    """Bounded BFS from many sources in chunked multi-source passes.

    Yields one distance dict per source, **in the order given** (sources
    need not be sorted or distinct).  Each yielded dict is byte-identical
    — same entries *and* the same canonical ``(distance, vertex)``
    iteration order — to ``bounded_bfs(csr, source, radius)``, so call
    sites can swap a per-center loop for one batched pass without
    changing any downstream output.

    Backend selection mirrors the single-source kernels: the scipy
    ``indices=`` batch when scipy is usable, a slot-flattened numpy
    frontier expansion when only numpy is, otherwise a scalar per-source
    loop.  ``REPRO_KERNEL_BACKEND`` forces one; ``REPRO_BATCH_DISABLE=1``
    bypasses batching entirely and yields per-source results.

    ``memory_budget`` bounds the bytes one chunk may materialize — both
    the per-chunk dense planes (see :func:`batch_chunk_size`) and the
    transient per-level gather arrays, which are processed in segments
    past the budget (default ``REPRO_BATCH_MEMORY_BUDGET``, else
    64 MiB).
    """
    source_list = list(sources)
    for s in source_list:
        _check_source(csr, s)
    r = normalize_radius(radius)
    if not source_list:
        return
    if batching_disabled():
        for s in source_list:
            yield bounded_bfs(csr, s, r, as_float=as_float)
        return
    chunk = batch_chunk_size(csr.num_vertices, len(source_list), memory_budget)
    backend = _BACKEND
    if backend == "auto":
        cells = min(chunk, len(source_list)) * max(1, csr.num_vertices)
        if cells < BATCH_VECTOR_MIN_CELLS:
            for s in source_list:
                yield _scalar_bfs(csr, s, r, as_float)
            return
    gather_cap = max(1, _memory_budget(memory_budget) // _GATHER_BYTES_PER_EDGE)
    if backend in ("auto", "scipy") and _scipy_usable(csr):
        if r is None:
            # The radius-blind C Dijkstra batch: unbounded searches cover
            # whole components, where its dense rows convert cheaply.
            yield from _scipy_batched_bfs(csr, source_list, r, as_float, chunk)
        else:
            yield from _hybrid_batched_bfs(csr, source_list, r, as_float, chunk,
                                           spmm=True, gather_cap=gather_cap)
        return
    if backend in ("auto", "numpy", "scipy") and _np is not None:
        yield from _hybrid_batched_bfs(csr, source_list, r, as_float, chunk,
                                       spmm=False, gather_cap=gather_cap)
        return
    for s in source_list:
        yield _scalar_bfs(csr, s, r, as_float)


def _hybrid_batched_bfs(
    csr: CSRGraph, source_list: List[int], r: Optional[int], as_float: bool,
    chunk: int, *, spmm: bool, gather_cap: int
):
    """Direction-optimizing batched level expansion over a chunk of sources.

    Each source occupies one *slot*; a frontier entry is the combined key
    ``slot * n + vertex``, so one visited buffer serves the whole chunk.
    While the frontier is sparse, levels advance by **gathering** the
    frontier's neighbor lists (vectorized, cost proportional to the
    frontier's incident edges — shallow or thin explorations never pay
    for the whole graph).  Once the frontier's incident edges pass
    ``nnz * k / _DENSE_FRONTIER_FRACTION`` (and ``spmm`` is allowed),
    the expansion switches to dense **SpMM** steps — one C-speed
    ``adjacency @ frontier`` product per level over ``n x k`` planes —
    which beats gathering on saturated frontiers.  ``numpy.unique`` over
    combined keys (gather) and row-major ``nonzero`` (SpMM) both emit
    ascending ``(slot, vertex)``, the canonical per-source level order.
    """
    indptr, indices = csr.numpy_views()[:2]
    matrix = csr.scipy_matrix() if spmm else None
    n = csr.num_vertices
    nnz = len(csr.indices)
    for start in range(0, len(source_list), chunk):
        block = _np.asarray(source_list[start:start + chunk], dtype=_np.int64)
        k = block.shape[0]
        visited = _np.zeros(k * n, dtype=bool)
        slots = _np.arange(k, dtype=_np.int64)
        verts = block
        visited[slots * n + verts] = True
        # levels[d] = (slots, verts) discovered at depth d, ascending by
        # (slot, vertex) — assembly cost tracks ball sizes, not n * k.
        levels: List[Tuple[Any, Any]] = [(slots, verts)]
        depth = 0
        dense = False
        new_plane = None
        visited_plane = None
        while verts.size and (r is None or depth < r):
            if not dense:
                starts = indptr[verts]
                counts = indptr[verts + 1] - starts
                total = int(counts.sum())
                if total == 0:
                    break
                if matrix is not None and total * _DENSE_FRONTIER_FRACTION >= nnz * k:
                    dense = True
                    visited_plane = visited.reshape(k, n)
                    continue  # redo this level with a dense step
                keys = _gather_level(indices, visited, slots, verts, counts,
                                     starts, n, total, gather_cap)
                if keys.size == 0:
                    break
                slots = keys // n
                verts = keys - slots * n
            else:
                if new_plane is None:  # first dense step: scatter the frontier
                    frontier = _np.zeros((n, k), dtype=_np.float64)
                    frontier[verts, slots] = 1.0
                else:
                    frontier = new_plane.astype(_np.float64)
                product = matrix @ frontier
                new = product != 0
                new &= ~visited_plane.T
                slots, verts = new.T.nonzero()
                if verts.size == 0:
                    break
                visited_plane |= new.T
                new_plane = new
            depth += 1
            levels.append((slots, verts))
        yield from _levels_to_dicts(levels, k, as_float)


def _gather_level(indices, visited, slots, verts, counts, starts, n: int,
                  total: int, gather_cap: int):
    """One gathered level: the sorted unique unvisited neighbor keys.

    Marks the returned keys visited.  Frontiers whose incident edge
    count exceeds ``gather_cap`` are processed in prefix segments so
    the transient gather arrays stay within the memory budget; segments
    mark ``visited`` as they go (so cross-segment duplicates drop), and
    the disjoint per-segment key sets are merged with one final sort —
    the same ascending ``(slot, vertex)`` set a single pass yields.
    """
    if total <= gather_cap:
        bounds = [0, counts.shape[0]]
    else:
        prefix = _np.cumsum(counts)
        bounds = [0]
        while bounds[-1] < counts.shape[0]:
            lo = bounds[-1]
            consumed = int(prefix[lo - 1]) if lo else 0
            # Largest hi with at most gather_cap edges in [lo, hi); always
            # take at least one vertex (a single huge row cannot split).
            hi = int(_np.searchsorted(prefix, consumed + gather_cap, side="right"))
            bounds.append(min(max(hi, lo + 1), counts.shape[0]))
    collected = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg_counts = counts[lo:hi]
        seg_total = int(seg_counts.sum())
        if seg_total == 0:
            continue
        cum = _np.empty(seg_counts.shape[0] + 1, dtype=_np.int64)
        cum[0] = 0
        _np.cumsum(seg_counts, out=cum[1:])
        offsets = _np.repeat(starts[lo:hi] - cum[:-1], seg_counts) \
            + _np.arange(seg_total)
        keys = _np.repeat(slots[lo:hi], seg_counts) * n + indices[offsets]
        keys = keys[~visited[keys]]
        if keys.size == 0:
            continue
        keys = _np.unique(keys)
        visited[keys] = True
        collected.append(keys)
    if not collected:
        return _np.empty(0, dtype=_np.int64)
    if len(collected) == 1:
        return collected[0]
    return _np.sort(_np.concatenate(collected))


def _scipy_batched_bfs(
    csr: CSRGraph, source_list: List[int], r: Optional[int], as_float: bool, chunk: int
):
    matrix = csr.scipy_matrix()
    limit = _np.inf if r is None else float(r)
    for start in range(0, len(source_list), chunk):
        block = source_list[start:start + chunk]
        dense = _scipy_csgraph_dijkstra(
            matrix, unweighted=True, indices=block, limit=limit
        )
        dense = _np.atleast_2d(dense)
        for row in dense:
            yield _dense_to_dict(row, as_float)


def _levels_to_dicts(levels, k: int, as_float: bool):
    """Per-slot distance dicts from per-level ``(slots, verts)`` arrays."""
    grid = _np.arange(k + 1, dtype=_np.int64)
    sliced = []
    for slots, verts in levels:
        bounds = _np.searchsorted(slots, grid)
        sliced.append((bounds, verts.tolist()))
    for slot in range(k):
        out: Dict = {}
        for depth, (bounds, verts) in enumerate(sliced):
            value = float(depth) if as_float else depth
            for v in verts[bounds[slot]:bounds[slot + 1]]:
                out[v] = value
        yield out


# ----------------------------------------------------------------------
# Epoch-stamped workspace
# ----------------------------------------------------------------------
class _Workspace:
    """Preallocated per-snapshot, per-thread buffers reused by kernel calls.

    ``stamp[v] == epoch`` means "visited in the current call"; bumping
    ``epoch`` invalidates every entry at once.  The scalar and vectorized
    backends keep separate stamp buffers but share the epoch counter, so
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


def _scipy_usable(csr: CSRGraph) -> bool:
    return _scipy_csgraph_dijkstra is not None and csr.scipy_matrix() is not None


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
    backend = _BACKEND
    if backend == "scipy" or (
        backend == "auto" and r is None
        and csr.num_vertices >= VECTOR_MIN_VERTICES and _scipy_usable(csr)
    ):
        if _scipy_usable(csr):
            return _scipy_bfs(csr, source, r, as_float)
        backend = "numpy" if _np is not None else "python"
    if backend == "numpy" or (
        backend == "auto" and r is None
        and csr.num_vertices >= VECTOR_MIN_VERTICES and _np is not None
    ):
        if _np is not None:
            return _numpy_bfs(csr, source, r, as_float)
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


def _numpy_bfs(csr: CSRGraph, source: int, r: Optional[int], as_float: bool) -> Dict:
    indptr, indices = csr.numpy_views()
    ws = _workspace(csr)
    stamp, _, _ = ws.numpy_buffers()
    epoch = ws.next_epoch()
    stamp[source] = epoch
    frontier = _np.array([source], dtype=_np.int64)
    levels = [frontier]
    depth = 0
    while frontier.size and (r is None or depth < r):
        neigh = _gather_neighbors(indptr, indices, frontier)
        if neigh is None:
            break
        neigh = neigh[stamp[neigh] != epoch]
        if neigh.size == 0:
            break
        frontier = _np.unique(neigh)
        stamp[frontier] = epoch
        depth += 1
        levels.append(frontier)
    keys = _np.concatenate(levels) if len(levels) > 1 else levels[0]
    counts = [level.shape[0] for level in levels]
    values = _np.repeat(_np.arange(len(levels), dtype=_np.int64), counts)
    if as_float:
        values = values.astype(_np.float64)
    return dict(zip(keys.tolist(), values.tolist()))


def _gather_neighbors(indptr, indices, frontier):
    """All neighbors of ``frontier`` concatenated (with duplicates), or ``None``."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return None
    cum = _np.empty(counts.shape[0] + 1, dtype=_np.int64)
    cum[0] = 0
    _np.cumsum(counts, out=cum[1:])
    offsets = _np.repeat(starts - cum[:-1], counts) + _np.arange(total)
    return indices[offsets]


def _scipy_bfs(csr: CSRGraph, source: int, r: Optional[int], as_float: bool) -> Dict:
    matrix = csr.scipy_matrix()
    limit = _np.inf if r is None else float(r)
    dense = _scipy_csgraph_dijkstra(matrix, unweighted=True, indices=source, limit=limit)
    return _dense_to_dict(dense, as_float)


def _dense_to_dict(dense, as_float: bool) -> Dict:
    """Dense distance vector -> dict in canonical ``(distance, vertex)`` order."""
    unreachable = _np.isinf(dense)
    if unreachable.any():
        reached = _np.flatnonzero(~unreachable)
        values = dense[reached]
    else:
        reached = _np.arange(dense.shape[0], dtype=_np.int64)
        values = dense
    # Stable two-key sort: distance major, vertex ID minor — the same
    # iteration order the scalar and numpy backends produce.
    order = _np.lexsort((reached, values))
    reached = reached[order]
    values = values[order]
    if not as_float:
        values = values.astype(_np.int64)
    return dict(zip(reached.tolist(), values.tolist()))


# ----------------------------------------------------------------------
# Multi-source BFS (smallest-source-ID tie-breaking)
# ----------------------------------------------------------------------
def multi_source_bfs(
    csr: CSRGraph, sources: Iterable[int], radius=None, *, normalized: bool = False
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Multi-source BFS returning ``(dist, origin)``.

    ``origin[v]`` is the closest source, ties broken toward the smallest
    source ID (the deterministic constructions rely on this).

    ``normalized=True`` promises ``sources`` is already a sorted,
    deduplicated, in-range sequence (and ``radius`` already clamped) —
    the dispatchers in :mod:`repro.graphs.shortest_paths` normalize once
    and skip the repeat here.
    """
    n = csr.num_vertices
    if normalized:
        source_list = list(sources)
        r = radius
    else:
        source_list = sorted(set(sources))
        for s in source_list:
            if not (0 <= s < n):
                raise ValueError(f"source {s} not in graph")
        r = normalize_radius(radius)
    if not source_list:
        return {}, {}
    backend = _BACKEND
    vectorize = False
    if backend in ("numpy", "scipy"):
        vectorize = _np is not None
    elif backend == "auto":
        vectorize = r is None and n >= VECTOR_MIN_VERTICES and _np is not None
    if vectorize:
        return _numpy_multi_source(csr, source_list, r)
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
    csr: CSRGraph, source_list: List[int], r: Optional[int]
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
    while frontier.size and (r is None or depth < r):
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


def multi_source_attributed(
    csr: CSRGraph, sources: Iterable[int], radius=None, *, normalized: bool = False
) -> Dict[int, Tuple[int, int]]:
    """One pass mapping each reached vertex to ``(nearest source, distance)``.

    The Voronoi-style companion of :func:`batched_bfs` for call sites
    that do not need full per-source balls — e.g. "attach every cluster
    to its closest sampled center".  Ties are broken toward the smallest
    source ID (the same canonical rule as :func:`multi_source_bfs`, which
    this wraps), and iteration order is ascending ``(distance, vertex)``.
    """
    dist, origin = multi_source_bfs(csr, sources, radius, normalized=normalized)
    return {v: (origin[v], d) for v, d in dist.items()}


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
    backend = _BACKEND
    if backend == "scipy" or (
        backend == "auto" and max_distance is None
        and wcsr.num_vertices >= VECTOR_MIN_VERTICES and _scipy_usable(wcsr)
    ):
        if _scipy_usable(wcsr):
            matrix = wcsr.scipy_matrix()
            limit = _np.inf if max_distance is None else float(max_distance)
            dense = _scipy_csgraph_dijkstra(matrix, indices=source, limit=limit)
            return _dense_to_dict(dense, as_float=True)
    return _scalar_dijkstra(wcsr, source, max_distance)


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
def vectorized_hop_limited_usable(num_vertices: int) -> bool:
    """Whether :func:`hop_limited` would run vectorized for this size."""
    if _np is None:
        return False
    if _BACKEND in ("numpy", "scipy"):
        return True
    return _BACKEND == "auto" and num_vertices >= HOP_VECTOR_MIN_VERTICES


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
    if _np is None:  # pragma: no cover - guarded by vectorized_hop_limited_usable
        raise RuntimeError("hop_limited kernel requires numpy")
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
