"""Shortest-path primitives on unweighted graphs.

All constructions in the paper repeatedly run bounded breadth-first searches
("Dijkstra explorations" on an unweighted graph) from cluster centers.  This
module collects the exact-distance machinery used by the centralized
algorithms, the validators and the experiments.

The public functions keep their dict-shaped signatures but execute on the
flat-array kernels of :mod:`repro.graphs.kernels` over each graph's cached
CSR snapshot (:meth:`Graph.csr`): preallocated buffers and an
epoch-stamped visited array inside, dictionaries only at the boundary.
The original dict-based implementations survive as the module-private
``_dict_*`` functions — they are the reference the kernel equivalence
suite and the kernel benchmarks compare against.

Sweep executors can additionally install an :class:`ExplorationCache`
(via :func:`shared_explorations`) so that repeated explorations from the
same source at the same radius — e.g. cluster-center explorations of
different build specs on one graph, or verification baselines — are
computed once and shared.  Cache hits return fresh dict copies with the
original insertion order, so cached and uncached runs produce
byte-identical downstream results.

Construction phases go one step further: a :class:`PhaseExplorer`
prefetches a phase's per-center explorations through
:func:`repro.graphs.kernels.batched_bfs` (one multi-source kernel pass
per chunk instead of one Python BFS per center), feeding any installed
:class:`ExplorationCache` along the way, and
:func:`multi_source_attributed` collapses "closest center" assignments
into a single pass.  Both are byte-identical to the per-center calls
they replace; the golden build corpus pins that.  The fast emulator,
the spanner and the baselines use them; Algorithm 1
(:mod:`repro.core.emulator`) no longer does: it reads each center's ball
with :func:`repro.graphs.kernels.ball` and bypasses the cache.
"""

from __future__ import annotations

import heapq
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.graphs import kernels
from repro.graphs.graph import Graph

__all__ = [
    "bfs_distances",
    "bounded_bfs",
    "bfs_tree",
    "multi_source_bfs",
    "multi_source_attributed",
    "dijkstra",
    "bounded_dijkstra",
    "all_pairs_shortest_paths",
    "eccentricity",
    "diameter",
    "ExplorationCache",
    "PhaseExplorer",
    "shared_explorations",
    "active_exploration_cache",
]


# ----------------------------------------------------------------------
# Shared-exploration cache (installed by the sweep executor)
# ----------------------------------------------------------------------
class ExplorationCache:
    """Memoizes explorations of **one** graph per ``(source, radius)``.

    When a sweep builds several specs on the same graph, every spec
    re-explores the graph from (largely) the same cluster centers at the
    same radii, and verification re-runs the same unbounded baselines.
    With an installed cache (:func:`shared_explorations`), each distinct
    ``(source, radius)`` exploration — and each distinct
    ``(sources, radius)`` multi-source exploration — is computed once.

    Radii are normalized (``floor``) before keying, so float radii that
    clamp equally share one entry.  Hits return *copies* of the stored
    dicts (preserving insertion order), so callers may treat results as
    their own and cached runs stay byte-identical to uncached runs.  The
    store is bounded (``max_entries``, FIFO) so an adversarially wide
    sweep cannot hold O(n^2) distance entries.
    """

    DEFAULT_MAX_ENTRIES = 4096

    def __init__(self, graph: Graph, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.graph = graph
        self.max_entries = max_entries
        self._store: Dict[Tuple[Any, ...], Any] = {}
        self.hits = 0
        self.misses = 0

    def bounded_bfs(self, source: int, radius: Optional[int]) -> Dict[int, int]:
        """Memoized bounded BFS (``radius`` already normalized)."""
        return dict(self.shared_bounded_bfs(source, radius))

    def shared_bounded_bfs(self, source: int, radius: Optional[int]) -> Dict[int, int]:
        """Like :meth:`bounded_bfs` but returns the *stored* dict, uncopied.

        For read-only consumers that would otherwise memoize their own
        copy (e.g. :class:`repro.api.executor.GraphBaseline`), so each
        exploration is held once.  Callers must not mutate the result.
        """
        key = ("bfs", source, radius)
        stored = self._store.get(key)
        if stored is None:
            self.misses += 1
            stored = kernels.bounded_bfs(self.graph.csr(), source, radius)
            self._remember(key, stored)
        else:
            self.hits += 1
        return stored

    def multi_source_bfs(
        self, sources: Tuple[int, ...], radius: Optional[int]
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Memoized multi-source BFS (``sources`` sorted, ``radius`` normalized)."""
        key = ("msbfs", sources, radius)
        stored = self._store.get(key)
        if stored is None:
            self.misses += 1
            stored = kernels.multi_source_bfs(self.graph.csr(), sources, radius,
                                              normalized=True)
            self._remember(key, stored)
        else:
            self.hits += 1
        dist, origin = stored
        return dict(dist), dict(origin)

    def cached_bounded_bfs(self, source: int, radius: Optional[int]) -> Optional[Dict[int, int]]:
        """A copy of the stored exploration, or ``None`` — never computes.

        Lets a :class:`PhaseExplorer` consult the shared store before
        spending a batched pass; a hit is counted, a miss is not (the
        explorer reports the eventual computation via
        :meth:`seed_bounded_bfs`).
        """
        stored = self._store.get(("bfs", source, radius))
        if stored is None:
            return None
        self.hits += 1
        return dict(stored)

    def seed_bounded_bfs(self, source: int, radius: Optional[int], dist: Dict[int, int]) -> None:
        """Store an exploration computed elsewhere (a batched pass).

        Counted as a miss — the entry was computed, just not by this
        cache.  The caller keeps ownership of ``dist``; a copy is stored.
        """
        key = ("bfs", source, radius)
        if key not in self._store:
            self.misses += 1
            self._remember(key, dict(dist))

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self._store)}

    def _remember(self, key: Tuple[Any, ...], value: Any) -> None:
        if len(self._store) >= self.max_entries:
            self._store.pop(next(iter(self._store)))
        self._store[key] = value


#: The installed cache; explorations of *its* graph are served from it.
_ACTIVE_CACHE: Optional[ExplorationCache] = None


@contextmanager
def shared_explorations(cache: Optional[ExplorationCache]):
    """Install ``cache`` for the duration of the ``with`` block.

    Explorations of any *other* graph are unaffected, so builders that
    explore auxiliary graphs (spanners under construction, unions) keep
    their normal behaviour.  ``None`` is accepted and installs nothing,
    which lets call sites thread an optional cache without branching.
    """
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    if cache is not None:
        _ACTIVE_CACHE = cache
    try:
        yield cache
    finally:
        _ACTIVE_CACHE = previous


def active_exploration_cache(graph: Graph) -> Optional[ExplorationCache]:
    """The installed :class:`ExplorationCache` if it serves ``graph``, else ``None``."""
    cache = _ACTIVE_CACHE
    if cache is not None and cache.graph is graph:
        return cache
    return None


# ----------------------------------------------------------------------
# Batched phase explorations
# ----------------------------------------------------------------------
class PhaseExplorer:
    """Batches one phase's center explorations into multi-source passes.

    Every construction phase explores the graph from its cluster centers
    at one fixed radius, consuming the centers in a known order (sorted
    center IDs) but possibly *skipping* some — a sequential greedy phase
    discards centers absorbed into an earlier supercluster before they
    are ever explored.  A ``PhaseExplorer`` is created with that consumption
    order and serves :meth:`explore` calls from **sequential chunked
    prefetches** through :func:`repro.graphs.kernels.batched_bfs`: a
    miss batches the next chunk of still-pending sources starting at the
    missed one, so

    * loops that consume every center pay one kernel pass per chunk
      instead of one Python BFS per center;
    * loops that skip centers pay (essentially) nothing for the batching
      they cannot use.  Because consumption follows the declared order,
      every source before the current miss is either consumed or dead,
      so the explorer measures the phase's survival rate *exactly* and
      for free: it fetches one source at a time through an observation
      window (:data:`OBSERVATION_WINDOW` sources) and speculates beyond
      the asked-for source only while at least three quarters of the
      passed sources were actually consumed, keeping the computed total
      under ``2 * consumed``.  A phase that explores under 10% of its
      centers degrades to exactly the per-center loop, while
      full-consumption loops grow their chunks geometrically into
      budget-sized passes; and
    * results are byte-identical to per-center :func:`bounded_bfs` calls
      — the explorations themselves do not depend on what the phase
      skipped, only the caller's post-filtering does.

    When an :class:`ExplorationCache` is installed for the same graph
    (:func:`shared_explorations`), the explorer serves hits from it and
    seeds every batched result into it, so cross-spec sharing and
    batching compose.

    The chunk size follows the byte budget of the kernel layer
    (``memory_budget`` / ``REPRO_BATCH_MEMORY_BUDGET``).
    """

    #: Sources fetched one at a time before the explorer trusts the
    #: observed survival rate enough to speculate past the asked-for
    #: source.  The window costs nothing: unbatched fetches are exactly
    #: what the per-center loop would have done.
    OBSERVATION_WINDOW = 8


    def __init__(
        self,
        graph: Graph,
        sources: Iterable[int],
        radius,
        *,
        memory_budget: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.radius = kernels.normalize_radius(radius)
        self.sources: List[int] = list(sources)
        # Sources are located by scanning forward along the declared
        # order (consumption follows it), so a phase pays O(len(sources))
        # bookkeeping total instead of an up-front index over thousands
        # of centers it may never explore.  Invalid sources are rejected
        # by the kernels at exploration time.
        self._scan = 0
        self._memory_budget = memory_budget
        self._store: Dict[int, Dict[int, int]] = {}
        self._computed: set = set()
        self._budget_chunk: Optional[int] = None
        self._no_speculation = False
        self._result_entries = 0
        self.batched_passes = 0
        self.prefetched = 0
        self.consumed = 0

    def explore(self, source: int) -> Dict[int, int]:
        """The bounded exploration from ``source`` at the phase radius.

        Byte-identical to ``bounded_bfs(graph, source, radius)``.  Each
        stored result is handed out once (ownership moves to the caller,
        matching the fresh dict a per-center call would return); asking
        again recomputes, exactly like the historical loop did.
        """
        if self._no_speculation:
            # Locked to single fetches: this is the per-center loop with
            # one extra dict probe (earlier speculation may still hold a
            # result for this source).
            self.consumed += 1
            stored = self._store.pop(source, None)
            if stored is not None:
                return stored
            self.prefetched += 1
            return bounded_bfs(self.graph, source, self.radius)
        self.consumed += 1
        stored = self._store.pop(source, None)
        if stored is not None:
            return stored
        cache = active_exploration_cache(self.graph)
        if cache is not None:
            hit = cache.cached_bounded_bfs(source, self.radius)
            if hit is not None:
                return hit
        index = self._find(source)
        if index is None:
            # Not declared, already passed in the declared order, or
            # asked again after its result was handed out: fall back to
            # the plain call (and the shared cache, if any) rather than
            # failing the phase.
            return bounded_bfs(self.graph, source, self.radius)
        self._prefetch_from(index, cache)
        stored = self._store.pop(source, None)
        if stored is None:  # skipped by the prefetch filter (cache-held)
            return bounded_bfs(self.graph, source, self.radius)
        return stored

    def _find(self, source: int) -> Optional[int]:
        """The declared index of ``source`` at/after the scan point, or None.

        Only commits the scan pointer on a hit, so an out-of-order or
        repeated ask degrades that one call, not the whole phase.
        """
        sources = self.sources
        i = self._scan
        while i < len(sources) and sources[i] != source:
            i += 1
        if i >= len(sources):
            return None
        self._scan = i
        return i

    def _prefetch_from(self, start: int, cache: Optional[ExplorationCache]) -> None:
        """Batch-explore the next chunk of pending sources from ``start``."""
        if self._budget_chunk is None:
            # Unbounded explorations materialize O(n)-entry result dicts
            # per source (far heavier than the kernel's flat buffers), so
            # budget them at dict cost: ~4x the 32-bytes-per-vertex
            # kernel estimate.
            cost = self.graph.num_vertices * (4 if self.radius is None else 1)
            self._budget_chunk = kernels.batch_chunk_size(
                cost, len(self.sources), self._memory_budget
            )
        budget_chunk = self._budget_chunk
        # Every declared source before this miss is consumed or dead, so
        # the phase's survival rate is known exactly.  Fetch singly
        # through the observation window and whenever fewer than half of
        # the passed sources were consumed (a skip-heavy phase cannot
        # amortize speculative explorations); otherwise speculate with a
        # geometrically growing chunk bounded by 2 * consumed.
        passed = start + 1
        if passed >= self.OBSERVATION_WINDOW and 4 * self.consumed < 3 * passed:
            # Sticky: once survival drops below 3/4, this phase stays on
            # single fetches.  The bar is high because speculation only
            # pays when nearly everything speculated gets consumed — a
            # vectorized pass is a few times faster per exploration, so
            # even 50% waste eats most of the gain — and because loops
            # that consume everything (neighbor maps, baselines,
            # workloads) sit at exactly 100%.
            self._no_speculation = True
        if self._no_speculation or passed < self.OBSERVATION_WINDOW:
            chunk = 1
        else:
            allowance = 2 * self.consumed - self.prefetched
            chunk = max(1, min(budget_chunk, allowance))
        pending: List[int] = []
        for s in self.sources[start:]:
            if len(pending) >= chunk:
                break
            if s in self._computed or s in self._store:
                continue
            if cache is not None and ("bfs", s, self.radius) in cache._store:
                continue
            pending.append(s)
        if len(pending) == 1:  # no speculation: skip the generator machinery
            results = [kernels.bounded_bfs(self.graph.csr(), pending[0], self.radius)]
        else:
            results = kernels.batched_bfs(
                self.graph.csr(), pending, self.radius,
                memory_budget=self._memory_budget,
            )
        for s, dist in zip(pending, results):
            self._store[s] = dist
            self._computed.add(s)
            self._result_entries += len(dist)
            if cache is not None:
                cache.seed_bounded_bfs(s, self.radius, dist)
        self.batched_passes += 1
        self.prefetched += len(pending)


# ----------------------------------------------------------------------
# BFS family (kernel-backed)
# ----------------------------------------------------------------------
def bfs_distances(graph: Graph, source: int) -> Dict[int, int]:
    """Distances from ``source`` to every reachable vertex."""
    return bounded_bfs(graph, source, None)


def bounded_bfs(graph: Graph, source: int, radius: Optional[float]) -> Dict[int, int]:
    """Distances from ``source`` to all vertices within ``radius`` hops.

    Parameters
    ----------
    graph:
        The unweighted graph to explore.
    source:
        Start vertex.
    radius:
        Maximum distance to explore; ``None`` (or ``inf``) means
        unbounded.  Distances are integers, so a float radius is clamped
        to ``floor(radius)`` once up front.  Negative radii raise
        ``ValueError``.

    Returns
    -------
    dict
        ``vertex -> hop distance`` including the source at distance 0.
    """
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    clamped = kernels.normalize_radius(radius)
    cache = _ACTIVE_CACHE
    if cache is not None and cache.graph is graph:
        return cache.bounded_bfs(source, clamped)
    return kernels.bounded_bfs(graph.csr(), source, clamped)


def bfs_tree(graph: Graph, source: int, radius: Optional[float] = None) -> Dict[int, int]:
    """BFS tree from ``source``: map ``vertex -> parent`` (source maps to itself).

    The tree spans exactly the vertices :func:`bounded_bfs` reaches: the
    radius is clamped the same way, and a negative one raises
    ``ValueError``.
    """
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    radius = kernels.normalize_radius(radius)
    parent: Dict[int, int] = {source: source}
    dist: Dict[int, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in parent:
                parent[v] = u
                dist[v] = du + 1
                queue.append(v)
    return parent


def multi_source_bfs(
    graph: Graph, sources: Iterable[int], radius: Optional[float] = None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Multi-source BFS.

    Returns a pair ``(dist, origin)`` where ``dist[v]`` is the distance from
    ``v`` to the closest source and ``origin[v]`` is that source.  Ties are
    broken toward the smallest source ID, which makes the result
    deterministic — the deterministic constructions rely on this.
    """
    source_list = sorted(set(sources))
    for s in source_list:
        if s not in graph:
            raise ValueError(f"source {s} not in graph")
    clamped = kernels.normalize_radius(radius)
    cache = _ACTIVE_CACHE
    if cache is not None and cache.graph is graph:
        return cache.multi_source_bfs(tuple(source_list), clamped)
    return kernels.multi_source_bfs(graph.csr(), source_list, clamped, normalized=True)


def multi_source_attributed(
    graph: Graph, sources: Iterable[int], radius: Optional[float] = None
) -> Dict[int, Tuple[int, int]]:
    """One pass mapping each reached vertex to ``(nearest source, distance)``.

    The Voronoi view of :func:`multi_source_bfs` for call sites that only
    need nearest-source assignments (e.g. "attach each cluster to its
    closest sampled center") — one multi-source kernel pass replaces a
    bounded BFS per center.  Ties break toward the smallest source ID;
    an installed :class:`ExplorationCache` is consulted like every other
    exploration.
    """
    dist, origin = multi_source_bfs(graph, sources, radius)
    return {v: (origin[v], d) for v, d in dist.items()}


def dijkstra(
    graph: Graph, source: int, weights: Optional[Dict[Tuple[int, int], float]] = None
) -> Dict[int, float]:
    """Dijkstra on an unweighted graph with optional per-edge weight overrides.

    With ``weights=None`` this is equivalent to :func:`bfs_distances` but is
    provided for symmetry with the paper's exposition ("Dijkstra
    exploration").  ``weights`` maps ordered pairs ``(min(u,v), max(u,v))``
    to positive weights; missing edges default to 1.
    """
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    if weights is None:
        return {v: float(d) for v, d in bfs_distances(graph, source).items()}

    def edge_weight(u: int, v: int) -> float:
        key = (u, v) if u < v else (v, u)
        return weights.get(key, 1.0)

    dist: Dict[int, float] = {source: 0.0}
    settled: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        for v in graph.neighbors(u):
            nd = d + edge_weight(u, v)
            if v not in settled and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


def bounded_dijkstra(graph: Graph, source: int, radius: float) -> Dict[int, int]:
    """Bounded exploration in the paper's terms (a "Dijkstra exploration").

    On unweighted graphs a Dijkstra exploration to depth ``radius`` is a
    bounded BFS; this thin wrapper keeps the paper's terminology at call
    sites.
    """
    return bounded_bfs(graph, source, radius)


def all_pairs_shortest_paths(graph: Graph) -> List[Dict[int, int]]:
    """Exact all-pairs distances as a list of per-source dictionaries.

    Intended for small graphs used in exact stretch validation; quadratic
    memory in the worst case.
    """
    return [bfs_distances(graph, s) for s in graph.vertices()]


def eccentricity(graph: Graph, source: int) -> int:
    """Eccentricity of ``source`` within its connected component."""
    dist = bfs_distances(graph, source)
    return max(dist.values()) if dist else 0


def diameter(graph: Graph) -> int:
    """Diameter of the graph (max eccentricity over its largest component).

    For disconnected graphs, the diameter of the component containing the
    most vertices is reported.
    """
    if graph.num_vertices == 0:
        return 0
    components = graph.connected_components()
    largest = max(components, key=len)
    return max(eccentricity(graph, v) for v in largest)


# ----------------------------------------------------------------------
# Reference dict implementations (equivalence suite + benchmarks only)
# ----------------------------------------------------------------------
def _dict_bounded_bfs(graph: Graph, source: int, radius: Optional[float]) -> Dict[int, int]:
    """The pre-kernel dict/deque BFS, kept as the behavioural reference."""
    if source not in graph:
        raise ValueError(f"source {source} not in graph")
    dist: Dict[int, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    if radius is not None:
        return {v: d for v, d in dist.items() if d <= radius}
    return dist


def _dict_bfs_distances(graph: Graph, source: int) -> Dict[int, int]:
    """Reference unbounded BFS (see :func:`_dict_bounded_bfs`)."""
    return _dict_bounded_bfs(graph, source, None)


def _dict_multi_source_bfs(
    graph: Graph, sources: Iterable[int], radius: Optional[float] = None
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """The pre-kernel dict/deque multi-source BFS, kept as the reference."""
    source_list = sorted(set(sources))
    dist: Dict[int, int] = {}
    origin: Dict[int, int] = {}
    queue: deque = deque()
    for s in source_list:
        if s not in graph:
            raise ValueError(f"source {s} not in graph")
        dist[s] = 0
        origin[s] = s
        queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        if radius is not None and du >= radius:
            continue
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                origin[v] = origin[u]
                queue.append(v)
    if radius is not None:
        keep = {v for v, d in dist.items() if d <= radius}
        dist = {v: dist[v] for v in keep}
        origin = {v: origin[v] for v in keep}
    return dist, origin
