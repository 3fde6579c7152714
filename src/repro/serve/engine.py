"""The query engine: bounded memoization, batching, multi-worker sharding.

Backends (:mod:`repro.serve.oracles`) answer every call from scratch; the
:class:`QueryEngine` wraps one backend with the serving-side machinery a
query front end actually needs:

* a **bounded per-source LRU memo** — production query streams cluster on
  few sources (the Zipf workloads of :mod:`repro.serve.workloads` model
  this), so memoizing single-source maps converts most queries into one
  row lookup.  The memo keeps whatever the backend's ``single_source``
  returns; for the emulator, spanner and exact backends that is a
  :class:`~repro.serve.oracles.DistanceRow`, one float64 row of
  ``8 * n`` bytes per memoized source.  The memo is bounded
  (``cache_sources``, true LRU: reads refresh recency), so a long-tailed
  stream cannot grow it past ``cache_sources`` rows.
* **thread safety with miss coalescing** — memo reads, writes and
  counters go through one lock, and a miss elects exactly one *leader*
  per source: the leader runs the backend's ``single_source`` outside the
  lock while concurrent queries for the same source wait on its result
  instead of duplicating the computation (``coalesced_queries`` counts
  them), and queries for other sources keep answering meanwhile.  Waits
  and misses honour the calling thread's :func:`deadline_scope`, which
  the daemon opens per request.
* **source-grouped batch execution** — a batch is answered with one
  single-source computation per distinct source, never one per query,
  even when the batch touches more sources than the memo holds (the
  batch's fresh maps live in a batch-local overlay for the duration of
  the answer loop).
* a **multi-worker mode** — ``query_batch(pairs, workers=k)`` shards the
  distinct uncached sources across a process pool.  The pool (and the
  pickled oracle that seeds its workers) is created once and reused by
  subsequent batches, since pool startup would otherwise dominate
  per-batch cost.  Following the sweep executor
  (:mod:`repro.api.executor`), parallelism is an optimization and never
  a correctness requirement: an unpicklable oracle, an unavailable pool,
  or a pool that breaks mid-batch all degrade to the serial path, and
  parallel answers are exactly the serial answers in the same order.

The engine itself satisfies the :class:`~repro.serve.oracles.DistanceOracle`
protocol, so anything written against the protocol (the load harness, the
routing scheme, user code) can take either a bare backend or an engine.
"""

from __future__ import annotations

import pickle
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.faults import fault_point
from repro.obs import span
from repro.serve.oracles import DistanceOracle

__all__ = [
    "DeadlineExceeded",
    "QueryEngine",
    "check_deadline",
    "deadline_scope",
    "remaining_time",
]

_INF = float("inf")


# ----------------------------------------------------------------------
# Per-request deadlines
# ----------------------------------------------------------------------
class DeadlineExceeded(RuntimeError):
    """A request overran its deadline (server default or client-supplied)."""


_DEADLINE = threading.local()


@contextmanager
def deadline_scope(seconds: Optional[float]) -> Iterator[None]:
    """Bound the calling thread's work to ``seconds`` (``None`` = unbounded).

    The scope is thread-local: the daemon wraps each request handler in
    one, and the engine's wait/loop points call :func:`check_deadline` /
    :func:`remaining_time` so a request past its budget fails fast with
    :class:`DeadlineExceeded` instead of holding a handler thread.
    """
    previous = getattr(_DEADLINE, "at", None)
    _DEADLINE.at = None if seconds is None else time.monotonic() + seconds
    try:
        yield
    finally:
        _DEADLINE.at = previous


def remaining_time() -> Optional[float]:
    """Seconds left in the calling thread's deadline scope (``None`` = unbounded)."""
    at = getattr(_DEADLINE, "at", None)
    return None if at is None else at - time.monotonic()


def check_deadline() -> None:
    """Raise :class:`DeadlineExceeded` if the thread's deadline has passed."""
    remaining = remaining_time()
    if remaining is not None and remaining <= 0:
        raise DeadlineExceeded("request deadline exceeded")


class _InFlight:
    """One in-flight single-source computation other threads can wait on."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[Mapping[int, float]] = None
        self.error: Optional[BaseException] = None


#: Oracle object used by pool workers, installed by the pool initializer.
_WORKER_ORACLE: Optional[DistanceOracle] = None


def _init_query_worker(payload: bytes) -> None:
    """Install the engine's oracle in a freshly started pool worker."""
    global _WORKER_ORACLE
    _WORKER_ORACLE = pickle.loads(payload)


def _worker_single_sources(sources: List[int]) -> List[Tuple[int, Mapping[int, float]]]:
    """Compute single-source maps for one shard (runs inside a pool worker)."""
    oracle = _WORKER_ORACLE
    assert oracle is not None, "pool worker used before initialization"
    return [(source, oracle.single_source(source)) for source in sources]


def _shard(sources: List[int], shards: int) -> List[List[int]]:
    """Split ``sources`` into at most ``shards`` contiguous chunks."""
    per_shard = max(1, -(-len(sources) // shards))  # ceil division
    return [sources[start : start + per_shard] for start in range(0, len(sources), per_shard)]


class QueryEngine:
    """A thread-safe :class:`DistanceOracle` with bounded LRU memoization.

    Parameters
    ----------
    oracle:
        The backend answering cache misses.
    cache_sources:
        Bound on the number of memoized single-source maps (>= 1).
    workers:
        Default process count for :meth:`query_batch`; ``1`` stays
        in-process.  Can be overridden per batch.

    Notes
    -----
    Any number of threads may query one engine: concurrent misses for the
    same source share one backend computation (see the module notes).
    The first multi-worker batch lazily starts a process pool that stays
    alive for the engine's lifetime; call :meth:`close` (or use the
    engine as a context manager) to release it early.
    """

    #: Monotone counter fields of :meth:`stats`; consumers reporting
    #: per-run numbers (the load harness, the daemon's ``/stats``) delta
    #: exactly these keys via :meth:`stats_delta`.
    COUNTER_KEYS = ("queries", "cache_hits", "cache_misses", "cache_evictions",
                    "parallel_batches", "prewarmed_sources", "coalesced_queries")

    def __init__(self, oracle: DistanceOracle, *, cache_sources: int = 256,
                 workers: int = 1) -> None:
        if cache_sources < 1:
            raise ValueError(f"cache_sources must be at least 1, got {cache_sources}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self._oracle = oracle
        self._cache: "OrderedDict[int, Mapping[int, float]]" = OrderedDict()
        self._cache_limit = cache_sources
        self._workers = workers
        # ``_lock`` guards the memo, the in-flight table and the counters;
        # ``_pool_lock`` serializes use and replacement of the pool.
        self._lock = threading.Lock()
        self._inflight: Dict[int, _InFlight] = {}
        self._pool_lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0
        self._pool_unusable = False
        self.queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.parallel_batches = 0
        self.prewarmed_sources = 0
        self.coalesced_queries = 0

    # ------------------------------------------------------------------
    # Introspection (protocol passthrough + engine counters)
    # ------------------------------------------------------------------
    @property
    def oracle(self) -> DistanceOracle:
        """The wrapped backend."""
        return self._oracle

    @property
    def alpha(self) -> float:
        """Multiplicative term of the answer guarantee."""
        return self._oracle.alpha

    @property
    def beta(self) -> float:
        """Additive term of the answer guarantee."""
        return self._oracle.beta

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the served graph."""
        return self._oracle.num_vertices

    @property
    def space_in_edges(self) -> int:
        """Edges stored by the backend (the memo is not counted)."""
        return self._oracle.space_in_edges

    @property
    def cache_sources(self) -> int:
        """The LRU memo bound."""
        return self._cache_limit

    @property
    def workers(self) -> int:
        """Default process count for :meth:`query_batch`."""
        return self._workers

    def stats(self) -> Dict[str, Any]:
        """Engine counters plus the backend's own statistics."""
        with self._lock:
            stats: Dict[str, Any] = {
                "queries": self.queries,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "cache_evictions": self.cache_evictions,
                "cached_sources": len(self._cache),
                "cache_sources_limit": self._cache_limit,
                "parallel_batches": self.parallel_batches,
                "prewarmed_sources": self.prewarmed_sources,
            }
            coalesced, inflight = self.coalesced_queries, len(self._inflight)
        stats["oracle"] = self._oracle.stats()
        stats["coalesced_queries"] = coalesced
        stats["inflight_sources"] = inflight
        return stats

    def stats_delta(self, since: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`stats` with the counter fields delta'd against a snapshot.

        ``since`` is a dict previously returned by :meth:`stats` (or
        :meth:`stats_delta`).  Every :data:`COUNTER_KEYS` field of the
        result is the difference current-minus-snapshot; gauges
        (``cached_sources``, limits, the backend's own stats) stay
        absolute.  This is the one sanctioned way to report per-stream
        counters — the load harness and the daemon's ``/stats`` both use
        it instead of hand-rolling the subtraction.
        """
        stats = self.stats()
        for key in self.COUNTER_KEYS:
            stats[key] -= since.get(key, 0)
        return stats

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """Approximate distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        with self._lock:
            self.queries += 1
        if u == v:
            return 0.0
        return self._distances_from(u).get(v, _INF)

    def single_source(self, source: int) -> Dict[int, float]:
        """All approximate distances from ``source`` (a fresh dict, caller-owned)."""
        self._check_vertex(source)
        return dict(self._distances_from(source).items())

    def query_batch(
        self, pairs: Iterable[Tuple[int, int]], *, workers: Optional[int] = None
    ) -> List[float]:
        """Approximate distances for many pairs, grouped by source.

        One single-source computation per distinct source, however many
        pairs share it and however small the memo is (the batch holds on
        to each map it fetched until it has answered).  With
        ``workers > 1`` the distinct uncached sources are sharded across
        the engine's process pool; answers are identical to the serial
        path and come back in input order regardless of worker scheduling.

        Counters: each distinct source not memoized when the batch reaches
        it counts one miss; every other non-self query of the batch counts
        one hit.  Misses always equal actual backend ``single_source``
        invocations.
        """
        pairs = list(pairs)
        for u, v in pairs:
            self._check_vertex(u)
            self._check_vertex(v)
        if workers is None:
            workers = self._workers
        sources = list(dict.fromkeys(u for u, v in pairs if u != v))
        non_self = sum(1 for u, v in pairs if u != v)
        with self._lock:
            self.queries += len(pairs)
            # Repeats of a source reuse the batch's map for it.
            self.cache_hits += non_self - len(sources)
        maps: Dict[int, Mapping[int, float]] = {}
        if workers > 1 and len(sources) > 1:
            maps = self._fill_parallel(sources, workers)
        for source in sources:
            if source not in maps:
                maps[source] = self._distances_from(source)
        return [0.0 if u == v else maps[u].get(v, _INF) for u, v in pairs]

    def prewarm(self, sources: Iterable[int], *, limit: Optional[int] = None) -> int:
        """Preload single-source maps for ``sources``; returns how many computed.

        Used for daemon warm-up from a saved
        :class:`~repro.serve.workloads.WorkloadProfile` (and usable
        directly for in-process pre-warming).  At most
        ``min(limit, cache_sources)`` maps are computed — warming past the
        LRU bound would evict what was just warmed.  Already-memoized and
        in-flight sources are skipped.  Each source is computed like a
        miss, outside the engine lock, so hits keep answering meanwhile
        and a query for a source being warmed joins its computation.
        Warm-up is bookkept in the
        ``prewarmed_sources`` counter, not as hits or misses, so serving
        counters still describe the query stream alone.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"prewarm limit must be non-negative, got {limit}")
        budget = self._cache_limit if limit is None else min(limit, self._cache_limit)
        warmed = 0
        for source in sources:
            if warmed >= budget:
                break
            self._check_vertex(source)
            with self._lock:
                if source in self._cache or source in self._inflight:
                    continue
                flight = self._inflight[source] = _InFlight()
            self._lead(source, flight, warm=True)
            warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the process pool and the backend's connection, if any."""
        with self._pool_lock:
            self._shutdown_pool()
        close_backend = getattr(self._oracle, "close", None)
        if close_backend is not None:
            close_backend()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit ordering
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _distances_from(self, source: int) -> Mapping[int, float]:
        """The memoized map for ``source``, computing it at most once at a time."""
        check_deadline()
        with self._lock:
            cached = self._cache.get(source)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(source)
                return cached
            flight = self._inflight.get(source)
            leader = flight is None
            if leader:
                flight = self._inflight[source] = _InFlight()
            else:
                # Another thread is already computing this source: join it.
                self.coalesced_queries += 1
        return self._lead(source, flight) if leader else self._join(source, flight)

    def _join(self, source: int, flight: _InFlight) -> Mapping[int, float]:
        """Wait for another thread's computation of ``source`` (lock not held)."""
        # A follower with a deadline waits only as long as its budget
        # allows — a wedged leader must not pile up handler threads.
        if not flight.done.wait(remaining_time()):
            raise DeadlineExceeded(f"deadline expired waiting on in-flight source {source}")
        if flight.error is not None:
            raise flight.error
        assert flight.result is not None
        return flight.result

    def _lead(self, source: int, flight: _InFlight, *,
              warm: bool = False) -> Mapping[int, float]:
        """Compute ``source`` for every waiter; the backend call runs unlocked."""
        try:
            fault_point("serve.single_source", source=source)
            # Only the miss path is spanned: a hit is a memo lookup and
            # must stay one.
            with span("serve.single_source", source=source):
                dist = self._oracle.single_source(source)
        except BaseException as error:
            self._publish(source, flight, error=error)
            raise
        self._publish(source, flight, dist, warm=warm)
        return dist

    def _publish(self, source: int, flight: _InFlight,
                 dist: Optional[Mapping[int, float]] = None, *,
                 error: Optional[BaseException] = None, warm: bool = False) -> None:
        """Memoize a leader's result (or drop its claim) and wake the waiters.

        The computation counts as a miss, or as a prewarmed source if ``warm``.
        """
        with self._lock:
            if error is None:
                if warm:
                    self.prewarmed_sources += 1
                else:
                    self.cache_misses += 1
                self._store(source, dist)
            self._inflight.pop(source, None)
        flight.result, flight.error = dist, error
        flight.done.set()

    def _store(self, source: int, dist: Mapping[int, float]) -> None:
        """Memoize ``dist`` under the LRU bound (caller holds ``_lock``)."""
        self._cache[source] = dist
        self._cache.move_to_end(source)
        while len(self._cache) > self._cache_limit:
            self._cache.popitem(last=False)
            self.cache_evictions += 1

    def _shutdown_pool(self) -> None:
        """Release the pool (caller holds ``_pool_lock``)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            self._pool_workers = 0

    def _get_pool(self, workers: int) -> Optional[ProcessPoolExecutor]:
        """The engine's persistent pool, (re)created on demand.

        Returns ``None`` when pools are unusable here (unpicklable
        oracle, platform without process pools); the decision is
        remembered so later batches skip straight to the serial path.
        The caller holds ``_pool_lock``.
        """
        if self._pool_unusable:
            return None
        if self._pool is not None and self._pool_workers >= workers:
            return self._pool
        try:
            payload = pickle.dumps(self._oracle)
        except Exception:
            self._pool_unusable = True
            return None
        self._shutdown_pool()
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_query_worker,
                initargs=(payload,),
            )
            self._pool_workers = workers
        except (OSError, ValueError, NotImplementedError) as error:
            warnings.warn(
                f"process pool unavailable ({error}); answering batches serially",
                RuntimeWarning,
                stacklevel=4,
            )
            self._pool_unusable = True
            self._pool = None
        return self._pool

    def _fill_parallel(
        self, sources: List[int], workers: int
    ) -> Dict[int, Mapping[int, float]]:
        """Compute the unclaimed uncached ``sources`` on the process pool.

        The sources are claimed as in-flight first, so concurrent queries
        for them wait on this batch instead of recomputing.  Returns the
        computed maps (also memoized).  Any failure mode — unpicklable
        oracle, unavailable pool, pool broken mid-batch — falls back to
        computing the remaining sources serially, mirroring
        :mod:`repro.api.executor`.
        """
        with self._lock:
            claimed = {source: _InFlight() for source in sources
                       if source not in self._cache and source not in self._inflight}
            self._inflight.update(claimed)
        fresh: Dict[int, Mapping[int, float]] = {}
        try:
            if len(claimed) > 1:
                with self._pool_lock:
                    pool = self._get_pool(workers)
                    if pool is not None:
                        try:
                            for shard in pool.map(_worker_single_sources,
                                                  _shard(list(claimed), workers)):
                                for source, dist in shard:
                                    self._publish(source, claimed[source], dist)
                                    fresh[source] = dist
                            with self._lock:
                                self.parallel_batches += 1
                        except BrokenProcessPool as error:
                            warnings.warn(
                                f"process pool broke mid-batch ({error}); finishing serially",
                                RuntimeWarning,
                                stacklevel=3,
                            )
                            self._shutdown_pool()
            for source, flight in claimed.items():
                if source not in fresh:
                    fresh[source] = self._lead(source, flight)
        except BaseException as error:
            for source, flight in claimed.items():
                if not flight.done.is_set():
                    self._publish(source, flight, error=error)
            raise
        return fresh

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._oracle.num_vertices):
            raise ValueError(f"vertex {v} out of range [0, {self._oracle.num_vertices})")
