"""Sharded, cached execution of ``(graph, BuildSpec)`` work grids.

:func:`execute_sweep` is the execution engine behind
:func:`repro.api.pipeline.run_sweep` (and, transitively, the CLI ``sweep``
sub-command and the experiment harness).  It takes the fully expanded grid
— named graphs × specs — and runs it through three layers:

1. **Content-addressed caching** (:mod:`repro.api.cache`).  Each task's
   key is ``(graph content hash, spec fingerprint, code version)``; hits
   skip the builder entirely and are tagged ``cache_hit`` in the record's
   stats.
2. **Sharded building.**  With ``workers > 1`` the remaining tasks are
   sharded across a :class:`concurrent.futures.ProcessPoolExecutor`.
   Tasks whose graph or spec cannot be pickled fall back to serial
   in-process execution, as does any task whose *result* cannot be sent
   back from a worker — parallelism is an optimization, never a
   correctness requirement, and ``workers=1`` never touches
   ``multiprocessing`` at all.
3. **Batched verification.**  Verification of every result on the same
   graph shares one :class:`GraphBaseline`, so the graph-side BFS
   distances (the expensive half of every stretch check) are computed
   once per graph instead of once per spec.

Builds share nothing else: each builder reads its own per-center
neighbourhoods from the CSR snapshot, which measured no slower than
sharing explorations across the specs of a sweep.

The records come back in deterministic grid order (graphs outer, specs
inner) regardless of worker scheduling, so parallel runs are
reproducible: the only fields that may differ from a serial run are the
timing / provenance stats (``elapsed``, ``worker``, ``cache_hit``).
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.api.cache import ResultCache, resolve_cache
from repro.api.facade import build, clear_build_hooks, emit_build_event
from repro.api.result import BuildResultAdapter
from repro.api.spec import BuildSpec
from repro.graphs.graph import Graph
from repro.faults import fault_point
from repro.graphs.shortest_paths import bfs_distances
from repro.obs import capture_spans, freeze_spans, merge_spans, span

__all__ = ["GraphBaseline", "execute_sweep", "verify_with_baseline"]

#: A single unit of work: (task index, graph, spec).
_Task = Tuple[int, Graph, BuildSpec]

#: One task's outcome: (index, worker pid, result or None, retries used,
#: error string or None).  ``result is None`` with an error set means the
#: task failed past its retry budget.
_Outcome = Tuple[int, int, Optional[BuildResultAdapter], int, Optional[str]]

GraphsArg = Union[Graph, Mapping[str, Graph], Iterable[Tuple[str, Graph]]]


def named_graphs(graphs: GraphsArg) -> List[Tuple[str, Graph]]:
    """Normalize the ``graphs`` argument to an ordered ``(name, graph)`` list."""
    if isinstance(graphs, Graph):
        return [("graph", graphs)]
    if isinstance(graphs, Mapping):
        return list(graphs.items())
    return list(graphs)


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: One unit of worker shipment: a graph, the (index, spec) pairs to build
#: on it, and the per-task retry budget.  Chunking per graph means a
#: k-spec sweep ships the graph once per chunk instead of once per spec.
_Chunk = Tuple[Graph, List[Tuple[int, BuildSpec]], int]


def _build_with_retry(
    graph: Graph, spec: BuildSpec, index: int, retries: int,
) -> Tuple[BuildResultAdapter, int]:
    """Build one task, retrying in-process up to ``retries`` extra times.

    Returns ``(result, retries used)``.  The ``sweep.task`` fault point
    fires before every attempt, so an ``nth``/``times``-capped fault rule
    exercises exactly the retry path.  The final failure propagates to
    the caller.
    """
    attempt = 0
    while True:
        try:
            fault_point("sweep.task", index=index, product=spec.product,
                        method=spec.method, attempt=attempt)
            return build(graph, spec), attempt
        except Exception:
            if attempt >= retries:
                raise
            attempt += 1


def _execute_chunk(
    chunk: _Chunk,
) -> Tuple[List[Tuple[int, int, Optional[bytes], int, Optional[str]]], List[Dict[str, Any]]]:
    """Build one chunk of specs on one graph (runs inside a worker process).

    Returns ``(index, worker pid, pickled result, retries, error)``
    tuples — results are serialized exactly once here and the parent
    unpickles them, instead of a probe pickle plus a second pool-level
    pickle.  A payload slot is ``None`` with no error when the result
    cannot be pickled, in which case the parent rebuilds that task
    serially rather than crashing the pool; a set ``error`` means the
    task's build kept failing past its retry budget — the failure is
    reported to the parent instead of poisoning ``pool.map`` (which
    would discard every other result of the chunk).

    Telemetry spans recorded during the chunk ride back alongside the
    results as frozen dicts; the parent merges them into its own trace
    buffer (mirroring the ``on_build`` replay for worker results), so a
    parallel sweep's trace matches a serial sweep's.
    """
    graph, pairs, task_retries = chunk
    pid = os.getpid()
    out: List[Tuple[int, int, Optional[bytes], int, Optional[str]]] = []
    with capture_spans() as captured:
        for index, spec in pairs:
            try:
                result, retries = _build_with_retry(graph, spec, index, task_retries)
            except Exception as error:
                out.append((index, pid, None, task_retries,
                            f"{type(error).__name__}: {error}"))
                continue
            try:
                payload: Optional[bytes] = pickle.dumps(result)
            except Exception:
                payload = None
            out.append((index, pid, payload, retries, None))
    return out, freeze_spans(captured.spans)


def _run_serial(
    tasks: List[_Task],
    *,
    task_retries: int = 1,
    on_error: str = "raise",
) -> List[_Outcome]:
    """Build every task in-process (facade hooks fire normally).

    A task whose build keeps failing past ``task_retries`` either
    re-raises the original exception (``on_error="raise"``) or is
    reported as a failed outcome (``on_error="quarantine"``).
    """
    pid = os.getpid()
    outcomes: List[_Outcome] = []
    for index, graph, spec in tasks:
        try:
            result, retries = _build_with_retry(graph, spec, index, task_retries)
        except Exception as error:
            if on_error == "raise":
                raise
            outcomes.append((index, pid, None, task_retries,
                             f"{type(error).__name__}: {error}"))
            continue
        outcomes.append((index, pid, result, retries, None))
    return outcomes


def _chunk_tasks(tasks: List[_Task], workers: int, task_retries: int) -> List[_Chunk]:
    """Group tasks by graph, then split each group into at most ``workers`` chunks."""
    groups: Dict[int, Tuple[Graph, List[Tuple[int, BuildSpec]]]] = {}
    for index, graph, spec in tasks:
        key = id(graph)
        if key not in groups:
            groups[key] = (graph, [])
        groups[key][1].append((index, spec))
    chunks: List[_Chunk] = []
    for graph, pairs in groups.values():
        per_chunk = max(1, -(-len(pairs) // workers))  # ceil division
        for start in range(0, len(pairs), per_chunk):
            chunks.append((graph, pairs[start:start + per_chunk], task_retries))
    return chunks


class _NullSink:
    """Write target that discards everything (picklability probe)."""

    def write(self, data) -> int:
        return len(data)


def _picklable(value) -> bool:
    """Whether ``value`` pickles, without materializing the bytes."""
    try:
        pickle.Pickler(_NullSink(), protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    except Exception:
        return False
    return True


def _run_parallel(
    tasks: List[_Task],
    workers: int,
    *,
    task_retries: int = 1,
    on_error: str = "raise",
) -> List[_Outcome]:
    """Shard ``tasks`` across a process pool, falling back serially as needed."""
    parallelizable: List[_Task] = []
    serial: List[_Task] = []
    graph_picklable: Dict[int, bool] = {}  # memoized per graph object, not per task
    for task in tasks:
        graph, spec = task[1], task[2]
        picklable = graph_picklable.get(id(graph))
        if picklable is None:
            picklable = graph_picklable[id(graph)] = _picklable(graph)
        if picklable:
            picklable = _picklable(spec)
        (parallelizable if picklable else serial).append(task)

    outcomes: List[_Outcome] = []
    if parallelizable:
        by_index = {task[0]: task for task in parallelizable}
        try:
            # Fork-started workers inherit the parent's registered
            # on_build hooks; clear them so each build's event fires
            # exactly once — in the parent, via the replay in
            # execute_sweep — regardless of start method.
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=clear_build_hooks
            )
        except (OSError, ValueError, NotImplementedError) as error:
            # Process pools are unavailable on some platforms/sandboxes
            # (missing semaphores, fork restrictions); degrade gracefully.
            warnings.warn(
                f"process pool unavailable ({error}); running the sweep serially",
                RuntimeWarning,
                stacklevel=3,
            )
            serial.extend(parallelizable)
        else:
            finished: set = set()
            try:
                with pool:
                    for chunk_results, chunk_spans in pool.map(
                        _execute_chunk,
                        _chunk_tasks(parallelizable, workers, task_retries),
                    ):
                        merge_spans(chunk_spans)
                        for index, pid, payload, retries, error in chunk_results:
                            finished.add(index)
                            if error is not None:
                                outcomes.append((index, pid, None, retries, error))
                            elif payload is None:
                                serial.append(by_index[index])
                            else:
                                outcomes.append(
                                    (index, pid, pickle.loads(payload), retries, None)
                                )
            except BrokenProcessPool as error:
                # A worker died mid-sweep (OOM kill, sandbox restriction).
                # Parallelism is never a correctness requirement: rebuild
                # everything that did not come back.
                warnings.warn(
                    f"process pool broke mid-sweep ({error}); finishing serially",
                    RuntimeWarning,
                    stacklevel=3,
                )
                serial.extend(task for task in parallelizable if task[0] not in finished)
    outcomes.extend(_run_serial(serial, task_retries=task_retries, on_error=on_error))
    return outcomes


# ----------------------------------------------------------------------
# Batched verification
# ----------------------------------------------------------------------
class GraphBaseline:
    """Per-graph verification baselines, computed once and shared.

    Every stretch check needs the true BFS distances of the input graph
    from each checked source; across a sweep the same graph is verified
    once per spec, so those BFS runs dominate verification cost.  This
    object memoizes ``bfs_distances`` per source; ``distances`` is passed
    as the ``graph_distances`` provider of the stock validators, turning
    per-spec verification into per-graph baseline work plus a cheap
    per-result distance query.

    The memo is bounded (``max_sources``, FIFO eviction) so that full
    verification of a large graph cannot retain O(n^2) distance entries;
    past the cap the baseline degrades gracefully toward the old
    recompute-per-result behaviour.
    """

    #: Default bound on memoized sources (~each dict has up to n entries).
    DEFAULT_MAX_SOURCES = 4096

    def __init__(self, graph: Graph, max_sources: int = DEFAULT_MAX_SOURCES) -> None:
        self.graph = graph
        self.max_sources = max_sources
        self._distances: Dict[int, Dict[int, int]] = {}

    def distances(self, source: int) -> Dict[int, int]:
        """Memoized ``bfs_distances(graph, source)`` (bounded, FIFO eviction)."""
        cached = self._distances.get(source)
        if cached is None:
            cached = bfs_distances(self.graph, source)
            if len(self._distances) >= self.max_sources:
                self._distances.pop(next(iter(self._distances)))
            self._distances[source] = cached
        return cached


def verify_with_baseline(
    result: BuildResultAdapter,
    baseline: GraphBaseline,
    *,
    sample_pairs: Optional[int] = None,
    seed: Optional[int] = None,
) -> Any:
    """Check ``result``'s guarantee against ``baseline.graph``.

    Exactly ``result.verify(baseline.graph, ...)``, but with the
    baseline's memoized ``graph_distances`` provider handed to the
    validators, so verifying many results on one graph pays for each
    graph-side BFS only once.
    """
    return result.verify(
        baseline.graph, sample_pairs=sample_pairs, seed=seed,
        graph_distances=baseline.distances,
    )


# ----------------------------------------------------------------------
# The execution engine
# ----------------------------------------------------------------------
def execute_sweep(
    graphs: GraphsArg,
    specs: Iterable[BuildSpec],
    *,
    workers: Union[int, str, None] = 1,
    cache: Union[None, bool, str, "os.PathLike[str]", ResultCache] = None,
    verify: Union[None, bool, int] = None,
    task_retries: int = 1,
    on_error: str = "raise",
    dist: Union[None, bool, str, Mapping[str, Any], Any] = None,
):
    """Run every spec on every graph; return :class:`SweepRecord` objects.

    Parameters
    ----------
    graphs:
        A graph, a ``{name: graph}`` mapping, or ``(name, graph)`` pairs.
    specs:
        The expanded grid (see :meth:`repro.api.pipeline.GridSweep.specs`).
    workers:
        Number of worker processes; ``1`` (the default) runs serially
        in-process, ``None`` means ``os.cpu_count()``.  The string form
        ``"dist"`` / ``"dist:HOST:PORT"`` runs the sweep through the
        fault-tolerant work-queue executor (:mod:`repro.dist`) instead:
        an embedded coordinator leases tasks to workers over HTTP and
        results travel through the shared content-addressed cache.
    cache:
        Result cache: ``None``/``False`` disables, ``True`` uses the
        default directory, a path selects a directory, or pass a
        :class:`~repro.api.cache.ResultCache` directly.
    verify:
        ``None``/``False`` skips verification, an ``int`` checks that
        many sampled pairs per result, ``True`` checks every pair.
        Verification is batched per graph (see :class:`GraphBaseline`).
    task_retries:
        How many extra in-process build attempts a failing task gets
        before its failure is final (default ``1``).  Transient failures
        — a flaky dependency, an injected fault — are absorbed without
        collapsing the sweep; the retry count rides in each record's
        ``stats["retries"]`` (``0`` for first-attempt successes and
        cache hits), so fault-free and recovered sweeps are
        distinguishable even though their results are byte-identical.
    on_error:
        What to do when a task fails past its retry budget:
        ``"raise"`` (the default) propagates the failure —
        the original exception from a serial build, a ``RuntimeError``
        naming the task for a worker-side failure.  ``"quarantine"``
        records the poisoned task (``result=None``, ``stats["error"]``,
        ``stats["quarantined"]=True``) and lets every other task of the
        sweep complete normally; quarantined tasks are never cached,
        verified, or announced via ``on_build`` hooks.  The distributed
        executor has its own attempt cap (``max_attempts`` leases per
        task) and feeds tasks past it into the same quarantine path.
    dist:
        Distributed-executor knobs; any truthy value engages
        :mod:`repro.dist` (as does ``workers="dist..."``).  ``True``
        uses the defaults (embedded coordinator on an ephemeral
        127.0.0.1 port, two local worker subprocesses, kept warm for
        the next sweep in this process); a mapping or
        :class:`~repro.dist.executor.DistConfig` sets ``host``,
        ``port``, ``local_workers``, ``worker_mode``
        (``"process"``/``"thread"``), ``lease_ttl``, ``max_attempts``,
        ``journal`` (coordinator journal path, enabling restart
        resume) and ``wait_timeout``.  With an integer ``workers > 1``
        alongside, that count becomes the default ``local_workers``.
        Tasks that cannot travel the wire (explicit schedules,
        unpicklable graphs, non-scalar options) fall back to serial
        in-process execution, like the process pool's picklability
        fallback.

    Returns
    -------
    list of SweepRecord
        In deterministic grid order (graphs outer, specs inner).  Each
        record's ``stats`` carry ``worker`` (builder pid, or ``None`` for
        a cache hit), ``elapsed``, ``retries``, and — only when caching
        is enabled — ``cache_hit``.

    Notes
    -----
    ``on_build`` hooks registered in this process fire for every build
    of the sweep: in-process builds fire them at the facade, and
    worker-built results have their event replayed in the parent.  Cache
    hits never fire hooks — no build happened.
    """
    from repro.api.pipeline import SweepRecord

    if task_retries < 0:
        raise ValueError(f"task_retries must be >= 0, got {task_retries}")
    if on_error not in ("raise", "quarantine"):
        raise ValueError(
            f"on_error must be 'raise' or 'quarantine', got {on_error!r}"
        )
    bind = None
    if isinstance(workers, str):
        text = workers.strip()
        if not (text == "dist" or text.startswith("dist:")):
            raise ValueError(
                "workers must be an int, None, or 'dist[:host][:port]', "
                f"got {workers!r}"
            )
        from repro.dist.protocol import parse_bind

        rest = text[len("dist"):].lstrip(":")
        if rest:
            bind = parse_bind(rest)
        if dist is None or dist is False:
            dist = True
        workers = 1
    dist_config = None
    if dist is not None and dist is not False:
        from repro.dist.executor import DistConfig

        hint = workers if isinstance(workers, int) and workers > 1 else None
        dist_config = DistConfig.from_value(
            True if dist is True else dist, workers_hint=hint
        )
        if bind is not None and not (
            isinstance(dist, Mapping) and ("host" in dist or "port" in dist)
        ):
            dist_config.host, dist_config.port = bind
    named = named_graphs(graphs)
    spec_list = list(specs)
    store = resolve_cache(cache)
    if workers is None:
        workers = os.cpu_count() or 1

    grid: List[Tuple[int, str, Graph, BuildSpec]] = []
    index = 0
    for name, graph in named:
        for spec in spec_list:
            grid.append((index, name, graph, spec))
            index += 1

    outcomes: Dict[int, Tuple[Optional[BuildResultAdapter], Dict[str, Any]]] = {}
    keys: Dict[int, Optional[str]] = {}
    pending: List[_Task] = []
    graph_hashes: Dict[int, str] = {}
    for task_index, _name, graph, spec in grid:
        if store is not None:
            graph_key = id(graph)
            if graph_key not in graph_hashes:
                graph_hashes[graph_key] = graph.content_hash()
            key = store.key(graph_hashes[graph_key], spec)
            cached = store.get(key)
            if cached is not None:
                outcomes[task_index] = (
                    cached, {"cache_hit": True, "worker": None, "retries": 0}
                )
                continue
            keys[task_index] = key
        pending.append((task_index, graph, spec))

    if pending:
        # Worker-recorded spans merge under this span, so serial and
        # parallel sweeps produce the same span tree.
        with span("sweep.build", tasks=len(pending), total=len(grid)):
            if dist_config is not None:
                from repro.dist.executor import run_distributed

                names = {index: name for index, name, _graph, _spec in grid}
                built = run_distributed(
                    pending, names, store, dist_config,
                    task_retries=task_retries, on_error=on_error,
                )
            elif workers > 1 and len(pending) > 1:
                built = _run_parallel(
                    pending, workers, task_retries=task_retries, on_error=on_error,
                )
            else:
                built = _run_serial(pending, task_retries=task_retries, on_error=on_error)
        parent_pid = os.getpid()
        for task_index, worker_pid, result, retries, error in built:
            if error is not None or result is None:
                if on_error == "raise":
                    # Serial failures re-raise in place; this path is a
                    # worker-side failure reported back through the pool.
                    _, name, _graph, spec = grid[task_index]
                    raise RuntimeError(
                        f"sweep task {task_index} ({name}: "
                        f"{spec.product}/{spec.method}) failed after "
                        f"{retries + 1} attempt(s): {error}"
                    )
                outcomes[task_index] = (None, {
                    "worker": worker_pid, "retries": retries,
                    "quarantined": True, "error": error,
                })
                continue
            if worker_pid != parent_pid:
                # In-process builds fire hooks at the facade; replay the
                # event in the parent for worker-built results so
                # on_build instrumentation observes every build of the
                # sweep regardless of which process ran it.
                emit_build_event(result)
            stats: Dict[str, Any] = {"worker": worker_pid, "retries": retries}
            key = keys.get(task_index)
            if store is not None and key is not None:
                # cache_hit is only meaningful when a cache was actually
                # consulted; uncacheable specs (explicit schedule) carry
                # no cache_hit at all rather than reading as eternal
                # misses.
                stats["cache_hit"] = False
                store.put(key, result)
            outcomes[task_index] = (result, stats)

    records: List[SweepRecord] = []
    baselines: Dict[int, GraphBaseline] = {}
    for task_index, name, graph, spec in grid:
        result, stats = outcomes[task_index]
        verified: Optional[bool] = None
        if result is not None and verify is not None and verify is not False:
            if id(graph) not in baselines:
                baselines[id(graph)] = GraphBaseline(graph)
            baseline = baselines[id(graph)]
            pairs = None if verify is True else int(verify)
            verified = bool(
                verify_with_baseline(result, baseline, sample_pairs=pairs).valid
            )
        stats = dict(stats)
        if result is not None:
            stats["elapsed"] = result.elapsed
        records.append(
            SweepRecord(
                graph_name=name, spec=spec, result=result, verified=verified,
                stats=stats,
            )
        )
    return records
