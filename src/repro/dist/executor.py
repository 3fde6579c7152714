"""Glue between :func:`repro.api.executor.execute_sweep` and the work queue.

:func:`run_distributed` is the distributed counterpart of the executor's
``_run_parallel``: it takes the already-expanded pending task list,
stands up a :class:`~repro.dist.coordinator.DistCoordinator`, starts the
requested local workers (warm pooled subprocesses, or in-process threads
for tests), waits the sweep out, and returns the same
``(index, worker, result, retries, error)`` outcome tuples — so caching,
verification and record assembly upstream are untouched by *where* the
builds ran.

Split discipline (mirroring ``_run_parallel``'s picklability fallback):
tasks whose spec is uncacheable or unwireable, or whose graph does not
pickle, cannot travel the wire — they run in the coordinator process via
the executor's serial path.  Distribution is an optimization, never a
correctness requirement.

When the caller enabled no result cache, a throwaway
:class:`~repro.api.cache.ResultCache` in a temporary directory serves as
the transport and is deleted afterwards — the wire protocol always has a
content-addressed store to deliver through.

Local worker subprocesses that die (crash, OOM, kill) are respawned up
to ``max_attempts`` times while work remains; if every local worker is
gone, respawns are exhausted and no external worker has checked in
recently, the sweep fails loudly instead of waiting forever.

Local worker processes stay warm across sweeps.  Each is a
:func:`repro.dist.worker.serve_jobs` interpreter that takes one job (a
coordinator URL) per stdin line and answers with a summary line; after a
clean summary it goes back to a module-level pool, and the next sweep in
this process reuses it instead of paying interpreter start-up and
``import repro`` again (~1 s).  An idle worker costs its resident set
(~84 MB) and no CPU.  A worker is retired, never reused, when its job
crashed or lost the coordinator, when it ran under a ``REPRO_FAULTS``
plan (it exits by itself), when it is still busy as its sweep ends, or
when this process's environment or package root no longer match the
ones it was started with (``REPRO_*`` settings are read at import).
Workers exit on stdin EOF, so none outlives this process; an ``atexit``
hook closes and reaps the rest.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.cache import ResultCache
from repro.dist.coordinator import DistCoordinator
from repro.dist.protocol import parse_bind, wireable
from repro.dist.worker import DistWorker
from repro.obs import set_gauge

__all__ = ["DistConfig", "run_distributed"]


@dataclass
class DistConfig:
    """Knobs of one distributed sweep (see ``execute_sweep(dist=...)``).

    ``worker_mode`` selects how ``local_workers`` are run: ``"process"``
    (default) runs them in worker subprocesses — real parallelism, real
    crash semantics — kept warm across the sweeps of this process (see
    the module docstring for when one is retired); ``"thread"`` runs
    :class:`DistWorker` loops in-process — cheap and deterministic for
    tests.  ``local_workers=0`` starts nothing and waits for external
    workers (started via ``repro dist-worker --url ...``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    local_workers: int = 2
    worker_mode: str = "process"
    lease_ttl: float = 5.0
    max_attempts: int = 3
    journal: Optional[str] = None
    wait_timeout: Optional[float] = None
    verbose: bool = False
    #: Called with the coordinator URL once it is listening (the CLI
    #: prints its "coordinator listening on ..." line through this).
    announce: Optional[Callable[[str], None]] = None

    @classmethod
    def from_value(
        cls,
        value: Union[None, bool, str, Mapping[str, Any], "DistConfig"],
        *,
        workers_hint: Optional[int] = None,
    ) -> "DistConfig":
        """Coerce the user-facing ``dist=`` argument (plus ``workers=`` hints)."""
        if isinstance(value, DistConfig):
            return value
        config = cls()
        if workers_hint is not None and workers_hint >= 1:
            config.local_workers = workers_hint
        if isinstance(value, str):
            host, port = parse_bind(value)
            config.host, config.port = host, port
        elif isinstance(value, Mapping):
            unknown = set(value) - {f.name for f in config.__dataclass_fields__.values()}
            if unknown:
                raise ValueError(
                    f"unknown dist option(s) {sorted(unknown)}"
                )
            for key, item in value.items():
                setattr(config, key, item)
        elif value not in (None, True):
            raise ValueError(f"cannot interpret dist={value!r}")
        if config.worker_mode not in ("process", "thread"):
            raise ValueError(
                f"worker_mode must be 'process' or 'thread', "
                f"got {config.worker_mode!r}"
            )
        if config.local_workers < 0:
            raise ValueError("local_workers must be >= 0")
        return config


def parse_dist_workers(workers: str) -> DistConfig:
    """Parse the ``workers="dist[:host][:port]"`` string form."""
    rest = workers[len("dist"):].lstrip(":")
    config = DistConfig()
    if rest:
        config.host, config.port = parse_bind(rest)
    return config


def _graph_picklable(graph: Any, memo: Dict[int, bool]) -> bool:
    cached = memo.get(id(graph))
    if cached is None:
        try:
            pickle.dumps(graph)
            cached = True
        except Exception:
            cached = False
        memo[id(graph)] = cached
    return cached


#: The job server a pooled worker process runs (see serve_jobs).
_WORKER_MAIN = "from repro.dist.worker import serve_jobs; serve_jobs()"


class _PooledWorker:
    """One warm worker subprocess and the state of its current job."""

    def __init__(self, key: Tuple[Any, ...], env: Mapping[str, str]) -> None:
        self.key = key
        self.idle = False
        self._pending = b""
        self.process = subprocess.Popen(
            [sys.executable, "-c", _WORKER_MAIN],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )

    def start_job(self, url: str, cache_dir: str, worker_id: str) -> bool:
        """Hand the worker one job; ``False`` if it is gone."""
        job = {"url": url, "cache_dir": cache_dir, "worker_id": worker_id}
        try:
            self.process.stdin.write(json.dumps(job).encode("utf-8") + b"\n")
            self.process.stdin.flush()
        except OSError:
            return False
        return True

    def read_summary(self, deadline: float) -> Optional[Dict[str, Any]]:
        """The job's summary line, or ``None`` (exited, garbled, too slow)."""
        fd = self.process.stdout.fileno()
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                return None
            chunk = os.read(fd, 65536)
            if not chunk:
                return None
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        try:
            summary = json.loads(line.decode("utf-8"))
        except ValueError:
            return None
        return summary if isinstance(summary, dict) else None

    def close(self, terminate: bool = False) -> None:
        """End the process (EOF on stdin, or SIGTERM) and reap it."""
        if terminate and self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class _WorkerPool:
    """Every live local worker process of this interpreter, idle or busy."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: List[_PooledWorker] = []

    def acquire(self) -> _PooledWorker:
        """An idle live worker started in this environment, else a new one."""
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        key = (package_root, tuple(sorted(os.environ.items())))
        with self._lock:
            retired = [w for w in self._workers
                       if w.idle and (w.key != key or w.process.poll() is not None)]
            worker = next((w for w in self._workers
                           if w.idle and w not in retired), None)
            for stale in retired:
                self._workers.remove(stale)
            if worker is None:
                env = os.environ.copy()
                # Make the checkout's package importable in the child
                # whether or not repro is pip-installed (tests and CI run
                # from PYTHONPATH=src).
                existing = env.get("PYTHONPATH")
                env["PYTHONPATH"] = (
                    package_root + (os.pathsep + existing if existing else "")
                )
                worker = _PooledWorker(key, env)
                self._workers.append(worker)
            worker.idle = False
        for stale in retired:
            stale.close()
        return worker

    def discard(self, worker: _PooledWorker) -> None:
        """Terminate (if still running) and reap a worker."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.close(terminate=True)

    def idle_pids(self) -> List[int]:
        with self._lock:
            return [w.process.pid for w in self._workers if w.idle]

    def shutdown(self) -> None:
        """Close every worker's stdin, then reap them all (``atexit``)."""
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.process.stdin.close()
            except OSError:
                pass
        for worker in workers:
            worker.close()


_POOL = _WorkerPool()
atexit.register(_POOL.shutdown)


def _spawn_process_worker(url: str, cache_dir: str, worker_id: str) -> _PooledWorker:
    """Run one worker job against ``url`` in a pooled (or new) process."""
    worker = _POOL.acquire()
    if not worker.start_job(url, cache_dir, worker_id):
        # It died since it went idle: take another.  A fresh worker that
        # cannot take its job is returned all the same, as a dead process
        # the respawn loop handles like any other worker death.
        _POOL.discard(worker)
        worker = _POOL.acquire()
        worker.start_job(url, cache_dir, worker_id)
    return worker


def run_distributed(
    tasks: List[Tuple[int, Any, Any]],
    names: Mapping[int, str],
    store: Optional[ResultCache],
    config: DistConfig,
    *,
    task_retries: int = 1,
    on_error: str = "raise",
) -> List[Tuple[int, Any, Any, int, Optional[str]]]:
    """Run ``tasks`` (executor ``(index, graph, spec)`` tuples) distributed.

    Returns executor-shaped outcomes covering *every* input task — the
    wire-incapable remainder runs through the executor's serial path in
    this process.
    """
    from repro.api.executor import _run_serial

    transport_dir: Optional[str] = None
    if store is None:
        transport_dir = tempfile.mkdtemp(prefix="repro-dist-")
        store = ResultCache(transport_dir)

    memo: Dict[int, bool] = {}
    remote: List[Tuple[int, str, Any, Any]] = []
    local: List[Tuple[int, Any, Any]] = []
    for index, graph, spec in tasks:
        if wireable(spec) and _graph_picklable(graph, memo):
            key = store.key(graph.content_hash(), spec)
            if key is not None:
                remote.append((index, names.get(index, "graph"), graph, spec))
                continue
        local.append((index, graph, spec))

    outcomes: List[Tuple[int, Any, Any, int, Optional[str]]] = []
    try:
        if remote:
            outcomes.extend(_run_remote(remote, store, config))
        if local:
            outcomes.extend(_run_serial(local, task_retries=task_retries, on_error=on_error))
    finally:
        if transport_dir is not None:
            shutil.rmtree(transport_dir, ignore_errors=True)
    return outcomes


def _run_remote(
    remote: List[Tuple[int, str, Any, Any]],
    store: ResultCache,
    config: DistConfig,
) -> List[Tuple[int, Any, Any, int, Optional[str]]]:
    coordinator = DistCoordinator(
        remote, store,
        host=config.host, port=config.port,
        lease_ttl=config.lease_ttl, max_attempts=config.max_attempts,
        journal=config.journal, verbose=config.verbose,
    )
    coordinator.start()
    if config.announce is not None:
        config.announce(coordinator.url)

    processes: List[_PooledWorker] = []
    finished: List[_PooledWorker] = []
    threads: List[threading.Thread] = []
    respawns_left = config.max_attempts
    # Absolute: a pooled worker keeps the working directory it started in.
    cache_dir = os.path.abspath(store.directory)
    try:
        for i in range(config.local_workers):
            if config.worker_mode == "process":
                processes.append(_spawn_process_worker(
                    coordinator.url, cache_dir, f"local-{i}"
                ))
            else:
                worker = DistWorker(
                    coordinator.url, store, worker_id=f"local-{i}",
                    give_up_after=5.0,
                )
                thread = threading.Thread(
                    target=worker.run, name=f"dist-worker-{i}", daemon=True
                )
                thread.start()
                threads.append(thread)

        deadline = (
            None if config.wait_timeout is None
            else time.monotonic() + config.wait_timeout
        )
        while not coordinator.wait(timeout=0.2):
            if deadline is not None and time.monotonic() > deadline:
                raise RuntimeError(
                    f"distributed sweep timed out after "
                    f"{config.wait_timeout:.0f}s; status: "
                    f"{coordinator.status()['tasks']}"
                )
            if config.worker_mode == "process" and processes:
                live = [w for w in processes if w.process.poll() is None]
                if not live:
                    # Every local worker died with work outstanding.
                    # Respawn (bounded) — worker death must not strand
                    # the sweep — then fail loudly once the budget is
                    # spent and nobody external is picking up leases.
                    if respawns_left > 0:
                        respawns_left -= 1
                        processes.append(_spawn_process_worker(
                            coordinator.url, cache_dir,
                            f"respawn-{config.max_attempts - respawns_left}",
                        ))
                    elif not _external_workers_live(coordinator):
                        raise RuntimeError(
                            "distributed sweep stalled: every local worker "
                            "died and no external worker is live; status: "
                            f"{coordinator.status()['tasks']}"
                        )
        outcomes = coordinator.outcomes()
        # Let workers observe "done" (their held leases return at once)
        # and answer while the coordinator still serves; a worker that
        # has not answered cleanly by the deadline is terminated below.
        for thread in threads:
            thread.join(timeout=2.0)
        deadline = time.monotonic() + 2.0
        for worker in processes:
            summary = worker.read_summary(deadline)
            if summary is None:
                continue
            if summary.get("peak_rss_kb"):
                set_gauge("repro_dist_worker_peak_rss_bytes",
                          1024.0 * summary["peak_rss_kb"],
                          help="Peak resident set of a local worker process",
                          worker=summary["worker"])
            if summary.get("reusable"):
                finished.append(worker)
        return outcomes
    finally:
        coordinator.close()
        for worker in processes:
            if worker in finished:
                worker.idle = True  # back to the pool for the next sweep
            else:
                _POOL.discard(worker)
        for thread in threads:
            thread.join(timeout=1.0)


def _external_workers_live(coordinator: DistCoordinator) -> bool:
    status = coordinator.status()
    return any(
        info["live"] and not name.startswith(("local-", "respawn-"))
        for name, info in status["workers"].items()
    )
