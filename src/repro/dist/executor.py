"""Glue between :func:`repro.api.executor.execute_sweep` and the work queue.

:func:`run_distributed` is the distributed counterpart of the executor's
``_run_parallel``: it takes the already-expanded pending task list,
stands up a :class:`~repro.dist.coordinator.DistCoordinator`, spawns the
requested local workers (subprocesses running ``repro dist-worker``, or
in-process threads for tests), waits the sweep out, and returns the same
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
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.cache import ResultCache
from repro.dist.coordinator import DistCoordinator
from repro.dist.protocol import parse_bind, wireable
from repro.dist.worker import DistWorker

__all__ = ["DistConfig", "run_distributed"]


@dataclass
class DistConfig:
    """Knobs of one distributed sweep (see ``execute_sweep(dist=...)``).

    ``worker_mode`` selects how ``local_workers`` are run: ``"process"``
    (default) spawns ``repro dist-worker`` subprocesses — real
    parallelism, real crash semantics; ``"thread"`` runs
    :class:`DistWorker` loops in-process — cheap and deterministic for
    tests.  ``local_workers=0`` spawns nothing and waits for external
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
    #: Extra environment for spawned worker subprocesses (tests inject
    #: per-worker REPRO_FAULTS plans this way).
    worker_env: Mapping[str, str] = field(default_factory=dict)

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


def _spawn_process_worker(
    url: str, cache_dir: str, worker_id: str, env: Mapping[str, str]
) -> subprocess.Popen:
    """Start one ``repro dist-worker`` subprocess against ``url``."""
    import repro

    child_env = os.environ.copy()
    # Make the checkout's package importable in the child whether or not
    # repro is pip-installed (tests and CI run from PYTHONPATH=src).
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = (
        package_root + (os.pathsep + existing if existing else "")
    )
    child_env.update(env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "dist-worker",
         "--url", url, "--cache-dir", cache_dir, "--worker-id", worker_id],
        env=child_env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


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

    processes: List[subprocess.Popen] = []
    threads: List[threading.Thread] = []
    respawns_left = config.max_attempts
    cache_dir = str(store.directory)
    try:
        for i in range(config.local_workers):
            if config.worker_mode == "process":
                processes.append(_spawn_process_worker(
                    coordinator.url, cache_dir, f"local-{i}", config.worker_env
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
                live = [p for p in processes if p.poll() is None]
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
                            config.worker_env,
                        ))
                    elif not _external_workers_live(coordinator):
                        raise RuntimeError(
                            "distributed sweep stalled: every local worker "
                            "died and no external worker is live; status: "
                            f"{coordinator.status()['tasks']}"
                        )
        outcomes = coordinator.outcomes()
        # Let workers observe "done" on their next lease poll and exit
        # cleanly while the coordinator still answers; stragglers are
        # terminated below.
        for thread in threads:
            thread.join(timeout=2.0)
        for process in processes:
            try:
                process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                pass
        return outcomes
    finally:
        coordinator.close()
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
        for thread in threads:
            thread.join(timeout=1.0)


def _external_workers_live(coordinator: DistCoordinator) -> bool:
    status = coordinator.status()
    return any(
        info["live"] and not name.startswith(("local-", "respawn-"))
        for name, info in status["workers"].items()
    )
