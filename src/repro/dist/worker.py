"""The work-queue worker: lease, build, deliver, heartbeat.

A :class:`DistWorker` is a loop around the coordinator's wire protocol:

1. ``POST /lease`` — receive a ``(graph hash, spec)`` task, its lease id
   and the content-addressed key the result must land under.
2. Fetch the graph (``GET /graph``, memoized per hash — a k-spec sweep
   ships each graph once per worker, not once per task).
3. Build via the facade while a background thread renews the lease every
   ``ttl / 3`` seconds.
4. Deliver: write the result into the shared
   :class:`~repro.api.cache.ResultCache` (atomic rename — a crash can
   never leave a torn entry) and ``POST /complete`` with the key, the
   frozen telemetry spans of the build, and this process's fault-point
   counters, so the coordinator's trace and fault accounting cover
   remote builds exactly like local ones.

Every HTTP call retries with bounded backoff (honouring ``Retry-After``
on 503) for up to ``give_up_after`` seconds of consecutive failure, so a
worker rides out coordinator restarts and injected ``dist.*`` faults.

Failure semantics, mirror-imaged from the coordinator's state machine:

* A build *exception* is reported via ``/complete`` (``error=...``) —
  the coordinator decides between re-dispatch and quarantine.
* An injected ``dist.worker`` fault is a *crash*: the worker abandons
  the task silently (no ``/complete``, heartbeats stop) and exits its
  loop, exactly what a SIGKILL looks like from the coordinator's side —
  the lease expires and the task is re-dispatched.
* An injected ``dist.task`` fault is a *reported* build failure (it
  raises inside the build path), exercising the error/quarantine lane.

:func:`serve_jobs` is the entry point of the executor's warm local
worker processes (see :mod:`repro.dist.executor`): it runs one
:class:`DistWorker` per job line read from stdin and answers each with a
JSON summary line, so one interpreter serves sweep after sweep.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional

from repro.api.cache import ResultCache
from repro.api.facade import build
from repro.dist.protocol import spec_from_wire
from repro.faults import FaultInjected, active_plan, fault_point
from repro.obs import capture_spans, clear_spans, freeze_spans

__all__ = ["DistWorker", "serve_jobs"]


class CoordinatorUnreachable(RuntimeError):
    """The coordinator stayed unreachable past the worker's patience."""


class DistWorker:
    """One worker process/thread draining a coordinator's task queue.

    Parameters
    ----------
    url:
        Coordinator base URL (``http://host:port``).
    cache:
        The shared result store (same directory the coordinator reads).
    worker_id:
        Stable name for leases / status rows; defaults to
        ``"{hostname}-{pid}"``.
    poll:
        Idle sleep when the queue has nothing to lease (the coordinator's
        ``retry_after`` hint wins when provided).
    exit_when_done:
        Leave the loop when the coordinator reports the sweep done
        (``False`` keeps polling — a standing worker serving successive
        sweeps at the same URL).
    max_tasks:
        Optional cap on completed tasks (tests use it to stop early).
    give_up_after:
        Seconds of *consecutive* request failure before the worker
        declares the coordinator gone.
    """

    def __init__(
        self,
        url: str,
        cache: ResultCache,
        *,
        worker_id: Optional[str] = None,
        poll: float = 0.05,
        exit_when_done: bool = True,
        max_tasks: Optional[int] = None,
        request_timeout: float = 10.0,
        give_up_after: float = 30.0,
    ) -> None:
        self.url = url.rstrip("/")
        self.cache = cache
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.poll = poll
        self.exit_when_done = exit_when_done
        self.max_tasks = max_tasks
        self.request_timeout = request_timeout
        self.give_up_after = give_up_after
        self._graphs: Dict[str, Any] = {}
        self.completed = 0
        self.failed = 0
        self.leases = 0
        self.crashed = False
        self.unreachable = False

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _request(self, path: str, body: Optional[Dict[str, Any]] = None,
                 *, raw: bool = False) -> Any:
        """One wire call with deadline-bounded retry (backoff, Retry-After)."""
        deadline = time.monotonic() + self.give_up_after
        delay = 0.05
        while True:
            try:
                if body is None:
                    request = urllib.request.Request(self.url + path)
                else:
                    request = urllib.request.Request(
                        self.url + path,
                        data=json.dumps(body).encode("utf-8"),
                        headers={"Content-Type": "application/json"},
                    )
                with urllib.request.urlopen(
                    request, timeout=self.request_timeout
                ) as response:
                    payload = response.read()
                return payload if raw else json.loads(payload.decode("utf-8"))
            except urllib.error.HTTPError as error:
                with error:  # drain and release the connection
                    error.read()
                if error.code == 503:
                    retry_after = error.headers.get("Retry-After")
                    try:
                        wait = float(retry_after) if retry_after else delay
                    except ValueError:
                        wait = delay
                else:
                    # 4xx is a protocol disagreement, not a transient:
                    # surface it to the task loop.
                    if 400 <= error.code < 500:
                        raise
                    wait = delay
            except (urllib.error.URLError, ConnectionError, socket.timeout,
                    OSError, ValueError):
                wait = delay
            if time.monotonic() + wait > deadline:
                raise CoordinatorUnreachable(
                    f"coordinator at {self.url} unreachable for "
                    f"{self.give_up_after:.0f}s"
                )
            time.sleep(wait)
            delay = min(delay * 2.0, 0.5)

    def _fetch_graph(self, graph_hash: str) -> Any:
        graph = self._graphs.get(graph_hash)
        if graph is None:
            blob = self._request(f"/graph?hash={graph_hash}", raw=True)
            graph = pickle.loads(blob)
            self._graphs[graph_hash] = graph
        return graph

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        """Drain the queue; returns a summary dict."""
        while True:
            if self.max_tasks is not None and self.completed >= self.max_tasks:
                break
            asked = time.monotonic()
            try:
                lease = self._request("/lease", {"worker": self.worker_id})
            except CoordinatorUnreachable:
                self.unreachable = True
                break
            task = lease.get("task")
            if task is None:
                if lease.get("done") and self.exit_when_done:
                    break
                # ``retry_after`` spaces lease calls; a held (long-polled)
                # lease has already spent it waiting.
                idle = float(lease.get("retry_after") or self.poll)
                time.sleep(max(0.0, idle - (time.monotonic() - asked)))
                continue
            self.leases += 1
            if not self._run_task(task, lease["lease"], float(lease["ttl"])):
                break  # crashed (fault-injected worker death)
        return {
            "worker": self.worker_id,
            "completed": self.completed,
            "failed": self.failed,
            "leases": self.leases,
            "crashed": self.crashed,
            "unreachable": self.unreachable,
        }

    def _run_task(self, task: Dict[str, Any], lease_id: str, ttl: float) -> bool:
        """Build and deliver one leased task; ``False`` means "crashed"."""
        task_id = int(task["id"])
        stop_heartbeat = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            args=(task_id, lease_id, ttl, stop_heartbeat),
            name=f"heartbeat-{task_id}",
            daemon=True,
        )
        heartbeat.start()
        error: Optional[str] = None
        elapsed = 0.0
        frozen_spans: Any = []
        try:
            try:
                # An injected raise here models worker death: abandon the
                # lease without a word and let the TTL do its job.
                fault_point("dist.worker", worker=self.worker_id,
                            task=task_id, attempt=task.get("attempt"))
            except FaultInjected:
                self.crashed = True
                return False
            try:
                graph = self._fetch_graph(str(task["graph_hash"]))
                spec = spec_from_wire(task["spec"])
                started = time.monotonic()
                with capture_spans() as captured:
                    # A fault here is an ordinary build failure, reported
                    # through /complete like any builder exception.
                    fault_point("dist.task", worker=self.worker_id,
                                task=task_id, attempt=task.get("attempt"))
                    result = build(graph, spec)
                elapsed = time.monotonic() - started
                frozen_spans = freeze_spans(captured.spans)
                if not self.cache.put(task["key"], result):
                    error = "result could not be written to the shared cache"
            except CoordinatorUnreachable:
                self.crashed = True
                return False
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        finally:
            stop_heartbeat.set()
        plan = active_plan()
        body = {
            "worker": self.worker_id,
            "task": task_id,
            "lease": lease_id,
            "key": task["key"],
            "error": error,
            "elapsed": elapsed,
            "spans": frozen_spans,
            "faults": plan.stats() if plan is not None else {},
        }
        try:
            self._request("/complete", body)
        except CoordinatorUnreachable:
            self.crashed = True
            return False
        except urllib.error.HTTPError:
            pass  # the coordinator rejected the delivery; it re-dispatches
        if error is None:
            self.completed += 1
        else:
            self.failed += 1
        return True

    def _heartbeat_loop(
        self, task_id: int, lease_id: str, ttl: float, stop: threading.Event
    ) -> None:
        interval = max(0.05, ttl / 3.0)
        while not stop.wait(interval):
            try:
                answer = self._request("/heartbeat", {
                    "worker": self.worker_id, "task": task_id, "lease": lease_id,
                })
            except (CoordinatorUnreachable, urllib.error.HTTPError):
                return
            if not answer.get("ok"):
                return  # lease superseded; completion stays idempotent


def serve_jobs() -> None:
    """Run one :class:`DistWorker` per JSON job line until stdin ends.

    A job is ``{"url", "cache_dir", "worker_id"}``; each gets a fresh
    worker (no graph or counter carries over) and is answered with the
    run summary as one JSON line on stdout, plus ``peak_rss_kb`` (this
    process's peak resident set so far) and ``reusable``.  The process
    leaves after a job that crashed or lost its coordinator, and after
    every job under a fault plan, whose RNG and counters must start
    fresh for the next sweep; ``reusable`` says whether it stays.  The
    span buffer is cleared between jobs: spans travel in ``/complete``
    and nothing here reads them again.
    """
    # Keep stdout for summary lines alone: anything else printed while
    # building goes to stderr.
    out, sys.stdout = sys.stdout, sys.stderr
    for line in sys.stdin:
        job = json.loads(line)
        summary = DistWorker(
            job["url"], ResultCache(job["cache_dir"]), worker_id=job["worker_id"]
        ).run()
        clear_spans()
        summary["peak_rss_kb"] = _peak_rss_kb()
        summary["reusable"] = not (
            summary["crashed"] or summary["unreachable"] or active_plan() is not None
        )
        out.write(json.dumps(summary) + "\n")
        out.flush()
        if not summary["reusable"]:
            return


def _peak_rss_kb() -> Optional[int]:
    """This process's own peak resident set in KiB (``None`` without /proc).

    Not ``ru_maxrss``: Linux carries it over from the parent through the
    fork and exec that started this interpreter, so a worker spawned by
    a large parent would report the parent's size.  ``VmHWM`` counts
    this process's memory alone.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None
