"""The work-queue coordinator: leases, heartbeats, completions, journal.

One :class:`DistCoordinator` owns one sweep's pending tasks.  It serves
the four-endpoint wire protocol over a :class:`ThreadingHTTPServer`
(same serving discipline as :mod:`repro.serve.daemon`: HTTP/1.1
keep-alive, JSON bodies, quiet handling of client disconnects) and runs
the at-least-once state machine that makes worker death survivable:

``pending`` → ``leased`` (``/lease`` grants a TTL lease) → ``done``
(``/complete`` delivers a result through the shared content-addressed
:class:`~repro.api.cache.ResultCache`) — or back to ``pending`` when the
lease expires or the worker reports a build error, and finally to
``quarantined`` once a task has burned ``max_attempts`` leases.

Correctness invariants, each load-bearing for the "zero lost, zero
duplicated records" contract:

* **Leases are the only path to execution.**  A task is leased to at
  most one worker at a time; an expired lease is reaped (by the
  background reaper, so progress never depends on a worker calling in)
  before the task is granted again.
* **Completion is idempotent.**  Results travel as cache entries keyed
  by ``(code version, graph hash, spec fingerprint)``; a straggler whose
  lease was re-dispatched delivers the byte-identical entry, and the
  coordinator accepts whichever valid delivery lands first — duplicates
  are acknowledged (``accepted: false``) and discarded.
* **A delivery is only believed if it reads back.**  ``/complete``
  re-reads the posted key from the shared store before marking the task
  done; an unreadable (lost, torn, corrupted) delivery is a failed
  attempt, not a completed task.
* **Terminal transitions are journaled** (see
  :class:`~repro.dist.journal.SweepJournal`) so a restarted coordinator
  resumes instead of re-running; replayed completions are re-validated
  against the store the same way.

Failure injection: ``dist.lease``, ``dist.heartbeat`` and
``dist.complete`` fire at the top of their handlers (an injected raise
becomes a ``503 + Retry-After``, the transient-failure shape workers
already retry); ``dist.journal`` fires inside the journal itself.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import socket
import sys
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.api.cache import ResultCache
from repro.api.spec import BuildSpec
from repro.dist.journal import SweepJournal
from repro.dist.protocol import (
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    TERMINAL_STATES,
    spec_to_wire,
)
from repro.faults import FaultInjected, fault_point
from repro.graphs.graph import Graph
from repro.obs import inc, merge_spans, prometheus_text, set_gauge

__all__ = ["DistCoordinator"]

#: Maximum accepted request body (spans from a large chunk stay well under).
MAX_BODY_BYTES = 32 * 1024 * 1024


class _TaskRow:
    """Mutable per-task state (guarded by the coordinator's lock)."""

    __slots__ = (
        "index", "name", "graph_hash", "spec", "wire_spec", "key",
        "state", "attempts", "lease_id", "worker", "deadline",
        "result", "error", "completed_by", "replayed",
    )

    def __init__(
        self, index: int, name: str, graph_hash: str, spec: BuildSpec, key: str
    ) -> None:
        self.index = index
        self.name = name
        self.graph_hash = graph_hash
        self.spec = spec
        self.wire_spec = spec_to_wire(spec)
        self.key = key
        self.state = PENDING
        self.attempts = 0
        self.lease_id: Optional[str] = None
        self.worker: Optional[str] = None
        self.deadline = 0.0
        self.result = None
        self.error: Optional[str] = None
        self.completed_by: Optional[str] = None
        self.replayed = False


class _CoordinatorServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    coordinator: "DistCoordinator"

    def handle_error(self, request, client_address):  # noqa: D102
        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, BrokenPipeError, socket.timeout,
                            OSError, ValueError)):
            return  # client went away mid-request: routine, not a stack trace
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: _CoordinatorServer

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        coordinator = self.server.coordinator
        path = urlparse(self.path).path
        try:
            body = self._read_json_body()
            if path == "/lease":
                payload = coordinator.lease(str(body.get("worker") or "anonymous"))
            elif path == "/heartbeat":
                payload = coordinator.heartbeat(body)
            elif path == "/complete":
                payload = coordinator.complete(body)
            else:
                self._respond(404, {"error": f"unknown endpoint {path!r}"})
                return
        except FaultInjected as error:
            self._respond(503, {"error": str(error), "transient": True},
                          extra_headers={"Retry-After": "0.1"})
            return
        except ValueError as error:
            self._respond(400, {"error": str(error)})
            return
        except KeyError as error:
            self._respond(404, {"error": f"unknown task {error}"})
            return
        except Exception as error:  # pragma: no cover - defensive
            self._respond(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._respond(200, payload)

    def do_GET(self) -> None:  # noqa: N802
        coordinator = self.server.coordinator
        parsed = urlparse(self.path)
        path = parsed.path
        try:
            if path == "/status":
                self._respond(200, coordinator.status())
            elif path == "/healthz":
                self._respond(200, coordinator.healthz())
            elif path == "/metrics":
                self._write_raw(200, prometheus_text().encode("utf-8"),
                                "text/plain; version=0.0.4")
            elif path == "/graph":
                params = parse_qs(parsed.query)
                graph_hash = (params.get("hash") or [""])[0]
                blob = coordinator.graph_payload(graph_hash)
                self._write_raw(200, blob, "application/octet-stream")
            else:
                self._respond(404, {"error": f"unknown endpoint {path!r}"})
        except KeyError as error:
            self._respond(404, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive
            self._respond(500, {"error": f"{type(error).__name__}: {error}"})

    # ------------------------------------------------------------------
    def _read_json_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise ValueError("invalid Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise ValueError(f"request body of {length} bytes refused")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            raise ValueError("request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise ValueError("request body must be a JSON object")
        return body

    def _respond(
        self, status: int, payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        data = json.dumps(payload).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)
        except (ConnectionError, BrokenPipeError, OSError):
            pass  # client disconnected while we were answering

    def _write_raw(self, status: int, data: bytes, content_type: str) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (ConnectionError, BrokenPipeError, OSError):
            pass

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.coordinator.verbose:
            sys.stderr.write("dist-coordinator: " + format % args + "\n")


class DistCoordinator:
    """Serve one sweep's task queue to leased workers.

    Parameters
    ----------
    tasks:
        ``(index, name, graph, spec)`` tuples in deterministic grid
        order.  Every spec must be wireable and cacheable (the executor
        routes the rest to its local serial fallback).
    store:
        The shared :class:`ResultCache` both sides read and write —
        the result transport.
    host, port:
        Bind address; port ``0`` picks an ephemeral port, resolved
        before :meth:`start` returns.
    lease_ttl:
        Seconds a lease lives between heartbeats.
    max_attempts:
        Leases a task may burn before it is quarantined.
    journal:
        Optional journal file path; enables coordinator-restart resume.
    """

    def __init__(
        self,
        tasks: Iterable[Tuple[int, str, Graph, BuildSpec]],
        store: ResultCache,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl: float = 5.0,
        max_attempts: int = 3,
        journal: Union[None, str, "SweepJournal"] = None,
        verbose: bool = False,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.verbose = verbose
        self._store = store
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)

        self._rows: List[_TaskRow] = []
        self._graph_blobs: Dict[str, bytes] = {}
        graph_hashes: Dict[int, str] = {}
        for index, name, graph, spec in tasks:
            graph_key = id(graph)
            if graph_key not in graph_hashes:
                graph_hashes[graph_key] = graph.content_hash()
                self._graph_blobs[graph_hashes[graph_key]] = pickle.dumps(graph)
            graph_hash = graph_hashes[graph_key]
            key = store.key(graph_hash, spec)
            if key is None:
                raise ValueError(
                    f"task {index} ({spec.product}/{spec.method}) is "
                    "uncacheable and cannot be distributed"
                )
            self._rows.append(_TaskRow(index, name, graph_hash, spec, key))

        material = "\n".join(sorted(row.key for row in self._rows))
        self.sweep_id = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]

        # Observable counters (all also mirrored into the obs registry).
        self.leases = 0
        self.completions = 0
        self.reassignments = 0
        self.replayed = 0
        self.stale_completions = 0
        self.duplicate_completions = 0
        self.rejected_completions = 0
        self.worker_faults: Dict[str, Dict[str, int]] = {}
        self._workers: Dict[str, Dict[str, Any]] = {}

        self.journal: Optional[SweepJournal] = None
        if isinstance(journal, SweepJournal):
            self.journal = journal
        elif journal is not None:
            self.journal = SweepJournal(journal, self.sweep_id)
        if self.journal is not None:
            self._replay_journal()

        self._server = _CoordinatorServer((host, int(port)), _Handler)
        # A weak back-reference: a strong one would make the coordinator,
        # its task rows and every delivered result a reference cycle that
        # outlives close() until the next full garbage collection.
        self._server.coordinator = weakref.proxy(self)
        self.host, self.port = self._server.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None
        self._reaper_thread: Optional[threading.Thread] = None
        self._closed = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host = "127.0.0.1" if self.host in ("0.0.0.0", "") else self.host
        return f"http://{host}:{self.port}"

    def start(self) -> "DistCoordinator":
        """Serve in background threads; returns ``self``."""
        # close() waits for the serve loop's next poll, and every
        # distributed sweep ends with a close(): keep the poll short.
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01},
            name="dist-coordinator", daemon=True,
        )
        self._serve_thread.start()
        self._reaper_thread = threading.Thread(
            target=self._reaper_loop, name="dist-reaper", daemon=True
        )
        self._reaper_thread.start()
        return self

    def close(self) -> None:
        """Stop serving (idempotent).  Task state stays readable."""
        if self._closed.is_set():
            return
        self._closed.set()
        # Wake every held /lease first: its handler thread answers and the
        # worker sees the server go away on its next call.
        with self._cond:
            self._cond.notify_all()
        if self._serve_thread is not None:
            # shutdown() blocks on serve_forever's acknowledgement, so it
            # must only run when the serve loop actually started.
            self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=5.0)

    def __enter__(self) -> "DistCoordinator":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Protocol operations (called by the HTTP handler)
    # ------------------------------------------------------------------
    def lease(self, worker: str) -> Dict[str, Any]:
        """Grant the lowest-index pending task, or report why not.

        An idle lease is held (long-polled) for up to ``retry_after``
        seconds: it returns as soon as a task becomes pending, the sweep
        is done or the coordinator closes, so an idle worker learns of
        either without a poll interval's delay.
        """
        fault_point("dist.lease", worker=worker)
        hold = min(self.lease_ttl / 4.0, 0.25)
        deadline = time.monotonic() + hold
        with self._cond:
            while True:
                now = time.monotonic()
                self._touch_worker(worker, now)
                self._reap_locked(now)
                row = next((r for r in self._rows if r.state == PENDING), None)
                if row is not None:
                    break
                done = self._done_locked()
                if done or now >= deadline or self._closed.is_set():
                    return {
                        "task": None,
                        "done": done,
                        "retry_after": round(hold, 3),
                    }
                self._cond.wait(deadline - now)
            row.state = LEASED
            row.attempts += 1
            row.worker = worker
            row.lease_id = f"{row.index}.{row.attempts}"
            row.deadline = now + self.lease_ttl
            self.leases += 1
            self._workers[worker]["leases"] += 1
            inc("repro_dist_leases_total", help="Work-queue leases granted")
            return {
                "task": {
                    "id": row.index,
                    "name": row.name,
                    "graph_hash": row.graph_hash,
                    "spec": row.wire_spec,
                    "key": row.key,
                    "attempt": row.attempts,
                },
                "lease": row.lease_id,
                "ttl": self.lease_ttl,
                "done": False,
            }

    def heartbeat(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Renew a live lease; tell a superseded worker its lease is gone."""
        worker = str(body.get("worker") or "anonymous")
        task_id = self._task_id(body)
        fault_point("dist.heartbeat", worker=worker, task=task_id)
        now = time.monotonic()
        with self._cond:
            self._touch_worker(worker, now)
            row = self._row(task_id)
            if row.state == LEASED and row.lease_id == body.get("lease"):
                row.deadline = now + self.lease_ttl
                return {"ok": True, "ttl": self.lease_ttl}
            return {"ok": False, "state": row.state}

    def complete(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """Accept a result delivery (or a reported build failure).

        At-least-once discipline: any valid delivery for a non-terminal
        task is accepted, even from a stale lease (the straggler built
        the byte-identical result); duplicates for an already-terminal
        task are acknowledged but discarded.
        """
        worker = str(body.get("worker") or "anonymous")
        task_id = self._task_id(body)
        fault_point("dist.complete", worker=worker, task=task_id)
        now = time.monotonic()
        with self._cond:
            self._touch_worker(worker, now)
            row = self._row(task_id)
            if row.state in TERMINAL_STATES:
                self.duplicate_completions += 1
                return {"ok": True, "accepted": False, "state": row.state}
            if row.state != LEASED or row.lease_id != body.get("lease"):
                self.stale_completions += 1
            self._absorb_worker_telemetry(body)
            error = body.get("error")
            if error is not None:
                row.error = str(error)
                self._fail_attempt_locked(row)
                return {"ok": True, "accepted": True, "state": row.state}
            result = self._store.get(row.key)
            if result is None:
                # The worker thinks it delivered, but the shared store
                # cannot produce the entry (lost write, torn file,
                # injected corruption).  Believe the store, not the
                # worker: this attempt failed.
                self.rejected_completions += 1
                row.error = "delivered result unreadable from shared cache"
                self._fail_attempt_locked(row)
                return {"ok": False, "accepted": False,
                        "reason": "unreadable", "state": row.state}
            row.state = DONE
            row.result = result
            row.completed_by = worker
            row.worker = worker
            self.completions += 1
            self._workers[worker]["completed"] += 1
            inc("repro_dist_completions_total", help="Work-queue tasks completed")
            self._journal_locked({
                "event": "done", "task": row.index, "key": row.key,
                "worker": worker, "attempts": row.attempts,
            })
            self._cond.notify_all()
            return {"ok": True, "accepted": True, "state": row.state}

    def graph_payload(self, graph_hash: str) -> bytes:
        """The pickled graph for ``graph_hash`` (workers cache it)."""
        try:
            return self._graph_blobs[graph_hash]
        except KeyError:
            raise KeyError(f"unknown graph hash {graph_hash!r}") from None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        now = time.monotonic()
        with self._lock:
            states = {PENDING: 0, LEASED: 0, DONE: 0, QUARANTINED: 0}
            rows = []
            for row in self._rows:
                states[row.state] += 1
                rows.append({
                    "task": row.index,
                    "graph": row.name,
                    "product": row.spec.product,
                    "method": row.spec.method,
                    "state": row.state,
                    "attempts": row.attempts,
                    "worker": row.worker,
                    "replayed": row.replayed,
                    "error": row.error,
                })
            workers = {
                name: {
                    "last_seen_s": round(now - info["last_seen"], 3),
                    "live": now - info["last_seen"] <= 2.0 * self.lease_ttl,
                    "leases": info["leases"],
                    "completed": info["completed"],
                }
                for name, info in self._workers.items()
            }
            journal = None
            if self.journal is not None:
                journal = {
                    "path": str(self.journal.path),
                    "replayed": self.replayed,
                    "errors": self.journal.errors,
                    "rotations": self.journal.rotations,
                }
            return {
                "ok": True,
                "sweep": self.sweep_id,
                "done": self._done_locked(),
                "tasks": dict(states, total=len(self._rows)),
                "leases": self.leases,
                "completions": self.completions,
                "reassignments": self.reassignments,
                "stale_completions": self.stale_completions,
                "duplicate_completions": self.duplicate_completions,
                "rejected_completions": self.rejected_completions,
                "workers": workers,
                "worker_faults": self.worker_faults,
                "journal": journal,
                "rows": rows,
            }

    def healthz(self) -> Dict[str, Any]:
        now = time.monotonic()
        with self._lock:
            live = sum(
                1 for info in self._workers.values()
                if now - info["last_seen"] <= 2.0 * self.lease_ttl
            )
            pending = sum(1 for r in self._rows if r.state not in TERMINAL_STATES)
            return {
                "ok": True,
                "status": "done" if self._done_locked() else "serving",
                "pending": pending,
                "workers_live": live,
            }

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until every task is terminal; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._done_locked():
                if self._closed.is_set():
                    return self._done_locked()
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(
                    min(0.1, remaining) if remaining is not None else 0.1
                )
            return True

    @property
    def done(self) -> bool:
        with self._lock:
            return self._done_locked()

    def outcomes(self) -> List[Tuple[int, Any, Any, int, Optional[str]]]:
        """Executor-shaped outcome tuples, in task-index order.

        ``(index, worker, result, retries, error)`` — ``retries`` is
        leases burned beyond the first, so the executor's "failed after
        N attempt(s)" message counts leases.
        """
        with self._lock:
            out = []
            for row in self._rows:
                retries = max(0, row.attempts - 1)
                if row.state == DONE:
                    worker = row.completed_by or "journal"
                    out.append((row.index, worker, row.result, retries, None))
                elif row.state == QUARANTINED:
                    error = row.error or "quarantined"
                    out.append((row.index, row.worker, None, retries, error))
                else:
                    out.append((row.index, row.worker, None, retries,
                                f"task still {row.state} when collected"))
            return out

    # ------------------------------------------------------------------
    # Internals (locked unless noted)
    # ------------------------------------------------------------------
    def _row(self, task_id: int) -> _TaskRow:
        for row in self._rows:
            if row.index == task_id:
                return row
        raise KeyError(task_id)

    @staticmethod
    def _task_id(body: Dict[str, Any]) -> int:
        try:
            return int(body["task"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("request needs an integer 'task' field") from None

    def _done_locked(self) -> bool:
        return all(row.state in TERMINAL_STATES for row in self._rows)

    def _touch_worker(self, worker: str, now: float) -> None:
        info = self._workers.setdefault(
            worker, {"last_seen": now, "leases": 0, "completed": 0}
        )
        info["last_seen"] = now
        self._set_liveness_gauge_locked(now)

    def _set_liveness_gauge_locked(self, now: float) -> None:
        live = sum(
            1 for info in self._workers.values()
            if now - info["last_seen"] <= 2.0 * self.lease_ttl
        )
        set_gauge("repro_dist_workers_live", live,
                  help="Workers heard from within two lease TTLs")

    def _reap_locked(self, now: float) -> None:
        """Reclaim expired leases: re-dispatch or quarantine."""
        for row in self._rows:
            if row.state == LEASED and row.deadline < now:
                self.reassignments += 1
                inc("repro_dist_reassignments_total",
                    help="Expired leases reclaimed for re-dispatch")
                if row.error is None:
                    row.error = (
                        f"lease {row.lease_id} on worker {row.worker} expired"
                    )
                self._fail_attempt_locked(row)

    def _fail_attempt_locked(self, row: _TaskRow) -> None:
        """One attempt burned: back to pending, or quarantine past the cap."""
        if row.attempts >= self.max_attempts:
            row.state = QUARANTINED
            inc("repro_dist_quarantined_total",
                help="Tasks quarantined past their attempt cap")
            self._journal_locked({
                "event": "quarantined", "task": row.index, "key": row.key,
                "error": row.error, "attempts": row.attempts,
            })
        else:
            row.state = PENDING
            row.lease_id = None
            row.deadline = 0.0
        self._cond.notify_all()

    def _absorb_worker_telemetry(self, body: Dict[str, Any]) -> None:
        """Merge shipped spans and fault counters into local observability."""
        spans = body.get("spans")
        if spans:
            merge_spans(spans)
        for site, counters in (body.get("faults") or {}).items():
            entry = self.worker_faults.setdefault(
                str(site), {"hits": 0, "injected": 0}
            )
            for field in ("hits", "injected"):
                try:
                    entry[field] += int(counters.get(field, 0))
                except (AttributeError, TypeError, ValueError):
                    pass

    def _journal_locked(self, event: Dict[str, Any]) -> None:
        if self.journal is None:
            return
        self.journal.record(event)
        self.journal.maybe_rotate(self._terminal_events_locked())

    def _terminal_events_locked(self) -> List[Dict[str, Any]]:
        events = []
        for row in self._rows:
            if row.state == DONE:
                events.append({
                    "event": "done", "task": row.index, "key": row.key,
                    "worker": row.completed_by, "attempts": row.attempts,
                })
            elif row.state == QUARANTINED:
                events.append({
                    "event": "quarantined", "task": row.index, "key": row.key,
                    "error": row.error, "attempts": row.attempts,
                })
        return events

    def _replay_journal(self) -> None:
        """Restore terminal task state from a prior coordinator's journal."""
        assert self.journal is not None
        by_key = {row.key: row for row in self._rows}
        for event in self.journal.replay():
            row = by_key.get(event.get("key"))
            if row is None or row.state in TERMINAL_STATES:
                continue
            kind = event.get("event")
            if kind == "done":
                result = self._store.get(row.key)
                if result is None:
                    continue  # cache lost the entry: honestly re-run it
                row.state = DONE
                row.result = result
                row.completed_by = event.get("worker") or "journal"
                row.worker = row.completed_by
                row.attempts = int(event.get("attempts", 1) or 1)
                row.replayed = True
                self.replayed += 1
                inc("repro_dist_journal_replays_total",
                    help="Completed tasks restored from the coordinator journal")
            elif kind == "quarantined":
                row.state = QUARANTINED
                row.error = event.get("error") or "quarantined (replayed)"
                row.attempts = int(event.get("attempts", 1) or 1)
                row.replayed = True
                self.replayed += 1
                inc("repro_dist_journal_replays_total",
                    help="Completed tasks restored from the coordinator journal")

    def _reaper_loop(self) -> None:
        """Reap expired leases even when no worker is calling in."""
        interval = max(0.05, min(0.25, self.lease_ttl / 4.0))
        while not self._closed.wait(interval):
            now = time.monotonic()
            with self._cond:
                self._reap_locked(now)
                self._set_liveness_gauge_locked(now)
