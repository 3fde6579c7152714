"""Tests for :mod:`repro.dist` — wire codec, journal, coordinator, workers.

The scenarios here drive the lease-queue state machine directly (method
calls on a started :class:`DistCoordinator`) and end-to-end through
``run_sweep(dist=...)`` with in-process thread workers.  Fault-schedule
chaos (worker kills, stragglers, coordinator restarts under load) lives
in ``tests/test_chaos.py``; this file owns the protocol-level contracts:
leases are exclusive, completion is idempotent, deliveries are believed
only if they read back, and the journal makes restarts resume instead of
re-run.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import weakref

import pytest

from repro import obs
from repro.api import GridSweep, run_sweep
from repro.api.cache import ResultCache
from repro.api.facade import build
from repro.api.spec import BuildSpec
from repro.dist import (
    DistConfig,
    DistCoordinator,
    DistWorker,
    SweepJournal,
    canonical_record,
    parse_bind,
    spec_from_wire,
    spec_to_wire,
)
from repro.dist import executor as dist_executor
from repro.dist.protocol import DONE, PENDING, QUARANTINED, wireable
from repro.faults import clear_plan, fault_plan
from repro.graphs import generators

GRID = generators.grid_graph(4, 4)

#: Small enough to sweep repeatedly, wide enough to need a queue.
SWEEP = GridSweep(products=("emulator", "spanner"), methods=("centralized",),
                  eps_values=(None, 0.25))


@pytest.fixture(autouse=True)
def dist_hygiene():
    """No fault plan leaks between tests; metrics start from zero."""
    clear_plan()
    previous = obs.set_enabled(True)
    obs.reset()
    yield
    clear_plan()
    obs.reset()
    obs.set_enabled(previous)


def _tasks(sweep: GridSweep = SWEEP):
    """Executor-shaped ``(index, name, graph, spec)`` tuples for GRID."""
    return [(index, "grid", GRID, spec)
            for index, spec in enumerate(sweep.specs())]


_RESULTS = {}


def _built(spec: BuildSpec):
    """Build (memoized) the result a worker would deliver for ``spec``."""
    if spec not in _RESULTS:
        _RESULTS[spec] = build(GRID, spec)
    return _RESULTS[spec]


def _canon(records):
    """The deterministic content of sweep records, order included."""
    return [(r.graph_name, r.spec, canonical_record(r.result))
            for r in records]


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestWireProtocol:
    def test_spec_round_trips_bit_exactly(self):
        for _, _, _, spec in _tasks():
            wire = spec_to_wire(spec)
            assert json.loads(json.dumps(wire)) == wire
            assert spec_from_wire(wire) == spec

    def test_options_survive_the_wire(self):
        spec = BuildSpec(product="emulator", method="centralized",
                         options={"flag": True, "level": 3})
        assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_non_scalar_option_is_unwireable(self):
        spec = BuildSpec(product="emulator", method="centralized",
                         options={"probe": [1, 2]})
        assert not wireable(spec)
        with pytest.raises(ValueError, match="not a JSON scalar"):
            spec_to_wire(spec)

    def test_parse_bind_forms(self):
        assert parse_bind("8123") == ("127.0.0.1", 8123)
        assert parse_bind("0.0.0.0:9") == ("0.0.0.0", 9)
        assert parse_bind("http://example:8000/") == ("example", 8000)
        with pytest.raises(ValueError, match="not PORT or HOST:PORT"):
            parse_bind("not-a-port")
        with pytest.raises(ValueError, match="out of range"):
            parse_bind("127.0.0.1:70000")

    def test_canonical_record_covers_the_deterministic_part(self):
        spec = next(iter(SWEEP.specs()))
        once, twice = build(GRID, spec), build(GRID, spec)
        assert canonical_record(once) == canonical_record(twice)
        assert canonical_record(None) is None

    def test_dist_config_rejects_unknown_knobs(self):
        with pytest.raises(ValueError, match="unknown dist option"):
            DistConfig.from_value({"lease_ttll": 1.0})
        with pytest.raises(ValueError, match="worker_mode"):
            DistConfig.from_value({"worker_mode": "fiber"})
        config = DistConfig.from_value("9321", workers_hint=3)
        assert (config.host, config.port) == ("127.0.0.1", 9321)
        assert config.local_workers == 3


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestSweepJournal:
    def test_record_then_replay(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal", "abc123")
        assert journal.record({"event": "done", "task": 0, "key": "k0"})
        assert journal.record({"event": "quarantined", "task": 1, "key": "k1"})
        events = SweepJournal(journal.path, "abc123").replay()
        assert [e["event"] for e in events] == ["done", "quarantined"]
        assert journal.errors == 0

    def test_replay_skips_truncated_tail_and_garbage(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal", "abc123")
        journal.record({"event": "done", "task": 0, "key": "k0"})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write('{"event": "done", "task": 1')  # killed mid-append
        events = SweepJournal(journal.path, "abc123").replay()
        assert [e["task"] for e in events] == [0]

    def test_journal_for_a_different_sweep_is_ignored(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal", "old-sweep")
        journal.record({"event": "done", "task": 0, "key": "k0"})
        assert SweepJournal(journal.path, "new-sweep").replay() == []

    def test_rotation_compacts_to_terminal_events(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal", "abc123",
                               rotate_bytes=64)
        for attempt in range(20):
            journal.record({"event": "done", "task": 0, "key": "k0",
                            "attempt": attempt})
        terminal = [{"event": "done", "task": 0, "key": "k0"}]
        assert journal.maybe_rotate(terminal)
        assert journal.rotations == 1
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2  # header + one compacted line
        assert SweepJournal(journal.path, "abc123").replay() == terminal
        assert not list(tmp_path.glob("*.journal.tmp"))

    def test_injected_journal_fault_counts_and_degrades(self, tmp_path):
        journal = SweepJournal(tmp_path / "sweep.journal", "abc123")
        plan = {"rules": [{"site": "dist.journal", "action": "raise",
                           "times": 1, "where": {"op": "append"}}]}
        with fault_plan(plan):
            assert not journal.record({"event": "done", "task": 0, "key": "k"})
            assert journal.errors == 1
            # The next append tries again and succeeds.
            assert journal.record({"event": "done", "task": 0, "key": "k"})
        assert [e["task"] for e in journal.replay()] == [0]


# ----------------------------------------------------------------------
# Coordinator state machine (direct method calls)
# ----------------------------------------------------------------------
class TestCoordinatorStateMachine:
    def test_lease_grants_lowest_index_then_reports_empty(self, tmp_path):
        with DistCoordinator(_tasks(), ResultCache(tmp_path)) as coordinator:
            first = coordinator.lease("w1")
            second = coordinator.lease("w2")
            assert first["task"]["id"] == 0 and second["task"]["id"] == 1
            assert first["lease"] != second["lease"]
            assert first["ttl"] == coordinator.lease_ttl
            assert coordinator.leases == 2
            # Everything leased out: an idle worker is told to back off.
            coordinator.lease("w1")
            coordinator.lease("w2")
            idle = coordinator.lease("w3")
            assert idle["task"] is None and not idle["done"]
            assert idle["retry_after"] > 0

    def test_completion_believes_the_store_not_the_worker(self, tmp_path):
        store = ResultCache(tmp_path)
        with DistCoordinator(_tasks(), store, max_attempts=3) as coordinator:
            lease = coordinator.lease("w1")
            task = lease["task"]
            # The worker claims delivery but never wrote the entry.
            answer = coordinator.complete({
                "worker": "w1", "task": task["id"], "lease": lease["lease"],
                "key": task["key"],
            })
            assert answer == {"ok": False, "accepted": False,
                              "reason": "unreadable", "state": PENDING}
            assert coordinator.rejected_completions == 1
            # Honest delivery: write the entry, then complete.
            row = coordinator.status()["rows"][task["id"]]
            assert row["state"] == PENDING and row["attempts"] == 1
            lease = coordinator.lease("w1")
            store.put(lease["task"]["key"], _built(_tasks()[0][3]))
            answer = coordinator.complete({
                "worker": "w1", "task": 0, "lease": lease["lease"],
                "key": lease["task"]["key"],
            })
            assert answer["accepted"] and answer["state"] == DONE

    def test_duplicate_completion_is_acknowledged_and_discarded(self, tmp_path):
        store = ResultCache(tmp_path)
        with DistCoordinator(_tasks(), store) as coordinator:
            lease = coordinator.lease("w1")
            store.put(lease["task"]["key"], _built(_tasks()[0][3]))
            body = {"worker": "w1", "task": 0, "lease": lease["lease"],
                    "key": lease["task"]["key"]}
            assert coordinator.complete(body)["accepted"]
            again = coordinator.complete(dict(body, worker="w2"))
            assert again == {"ok": True, "accepted": False, "state": DONE}
            assert coordinator.completions == 1
            assert coordinator.duplicate_completions == 1

    def test_expired_lease_is_reaped_and_stale_delivery_still_lands(self):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            store = ResultCache(tmp)
            coordinator = DistCoordinator(
                _tasks(), store, lease_ttl=0.15, max_attempts=5
            ).start()
            try:
                stale = coordinator.lease("slow")
                # No heartbeat: the background reaper reclaims the lease.
                deadline = threading.Event()
                assert not deadline.wait(0.5)
                fresh = coordinator.lease("fast")
                assert fresh["task"]["id"] == 0
                assert fresh["lease"] != stale["lease"]
                assert coordinator.reassignments >= 1
                assert obs.get_metric("repro_dist_reassignments_total") >= 1
                # The slow worker finally delivers on its dead lease; the
                # result is byte-identical, so it is accepted (idempotent
                # at-least-once), and the fresh worker's later delivery is
                # the duplicate.
                store.put(stale["task"]["key"], _built(_tasks()[0][3]))
                answer = coordinator.complete({
                    "worker": "slow", "task": 0, "lease": stale["lease"],
                    "key": stale["task"]["key"],
                })
                assert answer["accepted"] and answer["state"] == DONE
                assert coordinator.stale_completions == 1
                late = coordinator.complete({
                    "worker": "fast", "task": 0, "lease": fresh["lease"],
                    "key": fresh["task"]["key"],
                })
                assert late["accepted"] is False
                assert coordinator.duplicate_completions == 1
            finally:
                coordinator.close()

    def test_reported_errors_burn_attempts_until_quarantine(self, tmp_path):
        store = ResultCache(tmp_path)
        with DistCoordinator(_tasks(), store, max_attempts=2) as coordinator:
            for attempt in range(2):
                lease = coordinator.lease("w1")
                assert lease["task"]["id"] == 0
                assert lease["task"]["attempt"] == attempt + 1
                coordinator.complete({
                    "worker": "w1", "task": 0, "lease": lease["lease"],
                    "key": lease["task"]["key"], "error": "builder exploded",
                })
            row = coordinator.status()["rows"][0]
            assert row["state"] == QUARANTINED
            assert row["error"] == "builder exploded"
            assert obs.get_metric("repro_dist_quarantined_total") == 1
            # The quarantined task is terminal: index 1 is next out.
            assert coordinator.lease("w1")["task"]["id"] == 1
            index, worker, result, retries, error = coordinator.outcomes()[0]
            assert (index, result, retries) == (0, None, 1)
            assert "builder exploded" in error

    def test_heartbeat_renews_only_the_live_lease(self, tmp_path):
        with DistCoordinator(_tasks(), ResultCache(tmp_path)) as coordinator:
            lease = coordinator.lease("w1")
            good = coordinator.heartbeat({
                "worker": "w1", "task": 0, "lease": lease["lease"]})
            assert good["ok"] and good["ttl"] == coordinator.lease_ttl
            superseded = coordinator.heartbeat({
                "worker": "w1", "task": 0, "lease": "0.999"})
            assert superseded == {"ok": False, "state": "leased"}

    def test_closed_coordinator_is_freed_without_a_gc_pass(self, tmp_path):
        # The coordinator holds every delivered result; a reference cycle
        # through its server would keep them alive until a full collection.
        gc.collect()
        gc.disable()
        try:
            coordinator = DistCoordinator(_tasks(), ResultCache(tmp_path)).start()
            coordinator.lease("w1")
            host, port = coordinator.url.split("//")[1].split(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=5)
            try:
                conn.request("GET", "/healthz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()
            coordinator.close()
            ref = weakref.ref(coordinator)
            del coordinator
            assert ref() is None
        finally:
            gc.enable()

    def test_a_lease_is_answered_while_a_delivery_reads_back(self, tmp_path):
        store = ResultCache(tmp_path)
        reading, release = threading.Event(), threading.Event()
        real_get = store.get

        def stalled_get(key):
            reading.set()
            release.wait(30)
            return real_get(key)

        with DistCoordinator(_tasks(), store) as coordinator:
            lease = coordinator.lease("w1")
            store.put(lease["task"]["key"], _built(_tasks()[0][3]))
            store.get = stalled_get
            delivered, granted = [], []
            completing = threading.Thread(target=lambda: delivered.append(
                coordinator.complete({"worker": "w1", "task": 0,
                                      "lease": lease["lease"],
                                      "key": lease["task"]["key"]})), daemon=True)
            completing.start()
            try:
                assert reading.wait(30)
                leasing = threading.Thread(
                    target=lambda: granted.append(coordinator.lease("w2")),
                    daemon=True)
                leasing.start()
                leasing.join(10)
                assert not leasing.is_alive()
                assert granted[0]["task"]["id"] == 1
                assert delivered == []  # still reading back
            finally:
                release.set()
            completing.join(30)
            assert not completing.is_alive()
            assert delivered[0]["accepted"] and delivered[0]["state"] == DONE

    def test_close_ends_the_serve_loop_and_refuses_kept_connections(self, tmp_path):
        coordinator = DistCoordinator(_tasks(), ResultCache(tmp_path)).start()
        connection = http.client.HTTPConnection(
            coordinator.host, coordinator.port, timeout=10)
        try:
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
            coordinator.close()
            assert not coordinator._serve_thread.is_alive()
            assert coordinator._wake_r.fileno() == -1
            assert coordinator._wake_w.fileno() == -1
            coordinator.close()  # idempotent
            # The kept connection's handler no longer serves the closed
            # coordinator: it refuses and ends the connection.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            response.read()
            assert response.status == 503 and response.will_close
        finally:
            connection.close()

    def test_close_before_start_releases_every_socket(self, tmp_path):
        coordinator = DistCoordinator(_tasks(), ResultCache(tmp_path))
        coordinator.close()
        coordinator.close()
        assert coordinator._server.socket.fileno() == -1
        assert coordinator._wake_r.fileno() == -1
        assert coordinator._wake_w.fileno() == -1

    def test_uncacheable_task_is_rejected_at_construction(self, tmp_path):
        spec = next(iter(SWEEP.specs()))
        bad = BuildSpec(product=spec.product, method=spec.method,
                        options={"probe": object()})
        with pytest.raises(ValueError, match="uncacheable"):
            DistCoordinator([(0, "grid", GRID, bad)], ResultCache(tmp_path))


class _ParkingCondition(threading.Condition):
    """Announces a parked waiter, then waits with no timeout.

    A held lease can then only return when something notifies it, so
    the long-poll tests check what woke it by ordering, not wall clock.
    """

    def __init__(self, lock):
        super().__init__(lock)
        self.parked = threading.Event()

    def wait(self, timeout=None):
        self.parked.set()
        return super().wait()


class TestLongPolledLease:
    def _hold_idle_lease(self, coordinator):
        condition = _ParkingCondition(coordinator._lock)
        coordinator._cond = condition
        answers = []
        thread = threading.Thread(
            target=lambda: answers.append(coordinator.lease("idle")), daemon=True)
        thread.start()
        assert condition.parked.wait(30)
        assert answers == []  # parked on the condition, not answered
        return thread, answers

    def test_idle_lease_returns_done_once_the_last_completion_lands(self, tmp_path):
        store = ResultCache(tmp_path)
        with DistCoordinator(_tasks(), store) as coordinator:
            leases = [coordinator.lease("busy") for _ in _tasks()]
            for lease in leases:
                store.put(lease["task"]["key"], _built(_tasks()[lease["task"]["id"]][3]))
            for lease in leases[:-1]:
                coordinator.complete({"worker": "busy", "task": lease["task"]["id"],
                                      "lease": lease["lease"], "key": lease["task"]["key"]})
            thread, answers = self._hold_idle_lease(coordinator)
            last = leases[-1]
            coordinator.complete({"worker": "busy", "task": last["task"]["id"],
                                  "lease": last["lease"], "key": last["task"]["key"]})
            thread.join(30)
            assert not thread.is_alive()
            assert answers[0]["task"] is None and answers[0]["done"] is True

    def test_idle_lease_is_granted_a_task_that_becomes_pending(self, tmp_path):
        with DistCoordinator(_tasks(), ResultCache(tmp_path)) as coordinator:
            leases = [coordinator.lease("busy") for _ in _tasks()]
            thread, answers = self._hold_idle_lease(coordinator)
            first = leases[0]
            coordinator.complete({"worker": "busy", "task": first["task"]["id"],
                                  "lease": first["lease"], "key": first["task"]["key"],
                                  "error": "builder exploded"})
            thread.join(30)
            assert not thread.is_alive()
            assert answers[0]["task"]["id"] == first["task"]["id"]
            assert answers[0]["task"]["attempt"] == 2

    def test_close_wakes_a_held_lease(self, tmp_path):
        coordinator = DistCoordinator(_tasks(), ResultCache(tmp_path)).start()
        try:
            for _ in _tasks():
                coordinator.lease("busy")
            thread, answers = self._hold_idle_lease(coordinator)
        finally:
            coordinator.close()
        thread.join(30)
        assert not thread.is_alive()
        assert answers[0]["task"] is None and answers[0]["done"] is False

    def test_close_still_answers_a_lease_held_over_http(self, tmp_path):
        # A worker's last request may be in flight as the coordinator
        # closes (an external worker's final /complete): it gets its answer.
        coordinator = DistCoordinator(_tasks(), ResultCache(tmp_path)).start()
        condition = _ParkingCondition(coordinator._lock)
        answers = []

        def post_lease():
            connection = http.client.HTTPConnection(
                coordinator.host, coordinator.port, timeout=30)
            try:
                connection.request("POST", "/lease",
                                   body=json.dumps({"worker": "idle"}).encode(),
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                answers.append((response.status, json.loads(response.read())))
            finally:
                connection.close()

        try:
            for _ in _tasks():
                coordinator.lease("busy")
            coordinator._cond = condition
            thread = threading.Thread(target=post_lease, daemon=True)
            thread.start()
            assert condition.parked.wait(30)
        finally:
            coordinator.close()
        thread.join(30)
        assert not thread.is_alive()
        status, body = answers[0]
        assert status == 200 and body["task"] is None and body["done"] is False


# ----------------------------------------------------------------------
# Journal resume
# ----------------------------------------------------------------------
class TestCoordinatorResume:
    def _complete_first(self, coordinator, store, count):
        for _ in range(count):
            lease = coordinator.lease("w1")
            task = lease["task"]
            spec = _tasks()[task["id"]][3]
            store.put(task["key"], _built(spec))
            coordinator.complete({
                "worker": "w1", "task": task["id"], "lease": lease["lease"],
                "key": task["key"],
            })

    def test_restarted_coordinator_resumes_instead_of_rerunning(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "sweep.journal"
        with DistCoordinator(_tasks(), store,
                             journal=str(journal_path)) as first:
            self._complete_first(first, store, 2)
            sweep_id = first.sweep_id
        # A new coordinator (same tasks, same journal) restores the two
        # completed tasks from disk and only serves what remains.
        with DistCoordinator(_tasks(), store,
                             journal=str(journal_path)) as second:
            assert second.sweep_id == sweep_id
            assert second.replayed == 2
            assert obs.get_metric("repro_dist_journal_replays_total") == 2
            states = [row["state"] for row in second.status()["rows"]]
            assert states.count(DONE) == 2
            assert {r["replayed"] for r in second.status()["rows"]
                    if r["state"] == DONE} == {True}
            self._complete_first(second, store, states.count(PENDING))
            assert second.done
            outcomes = second.outcomes()
        expected = [canonical_record(_built(spec)) for _, _, _, spec in _tasks()]
        assert [canonical_record(result)
                for _, _, result, _, _ in outcomes] == expected

    def test_replay_reruns_tasks_whose_cache_entry_was_lost(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "sweep.journal"
        with DistCoordinator(_tasks(), store,
                             journal=str(journal_path)) as first:
            self._complete_first(first, store, 1)
        store.clear()  # the journal says done, but the delivery is gone
        with DistCoordinator(_tasks(), store,
                             journal=str(journal_path)) as second:
            assert second.replayed == 0
            assert second.lease("w1")["task"]["id"] == 0

    def test_quarantine_survives_restart(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "sweep.journal"
        with DistCoordinator(_tasks(), store, max_attempts=1,
                             journal=str(journal_path)) as first:
            lease = first.lease("w1")
            first.complete({
                "worker": "w1", "task": 0, "lease": lease["lease"],
                "key": lease["task"]["key"], "error": "poisoned",
            })
        with DistCoordinator(_tasks(), store, max_attempts=1,
                             journal=str(journal_path)) as second:
            row = second.status()["rows"][0]
            assert row["state"] == QUARANTINED and row["replayed"]
            assert "poisoned" in row["error"]


# ----------------------------------------------------------------------
# End to end through run_sweep (thread workers)
# ----------------------------------------------------------------------
THREAD_DIST = {"worker_mode": "thread", "local_workers": 2, "lease_ttl": 2.0}


class TestDistributedSweep:
    def test_records_byte_identical_to_serial_executor(self):
        baseline = run_sweep({"grid": GRID}, SWEEP)
        records = run_sweep({"grid": GRID}, SWEEP, dist=dict(THREAD_DIST))
        assert _canon(records) == _canon(baseline)
        workers = {r.stats["worker"] for r in records}
        assert workers <= {"local-0", "local-1"}

    def test_workers_string_selects_the_distributed_executor(self):
        baseline = run_sweep({"grid": GRID}, SWEEP)
        records = run_sweep({"grid": GRID}, SWEEP, workers="dist:127.0.0.1:0",
                            dist={"worker_mode": "thread"})
        assert _canon(records) == _canon(baseline)
        with pytest.raises(ValueError, match="dist"):
            run_sweep({"grid": GRID}, SWEEP, workers="pool:4")

    def test_unwireable_specs_fall_back_to_the_local_serial_path(self):
        sweep = GridSweep(products=("emulator",), methods=("centralized",),
                          options={"probe": [1, 2]})
        spec = next(iter(sweep.specs()))
        assert not wireable(spec)
        baseline = run_sweep({"grid": GRID}, sweep)
        records = run_sweep({"grid": GRID}, sweep, dist=dict(THREAD_DIST))
        assert _canon(records) == _canon(baseline)

    def test_shared_cache_short_circuits_the_second_run(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_sweep({"grid": GRID}, SWEEP, cache=cache,
                          dist=dict(THREAD_DIST))
        second = run_sweep({"grid": GRID}, SWEEP, cache=cache,
                           dist=dict(THREAD_DIST))
        assert _canon(second) == _canon(first)
        assert all(r.cache_hit for r in second)
        assert not any(r.cache_hit for r in first)

    def test_the_graph_is_pickled_once_per_sweep(self, monkeypatch):
        from repro.graphs.graph import Graph

        pickled = []
        real_getstate = Graph.__getstate__

        def counting_getstate(graph):
            pickled.append(graph.num_vertices)
            return real_getstate(graph)

        monkeypatch.setattr(Graph, "__getstate__", counting_getstate)
        sweep = GridSweep(products=("emulator",), methods=("centralized",))
        run_sweep({"grid": GRID}, sweep, dist=dict(THREAD_DIST))
        assert pickled == [GRID.num_vertices]

    def test_journal_knob_reaches_the_coordinator(self, tmp_path):
        journal = tmp_path / "sweep.journal"
        records = run_sweep({"grid": GRID}, SWEEP,
                            dist=dict(THREAD_DIST, journal=str(journal)))
        assert len(records) == len(list(SWEEP.specs()))
        events = journal.read_text().splitlines()
        assert len(events) == len(records) + 1  # header + one per task
        assert json.loads(events[0])["event"] == "sweep"


# ----------------------------------------------------------------------
# Worker transport
# ----------------------------------------------------------------------
class TestWorkerTransport:
    def test_a_worker_keeps_one_connection_for_a_whole_sweep(self, monkeypatch):
        from repro.dist.coordinator import _CoordinatorServer

        accepted = []
        real = _CoordinatorServer.process_request

        def counting(server, request, client_address):
            accepted.append(client_address)
            return real(server, request, client_address)

        monkeypatch.setattr(_CoordinatorServer, "process_request", counting)
        sweep = GridSweep(products=("emulator", "spanner"), methods=("centralized",),
                          eps_values=(None, 0.25), kappas=(None, 4.0))
        assert len(list(sweep.specs())) >= 8
        records = run_sweep({"grid": GRID}, sweep, dist=dict(THREAD_DIST))
        assert _canon(records) == _canon(run_sweep({"grid": GRID}, sweep))
        # Leases, graph fetches and completions all share one connection
        # per worker thread; heartbeats (none at this TTL) have their own.
        assert 1 <= len(accepted) <= 2 * THREAD_DIST["local_workers"]

    def test_a_url_the_worker_cannot_speak_is_refused(self, tmp_path):
        store = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="not http://"):
            DistWorker("https://127.0.0.1:8443", store)
        with pytest.raises(ValueError, match="names no host"):
            DistWorker("http://", store)

    def test_a_4xx_answer_is_raised_without_a_retry(self, tmp_path):
        from repro.dist.worker import CoordinatorRejected

        with DistCoordinator(_tasks(), ResultCache(tmp_path)) as coordinator:
            worker = DistWorker(coordinator.url, ResultCache(tmp_path),
                                give_up_after=30.0)
            try:
                with pytest.raises(CoordinatorRejected, match="404"):
                    worker._request("/frobnicate", {})
                # The connection survives a rejection.
                assert worker._request("/healthz")["ok"]
            finally:
                worker._connection.close()

    def test_a_worker_on_a_kept_connection_gives_up_on_a_closed_coordinator(
            self, tmp_path):
        coordinator = DistCoordinator(_tasks(), ResultCache(tmp_path)).start()
        worker = DistWorker(coordinator.url, ResultCache(tmp_path),
                            give_up_after=0.5)
        try:
            assert worker._request("/healthz")["ok"]  # opens the connection
        finally:
            coordinator.close()
        summary = worker.run()
        assert summary["unreachable"] and summary["leases"] == 0

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_heartbeats_during_a_build_use_their_own_connection(
            self, tmp_path, monkeypatch):
        from repro.dist import worker as worker_module

        beats = []
        enough = threading.Event()
        real_heartbeat = DistCoordinator.heartbeat

        def counting(coordinator, body):
            answer = real_heartbeat(coordinator, body)
            beats.append(answer)
            if len(beats) >= 3:
                enough.set()
            return answer

        def waiting_build(graph, spec):
            enough.wait(30)  # the build runs while heartbeats fire
            return build(graph, spec)

        monkeypatch.setattr(DistCoordinator, "heartbeat", counting)
        monkeypatch.setattr(worker_module, "build", waiting_build)
        store = ResultCache(tmp_path)
        tasks = _tasks()[:2]
        with DistCoordinator(tasks, store, lease_ttl=0.3,
                             max_attempts=5) as coordinator:
            summary = DistWorker(coordinator.url, store, worker_id="w1",
                                 give_up_after=5.0).run()
            assert coordinator.done
        assert summary["completed"] == len(tasks) and not summary["crashed"]
        assert enough.is_set()
        for thread in threading.enumerate():
            if thread.name.startswith("heartbeat-"):
                thread.join(10)
                assert not thread.is_alive()


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class TestHttpSurface:
    def _get(self, coordinator, path):
        connection = http.client.HTTPConnection(
            coordinator.host, coordinator.port, timeout=10)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _post(self, coordinator, path, body):
        connection = http.client.HTTPConnection(
            coordinator.host, coordinator.port, timeout=10)
        try:
            connection.request("POST", path, body=json.dumps(body).encode(),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def test_status_healthz_metrics_and_graph(self, tmp_path):
        store = ResultCache(tmp_path)
        with DistCoordinator(_tasks(), store) as coordinator:
            worker = DistWorker(coordinator.url, store, worker_id="w1",
                                give_up_after=5.0)
            summary = worker.run()
            assert summary["completed"] == len(_tasks())
            assert not summary["crashed"]

            status, body = self._get(coordinator, "/status")
            payload = json.loads(body)
            assert status == 200 and payload["done"]
            assert payload["tasks"]["done"] == len(_tasks())
            assert payload["workers"]["w1"]["completed"] == len(_tasks())
            assert payload["workers"]["w1"]["live"]

            status, body = self._get(coordinator, "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "done"

            status, body = self._get(coordinator, "/metrics")
            text = body.decode()
            assert status == 200
            assert "repro_dist_leases_total" in text
            assert "repro_dist_completions_total" in text
            assert "repro_dist_workers_live" in text

            graph_hash = _tasks()[0][2].content_hash()
            status, blob = self._get(coordinator, f"/graph?hash={graph_hash}")
            assert status == 200 and len(blob) > 0

    def test_protocol_errors_have_distinct_statuses(self, tmp_path):
        with DistCoordinator(_tasks(), ResultCache(tmp_path)) as coordinator:
            status, _ = self._post(coordinator, "/frobnicate", {})
            assert status == 404
            status, _ = self._get(coordinator, "/graph?hash=deadbeef")
            assert status == 404
            status, body = self._post(coordinator, "/complete", {"worker": "w"})
            assert status == 400
            assert "task" in body["error"]
            status, _ = self._post(coordinator, "/complete",
                                   {"worker": "w", "task": 99, "lease": "x"})
            assert status == 404

    def test_injected_coordinator_fault_is_a_retryable_503(self, tmp_path):
        with DistCoordinator(_tasks(), ResultCache(tmp_path)) as coordinator:
            plan = {"rules": [{"site": "dist.lease", "action": "raise",
                               "times": 1}]}
            with fault_plan(plan):
                connection = http.client.HTTPConnection(
                    coordinator.host, coordinator.port, timeout=10)
                try:
                    connection.request(
                        "POST", "/lease", body=json.dumps({"worker": "w"}).encode(),
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    body = json.loads(response.read())
                    assert response.status == 503
                    assert response.getheader("Retry-After") is not None
                    assert body["transient"]
                finally:
                    connection.close()
            # The fault was times-bounded: the next lease succeeds.
            assert coordinator.lease("w")["task"] is not None


# ----------------------------------------------------------------------
# Warm local worker processes (worker_mode="process")
# ----------------------------------------------------------------------
PROCESS_DIST = {"worker_mode": "process", "local_workers": 2, "wait_timeout": 60.0}

#: A plan that never fires: its only effect is that a plan is active.
QUIET_FAULTS = json.dumps({"seed": 1, "rules": [
    {"site": "dist.task", "action": "raise", "probability": 0.0}]})


def _alive(pid):
    """Whether ``pid`` runs (an exited zombie nobody reaped yet does not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def _wait_gone(pids, seconds=30.0):
    deadline = time.monotonic() + seconds
    while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


class TestWarmWorkerPool:
    @pytest.fixture(autouse=True)
    def empty_pool(self):
        dist_executor._POOL.shutdown()
        yield
        dist_executor._POOL.shutdown()

    def _sweep(self):
        records = run_sweep({"grid": GRID}, SWEEP, dist=dict(PROCESS_DIST))
        assert _canon(records) == _canon(run_sweep({"grid": GRID}, SWEEP))
        return sorted(dist_executor._POOL.idle_pids())

    def test_consecutive_sweeps_reuse_the_same_workers(self):
        first = self._sweep()
        assert len(first) == 2
        assert self._sweep() == first

    def test_spanner_records_match_the_serial_sweep(self):
        # Results reach this process by pickle and the workers build on an
        # unpickled graph, so spanner edge order must survive both.
        graph = generators.erdos_renyi(300, 8 / 300, seed=1)
        sweep = GridSweep(products=("spanner",), methods=("centralized", "fast"))
        records = run_sweep({"gnm": graph}, sweep, dist=dict(PROCESS_DIST))
        assert _canon(records) == _canon(run_sweep({"gnm": graph}, sweep))

    def test_a_killed_idle_worker_is_replaced(self):
        victim, survivor = self._sweep()
        os.kill(victim, signal.SIGKILL)
        # Wait on the pool's own handle: a killed leader can read as a
        # zombie while its other threads still exit, before waitpid sees it.
        pooled = next(w for w in dist_executor._POOL._workers
                      if w.process.pid == victim)
        pooled.process.wait(timeout=30)
        pids = self._sweep()
        assert len(pids) == 2 and survivor in pids and victim not in pids

    def test_a_worker_under_a_fault_plan_is_not_reused(self, monkeypatch):
        warm = self._sweep()
        monkeypatch.setenv("REPRO_FAULTS", QUIET_FAULTS)
        # The environment changed: the warm workers are retired, and the
        # new ones leave after their job because a plan is active.
        assert self._sweep() == []
        assert _wait_gone(warm) == []
        monkeypatch.delenv("REPRO_FAULTS")
        fresh = self._sweep()
        assert len(fresh) == 2 and not set(fresh) & set(warm)

    @pytest.mark.parametrize("ending", ["exit", "sigkill"])
    def test_no_worker_outlives_its_parent_interpreter(self, ending):
        import repro

        script = (
            "import json, sys, time\n"
            "from repro.api import GridSweep, run_sweep\n"
            "from repro.dist import executor\n"
            "from repro.graphs import generators\n"
            "sweep = GridSweep(products=('emulator',), methods=('centralized',))\n"
            "run_sweep({'g': generators.grid_graph(3, 3)}, sweep,\n"
            "          dist={'worker_mode': 'process', 'local_workers': 2})\n"
            "print(json.dumps(executor._POOL.idle_pids()), flush=True)\n"
            "if sys.argv[1] == 'sigkill':\n"
            "    time.sleep(60)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen([sys.executable, "-c", script, ending], env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            pids = json.loads(child.stdout.readline())
            assert len(pids) == 2 and all(_alive(pid) for pid in pids)
            if ending == "sigkill":
                child.kill()
            assert child.wait(timeout=60) == (0 if ending == "exit" else -signal.SIGKILL)
        assert _wait_gone(pids) == []
