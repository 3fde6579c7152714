"""Seeded chaos suite: the serving stack under deterministic fault plans.

Every scenario installs a seeded :mod:`repro.faults` plan, exercises a
subsystem the way an operator would, and asserts the paper-level
invariant: every answer the stack returns still satisfies its tagged
``(alpha, beta)`` guarantee.  Faults may cost *availability* (503/504,
staleness, quarantined sweep tasks) — never *correctness*.

Daemons bind port 0 (ephemeral) and run in-process — CONTRIBUTING.md.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro import obs
from repro.api import GridSweep, run_sweep
from repro.api.cache import ResultCache
from repro.dist import DistCoordinator, DistWorker, canonical_record
from repro.faults import FaultInjected, active_plan, clear_plan, fault_plan
from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import LiveEngine, OracleDaemon, RemoteOracle, ServeSpec
from repro.serve.remote import CircuitOpenError, RemoteOracleError

GRAPH = generators.connected_erdos_renyi(40, 0.15, seed=1)
GRID = generators.grid_graph(4, 4)

#: products x methods grid small enough to sweep in-process repeatedly.
SWEEP = GridSweep(products=("emulator", "spanner"), methods=("centralized",))


@pytest.fixture(autouse=True)
def chaos_hygiene():
    """No plan leaks between scenarios; metrics start from zero."""
    clear_plan()
    previous = obs.set_enabled(True)
    obs.reset()
    yield
    clear_plan()
    obs.reset()
    obs.set_enabled(previous)


def _record_key(record):
    """Everything about a sweep record that faults must not change."""
    return (
        record.graph_name,
        record.spec,
        frozenset(record.result.edges),
        record.result.size,
        record.result.alpha,
        record.result.beta,
    )


def _non_support_deletions(engine, count):
    """Graph edges whose deletion does not force a rebuild (not in the emulator)."""
    emulator = engine.raw_result.emulator
    picked = []
    for u, v in sorted(engine.graph.edges()):
        if not emulator.has_edge(u, v):
            picked.append((u, v))
        if len(picked) == count:
            break
    assert len(picked) == count, "workload graph too sparse for this test"
    return picked


def _post(daemon, path, body):
    connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
    try:
        connection.request("POST", path, body=json.dumps(body).encode(),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.getheader("Retry-After"), \
            json.loads(response.read())
    finally:
        connection.close()


# ----------------------------------------------------------------------
# Sweep: worker crashes and poisoned specs
# ----------------------------------------------------------------------
class TestSweepChaos:
    def test_transient_fault_is_retried_to_byte_identical_records(self):
        baseline = run_sweep({"grid": GRID}, SWEEP)
        plan = {"seed": 11,
                "rules": [{"site": "sweep.task", "action": "raise", "nth": 1}]}
        with fault_plan(plan):
            records = run_sweep({"grid": GRID}, SWEEP, task_retries=2)
        # Recovery is invisible in the results...
        assert [_record_key(r) for r in records] == \
            [_record_key(r) for r in baseline]
        # ...but visible in the provenance: the hit task retried.
        assert sum(r.stats["retries"] for r in records) == 1
        assert all(not r.quarantined for r in records)

    def test_poisoned_spec_is_quarantined_and_neighbours_complete(self):
        plan = {"rules": [{"site": "sweep.task", "action": "raise",
                           "where": {"product": "spanner"}}]}
        with fault_plan(plan):
            records = run_sweep({"grid": GRID}, SWEEP,
                                task_retries=1, on_error="quarantine")
        quarantined = [r for r in records if r.quarantined]
        healthy = [r for r in records if not r.quarantined]
        assert quarantined and healthy
        assert all(r.spec.product == "spanner" for r in quarantined)
        for record in quarantined:
            assert record.stats["quarantined"] is True
            assert record.stats["retries"] == 1
            assert "injected fault" in record.stats["error"]
            assert record.verified is None and record.result is None
            assert "QUARANTINED" in record.row
        # The surviving half still meets its guarantee on the real graph.
        for record in healthy:
            assert record.result.verify(GRID, sample_pairs=10).valid

    def test_default_on_error_raises_the_original_failure(self):
        plan = {"rules": [{"site": "sweep.task", "action": "raise",
                           "where": {"product": "spanner"}}]}
        with fault_plan(plan):
            with pytest.raises(FaultInjected):
                run_sweep({"grid": GRID}, SWEEP, task_retries=0)

    def test_parallel_workers_report_failures_without_killing_the_pool(self):
        plan = {"rules": [{"site": "sweep.task", "action": "raise",
                           "where": {"product": "spanner"}}]}
        with fault_plan(plan):
            records = run_sweep({"grid": GRID}, SWEEP, workers=2,
                                task_retries=0, on_error="quarantine")
        assert sum(r.quarantined for r in records) == \
            sum(1 for r in records if r.spec.product == "spanner")
        assert any(not r.quarantined for r in records)
        with fault_plan(plan):
            with pytest.raises(RuntimeError, match="failed after"):
                run_sweep({"grid": GRID}, SWEEP, workers=2, task_retries=0)


# ----------------------------------------------------------------------
# Daemon: overload shedding, deadlines, recovery
# ----------------------------------------------------------------------
class TestDaemonOverloadChaos:
    def test_overload_sheds_503_answers_stay_correct_and_health_recovers(self):
        plan = {"rules": [{"site": "daemon.request", "action": "delay",
                           "delay_seconds": 0.2, "where": {"endpoint": "/query"}}]}
        with fault_plan(plan):
            with OracleDaemon(port=0, max_inflight=2) as daemon:
                daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
                daemon.start()
                results = []
                lock = threading.Lock()
                barrier = threading.Barrier(10)

                def client(i):
                    barrier.wait(timeout=10)
                    u, v = i % 5, 7 + i % 9
                    status, retry_after, body = _post(
                        daemon, "/query", {"u": u, "v": v})
                    with lock:
                        results.append((u, v, status, retry_after, body))

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(10)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=20)

                statuses = [status for _, _, status, _, _ in results]
                assert statuses.count(200) >= 1
                assert statuses.count(503) >= 1
                assert set(statuses) <= {200, 503}
                for u, v, status, retry_after, body in results:
                    if status == 200:
                        # Zero wrong answers: every served response is
                        # exact (the backend is the exact oracle).
                        exact = bfs_distances(GRAPH, u).get(v, float("inf"))
                        assert body["answer"] == exact
                    else:
                        assert retry_after is not None
                        assert "overload" in body["error"]
                        assert body["retry_after"] > 0
                assert daemon.shed_requests == statuses.count(503)
                assert obs.get_metric("repro_daemon_shed_total",
                                      reason="overload") == statuses.count(503)
                assert "repro_daemon_shed_total" in daemon.metrics_text()

                # Load gone: the daemon reports healthy and keeps serving.
                assert daemon.healthz()["status"] == "healthy"
                status, _, body = _post(daemon, "/query", {"u": 0, "v": 1})
                assert status == 200
                assert body["answer"] == bfs_distances(GRAPH, 0).get(1, float("inf"))

    def test_deadline_overrun_is_a_504_with_retry_after(self):
        plan = {"rules": [{"site": "serve.single_source", "action": "delay",
                           "delay_seconds": 0.3}]}
        with fault_plan(plan):
            with OracleDaemon(port=0, default_deadline_ms=100) as daemon:
                daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
                daemon.start()
                # Two distinct sources: the first burns the whole budget,
                # the deadline check before the second trips determinists.
                status, retry_after, body = _post(
                    daemon, "/query_batch", {"pairs": [[0, 1], [2, 3]]})
                assert status == 504
                assert retry_after is not None
                assert "deadline" in body["error"]
                assert daemon.deadline_exceeded == 1
                assert obs.get_metric("repro_daemon_deadline_exceeded_total",
                                      endpoint="/query_batch") == 1

    def test_client_requested_deadline_is_honoured(self):
        plan = {"rules": [{"site": "serve.single_source", "action": "delay",
                           "delay_seconds": 0.3}]}
        with fault_plan(plan):
            with OracleDaemon(port=0) as daemon:  # no server-side default
                daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
                daemon.start()
                status, _, body = _post(
                    daemon, "/query_batch",
                    {"pairs": [[0, 1], [2, 3]], "deadline_ms": 100})
                assert status == 504
                assert "deadline" in body["error"]
                # Without a deadline the same request just runs long.
                status, _, body = _post(
                    daemon, "/query_batch", {"pairs": [[4, 5]]})
                assert status == 200


# ----------------------------------------------------------------------
# Live engine: rebuild crashes, churn under failure
# ----------------------------------------------------------------------
class TestLiveRebuildChaos:
    def test_rebuild_crash_serves_stale_tagged_answers_then_recovers(self):
        plan = {"rules": [{"site": "live.rebuild", "action": "raise",
                           "times": 2}]}
        spec = ServeSpec(live=True, live_rebuild_after=1, live_repair=False)
        live = LiveEngine(GRAPH, spec,
                          rebuild_retry_base=0.02, rebuild_retry_cap=0.1)
        try:
            with fault_plan(plan):
                deletions = _non_support_deletions(live, 2)
                live.mutate(deletes=[deletions[0]])
                # The scheduled rebuild is crashing; the engine keeps
                # answering on the last good version, still guaranteed.
                observed = []
                for _ in range(10):
                    for u, v in [(0, 7), (3, 11), (5, 2)]:
                        answer = live.query_tagged(u, v)
                        assert answer.version == 0
                        if answer.guaranteed:
                            observed.append((u, v, answer))
                assert observed, "plain deletions must keep the guarantee"
                # Audit every answer against the graph its version covers.
                by_version = {v.version: v for v in live.versions()}
                for u, v, answer in observed:
                    version = by_version[answer.version]
                    frozen = live.graph_at(version.watermark)
                    exact = bfs_distances(frozen, u).get(v, float("inf"))
                    if exact == float("inf"):
                        assert answer.value == float("inf")
                    else:
                        assert answer.value >= exact - 1e-9
                        assert answer.value <= \
                            version.alpha * exact + version.beta + 1e-9
                # Capped-backoff retries outlive the 2 injected crashes.
                assert live.quiesce(timeout=60.0)
            stats = live.stats()["live"]
            assert stats["rebuild_failures"] == 2
            assert stats["consecutive_rebuild_failures"] == 0
            assert stats["degraded"] is False
            assert not live.degraded
            assert obs.get_metric("repro_live_rebuild_failures_total") == 2
            assert obs.get_metric("repro_live_degraded") == 0.0
            fresh = live.query_tagged(0, 7)
            assert fresh.staleness == 0 and fresh.guaranteed
        finally:
            live.close()

    def test_churn_with_seeded_crash_storm_preserves_every_guarantee(self):
        plan = {"seed": 5, "rules": [{"site": "live.rebuild", "action": "raise",
                                      "probability": 0.5, "times": 3}]}
        spec = ServeSpec(live=True, live_rebuild_after=2, live_repair=False)
        live = LiveEngine(GRAPH, spec,
                          rebuild_retry_base=0.02, rebuild_retry_cap=0.1)
        try:
            with fault_plan(plan):
                observed = []
                pairs = [(u, v) for u in range(0, 40, 7) for v in range(0, 40, 5)]
                for edge in _non_support_deletions(live, 6):
                    live.mutate(deletes=[edge])
                    for u, v in pairs:
                        answer = live.query_tagged(u, v)
                        if answer.guaranteed:
                            observed.append((u, v, answer))
                assert live.quiesce(timeout=60.0)
            assert observed
            by_version = {v.version: v for v in live.versions()}
            graphs = {}
            for u, v, answer in observed:
                version = by_version[answer.version]
                if version.version not in graphs:
                    graphs[version.version] = live.graph_at(version.watermark)
                exact = bfs_distances(graphs[version.version], u).get(v, float("inf"))
                if exact == float("inf"):
                    assert answer.value == float("inf")
                else:
                    assert answer.value >= exact - 1e-9
                    assert answer.value <= \
                        version.alpha * exact + version.beta + 1e-9
        finally:
            live.close()


# ----------------------------------------------------------------------
# Remote: transport flakiness and the circuit breaker
# ----------------------------------------------------------------------
class TestRemoteBreakerChaos:
    def test_injected_transport_fault_is_retried_transparently(self):
        with OracleDaemon(port=0) as daemon:
            daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            daemon.start()
            plan = {"rules": [{"site": "remote.request", "action": "raise",
                               "nth": 1}]}
            with RemoteOracle(daemon.url, retries=2, backoff=0.001, seed=1) as remote:
                with fault_plan(plan):
                    assert remote.query(0, 1) == \
                        bfs_distances(GRAPH, 0).get(1, float("inf"))
            stats = remote.stats()
            assert stats["retried_requests"] >= 1
            assert stats["breaker_state"] == "closed"

    def test_breaker_opens_fast_fails_and_recloses_after_restart(self):
        with OracleDaemon(port=0) as daemon:
            daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            daemon.start()
            port = daemon.port
            remote = RemoteOracle(daemon.url, retries=0, backoff=0.001, seed=3,
                                  breaker_threshold=2, breaker_reset=0.2)
            exact = bfs_distances(GRAPH, 0).get(1, float("inf"))
            assert remote.query(0, 1) == exact

        # The daemon is gone: exhausted rounds open the breaker...
        for _ in range(2):
            with pytest.raises(RemoteOracleError):
                remote.query(0, 1)
        assert remote.stats()["breaker_state"] == "open"
        assert remote.stats()["breaker_opens"] == 1
        assert obs.get_metric("repro_remote_breaker_state",
                              url=remote.url) == 1.0
        # ...and while open, calls fail fast without a round trip.
        started = time.perf_counter()
        with pytest.raises(CircuitOpenError):
            remote.query(0, 1)
        assert time.perf_counter() - started < 0.1
        assert remote.stats()["fast_failures"] >= 1

        # Same port comes back: the half-open probe re-closes the breaker.
        with OracleDaemon(port=port) as revived:
            revived.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            revived.start()
            time.sleep(0.25)  # past the (jittered, <= 0.2s) open window
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    assert remote.query(0, 1) == exact
                    break
                except (RemoteOracleError, CircuitOpenError):
                    time.sleep(0.1)
            else:
                pytest.fail("breaker never re-closed after the daemon revived")
            assert remote.stats()["breaker_state"] == "closed"
            assert obs.get_metric("repro_remote_breaker_state",
                                  url=remote.url) == 0.0
            remote.close()


# ----------------------------------------------------------------------
# Distributed sweeps: worker kills, stragglers, coordinator restarts
# ----------------------------------------------------------------------
class TestDistChaos:
    """The distributed executor under seeded ``dist.*`` fault plans.

    The invariant matches the rest of this suite: faults cost
    availability (reassigned leases, burned attempts, degraded
    resumability) — never correctness.  Every phase must end with
    records byte-identical to the serial executor: zero lost, zero
    duplicated, zero wrong.
    """

    DIST_SWEEP = GridSweep(products=("emulator", "spanner"),
                           methods=("centralized",), eps_values=(None, 0.25))

    def _baseline(self):
        return [_record_key(r) for r in run_sweep({"grid": GRID},
                                                  self.DIST_SWEEP)]

    def _dist_tasks(self):
        return [(index, "grid", GRID, spec)
                for index, spec in enumerate(self.DIST_SWEEP.specs())]

    def test_worker_crash_mid_sweep_loses_and_duplicates_nothing(self):
        baseline = self._baseline()
        # local-0 dies (silently, SIGKILL-style) on its first lease: no
        # /complete, no more heartbeats.  The lease TTL expires, the
        # reaper re-dispatches, local-1 finishes the sweep.
        plan = {"seed": 19,
                "rules": [{"site": "dist.worker", "action": "raise",
                           "nth": 1, "where": {"worker": "local-0"}}]}
        with fault_plan(plan):
            records = run_sweep(
                {"grid": GRID}, self.DIST_SWEEP,
                dist={"worker_mode": "thread", "local_workers": 2,
                      "lease_ttl": 0.4})
            crashes = active_plan().stats()["dist.worker"]["injected"]
        assert crashes == 1
        assert [_record_key(r) for r in records] == baseline
        assert obs.get_metric("repro_dist_reassignments_total") >= 1
        # The dead worker's lease burned one attempt; nothing quarantined.
        assert all(not r.quarantined for r in records)

    def test_straggler_past_ttl_is_reassigned_and_its_late_delivery_ignored(self):
        baseline = self._baseline()
        # local-0's first build stalls past the TTL *and* its heartbeats
        # fail: the coordinator reaps the lease and re-dispatches.  The
        # straggler eventually delivers on its dead lease — idempotent
        # completion discards or accepts it without changing the records.
        plan = {"seed": 23,
                "rules": [
                    {"site": "dist.task", "action": "delay",
                     "delay_seconds": 1.0, "nth": 1,
                     "where": {"worker": "local-0"}},
                    {"site": "dist.heartbeat", "action": "raise",
                     "where": {"worker": "local-0"}},
                ]}
        with fault_plan(plan):
            records = run_sweep(
                {"grid": GRID}, self.DIST_SWEEP,
                dist={"worker_mode": "thread", "local_workers": 2,
                      "lease_ttl": 0.3})
            stalls = active_plan().stats()["dist.task"]["injected"]
        assert stalls == 1
        assert [_record_key(r) for r in records] == baseline
        assert len(records) == len(baseline)  # zero lost, zero duplicated
        assert obs.get_metric("repro_dist_reassignments_total") >= 1

    def test_transient_coordinator_faults_are_retried_to_identical_records(self):
        baseline = self._baseline()
        # Every protocol endpoint hiccups (503 + Retry-After) a bounded
        # number of times; workers ride it out with backoff.  The slowed
        # builds guarantee heartbeats actually fire mid-build.
        plan = {"seed": 29,
                "rules": [
                    {"site": "dist.lease", "action": "raise", "times": 2},
                    {"site": "dist.complete", "action": "raise", "times": 2},
                    {"site": "dist.heartbeat", "action": "raise", "times": 2},
                    {"site": "dist.task", "action": "delay",
                     "delay_seconds": 0.3},
                ]}
        with fault_plan(plan):
            records = run_sweep(
                {"grid": GRID}, self.DIST_SWEEP,
                dist={"worker_mode": "thread", "local_workers": 2,
                      "lease_ttl": 0.9})
            stats = active_plan().stats()
        assert [_record_key(r) for r in records] == baseline
        assert stats["dist.lease"]["injected"] >= 1
        assert stats["dist.complete"]["injected"] >= 1
        assert stats["dist.heartbeat"]["injected"] >= 1

    def test_journal_faults_degrade_resumability_never_the_sweep(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        journal_path = str(tmp_path / "sweep.journal")
        # Every journal write fails: the sweep must still complete, the
        # coordinator just loses its restart insurance.
        plan = {"rules": [{"site": "dist.journal", "action": "raise"}]}
        with fault_plan(plan):
            coordinator = DistCoordinator(
                self._dist_tasks(), store, journal=journal_path).start()
            try:
                worker = DistWorker(coordinator.url, store, worker_id="w1",
                                    give_up_after=5.0)
                worker.run()
                assert coordinator.done
                assert coordinator.journal.errors >= len(self._dist_tasks())
            finally:
                coordinator.close()
        # A restart finds no usable journal: honest re-run, not a crash.
        fresh = DistCoordinator(self._dist_tasks(), store,
                                journal=journal_path)
        try:
            assert fresh.replayed == 0
        finally:
            fresh.close()

    def test_coordinator_restart_mid_sweep_resumes_and_stays_byte_identical(
            self, tmp_path):
        serial = run_sweep({"grid": GRID}, self.DIST_SWEEP)
        store = ResultCache(tmp_path / "cache")
        journal_path = str(tmp_path / "sweep.journal")
        # Phase 1: the first coordinator dies after two completions.
        first = DistCoordinator(self._dist_tasks(), store,
                                journal=journal_path).start()
        try:
            DistWorker(first.url, store, worker_id="w1", max_tasks=2,
                       give_up_after=5.0).run()
            assert first.completions == 2
        finally:
            first.close()
        # Phase 2: a restarted coordinator replays the journal and only
        # serves the remainder; provenance of replayed tasks survives.
        second = DistCoordinator(self._dist_tasks(), store,
                                 journal=journal_path).start()
        try:
            assert second.replayed == 2
            DistWorker(second.url, store, worker_id="w2",
                       give_up_after=5.0).run()
            assert second.done
            outcomes = second.outcomes()
        finally:
            second.close()
        got = [canonical_record(result) for _, _, result, _, _ in outcomes]
        assert got == [canonical_record(r.result) for r in serial]
        workers = [worker for _, worker, _, _, _ in outcomes]
        assert workers.count("w1") == 2 and workers.count("w2") == 2
        assert obs.get_metric("repro_dist_journal_replays_total") == 2
