"""Tests for the oracle-serving daemon (lifecycle, wire protocol, coalescing).

Every daemon here binds port 0 (an ephemeral port) and runs in-process on
a background thread — see CONTRIBUTING.md for the port discipline.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.graphs import generators
from repro.serve import (
    DaemonConfig,
    DistanceOracle,
    OracleConfig,
    OracleDaemon,
    QueryEngine,
    RemoteOracle,
    ServeSpec,
    generate_queries,
    load,
    profile,
)
from repro.serve.daemon import from_wire, to_wire


GRAPH = generators.connected_erdos_renyi(48, 0.1, seed=7)


@pytest.fixture(scope="module")
def daemon():
    with OracleDaemon(port=0) as d:
        d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
        d.add_oracle("emu", GRAPH, ServeSpec(seed=0))
        d.start()
        yield d


def _post(daemon, path, body, *, raw=None):
    """One raw HTTP POST (no client-side conveniences), -> (status, payload)."""
    connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=5)
    try:
        encoded = raw if raw is not None else json.dumps(body).encode()
        connection.request("POST", path, body=encoded,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestWireFormat:
    def test_infinity_travels_as_null(self):
        assert to_wire(float("inf")) is None
        assert to_wire(3.0) == 3.0
        assert from_wire(None) == float("inf")
        assert from_wire(3.0) == 3.0


class TestLifecycle:
    def test_ephemeral_port_resolves_and_serves(self):
        with OracleDaemon(port=0) as d:
            d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            d.start()
            assert d.port > 0
            assert d.url == f"http://127.0.0.1:{d.port}"
            connection = http.client.HTTPConnection(d.host, d.port, timeout=5)
            connection.request("GET", "/healthz")
            payload = json.loads(connection.getresponse().read())
            connection.close()
            assert payload["ok"] is True
            assert payload["default_oracle"] == "default"

    def test_close_is_idempotent_and_releases_the_port(self):
        d = OracleDaemon(port=0)
        d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
        d.start()
        port = d.port
        d.close()
        d.close()  # no-op, no deadlock
        # The port is released: a fresh daemon can bind it.
        with OracleDaemon(port=port) as fresh:
            fresh.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            fresh.start()
            assert fresh.port == port

    def test_first_oracle_is_the_default(self, daemon):
        assert daemon.default_oracle_name == "default"
        assert daemon.oracle_names == ["default", "emu"]
        assert daemon.engine_for(None) is daemon.engine_for("default")

    def test_oracles_must_be_uniquely_named(self):
        with OracleDaemon(port=0) as d:
            d.add_oracle("a", GRAPH, ServeSpec(backend="exact"))
            with pytest.raises(ValueError, match="already served"):
                d.add_oracle("a", GRAPH, ServeSpec(backend="exact"))


class TestWireParity:
    """The daemon answers identically to the in-process stack."""

    def test_serial_parity(self, daemon):
        queries = generate_queries(GRAPH, "mixed", 150, seed=4)
        local = load(GRAPH, ServeSpec(backend="exact"))
        with RemoteOracle(daemon.url) as remote:
            assert remote.query_batch(queries) == local.query_batch(queries)

    def test_parallel_wire_clients_match_serial_in_process(self, daemon):
        queries = generate_queries(GRAPH, "zipf", 200, seed=5)
        serial = load(GRAPH, ServeSpec(backend="exact")).query_batch(queries)
        answers = [None] * len(queries)
        errors = []

        def client(offset):
            try:
                with RemoteOracle(daemon.url) as remote:
                    for index in range(offset, len(queries), 4):
                        answers[index] = remote.query(*queries[index])
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert answers == serial

    def test_named_oracle_answers_with_its_own_stretch(self, daemon):
        with RemoteOracle(daemon.url, oracle="emu") as emu, \
                RemoteOracle(daemon.url, oracle="default") as exact:
            assert emu.alpha >= exact.alpha
            for u, v in [(0, 17), (3, 42), (5, 5)]:
                assert emu.query(u, v) >= exact.query(u, v)

    def test_single_source_round_trips_int_keys(self, daemon):
        local = load(GRAPH, ServeSpec(backend="exact"))
        with RemoteOracle(daemon.url) as remote:
            assert remote.single_source(7) == local.single_source(7)


class TestStats:
    def test_stats_reflect_hits_misses_and_requests(self):
        with OracleDaemon(port=0) as d:
            d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            d.start()
            with RemoteOracle(d.url) as remote:
                remote.query(0, 1)   # miss (source 0 computed)
                remote.query(0, 2)   # hit
                remote.query(0, 3)   # hit
            stats = d.stats()
            engine_stats = stats["oracles"]["default"]
            assert engine_stats["queries"] == 3
            assert engine_stats["cache_misses"] == 1
            assert engine_stats["cache_hits"] == 2
            # handshake + 3 queries, all accounted
            assert stats["daemon"]["requests"] == 4
            assert stats["daemon"]["request_errors"] == 0
            histogram = stats["daemon"]["latency_ms"]
            assert histogram["count"] == 4
            assert sum(bucket["count"] for bucket in histogram["buckets"]) == 4

    def test_warmup_profile_preloads_the_memo(self):
        queries = generate_queries(GRAPH, "zipf", 300, seed=2)
        prof = profile(queries)
        with OracleDaemon(port=0) as d:
            d.add_oracle("default", GRAPH, ServeSpec(backend="exact"),
                         warmup_profile=prof, warmup_sources=6)
            d.start()
            with RemoteOracle(d.url) as remote:
                engine_stats = remote.daemon_stats()["oracles"]["default"]
                assert engine_stats["warmed_sources"] == 6
                assert engine_stats["prewarmed_sources"] == 6
                assert engine_stats["cached_sources"] == 6
                # A query for the hottest source is a hit, not a miss.
                hot = prof.top_sources(1)[0]
                target = (hot + 1) % GRAPH.num_vertices
                remote.query(hot, target)
            assert d.engine_for("default").stats()["cache_hits"] == 1
            assert d.engine_for("default").stats()["cache_misses"] == 0


    def test_batch_counters_match_the_in_process_engine(self):
        batch = [(0, 5), (0, 6), (0, 7), (3, 3), (1, 2), (1, 9)]
        local = load(GRAPH, ServeSpec(backend="exact"))
        local.query(0, 1)
        local.query_batch(batch)
        with OracleDaemon(port=0) as d:
            d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            d.start()
            with RemoteOracle(d.url) as remote:
                remote.query(0, 1)
                remote.query_batch(batch)
            served = d.stats()["oracles"]["default"]
        keys = ("queries", "cache_hits", "cache_misses")
        # One miss per distinct uncached source (0, then 1); every other
        # non-self pair is a hit.
        assert {key: local.stats()[key] for key in keys} == \
            {"queries": 7, "cache_hits": 4, "cache_misses": 2}
        assert {key: served[key] for key in keys} == \
            {key: local.stats()[key] for key in keys}

class TestMalformedRequests:
    def test_bad_json_is_a_400(self, daemon):
        status, payload = _post(daemon, "/query", None, raw=b"{not json")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_missing_fields_are_a_400(self, daemon):
        status, payload = _post(daemon, "/query", {"u": 0})
        assert status == 400
        assert "'v'" in payload["error"]

    def test_non_integer_vertex_is_a_400(self, daemon):
        for bad in ["7", 1.5, True, None]:
            status, _ = _post(daemon, "/query", {"u": bad, "v": 1})
            assert status == 400

    def test_out_of_range_vertex_is_a_400(self, daemon):
        status, payload = _post(daemon, "/query", {"u": 0, "v": 99999})
        assert status == 400
        assert "out of range" in payload["error"]

    def test_malformed_pairs_are_a_400(self, daemon):
        for bad in [{"pairs": [[0]]}, {"pairs": [[0, 1, 2]]}, {"pairs": "nope"},
                    {"pairs": [[0, "x"]]}]:
            status, _ = _post(daemon, "/query_batch", bad)
            assert status == 400

    def test_body_must_be_a_json_object(self, daemon):
        status, payload = _post(daemon, "/query", [1, 2])
        assert status == 400
        assert "object" in payload["error"]

    def test_unknown_oracle_is_a_404(self, daemon):
        status, payload = _post(daemon, "/query", {"u": 0, "v": 1, "oracle": "nope"})
        assert status == 404
        assert "served oracles" in payload["error"]

    def test_unknown_path_is_a_404(self, daemon):
        status, _ = _post(daemon, "/nonsense", {"u": 0, "v": 1})
        assert status == 404
        connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=5)
        connection.request("GET", "/nonsense")
        assert connection.getresponse().status == 404
        connection.close()

    def test_wrong_method_is_a_405(self, daemon):
        status, _ = _post(daemon, "/stats", {})
        assert status == 405
        connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=5)
        connection.request("PUT", "/query", body=b"{}")
        assert connection.getresponse().status == 405
        connection.close()

    def test_errors_count_in_the_stats(self):
        with OracleDaemon(port=0) as d:
            d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            d.start()
            _post(d, "/query", {"u": 0})
            assert d.stats()["daemon"]["request_errors"] == 1


class TestCoalescing:
    """A bare QueryEngine is thread-safe and coalesces same-source misses."""

    def test_concurrent_same_source_queries_share_one_backend_call(self):
        backend = load(GRAPH, ServeSpec(backend="exact")).oracle
        gate = threading.Event()
        started = threading.Event()
        calls = []
        original = backend.single_source

        def slow(source):
            calls.append(source)
            started.set()
            gate.wait(timeout=5)
            return original(source)

        backend.single_source = slow
        engine = QueryEngine(backend, cache_sources=8)
        answers = []

        def ask(v):
            answers.append(engine.query(3, v))

        threads = [threading.Thread(target=ask, args=(v,)) for v in range(4, 10)]
        threads[0].start()
        assert started.wait(timeout=5)  # the leader is inside the backend
        for thread in threads[1:]:
            thread.start()
        # Followers must be enqueued on the in-flight record before the
        # gate opens; poll until they all are (they register under the
        # engine lock, so the counter is exact).
        for _ in range(500):
            if engine.stats()["coalesced_queries"] == 5:
                break
            time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join()
        assert calls == [3]  # one backend computation for all six queries
        assert engine.stats()["coalesced_queries"] == 5
        assert engine.stats()["cache_misses"] == len(calls)
        exact = original(3)
        assert sorted(answers) == sorted(exact[v] for v in range(4, 10))

    def test_leader_failure_propagates_to_followers_and_is_retryable(self):
        backend = load(GRAPH, ServeSpec(backend="exact")).oracle
        original = backend.single_source
        gate = threading.Event()
        started = threading.Event()

        def failing(source):
            started.set()
            gate.wait(timeout=5)
            raise RuntimeError("boom")

        backend.single_source = failing
        engine = QueryEngine(backend, cache_sources=8)
        errors = []

        def ask():
            try:
                engine.query(3, 5)
            except RuntimeError as error:
                errors.append(error)

        follower = threading.Thread(target=ask)
        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=5)
        follower.start()
        for _ in range(500):
            if engine.stats()["coalesced_queries"] == 1:
                break
            time.sleep(0.01)
        gate.set()
        leader.join()
        follower.join()
        # The leader's failure reached its follower too.
        assert engine.stats()["coalesced_queries"] == 1
        assert [str(error) for error in errors] == ["boom", "boom"]
        with pytest.raises(RuntimeError, match="boom"):
            engine.query(3, 4)
        # The in-flight record is cleaned up: a later query retries fresh.
        backend.single_source = original
        assert engine.query(3, 4) == original(3)[4]
        assert engine.stats()["inflight_sources"] == 0

    def test_threaded_stress_keeps_counters_exact(self):
        backend = load(GRAPH, ServeSpec(backend="exact")).oracle
        original = backend.single_source
        exact = {source: original(source) for source in range(12)}
        calls = []
        calls_lock = threading.Lock()

        def counting(source):
            with calls_lock:
                calls.append(source)
            return original(source)

        backend.single_source = counting
        engine = QueryEngine(backend, cache_sources=4)  # forces evictions
        asked = []
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            non_self = 0
            try:
                for _ in range(50):
                    u, v = rng.randrange(12), rng.randrange(48)
                    assert engine.query(u, v) == exact[u][v]
                    pairs = [(rng.randrange(12), rng.randrange(48)) for _ in range(3)]
                    assert engine.query_batch(pairs) == [exact[a][b] for a, b in pairs]
                    non_self += (u != v) + sum(a != b for a, b in pairs)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)
            asked.append(non_self)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = engine.stats()
        assert stats["queries"] == 8 * 50 * 4
        # Every non-self query is exactly one hit, miss or coalesced wait,
        # and every miss is one backend call: a lost update breaks either.
        assert stats["cache_hits"] + stats["cache_misses"] + \
            stats["coalesced_queries"] == sum(asked)
        assert stats["cache_misses"] == len(calls)
        assert stats["inflight_sources"] == 0
        assert stats["cached_sources"] == 4

    def test_satisfies_the_oracle_protocol(self):
        engine = load(GRAPH, ServeSpec(backend="exact"))
        assert isinstance(engine, DistanceOracle)

    def test_stats_delta_covers_the_coalescing_counter(self):
        engine = load(GRAPH, ServeSpec(backend="exact"))
        engine.query(0, 1)
        before = engine.stats()
        engine.query(0, 2)
        delta = engine.stats_delta(before)
        assert delta["queries"] == 1
        assert delta["cache_hits"] == 1
        assert delta["coalesced_queries"] == 0


class TestDaemonConfig:
    def test_from_dict_builds_named_oracles(self):
        config = DaemonConfig.from_dict({
            "oracles": {
                "a": {"spec": {"backend": "exact"}, "family": "erdos-renyi", "n": 32},
                "b": {"spec": {"product": "emulator"}, "family": "erdos-renyi", "n": 32},
            },
            "default_oracle": "b",
        })
        assert sorted(config.oracles) == ["a", "b"]
        assert config.default_oracle == "b"

    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least one oracle"):
            DaemonConfig(oracles={})
        with pytest.raises(ValueError, match="not a configured oracle"):
            DaemonConfig(oracles={"a": OracleConfig()}, default_oracle="b")
        with pytest.raises(ValueError, match="unknown oracle config keys"):
            OracleConfig.from_dict({"nonsense": 1})
        with pytest.raises(ValueError, match="'oracles'"):
            DaemonConfig.from_dict({})

    def test_misspelled_spec_key_is_a_clean_cli_error(self, tmp_path, capsys):
        with pytest.raises(ValueError, match=r"unknown oracle spec keys \['prodcut'\]"):
            OracleConfig.from_dict({"spec": {"prodcut": "emulator"}})
        config_path = tmp_path / "daemon.json"
        config_path.write_text(json.dumps(
            {"oracles": {"main": {"spec": {"prodcut": "emulator"}, "n": 16}}}
        ))
        assert cli_main(["serve-daemon", "--config", str(config_path), "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown oracle spec keys ['prodcut']")
        assert "'product'" in err

    def test_from_config_file_serves_and_warms(self, tmp_path):
        queries = generate_queries(GRAPH, "zipf", 100, seed=1)
        profile_path = tmp_path / "profile.json"
        profile(queries).save(str(profile_path))
        config_path = tmp_path / "daemon.json"
        config_path.write_text(json.dumps({
            "oracles": {
                "main": {
                    "spec": {"backend": "exact"},
                    "family": "erdos-renyi",
                    "n": 48,
                    "graph_seed": 7,
                    "warmup_profile": str(profile_path),
                    "warmup_sources": 4,
                },
            },
        }))
        with OracleDaemon.from_config(DaemonConfig.from_file(str(config_path))) as d:
            d.start()
            with RemoteOracle(d.url) as remote:
                assert remote.oracle_name == "main"
                assert remote.num_vertices == 48
            assert d.stats()["oracles"]["main"]["warmed_sources"] == 4


class TestWireSweep:
    def test_sweep_reports_each_concurrency_level(self, daemon):
        from repro.serve import run_wire_sweep

        report = run_wire_sweep(
            daemon.url, GRAPH, workload="zipf", num_queries=80,
            concurrency=(1, 2), stretch_sample=20,
        )
        assert [level.concurrency for level in report.levels] == [1, 2]
        for level in report.levels:
            assert level.num_queries == 80
            assert level.throughput_qps > 0
            assert level.latency_p50_ms <= level.latency_p95_ms <= level.latency_p99_ms
        assert report.stretch_ok
        assert report.oracle == "default"
        assert report.daemon_stats["oracles"]["default"]["queries"] > 0

    def test_report_round_trips_through_json(self, daemon):
        from repro.serve import WireSweepReport, run_wire_sweep

        report = run_wire_sweep(
            daemon.url, GRAPH, workload="uniform", num_queries=40,
            concurrency=(1,), stretch_sample=10,
        )
        clone = WireSweepReport.from_json(report.to_json())
        assert clone.levels == report.levels
        assert clone.url == report.url
        assert "q/s" in report.summary()

    def test_sweep_rejects_a_mismatched_graph(self, daemon):
        from repro.serve import run_wire_sweep

        other = generators.connected_erdos_renyi(20, 0.2, seed=2)
        with pytest.raises(ValueError, match="vertices"):
            run_wire_sweep(daemon.url, other, num_queries=10)

    def test_sweep_validates_concurrency(self, daemon):
        from repro.serve import run_wire_sweep

        with pytest.raises(ValueError):
            run_wire_sweep(daemon.url, GRAPH, num_queries=10, concurrency=())
        with pytest.raises(ValueError):
            run_wire_sweep(daemon.url, GRAPH, num_queries=10, concurrency=(0,))


class TestGracefulDrain:
    """SIGTERM-style shutdown: finish in-flight work, refuse new work."""

    def _daemon(self):
        d = OracleDaemon(port=0)
        d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
        d.start()
        return d

    def test_inflight_request_completes_during_drain(self):
        from repro.faults import fault_plan

        plan = {"rules": [{"site": "daemon.request", "action": "delay",
                           "delay_seconds": 0.4}]}
        with fault_plan(plan):
            daemon = self._daemon()
            outcome = {}

            def client():
                outcome["status"], outcome["payload"] = _post(
                    daemon, "/query", {"u": 0, "v": 1}
                )

            thread = threading.Thread(target=client)
            thread.start()
            deadline = time.monotonic() + 5.0
            while daemon._inflight_requests == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert daemon._inflight_requests > 0

            assert daemon.drain(timeout=5.0) is True
            thread.join(timeout=5.0)
            # The admitted request ran to a full 200, not a cut stream.
            assert outcome["status"] == 200
            assert isinstance(outcome["payload"]["answer"], (int, float))

    def test_new_connections_are_refused_after_drain(self):
        daemon = self._daemon()
        host, port = daemon.host, daemon.port
        assert daemon.drain(timeout=5.0) is True
        connection = http.client.HTTPConnection(host, port, timeout=2)
        try:
            with pytest.raises(OSError):
                connection.request("GET", "/healthz")
                connection.getresponse()
        finally:
            connection.close()

    def test_requests_during_drain_get_503_then_drain_finishes(self):
        from repro.faults import fault_plan

        # Only /single_source is slowed, so the keep-alive /query probe
        # below stays fast.
        plan = {"rules": [{"site": "daemon.request", "action": "delay",
                           "delay_seconds": 0.6,
                           "where": {"endpoint": "/single_source"}}]}
        with fault_plan(plan) as installed:
            daemon = self._daemon()
            keepalive = http.client.HTTPConnection(daemon.host, daemon.port,
                                                   timeout=5)
            try:
                keepalive.request(
                    "POST", "/query", body=json.dumps({"u": 0, "v": 1}).encode(),
                    headers={"Content-Type": "application/json"})
                response = keepalive.getresponse()
                assert response.status == 200
                response.read()  # keep the connection reusable

                slow = {}

                def slow_client():
                    slow["status"], slow["payload"] = _post(
                        daemon, "/single_source", {"source": 0}
                    )

                slow_thread = threading.Thread(target=slow_client)
                slow_thread.start()
                # The delay rule only matches the slow /single_source
                # request, and its injection is recorded before the sleep
                # starts — so an injected count means the slow request is
                # admitted and inflight (a bare inflight poll could be
                # satisfied by the keepalive probe's not-yet-finished
                # handler and let drain() close the listener before the
                # slow client even connects).
                deadline = time.monotonic() + 5.0
                while (installed.stats().get("daemon.request", {}).get("injected", 0) == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert installed.stats()["daemon.request"]["injected"] >= 1

                drained = {}
                drain_thread = threading.Thread(
                    target=lambda: drained.setdefault("ok", daemon.drain(10.0)))
                drain_thread.start()
                deadline = time.monotonic() + 5.0
                while (daemon.healthz()["status"] != "draining"
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                assert daemon.healthz()["status"] == "draining"

                # A new request on the existing keep-alive connection is
                # shed, with Retry-After, while the slow one still runs.
                keepalive.request(
                    "POST", "/query", body=json.dumps({"u": 0, "v": 1}).encode(),
                    headers={"Content-Type": "application/json"})
                shed = keepalive.getresponse()
                shed_body = json.loads(shed.read())
                assert shed.status == 503
                assert shed.getheader("Retry-After") is not None
                assert "draining" in shed_body["error"]

                slow_thread.join(timeout=10.0)
                drain_thread.join(timeout=10.0)
                assert slow["status"] == 200
                assert drained["ok"] is True
                assert daemon.shed_requests >= 1
            finally:
                keepalive.close()

    def test_idle_keepalive_client_sees_clean_eof(self):
        daemon = self._daemon()
        connection = http.client.HTTPConnection(daemon.host, daemon.port,
                                                timeout=5)
        try:
            connection.request(
                "POST", "/query", body=json.dumps({"u": 0, "v": 1}).encode(),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            response.read()

            assert daemon.drain(timeout=5.0) is True
            # The fully-answered connection ends with a FIN, not a reset:
            # the client reads a clean EOF.
            sock = connection.sock
            sock.settimeout(2.0)
            assert sock.recv(1024) == b""
        finally:
            connection.close()

    def test_drain_after_close_is_a_noop(self):
        daemon = self._daemon()
        daemon.close()
        assert daemon.drain(timeout=1.0) is True
