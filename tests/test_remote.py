"""Tests for the remote-proxy oracle (protocol conformance, failure modes).

Daemons bind port 0 (ephemeral) and run in-process — CONTRIBUTING.md.
"""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.serve import (
    DistanceOracle,
    OracleDaemon,
    RemoteOracle,
    RemoteOracleError,
    ServeSpec,
    generate_queries,
    load,
    run_load_test,
)


GRAPH = generators.connected_erdos_renyi(48, 0.1, seed=7)


@pytest.fixture(scope="module")
def daemon():
    with OracleDaemon(port=0) as d:
        d.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
        d.start()
        yield d


class TestProtocolConformance:
    def test_satisfies_the_distance_oracle_protocol(self, daemon):
        with RemoteOracle(daemon.url) as remote:
            assert isinstance(remote, DistanceOracle)

    def test_handshake_caches_the_daemon_metadata(self, daemon):
        local = load(GRAPH, ServeSpec(backend="exact"))
        with RemoteOracle(daemon.url) as remote:
            assert remote.alpha == local.alpha
            assert remote.beta == local.beta
            assert remote.num_vertices == GRAPH.num_vertices
            assert remote.space_in_edges == local.space_in_edges
            assert remote.oracle_name == "default"

    def test_local_error_types_survive_the_wire(self, daemon):
        with RemoteOracle(daemon.url) as remote:
            with pytest.raises(ValueError):
                remote.query(0, 99999)  # out of range -> daemon 400 -> ValueError
        with pytest.raises(KeyError):
            RemoteOracle(daemon.url, oracle="nonsense")  # daemon 404 -> KeyError

    def test_stats_are_local_and_count_transport_activity(self, daemon):
        with RemoteOracle(daemon.url) as remote:
            remote.query(0, 1)
        stats = remote.stats()
        assert stats["backend"] == "remote"
        assert stats["requests"] == 2  # handshake + query
        assert stats["retried_requests"] == 0
        assert stats["reconnects"] == 1  # one persistent connection, reused

    def test_registry_path_builds_a_served_engine(self, daemon):
        spec = ServeSpec(backend="remote", options={"url": daemon.url})
        local = load(GRAPH, ServeSpec(backend="exact"))
        pairs = generate_queries(GRAPH, "uniform", 40, seed=3)
        with load(GRAPH, spec) as engine:
            assert engine.query_batch(pairs) == local.query_batch(pairs)

    def test_registry_path_requires_a_url(self):
        with pytest.raises(ValueError, match="url"):
            load(GRAPH, ServeSpec(backend="remote"))

    def test_registry_path_rejects_a_mismatched_graph(self, daemon):
        other = generators.connected_erdos_renyi(20, 0.2, seed=1)
        with pytest.raises(ValueError, match="vertices"):
            load(other, ServeSpec(backend="remote", options={"url": daemon.url}))

    def test_composes_with_the_load_harness(self, daemon):
        report = run_load_test(
            GRAPH,
            ServeSpec(backend="remote", options={"url": daemon.url}),
            workload="zipf",
            num_queries=100,
            stretch_sample=30,
        )
        assert report.stretch_ok
        assert report.num_queries == 100

    def test_pickles_without_its_connection(self, daemon):
        import pickle

        with RemoteOracle(daemon.url) as remote:
            remote.query(0, 1)
            with pickle.loads(pickle.dumps(remote)) as clone:
                assert clone.query(0, 1) == remote.query(0, 1)
                assert clone.num_vertices == remote.num_vertices


class TestValidation:
    def test_url_validation(self):
        with pytest.raises(ValueError, match="http"):
            RemoteOracle("ftp://example.com")
        with pytest.raises(ValueError, match="host"):
            RemoteOracle("http://")
        with pytest.raises(ValueError, match="retries"):
            RemoteOracle("http://127.0.0.1:1", retries=-1)
        with pytest.raises(ValueError, match="timeout"):
            RemoteOracle("http://127.0.0.1:1", timeout=0)
        with pytest.raises(ValueError, match="backoff"):
            RemoteOracle("http://127.0.0.1:1", backoff=-0.1)


class TestDegradation:
    """No bare transport error ever escapes; the typed error carries context."""

    def test_connection_refused_raises_the_typed_error(self):
        # Bind-and-close to get a port nothing listens on.
        probe = OracleDaemon(port=0)
        dead_url = probe.url
        probe.close()
        with pytest.raises(RemoteOracleError, match="unreachable"):
            RemoteOracle(dead_url, retries=1, backoff=0.001)

    def test_daemon_killed_mid_stream_raises_the_typed_error(self):
        daemon = OracleDaemon(port=0)
        daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
        daemon.start()
        remote = RemoteOracle(daemon.url, retries=2, backoff=0.001)
        queries = generate_queries(GRAPH, "uniform", 50, seed=6)
        answered = 0
        try:
            for index, (u, v) in enumerate(queries):
                if index == 10:
                    daemon.close()  # the daemon dies mid-stream
                remote.query(u, v)
                answered += 1
        except RemoteOracleError as error:
            remote.close()
            assert "attempt" in str(error)
            assert error.__cause__ is not None  # the transport error is chained
        else:  # pragma: no cover
            pytest.fail("expected RemoteOracleError after the daemon died")
        assert answered >= 10  # everything before the kill was answered
        # Retries were spent before giving up.
        assert remote.stats()["retried_requests"] >= 1

    def test_recovers_when_a_daemon_returns_on_the_same_port(self):
        daemon = OracleDaemon(port=0)
        daemon.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
        daemon.start()
        port = daemon.port
        remote = RemoteOracle(daemon.url, retries=2, backoff=0.001)
        before = remote.query(0, 1)
        daemon.close()
        with pytest.raises(RemoteOracleError):
            remote.query(0, 1)
        # A replacement daemon on the same port: the client reconnects.
        with OracleDaemon(port=port) as revived:
            revived.add_oracle("default", GRAPH, ServeSpec(backend="exact"))
            revived.start()
            assert remote.query(0, 1) == before
            assert remote.stats()["reconnects"] >= 2
            remote.close()
