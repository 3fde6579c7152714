"""Tests for live serving: mutations, hot swap, version tags (repro.serve.live).

The daemon tests bind port 0 (an ephemeral port) and run in-process on a
background thread — see CONTRIBUTING.md for the port discipline.  The
hot-swap tests gate the background rebuild on a ``threading.Event``
instead of sleeping, so they are deterministic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import (
    GraphMutation,
    LiveEngine,
    OracleDaemon,
    RemoteOracle,
    ServeSpec,
    load,
)
from repro.serve import load as serve_load


GRAPH = generators.connected_erdos_renyi(40, 0.15, seed=1)


def _gated_loader(gate: threading.Event, slow_from: int = 2):
    """A loader that blocks on ``gate`` from the ``slow_from``-th build on."""
    calls = []

    def loader(graph, spec):
        calls.append(None)
        if len(calls) >= slow_from:
            assert gate.wait(timeout=30.0), "test gate never opened"
        return serve_load(graph, spec)

    return loader


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


def _co_clustered_missing_pair(engine):
    """A non-edge whose endpoints share a cluster (repairable insertion)."""
    graph = engine.graph
    for partition in engine.raw_result.partitions:
        for cluster in partition.clusters():
            members = sorted(cluster.members)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    if not graph.has_edge(u, v):
                        return u, v
    return None


class TestGraphMutation:
    def test_edges_canonicalized_and_deduplicated(self):
        mutation = GraphMutation(inserts=[(5, 2), (2, 5), (1, 3)], deletes=[(9, 4)])
        assert mutation.inserts == ((2, 5), (1, 3))
        assert mutation.deletes == ((4, 9),)
        assert mutation.num_operations == 3
        assert len(mutation) == 3 and bool(mutation)

    def test_empty_mutation_is_falsy(self):
        assert not GraphMutation()

    @pytest.mark.parametrize("bad", [
        {"inserts": [(3, 3)]},                 # self-loop
        {"deletes": [(-1, 2)]},                # negative id
        {"inserts": [(0.5, 2)]},               # non-int
        {"inserts": [(True, 2)]},              # bool is not a vertex id
        {"deletes": [(1, 2, 3)]},              # not a pair
    ])
    def test_invalid_edges_rejected(self, bad):
        with pytest.raises(ValueError):
            GraphMutation(**bad)

    def test_json_round_trip(self):
        mutation = GraphMutation(inserts=[(7, 2)], deletes=[(0, 1), (3, 8)])
        assert GraphMutation.from_json(mutation.to_json()) == mutation
        assert mutation.to_dict() == {"inserts": [[2, 7]], "deletes": [[0, 1], [3, 8]]}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation keys"):
            GraphMutation.from_dict({"inserts": [], "edges": []})


class TestSpecAndLoad:
    def test_load_dispatches_to_live_engine(self):
        engine = load(GRAPH, ServeSpec(live=True, seed=0))
        try:
            assert isinstance(engine, LiveEngine)
            assert engine.spec.live
            assert "[live]" in engine.spec.describe()
        finally:
            engine.close()

    @pytest.mark.parametrize("value", [0, -3, True, 1.5])
    def test_invalid_rebuild_after_rejected(self, value):
        with pytest.raises(ValueError, match="live_rebuild_after"):
            ServeSpec(live=True, live_rebuild_after=value)

    def test_live_remote_backend_rejected(self):
        with pytest.raises(ValueError, match="live"):
            ServeSpec(live=True, backend="remote", options={"url": "http://x"})


class TestZeroMutationParity:
    def test_answers_identical_to_plain_engine(self):
        spec = ServeSpec(seed=0)
        plain = load(GRAPH, spec)
        with LiveEngine(GRAPH, spec.replace(live=True)) as live:
            n = GRAPH.num_vertices
            pairs = [(u, v) for u in range(0, n, 5) for v in range(n)]
            assert live.query_batch(pairs) == plain.query_batch(pairs)
            assert live.single_source(3) == plain.single_source(3)
            assert live.alpha == plain.alpha
            assert live.beta == plain.beta
            assert live.space_in_edges == plain.space_in_edges
        plain.close()

    def test_initial_version_tag(self):
        with LiveEngine(GRAPH, ServeSpec(live=True)) as live:
            answer = live.query_tagged(0, 7)
            assert (answer.version, answer.staleness, answer.guaranteed) == (0, 0, True)
            assert live.version.kind == "initial"
            assert live.version.watermark == 0


class TestSyncMutations:
    def test_noop_operations_are_skipped(self):
        with LiveEngine(GRAPH, ServeSpec(live=True, live_sync=True)) as live:
            edge = next(iter(sorted(GRAPH.edges())))
            receipt = live.mutate(inserts=[edge])       # already present
            assert (receipt.applied, receipt.skipped) == (0, 1)
            assert live.staleness == 0

    def test_out_of_range_vertex_rejected(self):
        with LiveEngine(GRAPH, ServeSpec(live=True)) as live:
            with pytest.raises(ValueError, match="out of range"):
                live.mutate(deletes=[(0, GRAPH.num_vertices)])

    def test_plain_deletion_leaves_guarantee_and_grows_staleness(self):
        with LiveEngine(GRAPH, ServeSpec(live=True, live_sync=True)) as live:
            (u, v), = _non_support_deletions(live, 1)
            receipt = live.mutate(deletes=[(u, v)])
            assert receipt.applied == 1 and not receipt.rebuilt and not receipt.forced
            assert receipt.staleness == 1
            assert not live.graph.has_edge(u, v)
            answer = live.query_tagged(u, v)
            assert answer.version == 0 and answer.staleness == 1 and answer.guaranteed

    def test_support_deletion_forces_rebuild(self):
        with LiveEngine(GRAPH, ServeSpec(live=True, live_sync=True)) as live:
            supported = [
                (u, v) for u, v, w in live.raw_result.emulator.edges()
                if w <= 1.0 and live.graph.has_edge(u, v)
            ]
            receipt = live.mutate(deletes=supported[:1])
            assert receipt.rebuilt and receipt.forced
            assert receipt.staleness == 0 and receipt.version == 1
            assert live.version.kind == "rebuild"

    def test_periodic_rebuild_after_threshold(self):
        spec = ServeSpec(live=True, live_sync=True, live_rebuild_after=2)
        with LiveEngine(GRAPH, spec) as live:
            first, second = _non_support_deletions(live, 2)
            assert not live.mutate(deletes=[first]).rebuilt
            receipt = live.mutate(deletes=[second])
            assert receipt.rebuilt and not receipt.forced
            assert live.staleness == 0

    def test_unabsorbed_insert_drops_guarantee_until_rebuild(self):
        # Repair off and no threshold: the insertion stays unabsorbed.
        spec = ServeSpec(live=True, live_repair=False)
        with LiveEngine(GRAPH, spec) as live:
            graph = live.graph
            non_edge = next(
                (u, v) for u in range(graph.num_vertices)
                for v in range(u + 1, graph.num_vertices) if not graph.has_edge(u, v)
            )
            receipt = live.mutate(inserts=[non_edge])
            assert receipt.forced and receipt.rebuild_scheduled
            assert not live.query_tagged(0, 1).guaranteed
            assert live.quiesce(timeout=60.0)
            answer = live.query_tagged(0, 1)
            assert answer.guaranteed and answer.staleness == 0

    def test_version_history_and_graph_at(self):
        spec = ServeSpec(live=True, live_sync=True, live_rebuild_after=1)
        with LiveEngine(GRAPH, spec) as live:
            deletions = _non_support_deletions(live, 3)
            for edge in deletions:
                live.mutate(deletes=[edge])
            versions = live.versions()
            assert [v.version for v in versions] == list(range(len(versions)))
            assert [v.watermark for v in versions] == sorted(v.watermark for v in versions)
            assert live.mutation_log() == [("delete", u, v) for u, v in deletions]
            # graph_at(0) is the pristine graph; graph_at(end) the current one.
            assert sorted(live.graph_at(0).edges()) == sorted(GRAPH.edges())
            assert sorted(live.graph_at(3).edges()) == sorted(live.graph.edges())
            with pytest.raises(ValueError):
                live.graph_at(99)

    def test_stats_live_section(self):
        with LiveEngine(GRAPH, ServeSpec(live=True, live_sync=True)) as live:
            live.mutate(deletes=_non_support_deletions(live, 1))
            live.query(0, 1)
            stats = live.stats()
            live_stats = stats["live"]
            assert live_stats["applied_mutations"] == 1
            assert live_stats["deletes_applied"] == 1
            assert live_stats["staleness"] == 1
            assert live_stats["guaranteed"] is True
            assert live_stats["versions"][0]["kind"] == "initial"
            assert stats["queries"] >= 1


class TestGuaranteeAgainstGraphVersions:
    def test_every_tagged_answer_meets_its_versions_guarantee(self):
        spec = ServeSpec(live=True, live_sync=True, live_rebuild_after=2)
        with LiveEngine(GRAPH, spec) as live:
            observed = []
            deletions = _non_support_deletions(live, 6)
            rng_pairs = [(u, v) for u in range(0, 40, 7) for v in range(0, 40, 3)]
            for edge in deletions:
                live.mutate(deletes=[edge])
                for u, v in rng_pairs:
                    answer = live.query_tagged(u, v)
                    if answer.guaranteed:
                        observed.append((u, v, answer))
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
                    assert answer.value <= version.alpha * exact + version.beta + 1e-9
            assert observed


class TestIncrementalRepair:
    def test_co_clustered_insert_is_repaired_in_place(self):
        with LiveEngine(GRAPH, ServeSpec(live=True, live_sync=True)) as live:
            pair = _co_clustered_missing_pair(live)
            if pair is None:
                pytest.skip("no co-clustered non-edge on this workload")
            base_beta = live.beta
            receipt = live.mutate(inserts=[pair])
            assert receipt.repaired and not receipt.rebuilt and not receipt.forced
            assert receipt.staleness == 0
            assert live.version.kind == "repair"
            assert live.version.repairs == 1
            assert live.beta == pytest.approx(2 * base_beta)
            # The repaired version absorbed the insertion: answers satisfy
            # the widened guarantee on the *current* graph.
            current = live.graph
            assert current.has_edge(*pair)
            exact = bfs_distances(current, pair[0])
            for target, dg in sorted(exact.items())[:20]:
                answer = live.query_tagged(pair[0], target)
                assert answer.guaranteed and answer.staleness == 0
                assert answer.value >= dg - 1e-9
                assert answer.value <= live.alpha * dg + live.beta + 1e-9

    def test_mixed_batch_falls_back_to_rebuild(self):
        with LiveEngine(GRAPH, ServeSpec(live=True, live_sync=True)) as live:
            pair = _co_clustered_missing_pair(live)
            if pair is None:
                pytest.skip("no co-clustered non-edge on this workload")
            edge = next(iter(sorted(live.graph.edges())))
            receipt = live.apply(GraphMutation(inserts=[pair], deletes=[edge]))
            assert receipt.rebuilt and receipt.forced and not receipt.repaired
            assert live.version.kind == "rebuild" and live.version.repairs == 0

    def test_repair_disabled_forces_rebuild(self):
        spec = ServeSpec(live=True, live_sync=True, live_repair=False)
        with LiveEngine(GRAPH, spec) as live:
            pair = _co_clustered_missing_pair(live)
            if pair is None:
                pytest.skip("no co-clustered non-edge on this workload")
            receipt = live.mutate(inserts=[pair])
            assert receipt.rebuilt and receipt.forced and not receipt.repaired


class TestAsyncRebuild:
    def test_queries_never_block_during_background_rebuild(self):
        gate = threading.Event()
        spec = ServeSpec(live=True, live_repair=False)
        live = LiveEngine(GRAPH, spec, loader=_gated_loader(gate))
        try:
            graph = live.graph
            non_edge = next(
                (u, v) for u in range(graph.num_vertices)
                for v in range(u + 1, graph.num_vertices) if not graph.has_edge(u, v)
            )
            receipt = live.mutate(inserts=[non_edge])
            assert receipt.rebuild_scheduled and not receipt.rebuilt
            # The rebuild is gated shut: every query must still answer,
            # on the old version, without waiting for the build.
            for _ in range(25):
                started = time.perf_counter()
                answer = live.query_tagged(0, 7)
                assert time.perf_counter() - started < 5.0
                assert answer.version == 0
                assert answer.staleness == 1 and not answer.guaranteed
            assert live.stats()["live"]["rebuild_pending"]
            gate.set()
            assert live.quiesce(timeout=60.0)
            answer = live.query_tagged(0, 7)
            assert answer.version == 1 and answer.staleness == 0 and answer.guaranteed
            assert live.versions()[-1].kind == "rebuild"
        finally:
            gate.set()
            live.close()

    def test_rebuild_failure_surfaces_in_quiesce_and_stats(self):
        calls = []

        def exploding_loader(graph, spec):
            calls.append(None)
            if len(calls) >= 2:
                raise RuntimeError("boom")
            return serve_load(graph, spec)

        live = LiveEngine(GRAPH, ServeSpec(live=True), loader=exploding_loader)
        try:
            live.mutate(deletes=_non_support_deletions(live, 1))
            with pytest.raises(RuntimeError, match="background rebuild failed"):
                live.quiesce(timeout=60.0)
        finally:
            live.close()


class TestInProcessCoalescing:
    def test_concurrent_same_source_queries_share_one_backend_call(self):
        with LiveEngine(GRAPH, ServeSpec(live=True, backend="exact")) as live:
            backend = live.oracle
            original = backend.single_source
            gate = threading.Event()
            started = threading.Event()
            calls = []

            def slow(source):
                calls.append(source)
                started.set()
                gate.wait(timeout=5)
                return original(source)

            backend.single_source = slow
            answers = []
            threads = [threading.Thread(target=lambda v=v: answers.append(
                live.query_tagged(3, v))) for v in range(4, 10)]
            threads[0].start()
            assert started.wait(timeout=5)  # the leader is inside the backend
            for thread in threads[1:]:
                thread.start()
            for _ in range(500):
                if live.stats()["coalesced_queries"] == 5:
                    break
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join()
            assert calls == [3]  # one backend computation for all six queries
            assert live.stats()["coalesced_queries"] == 5
            exact = original(3)
            assert sorted(answer.value for answer in answers) == \
                sorted(exact[v] for v in range(4, 10))
            assert {answer.version for answer in answers} == {0}

class TestDaemonHotSwap:
    """Satellite 4: hot-swap atomicity under concurrent wire clients."""

    def test_concurrent_wire_clients_survive_a_gated_rebuild(self):
        gate = threading.Event()
        spec = ServeSpec(live=True, seed=0, live_repair=False, live_rebuild_after=1)
        engine = LiveEngine(GRAPH, spec, loader=_gated_loader(gate))
        stop = threading.Event()
        results = []
        errors = []

        def client(offset):
            single_pair = (offset % 40, (offset + 7) % 40)
            pairs = [((offset + i) % 40, (offset + 3 * i + 1) % 40)
                     for i in range(4)]
            pairs = [(u, v) for u, v in pairs if u != v]
            try:
                with RemoteOracle(daemon.url) as probe:
                    while not stop.is_set():
                        single = probe.query_tagged(*single_pair)
                        batch = probe.query_batch_tagged(pairs)
                        results.append((single_pair, single, pairs, batch))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        with OracleDaemon(port=0) as daemon:
            daemon.add_oracle("default", engine=engine)
            daemon.start()
            threads = [threading.Thread(target=client, args=(i * 5,), daemon=True)
                       for i in range(4)]
            probe = RemoteOracle(daemon.url)
            try:
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 60.0
                while len(results) < 20 and time.monotonic() < deadline:
                    time.sleep(0.01)
                # Delete a non-support edge: live_rebuild_after=1 schedules
                # a background rebuild, which the gate holds shut while the
                # clients keep querying.
                emulator = engine.raw_result.emulator
                edge = next(
                    (u, v) for u, v in sorted(GRAPH.edges())
                    if not emulator.has_edge(u, v)
                )
                receipt = probe.mutate(deletes=[edge])
                assert receipt["applied"] == 1
                assert receipt["rebuild_scheduled"]
                while len(results) < 60 and time.monotonic() < deadline:
                    time.sleep(0.01)
                gate.set()
                assert engine.quiesce(timeout=60.0)
                while len(results) < 90 and time.monotonic() < deadline:
                    time.sleep(0.01)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30.0)
                probe.close()
            assert not errors
            assert len(results) >= 90, "wire clients stalled during the rebuild"
            versions_seen = set()
            for _, single, pairs, batch in results:
                # No dropped or half-answered queries, no mixed-version batches.
                assert isinstance(single.value, float)
                assert len(batch.value) == len(pairs)
                versions_seen.add(single.version)
                versions_seen.add(batch.version)
            assert versions_seen == {0, 1}, "traffic never spanned the hot swap"
            # Post-hoc audit: every guaranteed tagged answer satisfies its
            # version's (alpha, beta) against exact BFS on the graph at
            # that version's watermark.
            by_version = {v.version: v for v in engine.versions()}
            graphs = {v: engine.graph_at(rec.watermark)
                      for v, rec in by_version.items()}
            assert graphs[1].num_edges == GRAPH.num_edges - 1
            exact_cache = {}

            def exact(version, source, target):
                key = (version, source)
                if key not in exact_cache:
                    exact_cache[key] = bfs_distances(graphs[version], source)
                return exact_cache[key].get(target, float("inf"))

            def check(pair, value, version_id):
                version = by_version[version_id]
                dg = exact(version_id, *pair)
                if dg == float("inf"):
                    assert value == float("inf")
                else:
                    assert value >= dg - 1e-9
                    assert value <= version.alpha * dg + version.beta + 1e-9

            audited = 0
            for single_pair, single, pairs, batch in results:
                if single.guaranteed:
                    check(single_pair, single.value, single.version)
                    audited += 1
                if batch.guaranteed:
                    for pair, value in zip(pairs, batch.value):
                        check(pair, value, batch.version)
                    audited += 1
            assert audited

    def test_daemon_serves_live_metadata_and_mutations(self):
        with OracleDaemon(port=0) as daemon:
            daemon.add_oracle("default", GRAPH, ServeSpec(live=True, seed=0))
            daemon.start()
            with RemoteOracle(daemon.url) as probe:
                assert probe.is_live
                health = daemon.healthz()["oracles"]["default"]
                assert health["live"] and health["version"] == 0
                edge = next(iter(sorted(GRAPH.edges())))
                receipt = probe.mutate(deletes=[edge], wait=True)
                assert receipt["applied"] == 1
                assert receipt["staleness"] == 0
                stats = probe.daemon_stats()["oracles"]["default"]["live"]
            assert stats["applied_mutations"] == 1
            assert stats["version"] >= 1

    def test_mutating_a_static_oracle_is_a_client_error(self):
        with OracleDaemon(port=0) as daemon:
            daemon.add_oracle("default", GRAPH, ServeSpec(seed=0))
            daemon.start()
            with RemoteOracle(daemon.url) as probe:
                assert not probe.is_live
                with pytest.raises(ValueError, match="not live"):
                    probe.mutate(deletes=[(0, 1)])


class TestChurnSweep:
    def test_sweep_audits_tagged_answers_against_graph_versions(self):
        from repro.serve import ChurnSweepReport, run_churn_sweep

        with OracleDaemon(port=0) as daemon:
            daemon.add_oracle(
                "default", GRAPH,
                ServeSpec(live=True, seed=0, live_rebuild_after=2),
            )
            daemon.start()
            report = run_churn_sweep(
                daemon.url, GRAPH,
                num_queries=60, seed=3, concurrency=(2,),
                deletions_per_batch=1, batches_per_level=2, check_sample=40,
            )
        assert report.guarantee_ok, report.summary()
        assert report.guarantee_violations == 0
        assert report.answers_checked > 0
        assert report.mutations_applied == 2
        assert report.levels[0].mutations_applied == 2
        assert report.levels[0].guaranteed_fraction > 0
        # JSON round trip keeps the audit result.
        restored = ChurnSweepReport.from_json(report.to_json())
        assert restored == report

    def test_sweep_rejects_a_static_oracle(self):
        from repro.serve import run_churn_sweep

        with OracleDaemon(port=0) as daemon:
            daemon.add_oracle("default", GRAPH, ServeSpec(seed=0))
            daemon.start()
            with pytest.raises(ValueError, match="live"):
                run_churn_sweep(daemon.url, GRAPH, num_queries=10)


class TestEdgeStreamAsMutationSource:
    def test_stream_replays_as_insert_batches(self, star20):
        from repro.applications.streaming import EdgeStream

        stream = EdgeStream.from_graph(star20)
        passes_before = stream.passes
        batches = list(stream.mutation_batches(batch_size=7))
        assert stream.passes == passes_before + 1
        assert all(not batch.deletes for batch in batches)
        assert sum(len(batch.inserts) for batch in batches) == stream.num_edges
        assert all(len(batch.inserts) <= 7 for batch in batches)

    def test_batch_size_validated(self, star20):
        from repro.applications.streaming import EdgeStream

        stream = EdgeStream.from_graph(star20)
        with pytest.raises(ValueError):
            next(stream.mutation_batches(batch_size=0))

    def test_ingest_grows_the_served_graph(self, path10):
        from repro.applications.streaming import EdgeStream

        stream = EdgeStream.from_graph(path10)
        spec = ServeSpec(live=True, live_sync=True, live_repair=False)
        with LiveEngine(Graph(path10.num_vertices), spec) as live:
            applied = live.ingest(stream.mutation_batches(batch_size=4))
            assert applied == path10.num_edges
            assert sorted(live.graph.edges()) == sorted(path10.edges())
            assert live.quiesce(timeout=60.0)
            exact = bfs_distances(path10, 0)
            answer = live.query_tagged(0, 9)
            assert answer.guaranteed
            assert answer.value >= exact[9] - 1e-9
            assert answer.value <= live.alpha * exact[9] + live.beta + 1e-9
