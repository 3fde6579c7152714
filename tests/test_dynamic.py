"""Tests for deletion-only (decremental) serving on :class:`LiveEngine`.

The classic decremental oracle applies each deletion at once, rebuilds
the ultra-sparse emulator lazily, and relies on deletions only growing
distances between rebuilds.  That is the live engine's synchronous,
repair-free configuration, built by :func:`_decremental` below.
``tests/test_live.py`` covers the live engine in general; these tests
pin the deletion-only behaviour.
"""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import DistanceOracle, GraphMutation, LiveEngine, ServeSpec
from repro.serve import load as serve_load


def _decremental(graph, *, eps=0.1, kappa=None, rebuild_after=16):
    """A deletion-only live engine: inline rebuilds, no insertion repair."""
    spec = ServeSpec.ultra_sparse(
        graph.num_vertices,
        eps=eps,
        kappa=kappa,
        live=True,
        live_rebuild_after=rebuild_after,
        live_repair=False,
        live_sync=True,
    )
    return LiveEngine(graph, spec)


def _delete(engine, *edges):
    return engine.apply(GraphMutation(deletes=edges))


def _non_emulator_edge(engine):
    """A graph edge the serving emulator does not store (no forced rebuild)."""
    emulator = engine.raw_result.emulator
    return next(
        (u, v) for u, v in sorted(engine.graph.edges()) if not emulator.has_edge(u, v)
    )


class TestConstruction:
    def test_initial_build_does_not_count_as_rebuild(self, random_graph):
        with _decremental(random_graph) as engine:
            live = engine.stats()["live"]
            assert (live["version"], live["kind"]) == (0, "initial")
            assert live["rebuilds"] == 0
            assert live["deletes_applied"] == 0

    def test_caller_graph_is_not_mutated(self, random_graph):
        edges_before = random_graph.num_edges
        with _decremental(random_graph) as engine:
            assert _delete(engine, next(iter(sorted(random_graph.edges())))).applied == 1
            assert engine.graph.num_edges == edges_before - 1
        assert random_graph.num_edges == edges_before

    def test_invalid_rebuild_threshold_rejected(self, path10):
        with pytest.raises(ValueError, match="live_rebuild_after"):
            _decremental(path10, rebuild_after=0)

    def test_guarantee_exposed(self, random_graph):
        with _decremental(random_graph, kappa=4.0) as engine:
            assert engine.alpha >= 1.0
            assert engine.beta > 0.0


class TestDeletions:
    def test_deleting_missing_edge_is_a_noop(self, path10):
        with _decremental(path10) as engine:
            receipt = _delete(engine, (0, 5))
            assert (receipt.applied, receipt.skipped) == (0, 1)
            assert engine.applied_mutations == 0

    def test_deleting_existing_edge_updates_graph(self, path10):
        with _decremental(path10, rebuild_after=None) as engine:
            assert _delete(engine, (4, 5)).applied == 1
            assert not engine.graph.has_edge(4, 5)
            assert engine.stats()["live"]["deletes_applied"] == 1

    def test_deleting_supporting_edge_forces_rebuild(self, path10):
        # On a path every emulator edge of weight 1 is a graph edge, so the
        # deletion must force a rebuild to avoid underestimating distances.
        with _decremental(path10, rebuild_after=None) as engine:
            supported = [
                (u, v) for u, v, w in engine.raw_result.emulator.edges() if w <= 1.0
            ]
            if not supported:
                pytest.skip("emulator has no weight-1 edge on this input")
            receipt = _delete(engine, supported[0])
            assert receipt.rebuilt and receipt.forced
            assert engine.stats()["live"]["forced_rebuilds"] == 1

    def test_periodic_rebuild_triggers(self, random_graph):
        # Deleting edges the emulator does not store never forces a
        # rebuild, so exactly every third deletion rebuilds.
        with _decremental(random_graph, rebuild_after=3) as engine:
            rebuilt = []
            for _ in range(7):
                receipt = _delete(engine, _non_emulator_edge(engine))
                assert receipt.applied == 1 and not receipt.forced
                rebuilt.append(receipt.rebuilt)
            assert rebuilt == [False, False, True, False, False, True, False]
            assert engine.stats()["live"]["rebuilds"] == 2
            assert engine.staleness == 1

    def test_batch_deletion_reports_count(self, random_graph):
        with _decremental(random_graph) as engine:
            assert _delete(engine, *sorted(random_graph.edges())[:5]).applied == 5


class TestQueries:
    def test_query_identity_is_zero(self, random_graph):
        with _decremental(random_graph) as engine:
            assert engine.query(7, 7) == 0.0

    def test_query_counts_tracked(self, random_graph):
        with _decremental(random_graph) as engine:
            engine.query(0, 1)
            engine.query_batch([(0, 2), (1, 3)])
            assert engine.stats()["queries"] == 3

    def test_answers_respect_guarantee_right_after_a_rebuild(self, small_random_graph):
        # rebuild_after=1 rebuilds after every deletion, so every answer is
        # computed on an emulator of the *current* graph.
        removable = [
            (u, v)
            for u, v in sorted(small_random_graph.edges())
            if small_random_graph.degree(u) > 1 and small_random_graph.degree(v) > 1
        ][:5]
        with _decremental(small_random_graph, rebuild_after=1) as engine:
            for edge in removable:
                assert _delete(engine, edge).rebuilt
            assert engine.staleness == 0
            exact = bfs_distances(engine.graph, 0)
            for target, dg in exact.items():
                if target == 0:
                    continue
                answer = engine.query(0, target)
                assert answer >= dg - 1e-9
                assert answer <= engine.alpha * dg + engine.beta + 1e-9

    def test_disconnection_reported_as_infinity(self):
        with _decremental(generators.path_graph(6), rebuild_after=1) as engine:
            _delete(engine, (2, 3))
            assert engine.query(0, 5) == float("inf")

    def test_out_of_range_query_rejected(self, path10):
        with _decremental(path10) as engine:
            with pytest.raises(ValueError):
                engine.query(0, 10)


class TestServeStack:
    def test_conforms_to_distance_oracle_protocol(self, random_graph):
        with _decremental(random_graph) as engine:
            assert isinstance(engine, DistanceOracle)

    def test_query_parity_with_the_serve_stack(self, small_random_graph):
        """Zero deletions: answers exactly like a non-live stack."""
        n = small_random_graph.num_vertices
        plain = serve_load(small_random_graph, ServeSpec.ultra_sparse(n, eps=0.1))
        with _decremental(small_random_graph) as engine:
            pairs = [(u, v) for u in range(0, n, 3) for v in range(n)]
            assert engine.query_batch(pairs) == plain.query_batch(pairs)
            assert engine.single_source(1) == plain.single_source(1)
            assert engine.alpha == plain.alpha
            assert engine.beta == plain.beta
            assert engine.space_in_edges == plain.space_in_edges
        plain.close()
