"""Tests for the downstream applications (distance oracle, almost-shortest paths)."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.applications.almost_shortest_paths import (
    all_sources_almost_shortest_paths,
    almost_shortest_path_lengths,
)
from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import QueryEngine, ServeSpec, load


def _oracle(graph, *, eps=0.1, kappa=None, cache_sources=64):
    """The served ultra-sparse emulator oracle (bounded-LRU engine)."""
    return load(graph, ServeSpec.ultra_sparse(
        graph.num_vertices, eps=eps, kappa=kappa, cache_sources=cache_sources))


class TestDistanceOracle:
    @pytest.fixture(scope="class")
    def oracle_and_graph(self):
        graph = generators.connected_erdos_renyi(100, 0.05, seed=23)
        return _oracle(graph, eps=0.1, kappa=8), graph

    def test_load_returns_the_bounded_engine(self, path10):
        oracle = _oracle(path10, eps=0.1, kappa=4, cache_sources=3)
        assert isinstance(oracle, QueryEngine)
        assert oracle.cache_sources == 3
        # The memo is bounded: touching many sources evicts, never grows.
        for source in range(10):
            oracle.single_source(source)
        assert oracle.stats()["cached_sources"] == 3
        assert oracle.stats()["cache_evictions"] == 7

    def test_query_guarantee(self, oracle_and_graph):
        oracle, graph = oracle_and_graph
        exact = bfs_distances(graph, 0)
        for v in list(range(1, 50)):
            answer = oracle.query(0, v)
            assert answer >= exact[v] - 1e-9
            assert answer <= oracle.alpha * exact[v] + oracle.beta + 1e-9

    def test_query_self(self, oracle_and_graph):
        oracle, _ = oracle_and_graph
        assert oracle.query(5, 5) == 0.0

    def test_query_batch_matches_single(self, oracle_and_graph):
        oracle, _ = oracle_and_graph
        pairs = [(0, 10), (3, 40), (7, 7)]
        batch = oracle.query_batch(pairs)
        assert batch == [oracle.query(*p) for p in pairs]

    def test_single_source_map(self, oracle_and_graph):
        oracle, graph = oracle_and_graph
        dist = oracle.single_source(2)
        assert dist[2] == 0.0
        assert len(dist) == graph.num_vertices

    def test_space_is_sparse(self, oracle_and_graph):
        oracle, graph = oracle_and_graph
        assert oracle.space_in_edges <= oracle.oracle.result.raw.size_bound + 1e-9

    def test_ultra_sparse_default_kappa(self):
        graph = generators.grid_graph(10, 10)
        oracle = _oracle(graph, eps=0.1)
        assert oracle.space_in_edges <= 1.2 * graph.num_vertices

    def test_invalid_vertex(self, oracle_and_graph):
        oracle, _ = oracle_and_graph
        with pytest.raises(ValueError):
            oracle.query(0, 9999)

    def test_cache_eviction(self):
        graph = generators.path_graph(20)
        oracle = _oracle(graph, eps=0.1, kappa=4, cache_sources=2)
        for s in range(5):
            oracle.single_source(s)
        # Oldest entries are evicted, queries still correct.
        assert oracle.query(0, 19) >= 19

    def test_disconnected_pairs_return_inf(self, disconnected_graph):
        oracle = _oracle(disconnected_graph, eps=0.1, kappa=4)
        assert oracle.query(0, 9) == float("inf")


class TestAlmostShortestPaths:
    def test_single_source_guarantee(self):
        graph = generators.grid_graph(8, 8)
        lengths = almost_shortest_path_lengths(graph, source=0, eps=0.1, kappa=4)
        exact = bfs_distances(graph, 0)
        from repro.core.parameters import CentralizedSchedule

        sched = CentralizedSchedule(n=64, eps=0.1, kappa=4)
        for v, d in exact.items():
            assert lengths[v] >= d - 1e-9
            assert lengths[v] <= sched.alpha * d + sched.beta + 1e-9

    def test_reuse_prebuilt_emulator(self):
        graph = generators.cycle_graph(30)
        result = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=4)).raw
        a = almost_shortest_path_lengths(graph, 0, emulator_result=result)
        b = almost_shortest_path_lengths(graph, 0, emulator_result=result)
        assert a == b

    def test_invalid_source(self):
        graph = generators.path_graph(5)
        with pytest.raises(ValueError):
            almost_shortest_path_lengths(graph, 99)

    def test_all_sources(self):
        graph = generators.connected_erdos_renyi(50, 0.08, seed=3)
        answers = all_sources_almost_shortest_paths(graph, [0, 5, 10], eps=0.1, kappa=8)
        assert set(answers) == {0, 5, 10}
        for source, lengths in answers.items():
            exact = bfs_distances(graph, source)
            for v, d in exact.items():
                assert lengths[v] >= d - 1e-9

    def test_all_sources_invalid(self):
        graph = generators.path_graph(5)
        with pytest.raises(ValueError):
            all_sources_almost_shortest_paths(graph, [0, 7])
