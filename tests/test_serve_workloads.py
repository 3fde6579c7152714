"""Tests for the serving-layer query-stream generators."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import available_workloads, generate_queries


GRAPH = generators.connected_erdos_renyi(64, 0.08, seed=9)


def _disconnected_graph(seed):
    """Two random components plus isolated vertices."""
    rng = random.Random(seed)
    g = Graph(60)
    for lo, hi in ((0, 25), (25, 50)):  # vertices 50..59 stay isolated
        for _ in range(60):
            u, v = rng.randrange(lo, hi), rng.randrange(lo, hi)
            if u != v:
                g.add_edge(u, v)
    return g


class TestCommonProperties:
    @pytest.mark.parametrize("workload", available_workloads())
    def test_streams_are_seed_deterministic(self, workload):
        a = generate_queries(GRAPH, workload, 200, seed=3)
        b = generate_queries(GRAPH, workload, 200, seed=3)
        assert a == b

    @pytest.mark.parametrize("workload", available_workloads())
    def test_different_seeds_differ(self, workload):
        a = generate_queries(GRAPH, workload, 200, seed=1)
        b = generate_queries(GRAPH, workload, 200, seed=2)
        assert a != b

    @pytest.mark.parametrize("workload", available_workloads())
    def test_pairs_are_valid_vertices(self, workload):
        n = GRAPH.num_vertices
        pairs = generate_queries(GRAPH, workload, 300, seed=0)
        assert len(pairs) == 300
        for u, v in pairs:
            assert 0 <= u < n
            assert 0 <= v < n
            assert u != v

    def test_zero_queries(self):
        assert generate_queries(GRAPH, "uniform", 0) == []

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown query workload"):
            generate_queries(GRAPH, "nonsense", 10)

    def test_tiny_graph_rejected(self):
        from repro.graphs.graph import Graph

        with pytest.raises(ValueError):
            generate_queries(Graph(1), "uniform", 10)


class TestShapes:
    def test_zipf_sources_are_skewed(self):
        pairs = generate_queries(GRAPH, "zipf", 2000, seed=0)
        counts = Counter(u for u, _ in pairs)
        uniform_share = 2000 / GRAPH.num_vertices
        # The hottest source is far above the uniform expectation.
        assert counts.most_common(1)[0][1] > 3 * uniform_share

    def test_local_pairs_stay_in_the_ball(self):
        radius = 3
        pairs = generate_queries(GRAPH, "local", 150, seed=0, radius=radius)
        for u, v in pairs:
            assert bfs_distances(GRAPH, u).get(v, float("inf")) <= radius

    def test_local_falls_back_on_isolated_sources(self):
        from repro.graphs.graph import Graph

        isolated = Graph(5)  # no edges at all: every ball is empty
        pairs = generate_queries(isolated, "local", 50, seed=0)
        assert len(pairs) == 50

    def test_local_stream_is_prefix_stable(self):
        graph = generators.gnm_random_graph(100, 200, seed=44)
        # Each source's ball is computed when the stream first draws it, so
        # a shorter stream is a prefix of a longer one with the same seed.
        longer = generate_queries(graph, "local", 300, seed=9)
        for num in (10, 49):
            assert longer[:num] == generate_queries(graph, "local", num, seed=9), num

    def test_local_on_a_disconnected_graph(self):
        graph = _disconnected_graph(45)  # isolated vertices take the fallback pair
        pairs = generate_queries(graph, "local", 250, seed=5)
        assert len(pairs) == 250 and all(u != v for u, v in pairs)
        # A drawn isolated source (1 in 6) takes a uniform pair instead of
        # a ball pair, which mostly joins two components.
        far = [(u, v) for u, v in pairs if bfs_distances(graph, u).get(v, float("inf")) > 4]
        assert 0 < len(far) < 250 // 2

    def test_mixed_stream_re_reads_a_hot_set(self):
        pairs = generate_queries(GRAPH, "mixed", 500, seed=0)
        # Read-mostly traffic: far fewer distinct pairs than queries.
        assert len(set(pairs)) < len(pairs) / 2

    def test_generator_options_validated(self):
        with pytest.raises(ValueError):
            generate_queries(GRAPH, "zipf", 10, exponent=0.0)
        with pytest.raises(ValueError):
            generate_queries(GRAPH, "local", 10, radius=0)
        with pytest.raises(ValueError):
            generate_queries(GRAPH, "mixed", 10, hot_fraction=1.5)
        with pytest.raises(ValueError):
            generate_queries(GRAPH, "mixed", 10, hot_set_size=0)


class TestWorkloadProfiles:
    def test_profile_counts_only_the_source_side(self):
        from repro.serve import profile

        prof = profile([(0, 1), (0, 2), (3, 0), (3, 1), (3, 2)])
        assert prof.counts == {0: 2, 3: 3}
        assert prof.total_queries == 5
        assert len(prof) == 2

    def test_top_sources_is_deterministic_under_ties(self):
        from repro.serve import profile

        prof = profile([(5, 0), (2, 0), (5, 1), (2, 1), (9, 0)])
        # 5 and 2 tie at two appearances: smaller vertex id first.
        assert prof.top_sources() == [2, 5, 9]
        assert prof.top_sources(2) == [2, 5]
        assert prof.top_sources(0) == []
        with pytest.raises(ValueError):
            prof.top_sources(-1)

    def test_json_round_trip(self):
        from repro.serve import WorkloadProfile, generate_queries, profile

        prof = profile(generate_queries(GRAPH, "zipf", 200, seed=3))
        clone = WorkloadProfile.from_json(prof.to_json())
        assert clone == prof
        assert clone.top_sources(10) == prof.top_sources(10)

    def test_save_load_round_trip(self, tmp_path):
        from repro.serve import WorkloadProfile, profile

        prof = profile([(1, 2)] * 7 + [(4, 5)] * 3)
        path = tmp_path / "profile.json"
        prof.save(str(path))
        assert WorkloadProfile.load(str(path)) == prof

    def test_zero_counts_are_dropped_and_negatives_rejected(self):
        from repro.serve import WorkloadProfile

        prof = WorkloadProfile(counts={1: 0, 2: 5}, total_queries=5)
        assert prof.counts == {2: 5}
        with pytest.raises(ValueError):
            WorkloadProfile(counts={1: -1}, total_queries=0)
        with pytest.raises(ValueError):
            WorkloadProfile(counts={}, total_queries=-1)

    def test_profile_of_a_zipf_stream_is_skewed(self):
        from repro.serve import generate_queries, profile

        prof = profile(generate_queries(GRAPH, "zipf", 500, seed=0))
        hot, cold = prof.top_sources()[0], prof.top_sources()[-1]
        assert prof.counts[hot] > prof.counts[cold]

    def test_prewarm_from_profile_preloads_an_engine(self):
        from repro.serve import ServeSpec, generate_queries, load, profile

        queries = generate_queries(GRAPH, "zipf", 300, seed=2)
        prof = profile(queries)
        engine = load(GRAPH, ServeSpec(backend="exact"))
        warmed = engine.prewarm(prof.top_sources(8))
        assert warmed == 8
        stats = engine.stats()
        assert stats["prewarmed_sources"] == 8
        assert stats["cached_sources"] == 8
        assert stats["cache_misses"] == 0  # warm-up is not miss traffic
        engine.query(prof.top_sources(1)[0], 0)
        assert engine.stats()["cache_hits"] == 1
