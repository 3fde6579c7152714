"""Tests for the serving layer: registry, backends, engine, load()."""

from __future__ import annotations

import pytest

from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import (
    DistanceOracle,
    QueryEngine,
    ServeSpec,
    available_oracles,
    get_oracle,
    is_oracle_registered,
    load,
    register_oracle,
)
from repro.serve.registry import _REGISTRY


class TestServeSpec:
    def test_defaults(self):
        spec = ServeSpec()
        assert spec.product == "emulator"
        assert spec.method == "centralized"
        assert spec.resolved_backend == "emulator"

    def test_backend_defaults_to_product(self):
        assert ServeSpec(product="hopset").resolved_backend == "hopset"
        assert ServeSpec(product="hopset", backend="exact").resolved_backend == "exact"

    def test_build_spec_projection(self):
        spec = ServeSpec(product="spanner", method="fast", eps=0.01, kappa=3.0, seed=5)
        build_spec = spec.build_spec()
        assert build_spec.product == "spanner"
        assert build_spec.method == "fast"
        assert build_spec.eps == 0.01
        assert build_spec.kappa == 3.0
        assert build_spec.seed == 5

    def test_replace(self):
        spec = ServeSpec().replace(backend="exact", cache_sources=7)
        assert spec.resolved_backend == "exact"
        assert spec.cache_sources == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ServeSpec(product="nonsense")
        with pytest.raises(ValueError):
            ServeSpec(method="nonsense")
        with pytest.raises(ValueError):
            ServeSpec(cache_sources=0)
        with pytest.raises(ValueError):
            ServeSpec(workers=0)

    def test_describe_names_backend_and_build(self):
        text = ServeSpec(product="hopset", eps=0.1).describe()
        assert "hopset" in text
        assert "eps=0.1" in text

    def test_ultra_sparse_recipe(self):
        from repro.core.parameters import ultra_sparse_kappa

        spec = ServeSpec.ultra_sparse(100)
        assert spec.product == "emulator"
        assert spec.method == "centralized"
        assert spec.kappa == ultra_sparse_kappa(100)
        # Explicit kappa wins; other fields pass through.
        spec = ServeSpec.ultra_sparse(100, kappa=4.0, seed=7, cache_sources=3)
        assert spec.kappa == 4.0
        assert spec.seed == 7
        assert spec.cache_sources == 3
        # The n guard keeps trivial graphs valid.
        assert ServeSpec.ultra_sparse(1).kappa == ultra_sparse_kappa(2)

    def test_effective_product_follows_the_backend(self):
        # Product-named backends build their own product, overriding
        # ``product``; the exact backend never builds.
        assert ServeSpec(product="emulator").effective_product == "emulator"
        assert ServeSpec(product="emulator", backend="spanner").effective_product == "spanner"
        assert ServeSpec(backend="exact").effective_product is None


class TestRegistry:
    def test_stock_backends_registered(self):
        assert available_oracles() == ["emulator", "exact", "hopset", "remote", "spanner"]
        for name in available_oracles():
            assert is_oracle_registered(name)

    def test_buildable_excludes_the_remote_proxy(self):
        from repro.serve import buildable_oracles

        assert buildable_oracles() == ["emulator", "exact", "hopset", "spanner"]

    def test_unknown_backend_lists_alternatives(self):
        with pytest.raises(KeyError, match="emulator"):
            get_oracle("nonsense")

    def test_custom_backend_plugs_into_load(self, path10):
        class ConstantOracle:
            alpha = 1.0
            beta = 0.0
            num_vertices = 10
            space_in_edges = 0

            def query(self, u, v):
                return 0.0

            def query_batch(self, pairs):
                return [0.0 for _ in pairs]

            def single_source(self, source):
                return {v: 0.0 for v in range(10)}

            def stats(self):
                return {"backend": "constant"}

        @register_oracle("constant-test", description="test double")
        def _make(graph, spec):
            return ConstantOracle()

        try:
            engine = load(path10, ServeSpec(backend="constant-test"))
            assert engine.query(0, 9) == 0.0
        finally:
            _REGISTRY.pop("constant-test", None)


class TestBackendGuarantees:
    """Every registered backend answers within its advertised stretch."""

    @pytest.fixture(scope="class", params=["emulator", "spanner", "hopset", "exact"])
    def served(self, request):
        graph = generators.connected_erdos_renyi(60, 0.08, seed=11)
        engine = load(graph, ServeSpec(backend=request.param, seed=0))
        return graph, engine

    def test_satisfies_protocol(self, served):
        _, engine = served
        assert isinstance(engine, DistanceOracle)
        assert isinstance(engine.oracle, DistanceOracle)

    def test_answers_within_stretch_vs_exact_bfs(self, served):
        graph, engine = served
        alpha, beta = engine.alpha, engine.beta
        for source in (0, 7, 31):
            exact = bfs_distances(graph, source)
            for target in range(0, graph.num_vertices, 3):
                answer = engine.query(source, target)
                dg = exact.get(target)
                if dg is None:
                    assert answer == float("inf")
                    continue
                assert answer >= dg - 1e-9
                assert answer <= alpha * dg + beta + 1e-9

    def test_self_distance_zero(self, served):
        _, engine = served
        assert engine.query(5, 5) == 0.0

    def test_single_source_covers_component(self, served):
        graph, engine = served
        dist = engine.single_source(0)
        assert dist[0] == 0.0
        assert len(dist) == len(bfs_distances(graph, 0))

    def test_stats_carry_identity_and_space(self, served):
        _, engine = served
        stats = engine.stats()
        assert stats["oracle"]["backend"] in available_oracles()
        assert stats["oracle"]["space_in_edges"] == engine.space_in_edges
        assert stats["cache_sources_limit"] == engine.cache_sources

    def test_out_of_range_vertex_rejected(self, served):
        _, engine = served
        with pytest.raises(ValueError):
            engine.query(0, 9999)
        with pytest.raises(ValueError):
            engine.single_source(-1)


class TestBackendSpecifics:
    def test_exact_backend_is_stretch_free(self, grid6x6):
        engine = load(grid6x6, ServeSpec(backend="exact"))
        assert engine.alpha == 1.0
        assert engine.beta == 0.0
        exact = bfs_distances(grid6x6, 0)
        for target, dg in exact.items():
            assert engine.query(0, target) == float(dg)

    def test_spanner_backend_is_subgraph_sized(self, random_graph):
        engine = load(random_graph, ServeSpec(backend="spanner"))
        assert engine.space_in_edges <= random_graph.num_edges

    def test_hopset_backend_reports_hopbound(self, small_random_graph):
        engine = load(small_random_graph, ServeSpec(backend="hopset"))
        assert engine.oracle.hopbound >= 1
        assert engine.stats()["oracle"]["hopbound"] == engine.oracle.hopbound

    def test_hopset_hopbound_override(self, path10):
        engine = load(
            path10, ServeSpec(backend="hopset", options={"hopbound": 64})
        )
        assert engine.oracle.hopbound == 64
        with pytest.raises(ValueError):
            load(path10, ServeSpec(backend="hopset", options={"hopbound": 0}))

    def test_disconnected_pairs_answer_inf(self, disconnected_graph):
        from repro.serve import buildable_oracles

        for backend in buildable_oracles():
            engine = load(disconnected_graph, ServeSpec(backend=backend))
            assert engine.query(0, 9) == float("inf")


class TestQueryEngine:
    def test_lru_eviction_and_counters(self, path10):
        engine = load(path10, ServeSpec(backend="exact", cache_sources=2))
        for source in range(5):
            engine.single_source(source)
        stats = engine.stats()
        assert stats["cached_sources"] == 2
        assert stats["cache_evictions"] == 3
        assert stats["cache_misses"] == 5
        # Evicted sources still answer correctly (recomputed on demand).
        assert engine.query(0, 9) == 9.0

    def test_lru_reads_refresh_recency(self, path10):
        engine = load(path10, ServeSpec(backend="exact", cache_sources=2))
        engine.single_source(0)
        engine.single_source(1)
        engine.query(0, 5)  # refresh 0: next insert must evict 1, not 0
        engine.single_source(2)
        assert set(engine._cache) == {0, 2}

    def test_query_batch_matches_single_queries(self, random_graph):
        engine = load(random_graph, ServeSpec())
        pairs = [(0, 10), (3, 40), (7, 7), (0, 55)]
        batch = engine.query_batch(pairs)
        fresh = load(random_graph, ServeSpec())
        assert batch == [fresh.query(*pair) for pair in pairs]

    def test_query_batch_groups_by_source(self, random_graph):
        engine = load(random_graph, ServeSpec())
        pairs = [(0, v) for v in range(1, 40)]
        engine.query_batch(pairs)
        # One source computed once, not 39 times.
        assert engine.cache_misses == 1

    def test_parallel_batch_equals_serial(self):
        graph = generators.connected_erdos_renyi(70, 0.06, seed=5)
        pairs = [(i % 25, (i * 7 + 1) % 70) for i in range(120)]
        serial = load(graph, ServeSpec()).query_batch(pairs)
        parallel_engine = load(graph, ServeSpec())
        parallel = parallel_engine.query_batch(pairs, workers=2)
        assert parallel == serial

    def test_unpicklable_oracle_falls_back_serially(self, path10):
        backend = load(path10, ServeSpec(backend="exact")).oracle
        backend._poison = lambda: None  # lambdas do not pickle
        engine = QueryEngine(backend, cache_sources=16)
        pairs = [(u, 9) for u in range(8)]
        assert engine.query_batch(pairs, workers=2) == [float(9 - u) for u in range(8)]
        assert engine.parallel_batches == 0

    def test_default_workers_come_from_spec(self, path10):
        engine = load(path10, ServeSpec(workers=2))
        assert engine._workers == 2

    def test_batch_larger_than_memo_computes_each_source_once(self, path10):
        backend = load(path10, ServeSpec(backend="exact")).oracle
        calls = []
        original = backend.single_source

        def counting(source):
            calls.append(source)
            return original(source)

        backend.single_source = counting
        engine = QueryEngine(backend, cache_sources=2)
        pairs = [(u, 9) for u in range(8)] * 2  # 8 distinct sources, memo holds 2
        answers = engine.query_batch(pairs)
        assert answers == [float(9 - u) for u in range(8)] * 2
        assert len(calls) == 8  # once per source, not once per pair
        assert engine.cache_misses == 8
        assert engine.cache_hits == 8  # the non-self repeats

    def test_mid_batch_eviction_recompute_counts_as_miss(self, path10):
        backend = load(path10, ServeSpec(backend="exact")).oracle
        calls = []
        original = backend.single_source

        def counting(source):
            calls.append(source)
            return original(source)

        backend.single_source = counting
        engine = QueryEngine(backend, cache_sources=1)
        engine.single_source(0)  # memoize source 0
        # Filling source 1 evicts source 0 mid-batch, so source 0's pair
        # triggers a recompute — a real backend invocation that must show
        # up in the miss counter and re-enter the memo.
        answers = engine.query_batch([(1, 9), (0, 9)])
        assert answers == [8.0, 9.0]
        assert len(calls) == 3  # warm 0, fill 1, recompute 0
        assert engine.cache_misses == len(calls)
        assert 0 in engine._cache  # the recompute re-memoized its source

    def test_parallel_pool_is_reused_across_batches(self):
        graph = generators.connected_erdos_renyi(40, 0.1, seed=8)
        engine = load(graph, ServeSpec(cache_sources=4))
        try:
            engine.query_batch([(u, 30) for u in range(10)], workers=2)
            pool = engine._pool
            assert pool is not None
            engine.query_batch([(u, 30) for u in range(10, 20)], workers=2)
            assert engine._pool is pool
            assert engine.parallel_batches == 2
        finally:
            engine.close()
        assert engine._pool is None


class TestEngineAdmissionInterface:
    """prewarm/stats_delta (the daemon's warm-up and ``/stats`` surface)."""

    def test_prewarm_respects_budget_and_skips_cached(self, path10):
        engine = load(path10, ServeSpec(backend="exact", cache_sources=4))
        engine.single_source(0)  # already cached -> skipped by prewarm
        warmed = engine.prewarm([0, 1, 2, 3, 4, 5], limit=3)
        assert warmed == 3  # budget of 3 fresh sources (0 skipped)
        assert engine.prewarmed_sources == 3
        # The memo bound caps the budget even without an explicit limit.
        engine2 = load(path10, ServeSpec(backend="exact", cache_sources=2))
        assert engine2.prewarm(range(10)) == 2
        with pytest.raises(ValueError):
            engine.prewarm([0], limit=-1)
        with pytest.raises(ValueError):
            engine.prewarm([99])  # out of range propagates

    def test_stats_delta_subtracts_only_counters(self, path10):
        engine = load(path10, ServeSpec(backend="exact", cache_sources=2))
        engine.query(0, 5)
        before = engine.stats()
        engine.query(0, 6)  # hit
        engine.query(1, 5)  # miss
        delta = engine.stats_delta(before)
        assert delta["queries"] == 2
        assert delta["cache_hits"] == 1
        assert delta["cache_misses"] == 1
        # Non-counter fields stay absolute.
        assert delta["cache_sources_limit"] == 2
        assert delta["cached_sources"] == 2
