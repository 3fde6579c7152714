"""Tests for the sharded sweep executor and the content-addressed cache."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.api import (
    BuildSpec,
    GridSweep,
    ResultCache,
    execute_sweep,
    get_builder,
    on_build,
    register_builder,
    remove_build_hook,
    resolve_cache,
    run_sweep,
    spec_fingerprint,
)
from repro.api.executor import GraphBaseline, verify_with_baseline
from repro.api.pipeline import format_sweep_table
from repro.graphs import generators
from repro.graphs.graph import Graph


@pytest.fixture
def grid16():
    return generators.grid_graph(4, 4)


@pytest.fixture
def small_sweep():
    return GridSweep(products=("emulator", "spanner"), methods=("centralized",))


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _record_key(record):
    """Everything about a record that must not depend on how it was built."""
    return (
        record.graph_name,
        record.spec,
        frozenset(record.result.edges),
        record.result.size,
        record.result.alpha,
        record.result.beta,
        record.verified,
    )


class TestContentHash:
    def test_equal_graphs_same_hash(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(2, 3), (0, 1), (1, 2)])  # different insertion order
        assert a.content_hash() == b.content_hash()

    def test_edge_change_changes_hash(self):
        a = Graph(4, [(0, 1), (1, 2)])
        b = Graph(4, [(0, 1), (1, 3)])
        assert a.content_hash() != b.content_hash()

    def test_vertex_count_changes_hash(self):
        assert Graph(3, [(0, 1)]).content_hash() != Graph(4, [(0, 1)]).content_hash()

    def test_mutation_changes_then_restores_hash(self):
        g = Graph(4, [(0, 1), (1, 2)])
        before = g.content_hash()
        g.add_edge(2, 3)
        assert g.content_hash() != before
        g.remove_edge(2, 3)
        assert g.content_hash() == before

    def test_copy_shares_hash(self):
        g = generators.grid_graph(3, 3)
        assert g.copy().content_hash() == g.content_hash()


class TestSpecFingerprint:
    def test_equal_specs_same_fingerprint(self):
        assert spec_fingerprint(BuildSpec(eps=0.1)) == spec_fingerprint(BuildSpec(eps=0.1))

    def test_every_parameter_participates(self):
        base = BuildSpec(product="emulator", method="fast", eps=0.01, kappa=4.0,
                         rho=0.45, seed=0)
        for change in ({"product": "hopset"}, {"method": "congest"}, {"eps": 0.02},
                       {"kappa": 3.0}, {"rho": 0.4}, {"seed": 7},
                       {"options": {"ruling_set_mode": "distributed"}}):
            assert spec_fingerprint(base.replace(**change)) != spec_fingerprint(base)

    def test_options_order_does_not_matter(self):
        a = BuildSpec(options={"a": 1, "b": 2})
        b = BuildSpec(options={"b": 2, "a": 1})
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_nested_option_order_does_not_matter(self):
        a = BuildSpec(options={"cfg": {"x": 1, "y": 2}, "tags": (1, 2)})
        b = BuildSpec(options={"cfg": {"y": 2, "x": 1}, "tags": (1, 2)})
        assert a == b
        assert spec_fingerprint(a) == spec_fingerprint(b)
        c = BuildSpec(options={"cfg": {"x": 1, "y": 3}, "tags": (1, 2)})
        assert spec_fingerprint(a) != spec_fingerprint(c)

    def test_object_valued_options_are_uncacheable(self, cache):
        # An arbitrary object's repr may hide the state a builder reads;
        # fingerprinting it could serve stale cached results, so don't.
        class Opts:
            def __init__(self, depth):
                self.depth = depth

            def __repr__(self):
                return "Opts"  # deliberately state-hiding

        spec = BuildSpec(options={"o": Opts(2)})
        assert spec_fingerprint(spec) is None
        assert cache.key("deadbeef", spec) is None

    def test_explicit_schedule_is_uncacheable(self, cache):
        from repro.core.parameters import CentralizedSchedule

        spec = BuildSpec(schedule=CentralizedSchedule(n=16, eps=0.1, kappa=4.0))
        assert spec_fingerprint(spec) is None
        assert cache.key("deadbeef", spec) is None


class TestResultCache:
    def test_roundtrip(self, grid16, cache):
        from repro.api import build

        result = build(grid16, BuildSpec())
        key = cache.key(grid16.content_hash(), result.spec)
        assert cache.put(key, result)
        fetched = cache.get(key)
        assert fetched is not None
        assert fetched.size == result.size
        assert set(fetched.edges) == set(result.edges)
        assert cache.hits == 1 and cache.stores == 1 and len(cache) == 1

    def test_missing_key_is_miss(self, cache):
        assert cache.get("ab" + "0" * 62) is None
        assert cache.misses == 1

    def test_none_key_bypasses(self, cache):
        assert cache.get(None) is None
        assert not cache.put(None, object())
        assert cache.misses == 0 and cache.stores == 0

    def test_corrupted_entry_is_evicted_not_crashed(self, grid16, cache):
        from repro.api import build

        result = build(grid16, BuildSpec())
        key = cache.key(grid16.content_hash(), result.spec)
        cache.put(key, result)
        cache.path(key).write_bytes(b"this is not a pickle")
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert not cache.path(key).exists()
        # The entry can be rebuilt and used again afterwards.
        assert cache.put(key, result)
        assert cache.get(key).size == result.size

    def test_wrong_type_entry_is_evicted(self, cache):
        key = "cd" + "1" * 62
        path = cache.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get(key) is None
        assert cache.evictions == 1

    def test_version_participates_in_key(self, tmp_path):
        spec = BuildSpec()
        a = ResultCache(tmp_path, version="1")
        b = ResultCache(tmp_path, version="2")
        assert a.key("hash", spec) != b.key("hash", spec)

    def test_clear(self, grid16, cache):
        from repro.api import build

        result = build(grid16, BuildSpec())
        cache.put(cache.key(grid16.content_hash(), result.spec), result)
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_clear_sweeps_orphaned_tmp_files(self, grid16, cache):
        from repro.api import build

        result = build(grid16, BuildSpec())
        key = cache.key(grid16.content_hash(), result.spec)
        cache.put(key, result)
        orphan = cache.path(key).parent / "killed-writer.tmp"
        orphan.write_bytes(b"partial")
        cache.clear()
        assert not orphan.exists()

    def test_resolve_cache_forms(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(True).directory.name == ".repro-cache"
        assert resolve_cache(tmp_path / "c").directory == tmp_path / "c"
        cache = ResultCache(tmp_path)
        assert resolve_cache(cache) is cache


class TestCacheEviction:
    """LRU capacity eviction (max_entries / max_bytes) on insert."""

    @staticmethod
    def _fill(cache, grid16, eps_values):
        from repro.api import build

        keys = []
        for eps in eps_values:
            result = build(grid16, BuildSpec(eps=eps))
            key = cache.key(grid16.content_hash(), result.spec)
            assert cache.put(key, result)
            keys.append(key)
        return keys

    @staticmethod
    def _age(cache, keys):
        """Give the entries strictly increasing mtimes (insert order)."""
        import os

        for index, key in enumerate(keys):
            os.utime(cache.path(key), (1_000_000 + index, 1_000_000 + index))

    def test_max_entries_evicts_least_recently_used(self, tmp_path, grid16):
        cache = ResultCache(tmp_path, max_entries=2)
        keys = self._fill(cache, grid16, [0.1, 0.2])
        self._age(cache, keys)
        extra = self._fill(cache, grid16, [0.3])
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(keys[0]) is None  # the oldest entry went
        assert cache.get(keys[1]) is not None
        assert cache.get(extra[0]) is not None

    def test_get_refreshes_recency(self, tmp_path, grid16):
        cache = ResultCache(tmp_path, max_entries=2)
        keys = self._fill(cache, grid16, [0.1, 0.2])
        self._age(cache, keys)
        assert cache.get(keys[0]) is not None  # refresh: 0.2 is now LRU
        self._fill(cache, grid16, [0.3])
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None

    def test_max_bytes_bound(self, tmp_path, grid16):
        probe = ResultCache(tmp_path / "probe")
        [probe_key] = self._fill(probe, grid16, [0.1])
        entry_size = probe.path(probe_key).stat().st_size

        cache = ResultCache(tmp_path / "bounded", max_bytes=int(entry_size * 2.5))
        self._fill(cache, grid16, [0.1, 0.2, 0.3])
        assert len(cache) <= 2
        assert cache.evictions >= 1
        self._fill(cache, grid16, [0.4])
        assert len(cache) <= 2
        assert cache.evictions >= 2

    def test_just_written_entry_survives_tiny_bounds(self, tmp_path, grid16):
        cache = ResultCache(tmp_path, max_entries=1)
        keys = self._fill(cache, grid16, [0.1, 0.2, 0.3])
        assert len(cache) == 1
        assert cache.get(keys[-1]) is not None

    def test_unbounded_by_default(self, tmp_path, grid16):
        cache = ResultCache(tmp_path)
        self._fill(cache, grid16, [0.1, 0.2, 0.3])
        assert len(cache) == 3
        assert cache.evictions == 0

    def test_overwrite_does_not_inflate_tracking(self, tmp_path, grid16):
        from repro.api import build

        cache = ResultCache(tmp_path, max_entries=2)
        result = build(grid16, BuildSpec(eps=0.1))
        key = cache.key(grid16.content_hash(), result.spec)
        assert cache.put(key, result)
        assert cache.put(key, result)  # overwrite: replaces, does not add
        assert cache._approx_count == 1
        assert cache._approx_bytes == cache.path(key).stat().st_size
        assert len(cache) == 1
        assert cache.evictions == 0

    def test_corrupt_entry_eviction_updates_tracking(self, tmp_path, grid16):
        cache = ResultCache(tmp_path, max_entries=4)
        [key] = self._fill(cache, grid16, [0.1])
        size = cache.path(key).stat().st_size
        cache.path(key).write_bytes(b"x" * size)  # same size, corrupt payload
        assert cache.get(key) is None
        assert cache.evictions == 1
        assert cache._approx_count == 0
        assert cache._approx_bytes == 0

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(tmp_path, max_bytes=0)

    def test_sweep_executor_respects_the_bound(self, grid16, tmp_path):
        from repro.api import execute_sweep

        cache = ResultCache(tmp_path, max_entries=2)
        specs = [BuildSpec(eps=eps) for eps in (0.1, 0.2, 0.3, 0.4)]
        execute_sweep(grid16, specs, cache=cache)
        assert len(cache) == 2


class TestParallelExecution:
    def test_parallel_matches_serial(self, grid16, small_sweep):
        serial = run_sweep({"grid": grid16}, small_sweep, verify_pairs=20, workers=1)
        parallel = run_sweep({"grid": grid16}, small_sweep, verify_pairs=20, workers=2)
        assert [_record_key(r) for r in serial] == [_record_key(r) for r in parallel]

    def test_parallel_records_worker_pids(self, grid16, small_sweep):
        records = run_sweep({"grid": grid16}, small_sweep, workers=2)
        for record in records:
            assert "cache_hit" not in record.stats  # no cache was consulted
            assert not record.cache_hit
            assert isinstance(record.stats["worker"], int)
            assert record.stats["elapsed"] == record.result.elapsed

    def test_multiple_graphs_deterministic_order(self, small_sweep):
        graphs = {"a": generators.grid_graph(3, 3), "b": generators.grid_graph(4, 3)}
        records = run_sweep(graphs, small_sweep, workers=2)
        assert [r.graph_name for r in records] == ["a", "a", "b", "b"]

    def test_unpicklable_graph_falls_back_to_serial(self, small_sweep):
        class UnpicklableGraph(Graph):
            def __reduce__(self):
                raise pickle.PicklingError("deliberately unpicklable")

        g = UnpicklableGraph(9)
        for u, v in generators.grid_graph(3, 3).edges():
            g.add_edge(u, v)
        records = run_sweep({"g": g}, small_sweep, workers=2)
        assert len(records) == 2
        assert all(r.result.size > 0 for r in records)

    def test_on_build_hooks_replay_in_parent_for_worker_builds(self, grid16, small_sweep):
        events = []
        hook = on_build(events.append)
        try:
            records = run_sweep({"grid": grid16}, small_sweep, workers=2)
            assert len(events) == len(records)
            assert {e.spec for e in events} == {r.spec for r in records}
            assert all(e.elapsed == e.result.elapsed for e in events)
        finally:
            remove_build_hook(hook)

    def test_hooks_fire_exactly_once_per_build_across_processes(
        self, grid16, small_sweep, tmp_path
    ):
        # A hook with an externally visible side effect must fire once per
        # build even under fork-started pools (workers inherit the parent's
        # hook registry; the pool initializer clears it, the parent replays).
        log = tmp_path / "builds.log"

        def logging_hook(event):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()} {event.spec.product}\n")

        hook = on_build(logging_hook)
        try:
            records = run_sweep({"grid": grid16}, small_sweep, workers=2)
        finally:
            remove_build_hook(hook)
        lines = log.read_text().splitlines()
        assert len(lines) == len(records)
        assert {line.split()[0] for line in lines} == {str(os.getpid())}

    def test_unpicklable_result_is_rebuilt_serially(self, grid16):
        original = get_builder("emulator", "centralized")

        @register_builder("emulator", "centralized")
        def tainted_builder(graph, spec):
            raw = original.fn(graph, spec)
            raw.not_picklable = lambda: None
            return raw

        try:
            records = execute_sweep(
                {"g": grid16},
                [BuildSpec(), BuildSpec(eps=0.2)],
                workers=2,
            )
        finally:
            register_builder(original.product, original.method,
                             description=original.description)(original.fn)
        assert len(records) == 2
        assert all(r.result.size > 0 for r in records)


class TestCachedExecution:
    def test_second_run_performs_zero_builds(self, grid16, small_sweep, cache):
        calls = []
        hook = on_build(lambda event: calls.append(event.spec))
        try:
            first = run_sweep({"grid": grid16}, small_sweep, cache=cache, workers=1)
            assert len(calls) == len(first)
            assert all(r.stats["cache_hit"] is False for r in first)

            second = run_sweep({"grid": grid16}, small_sweep, cache=cache, workers=1)
            assert len(calls) == len(first)  # cache hits skip the builder entirely
            assert all(r.stats["cache_hit"] is True for r in second)
            assert all(r.stats["worker"] is None for r in second)
        finally:
            remove_build_hook(hook)
        assert [_record_key(r) for r in first] == [_record_key(r) for r in second]

    def test_cache_invalidated_when_graph_changes(self, grid16, small_sweep, cache):
        run_sweep({"grid": grid16}, small_sweep, cache=cache)
        changed = grid16.copy()
        changed.add_edge(0, 15)
        records = run_sweep({"grid": changed}, small_sweep, cache=cache)
        assert all(r.stats["cache_hit"] is False for r in records)

    def test_cache_invalidated_when_spec_changes(self, grid16, cache):
        run_sweep({"grid": grid16},
                  GridSweep(products=("emulator",), methods=("centralized",),
                            eps_values=(0.1,)),
                  cache=cache)
        records = run_sweep({"grid": grid16},
                            GridSweep(products=("emulator",), methods=("centralized",),
                                      eps_values=(0.2,)),
                            cache=cache)
        assert all(r.stats["cache_hit"] is False for r in records)

    def test_cache_invalidated_when_version_changes(self, grid16, small_sweep, tmp_path):
        run_sweep({"grid": grid16}, small_sweep,
                  cache=ResultCache(tmp_path, version="v1"))
        records = run_sweep({"grid": grid16}, small_sweep,
                            cache=ResultCache(tmp_path, version="v2"))
        assert all(r.stats["cache_hit"] is False for r in records)

    def test_corrupted_entries_rebuilt_by_sweep(self, grid16, small_sweep, cache):
        run_sweep({"grid": grid16}, small_sweep, cache=cache)
        for path in cache.directory.glob("??/*.pkl"):
            path.write_bytes(b"garbage")
        records = run_sweep({"grid": grid16}, small_sweep, cache=cache, verify_pairs=10)
        assert all(r.stats["cache_hit"] is False for r in records)
        assert all(r.verified for r in records)

    def test_cached_results_verify(self, grid16, small_sweep, cache):
        run_sweep({"grid": grid16}, small_sweep, cache=cache)
        records = run_sweep({"grid": grid16}, small_sweep, cache=cache, verify_pairs=20)
        assert all(r.cache_hit for r in records)
        assert all(r.verified for r in records)

    def test_uncacheable_spec_is_not_counted_as_a_miss(self, grid16, cache):
        from repro.core.parameters import CentralizedSchedule

        spec = BuildSpec(schedule=CentralizedSchedule(n=16, eps=0.1, kappa=4.0))
        records = execute_sweep({"g": grid16}, [spec], cache=cache)
        # The spec can never be cached, so it must not read as an eternal
        # miss in the stats or the sweep-table summary.
        assert "cache_hit" not in records[0].stats
        assert cache.stores == 0
        table = format_sweep_table(records)
        assert "miss(es)" not in table

    def test_parallel_run_with_cache(self, grid16, small_sweep, cache):
        first = run_sweep({"grid": grid16}, small_sweep, cache=cache, workers=2)
        assert cache.stores == len(first)
        second = run_sweep({"grid": grid16}, small_sweep, cache=cache, workers=2)
        assert all(r.cache_hit for r in second)
        assert cache.stores == len(first)  # nothing new written
        assert [_record_key(r) for r in first] == [_record_key(r) for r in second]


class TestBatchVerification:
    @pytest.mark.parametrize("product,method", [
        ("emulator", "centralized"),
        ("spanner", "centralized"),
        ("spanner", "fast"),
        ("hopset", "centralized"),
    ])
    def test_matches_unbatched_verify(self, grid16, product, method):
        from repro.api import build

        result = build(grid16, BuildSpec(product=product, method=method))
        baseline = GraphBaseline(grid16)
        batched = verify_with_baseline(result, baseline, sample_pairs=30)
        direct = result.verify(grid16, sample_pairs=30)
        assert batched.valid == direct.valid
        if product == "hopset":
            assert batched.worst_excess == direct.worst_excess
            assert batched.hopbound == direct.hopbound
        else:
            assert batched.pairs_checked == direct.pairs_checked
            assert batched.max_additive_error == direct.max_additive_error
            assert batched.max_multiplicative_stretch == direct.max_multiplicative_stretch

    def test_baseline_bfs_computed_once_per_source(self, grid16, monkeypatch):
        import repro.api.executor as executor_module

        calls = []
        real = executor_module.bfs_distances
        monkeypatch.setattr(executor_module, "bfs_distances",
                            lambda graph, source: calls.append(source) or real(graph, source))
        baseline = GraphBaseline(grid16)
        baseline.distances(0)
        baseline.distances(0)
        baseline.distances(1)
        assert calls == [0, 1]

    def test_verify_true_checks_all_pairs(self, grid16):
        sweep = GridSweep(products=("emulator",), methods=("centralized",))
        records = run_sweep({"grid": grid16}, sweep, verify=True)
        assert records[0].verified is True

    def test_verify_false_skips(self, grid16, small_sweep):
        records = run_sweep({"grid": grid16}, small_sweep, verify=False)
        assert all(r.verified is None for r in records)


class TestSweepTableSummary:
    def test_summary_line_reports_hits_and_misses(self, grid16, small_sweep, cache):
        run_sweep({"grid": grid16}, small_sweep, cache=cache)
        records = run_sweep({"grid": grid16}, small_sweep, cache=cache)
        table = format_sweep_table(records)
        assert "cache: 2 hit(s), 0 miss(es)" in table
        assert "total build time" in table

    def test_no_cache_segment_without_a_cache(self, grid16, small_sweep):
        records = run_sweep({"grid": grid16}, small_sweep)
        table = format_sweep_table(records)
        assert "total build time" in table
        assert "cache:" not in table  # no cache was consulted

    def test_no_summary_without_stats(self, grid16):
        from repro.api import build
        from repro.api.pipeline import SweepRecord

        record = SweepRecord(graph_name="g", spec=BuildSpec(),
                             result=build(grid16, BuildSpec()))
        table = format_sweep_table([record])
        assert "cache:" not in table
        assert "total build time" not in table


class TestSharedExplorations:
    """Builds in a sweep share no explorations: each reads its own graph."""

    def test_parallel_matches_serial_with_sharing(self, grid16):
        # Centralized and fast emulators and spanners over one graph: the
        # records and edge sets must not depend on which process built them.
        sweep = GridSweep(products=("emulator", "spanner"),
                          methods=("centralized", "fast"),
                          eps_values=(0.1, 0.05))
        serial = run_sweep({"grid": grid16}, sweep, verify=10)
        parallel = run_sweep({"grid": grid16}, sweep, verify=10, workers=2)
        assert [_record_key(r) for r in serial] == [_record_key(r) for r in parallel]
        assert [pickle.dumps(sorted(r.result.edges)) for r in serial] \
            == [pickle.dumps(sorted(r.result.edges)) for r in parallel]
