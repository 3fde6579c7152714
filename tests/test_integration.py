"""Integration tests: end-to-end pipelines across modules and graph families.

Each test exercises the full path a downstream user follows: generate a
graph, build one of the objects, validate it, and compare against a
baseline or an alternative construction.
"""

from __future__ import annotations

import pytest

from repro import (
    BuildSpec,
    build,
    size_bound,
    ultra_sparse_kappa,
    verify_emulator,
    verify_spanner,
)
from repro.analysis.metrics import size_report, stretch_distribution
from repro.baselines import (
    build_elkin_neiman_emulator,
    build_elkin_peleg_emulator,
    build_thorup_zwick_emulator,
)
from repro.core.parameters import CentralizedSchedule
from repro.graphs import generators, io


CONGEST_EMULATOR = BuildSpec(product="emulator", method="congest", eps=0.01, kappa=4, rho=0.45)
EMULATOR = BuildSpec(product="emulator", eps=0.1, kappa=4)
FAST_EMULATOR = BuildSpec(product="emulator", method="fast", eps=0.01, kappa=4, rho=0.45)

FAMILIES = {
    "erdos-renyi": lambda: generators.connected_erdos_renyi(90, 0.06, seed=5),
    "grid": lambda: generators.grid_graph(9, 10),
    "hypercube": lambda: generators.hypercube_graph(6),
    "tree": lambda: generators.random_tree(90, seed=5),
    "ring-of-cliques": lambda: generators.ring_of_cliques(9, 9),
    "preferential": lambda: generators.preferential_attachment(90, 2, seed=5),
}


class TestAllConstructionsAcrossFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_centralized_pipeline(self, family):
        graph = FAMILIES[family]()
        result = build(graph, EMULATOR).raw
        assert result.within_size_bound()
        report = verify_emulator(graph, result.emulator, result.alpha, result.beta,
                                 sample_pairs=200)
        assert report.valid

    @pytest.mark.parametrize("family", ["erdos-renyi", "grid", "ring-of-cliques"])
    def test_fast_pipeline(self, family):
        graph = FAMILIES[family]()
        result = build(graph, FAST_EMULATOR).raw
        assert result.num_edges <= size_bound(graph.num_vertices, 4) + 1e-9
        report = verify_emulator(graph, result.emulator, result.schedule.alpha,
                                 result.schedule.beta, sample_pairs=200)
        assert report.valid

    @pytest.mark.parametrize("family", ["grid", "tree"])
    def test_congest_pipeline(self, family):
        graph = FAMILIES[family]()
        result = build(graph, CONGEST_EMULATOR).raw
        assert result.num_edges <= size_bound(graph.num_vertices, 4) + 1e-9
        assert result.both_endpoints_know_all_edges()

    @pytest.mark.parametrize("family", ["erdos-renyi", "hypercube"])
    def test_spanner_pipeline(self, family):
        graph = FAMILIES[family]()
        result = build(graph, BuildSpec(product="spanner", eps=0.01, kappa=4, rho=0.45)).raw
        report = verify_spanner(graph, result.spanner, result.alpha, result.beta,
                                sample_pairs=200)
        assert report.valid


class TestUltraSparseEndToEnd:
    def test_ultra_sparse_emulator_is_near_linear(self):
        graph = generators.connected_erdos_renyi(300, 0.03, seed=8)
        kappa = ultra_sparse_kappa(300)
        result = build(graph, EMULATOR.replace(kappa=kappa)).raw
        report = size_report(result.emulator, kappa=kappa)
        assert report.within_bound
        # n + o(n): the allowance itself is tiny, and we respect it.
        assert result.num_edges - 300 <= report.bound - 300 + 1e-9
        assert report.bound - 300 < 0.25 * 300

    def test_ultra_sparse_beats_all_baselines(self):
        graph = generators.connected_erdos_renyi(200, 0.04, seed=9)
        kappa = ultra_sparse_kappa(200)
        schedule = CentralizedSchedule(n=200, eps=0.1, kappa=kappa)
        ours = build(graph, BuildSpec(product="emulator", schedule=schedule)).raw.num_edges
        ep01 = build_elkin_peleg_emulator(graph, eps=0.1, kappa=kappa).num_edges
        tz06 = build_thorup_zwick_emulator(graph, kappa=kappa, seed=3).num_edges
        en17 = build_elkin_neiman_emulator(graph, eps=0.1, kappa=kappa, seed=3).num_edges
        assert ours <= min(ep01, tz06, en17)

    def test_stretch_distribution_reasonable_in_ultra_sparse_regime(self):
        graph = generators.grid_graph(12, 12)
        kappa = ultra_sparse_kappa(144)
        result = build(graph, EMULATOR.replace(kappa=kappa)).raw
        dist = stretch_distribution(graph, result.emulator, sample_pairs=300)
        # The observed additive error must stay below the schedule's beta.
        assert dist["max_additive"] <= result.beta


class TestPersistenceRoundTrip:
    def test_emulator_roundtrip_preserves_validity(self, tmp_path):
        graph = generators.connected_erdos_renyi(70, 0.08, seed=12)
        result = build(graph, EMULATOR).raw
        graph_path = tmp_path / "graph.txt"
        emulator_path = tmp_path / "emulator.txt"
        io.write_edge_list(graph, graph_path)
        io.write_weighted_edge_list(result.emulator, emulator_path)
        graph_back = io.read_edge_list(graph_path)
        emulator_back = io.read_weighted_edge_list(emulator_path)
        report = verify_emulator(graph_back, emulator_back, result.alpha, result.beta,
                                 sample_pairs=150)
        assert report.valid


class TestCrossConstructionConsistency:
    def test_all_three_emulator_builders_valid_on_same_graph(self):
        graph = generators.connected_erdos_renyi(64, 0.08, seed=15)
        central = build(graph, EMULATOR).raw
        fast = build(graph, FAST_EMULATOR).raw
        congest = build(graph, CONGEST_EMULATOR).raw
        for result, alpha, beta in (
            (central, central.alpha, central.beta),
            (fast, fast.schedule.alpha, fast.schedule.beta),
            (congest, congest.schedule.alpha, congest.schedule.beta),
        ):
            assert result.num_edges <= size_bound(64, 4) + 1e-9
            report = verify_emulator(graph, result.emulator, alpha, beta, sample_pairs=150)
            assert report.valid

    def test_fast_and_congest_agree_on_edge_count_order(self):
        graph = generators.grid_graph(8, 8)
        fast = build(graph, FAST_EMULATOR).raw
        congest = build(graph, CONGEST_EMULATOR).raw
        # Same schedule family; sizes should be in the same ballpark.
        assert abs(fast.num_edges - congest.num_edges) <= 0.5 * max(
            fast.num_edges, congest.num_edges
        )
