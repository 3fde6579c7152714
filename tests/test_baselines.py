"""Tests for the baseline constructions (EP01, TZ06, EN17a, EM19, greedy)."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_no_shortening, verify_spanner
from repro.baselines.elkin_neiman import build_elkin_neiman_emulator
from repro.baselines.elkin_peleg import build_elkin_peleg_emulator
from repro.baselines.em19_spanner import build_em19_spanner
from repro.baselines.multiplicative import bfs_tree_spanner, greedy_multiplicative_spanner
from repro.baselines.thorup_zwick import build_thorup_zwick_emulator
from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances


class TestElkinPeleg:
    def test_builds_and_counts(self, random_graph):
        result = build_elkin_peleg_emulator(random_graph, eps=0.1, kappa=4)
        assert result.num_edges > 0
        assert result.ground_forest_edges == random_graph.num_vertices - 1

    def test_never_shortens(self, small_random_graph):
        result = build_elkin_peleg_emulator(small_random_graph, eps=0.1, kappa=4)
        assert verify_no_shortening(small_random_graph, result.emulator, sample_pairs=None)

    def test_contains_spanning_forest(self, random_graph):
        result = build_elkin_peleg_emulator(random_graph, eps=0.1, kappa=4)
        # Ground partition guarantees connectivity of the emulator.
        nx_graph = result.emulator.to_networkx()
        import networkx as nx

        assert nx.is_connected(nx_graph)

    def test_denser_than_ours_at_sparse_settings(self):
        # The introduction's point: prior constructions pay at least ~2n
        # edges at their sparsest, ours pays n + o(n).
        graph = generators.connected_erdos_renyi(150, 0.05, seed=17)
        kappa = 16
        ours = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=kappa)).raw.num_edges
        ep01 = build_elkin_peleg_emulator(graph, eps=0.1, kappa=kappa).num_edges
        assert ep01 > ours

    def test_breakdown_sums_to_total(self, small_random_graph):
        result = build_elkin_peleg_emulator(small_random_graph, eps=0.1, kappa=4)
        assert (result.ground_forest_edges + result.interconnection_edges
                + result.superclustering_edges) >= result.num_edges


class TestThorupZwick:
    def test_builds(self, random_graph):
        result = build_thorup_zwick_emulator(random_graph, kappa=4, seed=1)
        assert result.num_edges > 0

    def test_never_shortens(self, small_random_graph):
        result = build_thorup_zwick_emulator(small_random_graph, kappa=4, seed=1)
        assert verify_no_shortening(small_random_graph, result.emulator, sample_pairs=None)

    def test_seed_reproducible(self, small_random_graph):
        a = build_thorup_zwick_emulator(small_random_graph, kappa=4, seed=3)
        b = build_thorup_zwick_emulator(small_random_graph, kappa=4, seed=3)
        assert sorted(a.emulator.edges()) == sorted(b.emulator.edges())

    def test_different_seeds_usually_differ(self, random_graph):
        a = build_thorup_zwick_emulator(random_graph, kappa=4, seed=1)
        b = build_thorup_zwick_emulator(random_graph, kappa=4, seed=2)
        assert sorted(a.emulator.edges()) != sorted(b.emulator.edges())

    def test_edge_weights_are_graph_distances(self, small_random_graph):
        result = build_thorup_zwick_emulator(small_random_graph, kappa=4, seed=5)
        for u, v, w in result.emulator.edges():
            assert w == bfs_distances(small_random_graph, u)[v]

    def test_levels_recorded(self, small_random_graph):
        result = build_thorup_zwick_emulator(small_random_graph, kappa=8, seed=5)
        assert result.levels >= 1


class TestElkinNeiman:
    def test_builds(self, random_graph):
        result = build_elkin_neiman_emulator(random_graph, eps=0.1, kappa=4, seed=1)
        assert result.num_edges > 0

    def test_never_shortens(self, small_random_graph):
        result = build_elkin_neiman_emulator(small_random_graph, eps=0.1, kappa=4, seed=1)
        assert verify_no_shortening(small_random_graph, result.emulator, sample_pairs=None)

    def test_seed_reproducible(self, small_random_graph):
        a = build_elkin_neiman_emulator(small_random_graph, eps=0.1, kappa=4, seed=2)
        b = build_elkin_neiman_emulator(small_random_graph, eps=0.1, kappa=4, seed=2)
        assert sorted(a.emulator.edges()) == sorted(b.emulator.edges())

    def test_edge_weights_are_graph_distances(self, small_random_graph):
        result = build_elkin_neiman_emulator(small_random_graph, eps=0.1, kappa=4, seed=3)
        for u, v, w in result.emulator.edges():
            assert w == bfs_distances(small_random_graph, u)[v]


class TestEm19Spanner:
    def test_is_subgraph_with_valid_stretch(self, random_graph):
        result = build_em19_spanner(random_graph, eps=0.01, kappa=4, rho=0.45)
        assert result.is_subgraph_of(random_graph)
        report = verify_spanner(random_graph, result.spanner, result.alpha, result.beta)
        assert report.valid

    def test_never_sparser_than_section4_by_much(self, random_graph):
        ours = build(random_graph, BuildSpec(product="spanner", eps=0.01, kappa=4, rho=0.45)).raw
        em19 = build_em19_spanner(random_graph, eps=0.01, kappa=4, rho=0.45)
        assert ours.num_edges <= em19.num_edges * 1.1 + 5


class TestMultiplicativeSpanners:
    def test_greedy_stretch_property(self, small_random_graph):
        k = 2
        spanner = greedy_multiplicative_spanner(small_random_graph, k)
        for u in small_random_graph.vertices():
            dg = bfs_distances(small_random_graph, u)
            dh = bfs_distances(spanner, u)
            for v, d in dg.items():
                assert dh.get(v, float("inf")) <= (2 * k - 1) * d

    def test_greedy_is_subgraph(self, random_graph):
        spanner = greedy_multiplicative_spanner(random_graph, 3)
        for u, v in spanner.edges():
            assert random_graph.has_edge(u, v)

    def test_greedy_sparser_than_input_on_dense_graph(self):
        g = generators.erdos_renyi(40, 0.5, seed=8)
        spanner = greedy_multiplicative_spanner(g, 2)
        assert spanner.num_edges < g.num_edges

    def test_greedy_k1_keeps_everything(self, small_random_graph):
        spanner = greedy_multiplicative_spanner(small_random_graph, 1)
        assert spanner.num_edges == small_random_graph.num_edges

    def test_greedy_invalid_k(self, path10):
        with pytest.raises(ValueError):
            greedy_multiplicative_spanner(path10, 0)

    def test_bfs_tree_spanner_is_spanning_forest(self, random_graph):
        spanner = bfs_tree_spanner(random_graph)
        assert spanner.num_edges == random_graph.num_vertices - 1
        assert spanner.is_connected()

    def test_bfs_tree_spanner_disconnected(self, disconnected_graph):
        spanner = bfs_tree_spanner(disconnected_graph)
        assert len(spanner.connected_components()) == len(
            disconnected_graph.connected_components()
        )
