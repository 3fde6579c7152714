"""Tests for the emulator/spanner validators and metrics."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.metrics import size_report, sparsity_ratio, stretch_distribution
from repro.analysis.sampling import sample_vertex_pairs
from repro.analysis.reporting import format_markdown_table, format_table
from repro.analysis.validation import (
    StretchReport,
    verify_emulator,
    verify_no_shortening,
    verify_spanner,
)
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph


EMULATOR = BuildSpec(product="emulator", eps=0.1, kappa=4)


class TestStretchReport:
    def test_record_valid_pair(self):
        report = StretchReport(alpha=2.0, beta=1.0)
        report.record(0, 1, 2.0, 3.0)
        assert report.valid
        assert report.max_multiplicative_stretch == 1.5
        assert report.max_additive_error == 1.0

    def test_record_violation(self):
        report = StretchReport(alpha=1.0, beta=0.0)
        report.record(0, 1, 2.0, 3.0)
        assert not report.valid
        assert report.violations

    def test_record_shortening_violation(self):
        report = StretchReport(alpha=10.0, beta=10.0)
        report.record(0, 1, 5.0, 3.0)
        assert report.shortening_violations

    def test_excess_over_guarantee(self):
        report = StretchReport(alpha=1.0, beta=0.0)
        report.record(0, 1, 1.0, 4.0)
        assert report.max_excess_over_guarantee == pytest.approx(3.0)


class TestVerifyEmulator:
    def test_identity_emulator_is_valid(self, small_random_graph):
        h = WeightedGraph(small_random_graph.num_vertices)
        for u, v in small_random_graph.edges():
            h.add_edge(u, v, 1.0)
        report = verify_emulator(small_random_graph, h, 1.0, 0.0)
        assert report.valid
        assert report.max_multiplicative_stretch == 1.0

    def test_missing_edges_detected(self, path10):
        h = WeightedGraph(10)  # empty emulator: infinite distances
        report = verify_emulator(path10, h, 1.0, 5.0)
        assert not report.valid

    def test_shortening_detected(self, path10):
        h = WeightedGraph(10)
        for u, v in path10.edges():
            h.add_edge(u, v, 1.0)
        h.add_edge(0, 9, 1.0)  # illegally short edge
        report = verify_emulator(path10, h, 10.0, 100.0)
        assert report.shortening_violations

    def test_sampled_mode(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        report = verify_emulator(random_graph, result.emulator, result.alpha, result.beta,
                                 sample_pairs=50)
        assert report.valid
        assert report.pairs_checked <= 50

    def test_vertex_count_mismatch(self, path10):
        with pytest.raises(ValueError):
            verify_emulator(path10, WeightedGraph(5), 1.0, 1.0)

    def test_verify_no_shortening_helper(self, path10):
        h = WeightedGraph(10)
        for u, v in path10.edges():
            h.add_edge(u, v, 2.0)
        assert verify_no_shortening(path10, h, sample_pairs=None)


class TestVerifySpanner:
    def test_full_graph_is_valid_spanner(self, small_random_graph):
        report = verify_spanner(small_random_graph, small_random_graph.copy(), 1.0, 0.0)
        assert report.valid

    def test_non_subgraph_rejected(self, path10):
        fake = Graph(10, [(0, 9)])
        with pytest.raises(AssertionError):
            verify_spanner(path10, fake, 10.0, 10.0)

    def test_forest_spanner_stretch(self, small_random_graph):
        from repro.baselines.multiplicative import bfs_tree_spanner

        forest = bfs_tree_spanner(small_random_graph)
        # A BFS forest has stretch at most the diameter: use a generous bound.
        report = verify_spanner(small_random_graph, forest, 1.0,
                                2 * small_random_graph.num_vertices)
        assert report.valid


class TestMetrics:
    def test_size_report(self, small_random_graph):
        result = build(small_random_graph, EMULATOR).raw
        report = size_report(result.emulator, kappa=4)
        assert report.within_bound
        assert report.ratio_to_bound <= 1.0
        assert report.extra_over_n == result.num_edges - 40

    def test_sparsity_ratio(self, clique8):
        from repro.baselines.multiplicative import bfs_tree_spanner

        forest = bfs_tree_spanner(clique8)
        ratio = sparsity_ratio(forest, clique8)
        assert ratio == pytest.approx(7 / 28)

    def test_sparsity_ratio_empty_graph(self):
        assert sparsity_ratio(Graph(3), Graph(3)) == 0.0

    def test_stretch_distribution(self, small_random_graph):
        result = build(small_random_graph, EMULATOR).raw
        dist = stretch_distribution(small_random_graph, result.emulator)
        assert dist["pairs"] > 0
        assert dist["max_multiplicative"] >= dist["mean_multiplicative"] >= 1.0
        assert dist["max_additive"] >= dist["p95_additive"] >= 0.0

    def test_stretch_distribution_empty(self):
        dist = stretch_distribution(Graph(3), WeightedGraph(3))
        assert dist["pairs"] == 0


class TestSampling:
    def test_sample_count(self, random_graph):
        pairs = sample_vertex_pairs(random_graph, 30, seed=1)
        assert len(pairs) == 30
        assert all(u < v for u, v in pairs)
        assert len(set(pairs)) == 30

    def test_sample_all_when_requested_too_many(self, path10):
        pairs = sample_vertex_pairs(path10, 1000)
        assert len(pairs) == 45

    def test_sample_deterministic(self, random_graph):
        assert sample_vertex_pairs(random_graph, 20, seed=5) == sample_vertex_pairs(
            random_graph, 20, seed=5
        )

    def test_sample_trivial_graphs(self):
        assert sample_vertex_pairs(Graph(1), 5) == []
        assert sample_vertex_pairs(Graph(10), 0) == []


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["x", 3]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_float_rendering(self):
        table = format_table(["v"], [[0.00001], [123456.0], [2.0]])
        assert "1.000e-05" in table
        assert "123456" in table

    def test_format_markdown_table(self):
        md = format_markdown_table(["x", "y"], [[1, 2]])
        assert md.splitlines()[0] == "| x | y |"
        assert "| 1 | 2 |" in md
