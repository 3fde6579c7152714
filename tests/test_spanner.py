"""Tests for the Section 4 near-additive spanner (centralized simulation)."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_spanner
from repro.core.spanner import NearAdditiveSpannerBuilder
from repro.core.parameters import SpannerSchedule, size_bound
from repro.graphs import generators
from repro.graphs.graph import Graph


SPANNER = BuildSpec(product="spanner", eps=0.01, kappa=4, rho=0.45)


class TestSubgraphProperty:
    def test_spanner_is_subgraph(self, random_graph):
        result = build(random_graph, SPANNER).raw
        assert result.is_subgraph_of(random_graph)

    def test_spanner_is_subgraph_dense(self, clique8):
        result = build(clique8, SPANNER.replace(kappa=2, rho=0.5)).raw
        assert result.is_subgraph_of(clique8)

    def test_spanner_spans_connected_graph(self, random_graph):
        # A valid (alpha, beta)-spanner of a connected graph must itself
        # connect every pair (finite stretch), hence be connected.
        result = build(random_graph, SPANNER).raw
        assert result.spanner.is_connected()

    def test_empty_graph(self):
        result = build(Graph(3), SPANNER).raw
        assert result.num_edges == 0

    def test_disconnected_graph(self, disconnected_graph):
        result = build(disconnected_graph, SPANNER).raw
        assert result.is_subgraph_of(disconnected_graph)
        # Components must be preserved: same number of connected components.
        assert len(result.spanner.connected_components()) == len(
            disconnected_graph.connected_components()
        )


class TestStretch:
    @pytest.mark.parametrize("kappa", [3, 4, 8])
    def test_guarantee_random(self, random_graph, kappa):
        result = build(random_graph, SPANNER.replace(kappa=kappa)).raw
        report = verify_spanner(random_graph, result.spanner, result.alpha, result.beta)
        assert report.valid

    def test_guarantee_grid(self, grid6x6):
        result = build(grid6x6, SPANNER).raw
        report = verify_spanner(grid6x6, result.spanner, result.alpha, result.beta)
        assert report.valid

    def test_guarantee_ring_of_cliques(self):
        g = generators.ring_of_cliques(6, 6)
        result = build(g, SPANNER).raw
        report = verify_spanner(g, result.spanner, result.alpha, result.beta)
        assert report.valid

    def test_spanner_distances_at_least_graph_distances(self, small_random_graph):
        # Trivially true for subgraphs, but exercises as_weighted().
        from repro.analysis.validation import verify_no_shortening

        result = build(small_random_graph, SPANNER).raw
        assert verify_no_shortening(small_random_graph, result.as_weighted(), sample_pairs=None)


class TestSize:
    def test_size_close_to_bound(self, random_graph):
        result = build(random_graph, SPANNER).raw
        n = random_graph.num_vertices
        # Corollary 4.4 gives O(n^(1+1/kappa)); check with a small constant.
        assert result.num_edges <= 4 * size_bound(n, 4)

    def test_sparser_than_input_on_dense_graph(self):
        g = generators.erdos_renyi(60, 0.4, seed=2)
        result = build(g, SPANNER.replace(kappa=3)).raw
        assert result.num_edges < g.num_edges

    def test_edge_breakdown_sums(self, random_graph):
        result = build(random_graph, SPANNER).raw
        assert (result.superclustering_edges + result.interconnection_edges
                >= result.num_edges)

    def test_superclustering_edges_bounded_by_forest_per_phase(self, random_graph):
        # Each phase's superclustering edges form (part of) a forest.
        result = build(random_graph, SPANNER).raw
        n = random_graph.num_vertices
        for stats in result.phase_stats:
            assert stats.superclustering_edges <= n - 1


class TestBuilderApi:
    def test_schedule_mismatch_rejected(self, path10):
        schedule = SpannerSchedule(n=55, eps=0.01, kappa=4, rho=0.45)
        with pytest.raises(ValueError):
            NearAdditiveSpannerBuilder(path10, schedule=schedule)

    def test_as_weighted_unit_weights(self, path10):
        result = build(path10, SPANNER).raw
        weighted = result.as_weighted()
        for _, _, w in weighted.edges():
            assert w == 1.0

    def test_deterministic(self, random_graph):
        r1 = build(random_graph, SPANNER).raw
        r2 = build(random_graph, SPANNER).raw
        assert sorted(r1.spanner.edges()) == sorted(r2.spanner.edges())

    def test_result_exposes_schedule_guarantees(self, path10):
        result = build(path10, SPANNER).raw
        assert result.alpha == result.schedule.alpha
        assert result.beta == result.schedule.beta
