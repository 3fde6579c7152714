"""Tests for the distributed CONGEST spanner construction (Section 4)."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_spanner
from repro.core.parameters import SpannerSchedule, size_bound
from repro.distributed.spanner_congest import (
    DistributedSpannerBuilder,
)
from repro.graphs import generators
from repro.graphs.graph import Graph


CONGEST_SPANNER = BuildSpec(product="spanner", method="congest", eps=0.01, kappa=4, rho=0.45)


@pytest.fixture(scope="module")
def spanner_result():
    graph = generators.connected_erdos_renyi(60, 0.08, seed=21)
    return graph, build(graph, CONGEST_SPANNER).raw


class TestSubgraphAndStretch:
    def test_is_subgraph(self, spanner_result):
        graph, result = spanner_result
        assert result.is_subgraph_of(graph)

    def test_stretch_guarantee(self, spanner_result):
        graph, result = spanner_result
        report = verify_spanner(graph, result.spanner, result.alpha, result.beta)
        assert report.valid

    def test_connected_input_gives_connected_spanner(self, spanner_result):
        graph, result = spanner_result
        assert result.spanner.is_connected()

    def test_grid(self):
        graph = generators.grid_graph(6, 6)
        result = build(graph, CONGEST_SPANNER).raw
        assert result.is_subgraph_of(graph)
        report = verify_spanner(graph, result.spanner, result.alpha, result.beta)
        assert report.valid

    def test_empty_graph(self):
        result = build(Graph(4), CONGEST_SPANNER).raw
        assert result.num_edges == 0

    def test_disconnected(self, disconnected_graph):
        result = build(disconnected_graph, CONGEST_SPANNER).raw
        assert result.is_subgraph_of(disconnected_graph)
        assert len(result.spanner.connected_components()) == len(
            disconnected_graph.connected_components()
        )


class TestSizeAndAccounting:
    def test_size_near_bound(self, spanner_result):
        graph, result = spanner_result
        assert result.num_edges <= 4 * size_bound(graph.num_vertices, 4)

    def test_rounds_and_messages_positive(self, spanner_result):
        _, result = spanner_result
        assert result.rounds > 0
        assert result.messages > 0

    def test_edge_breakdown(self, spanner_result):
        _, result = spanner_result
        assert result.superclustering_edges + result.interconnection_edges >= result.num_edges

    def test_superclustering_edges_within_forest_bound(self, spanner_result):
        graph, result = spanner_result
        for stats in result.phase_stats:
            assert stats.superclustering_edges <= graph.num_vertices - 1

    def test_phase_stats_count(self, spanner_result):
        _, result = spanner_result
        assert len(result.phase_stats) == result.schedule.num_phases

    def test_as_weighted_unit(self, spanner_result):
        _, result = spanner_result
        for _, _, w in result.as_weighted().edges():
            assert w == 1.0


class TestBuilderApi:
    def test_schedule_mismatch_rejected(self, path10):
        schedule = SpannerSchedule(n=99, eps=0.01, kappa=4, rho=0.45)
        with pytest.raises(ValueError):
            DistributedSpannerBuilder(path10, schedule=schedule)

    def test_deterministic(self):
        graph = generators.connected_erdos_renyi(40, 0.1, seed=31)
        r1 = build(graph, CONGEST_SPANNER).raw
        r2 = build(graph, CONGEST_SPANNER).raw
        assert sorted(r1.spanner.edges()) == sorted(r2.spanner.edges())
        assert r1.rounds == r2.rounds

    def test_sparser_than_em19_on_dense_graph(self):
        from repro.baselines.em19_spanner import build_em19_spanner

        graph = generators.erdos_renyi(60, 0.3, seed=4)
        ours = build(graph, CONGEST_SPANNER.replace(kappa=3, rho=0.4)).raw
        em19 = build_em19_spanner(graph, eps=0.01, kappa=3, rho=0.4)
        # The Section 4 spanner is never (meaningfully) denser than EM19.
        assert ours.num_edges <= em19.num_edges * 1.1 + 5
