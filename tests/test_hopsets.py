"""Tests for the hopset package (bounded-hop distances and hopset construction)."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.graphs.shortest_paths import bfs_distances
from repro.graphs.weighted_graph import WeightedGraph
from repro.hopsets import (
    hop_limited_distance,
    hop_limited_distances,
    union_with_graph,
    verify_hopset,
)
from repro.hopsets.hopset import exact_hopbound, measured_hopbound


HOPSET = BuildSpec(product="hopset", eps=0.1, kappa=4.0)


class TestUnionWithGraph:
    def test_union_without_overlay_is_unit_weight_copy(self, path10):
        union = union_with_graph(path10)
        assert union.num_edges == path10.num_edges
        assert all(w == 1.0 for _, _, w in union.edges())

    def test_union_adds_overlay_edges(self, path10):
        overlay = WeightedGraph(10)
        overlay.add_edge(0, 9, 5.0)
        union = union_with_graph(path10, overlay)
        assert union.has_edge(0, 9)
        assert union.weight(0, 9) == 5.0
        assert union.num_edges == path10.num_edges + 1

    def test_union_keeps_minimum_weight_on_shared_edge(self, path10):
        overlay = WeightedGraph(10)
        overlay.add_edge(0, 1, 3.0)  # heavier than the unit graph edge
        union = union_with_graph(path10, overlay)
        assert union.weight(0, 1) == 1.0

    def test_union_rejects_vertex_count_mismatch(self, path10):
        overlay = WeightedGraph(5)
        with pytest.raises(ValueError):
            union_with_graph(path10, overlay)


class TestHopLimitedDistances:
    def test_zero_hops_reaches_only_the_source(self, path10):
        union = union_with_graph(path10)
        assert hop_limited_distances(union, 3, 0) == {3: 0.0}

    def test_hop_budget_limits_reach_on_a_path(self, path10):
        union = union_with_graph(path10)
        dist = hop_limited_distances(union, 0, 3)
        assert dist[3] == 3.0
        assert 4 not in dist

    def test_large_budget_matches_dijkstra(self, random_graph):
        union = union_with_graph(random_graph)
        limited = hop_limited_distances(union, 0, random_graph.num_vertices)
        exact = union.dijkstra(0)
        assert limited == exact

    def test_shortcut_edge_reduces_needed_hops(self, path10):
        overlay = WeightedGraph(10)
        overlay.add_edge(0, 9, 9.0)  # weight equals the true distance
        union = union_with_graph(path10, overlay)
        assert hop_limited_distance(union, 0, 9, 1) == 9.0
        # Without the shortcut, one hop is not enough.
        assert hop_limited_distance(union_with_graph(path10), 0, 9, 1) == float("inf")

    def test_hop_limited_never_undershoots_graph_distance(self, random_graph):
        union = union_with_graph(random_graph)
        exact = bfs_distances(random_graph, 5)
        limited = hop_limited_distances(union, 5, 4)
        for v, d in limited.items():
            assert d >= exact[v] - 1e-9

    def test_negative_hops_rejected(self, path10):
        union = union_with_graph(path10)
        with pytest.raises(ValueError):
            hop_limited_distances(union, 0, -1)

    def test_bad_source_rejected(self, path10):
        union = union_with_graph(path10)
        with pytest.raises(ValueError):
            hop_limited_distances(union, 42, 2)


class TestBuildHopset:
    def test_hopset_edges_are_the_emulator_edges(self, random_graph):
        result = build(random_graph, HOPSET).raw
        assert result.hopset is result.emulator_result.emulator
        assert result.num_vertices == random_graph.num_vertices

    def test_hopset_respects_emulator_size_bound(self, random_graph):
        result = build(random_graph, HOPSET).raw
        assert result.num_edges <= result.emulator_result.size_bound + 1e-9

    def test_ultra_sparse_default_kappa(self, random_graph):
        result = build(random_graph, BuildSpec(product="hopset", eps=0.1)).raw
        # Ultra-sparse regime: barely more than n edges.
        assert result.num_edges <= random_graph.num_vertices * 1.2

    def test_hopbound_estimate_positive(self, small_random_graph):
        result = build(small_random_graph, HOPSET).raw
        assert result.hopbound_estimate >= 1

    def test_union_helper_on_result(self, small_random_graph):
        result = build(small_random_graph, HOPSET).raw
        union = result.union(small_random_graph)
        assert union.num_vertices == small_random_graph.num_vertices
        assert union.num_edges >= small_random_graph.num_edges


class TestVerifyAndMeasure:
    def test_verify_hopset_accepts_generous_budget(self, small_random_graph):
        result = build(small_random_graph, HOPSET).raw
        valid, excess = verify_hopset(
            small_random_graph,
            result.hopset,
            hopbound=small_random_graph.num_vertices,
            alpha=result.alpha,
            beta=result.beta,
        )
        assert valid
        assert excess <= 0

    def test_verify_hopset_rejects_zero_budget_guaranteeless_pairing(self, path10):
        # With hopbound 1 and no hopset edges, distant pairs are unreachable,
        # so the (1, 0) guarantee cannot hold.
        empty = WeightedGraph(10)
        valid, excess = verify_hopset(path10, empty, hopbound=1, alpha=1.0, beta=0.0)
        assert not valid
        assert excess > 0

    def test_measured_hopbound_at_most_graph_diameter(self, grid6x6):
        result = build(grid6x6, HOPSET).raw
        measured = measured_hopbound(
            grid6x6, result.hopset, result.alpha, result.beta, sample_pairs=None
        )
        exact = exact_hopbound(grid6x6, result.hopset, sample_pairs=None)
        diameter = 10  # 6x6 grid
        assert 1 <= measured <= diameter
        assert 1 <= exact <= diameter

    def test_exact_hopbound_is_at_least_guarantee_hopbound(self, grid6x6):
        # Matching the full union distance is a stricter requirement than
        # meeting the (alpha, beta) guarantee, so it needs at least as many hops.
        result = build(grid6x6, HOPSET).raw
        guarantee = measured_hopbound(
            grid6x6, result.hopset, result.alpha, result.beta, sample_pairs=None
        )
        exact = exact_hopbound(grid6x6, result.hopset, sample_pairs=None)
        assert exact >= guarantee

    def test_exact_hopbound_one_on_a_clique(self, clique8):
        result = build(clique8, HOPSET).raw
        assert exact_hopbound(clique8, result.hopset, sample_pairs=None) == 1

    def test_verify_raises_on_undershooting_hopset(self, path10):
        # A hopset edge lighter than the graph distance must be caught.
        cheating = WeightedGraph(10)
        cheating.add_edge(0, 9, 1.0)
        with pytest.raises(AssertionError):
            verify_hopset(path10, cheating, hopbound=10, alpha=10.0, beta=100.0)

    def test_star_graph_needs_two_hops(self, star20):
        result = build(star20, HOPSET).raw
        # Leaf-to-leaf distances are 2 and the hopset cannot beat 2 hops
        # unless it contains a direct leaf-leaf edge of weight 2; either way
        # the exact hopbound is at most 2.
        assert exact_hopbound(star20, result.hopset, sample_pairs=None) <= 2
