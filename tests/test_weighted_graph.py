"""Unit tests for the weighted graph (emulator container)."""

from __future__ import annotations

import pytest

from repro.graphs.weighted_graph import WeightedGraph


class TestConstruction:
    def test_empty(self):
        g = WeightedGraph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_with_edges(self):
        g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.num_edges == 2
        assert g.weight(0, 1) == 2.0

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            WeightedGraph(-2)


class TestEdges:
    def test_add_edge(self):
        g = WeightedGraph(3)
        assert g.add_edge(0, 1, 5.0) is True
        assert g.weight(1, 0) == 5.0

    def test_duplicate_keeps_minimum(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 5.0)
        assert g.add_edge(0, 1, 3.0) is False
        assert g.weight(0, 1) == 3.0
        assert g.num_edges == 1

    def test_duplicate_larger_weight_ignored(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 1, 9.0)
        assert g.weight(0, 1) == 2.0

    def test_self_loop_rejected(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError):
            g.add_edge(2, 2, 1.0)

    def test_nonpositive_weight_rejected(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    def test_remove_edge(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        assert g.remove_edge(0, 1) is True
        assert g.num_edges == 0
        assert g.remove_edge(0, 1) is False

    def test_weight_missing_edge(self):
        g = WeightedGraph(3)
        with pytest.raises(KeyError):
            g.weight(0, 1)

    def test_edges_iteration(self):
        g = WeightedGraph(4, [(2, 0, 1.5), (1, 3, 2.5)])
        edges = sorted(g.edges())
        assert edges == [(0, 2, 1.5), (1, 3, 2.5)]

    def test_total_weight(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.5)])
        assert g.total_weight() == pytest.approx(3.5)

    def test_degree(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1


class TestAddEdges:
    ROWS = [(0, 1, 5.0), (2, 1, 2.0), (1, 0, 3.0), (0, 1, 4.0), (3, 2, 1.0, "extra")]

    def test_matches_per_edge_insertion(self):
        bulk, single = WeightedGraph(4), WeightedGraph(4)
        assert bulk.add_edges(self.ROWS) == 3
        for u, v, w, *_ in self.ROWS:
            single.add_edge(u, v, w)
        assert list(bulk.edges()) == list(single.edges())
        assert [bulk.neighbors(u) for u in range(4)] == [single.neighbors(u) for u in range(4)]

    def test_duplicates_keep_minimum_and_count_exactly(self):
        g = WeightedGraph(4, [(0, 1, 2.5)])
        assert g.add_edges(self.ROWS) == 2
        assert g.weight(0, 1) == 2.5  # the existing edge was already lighter
        assert g.weight(1, 2) == 2.0
        assert g.num_edges == 3

    def test_invalidates_the_csr_snapshot(self):
        g = WeightedGraph(4, [(0, 1, 1.0)])
        before = g.csr()
        g.add_edges([(2, 3, 1.0)])
        assert g.csr() is not before
        assert g.dijkstra(2) == {2: 0.0, 3: 1.0}

    @pytest.mark.parametrize("bad, message", [
        ((2, 2, 1.0), "self-loops"),
        ((0, 2, 0.0), "must be positive"),
        ((0, 2, -1.0), "must be positive"),
        ((0, 4, 1.0), "out of range"),
        ((-1, 2, 1.0), "out of range"),
    ])
    def test_bad_row_raises_before_mutating(self, bad, message):
        g = WeightedGraph(4, [(0, 1, 2.0)])
        with pytest.raises(ValueError, match=message) as bulk_error:
            g.add_edges([(1, 2, 1.0), (0, 1, 1.0), bad])
        with pytest.raises(ValueError) as single_error:
            WeightedGraph(4).add_edge(*bad)
        assert str(bulk_error.value) == str(single_error.value)
        assert list(g.edges()) == [(0, 1, 2.0)]
        assert g.num_edges == 1


class TestDijkstra:
    def test_path_distances(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        dist = g.dijkstra(0)
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0}

    def test_shortcut_preferred(self):
        g = WeightedGraph(3, [(0, 1, 10.0), (0, 2, 1.0), (2, 1, 1.0)])
        assert g.distance(0, 1) == 2.0

    def test_bounded_dijkstra(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
        dist = g.dijkstra(0, max_distance=2.0)
        assert 2 not in dist
        assert dist[1] == 1.0

    def test_distance_disconnected(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        assert g.distance(0, 2) == float("inf")

    def test_distance_to_self(self):
        g = WeightedGraph(3)
        assert g.distance(1, 1) == 0.0

    def test_distances_from_alias(self):
        g = WeightedGraph(3, [(0, 1, 4.0)])
        assert g.distances_from(0) == g.dijkstra(0)

    def test_dijkstra_invalid_source(self):
        g = WeightedGraph(2)
        with pytest.raises(ValueError):
            g.dijkstra(5)


class TestMisc:
    def test_copy_independent(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        h = g.copy()
        h.add_edge(1, 2, 2.0)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_to_networkx(self):
        g = WeightedGraph(3, [(0, 1, 2.0)])
        nx_graph = g.to_networkx()
        assert nx_graph[0][1]["weight"] == 2.0

    def test_len_and_repr(self):
        g = WeightedGraph(5, [(0, 1, 1.0)])
        assert len(g) == 5
        assert "m=1" in repr(g)
