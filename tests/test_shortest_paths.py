"""Unit tests for BFS / Dijkstra helpers on unweighted graphs."""

from __future__ import annotations

import pytest

from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import (
    all_pairs_shortest_paths,
    bfs_distances,
    bfs_tree,
    bounded_bfs,
    bounded_dijkstra,
    diameter,
    dijkstra,
    eccentricity,
    multi_source_bfs,
)


class TestBfsDistances:
    def test_path(self, path10):
        dist = bfs_distances(path10, 0)
        assert dist[9] == 9
        assert dist[0] == 0

    def test_cycle(self, cycle12):
        dist = bfs_distances(cycle12, 0)
        assert dist[6] == 6
        assert dist[11] == 1

    def test_disconnected(self, disconnected_graph):
        dist = bfs_distances(disconnected_graph, 0)
        assert 7 not in dist
        assert dist[4] == 4

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            bfs_distances(Graph(3), 7)

    def test_matches_networkx(self, random_graph):
        import networkx as nx

        nx_dist = nx.single_source_shortest_path_length(random_graph.to_networkx(), 0)
        assert bfs_distances(random_graph, 0) == dict(nx_dist)


class TestBoundedBfs:
    def test_radius_zero(self, path10):
        assert bounded_bfs(path10, 3, 0) == {3: 0}

    def test_radius_two(self, path10):
        dist = bounded_bfs(path10, 5, 2)
        assert set(dist) == {3, 4, 5, 6, 7}

    def test_float_radius(self, path10):
        dist = bounded_bfs(path10, 0, 2.5)
        assert set(dist) == {0, 1, 2}

    def test_unbounded_matches_full(self, grid6x6):
        assert bounded_bfs(grid6x6, 0, None) == bfs_distances(grid6x6, 0)

    def test_bounded_dijkstra_alias(self, grid6x6):
        assert bounded_dijkstra(grid6x6, 0, 3) == bounded_bfs(grid6x6, 0, 3)


class TestBfsTree:
    def test_parents_are_closer(self, grid6x6):
        parent = bfs_tree(grid6x6, 0)
        dist = bfs_distances(grid6x6, 0)
        for v, p in parent.items():
            if v != 0:
                assert dist[p] == dist[v] - 1

    def test_root_maps_to_itself(self, path10):
        assert bfs_tree(path10, 4)[4] == 4

    def test_radius_limits_tree(self, path10):
        parent = bfs_tree(path10, 0, radius=3)
        assert set(parent) == {0, 1, 2, 3}

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            bfs_tree(Graph(2), 9)

    @pytest.mark.parametrize("radius", [2.5, 0, 0.5, float("inf")])
    def test_radius_handled_like_bounded_bfs(self, path10, radius):
        assert set(bfs_tree(path10, 0, radius)) == set(bounded_bfs(path10, 0, radius))

    @pytest.mark.parametrize("radius", [-1, -0.5, float("-inf")])
    def test_negative_radius_rejected_like_bounded_bfs(self, path10, radius):
        with pytest.raises(ValueError):
            bounded_bfs(path10, 0, radius)
        with pytest.raises(ValueError):
            bfs_tree(path10, 0, radius)


class TestMultiSourceBfs:
    def test_single_source_matches(self, grid6x6):
        dist, origin = multi_source_bfs(grid6x6, [0])
        assert dist == bfs_distances(grid6x6, 0)
        assert set(origin.values()) == {0}

    def test_two_sources(self, path10):
        dist, origin = multi_source_bfs(path10, [0, 9])
        assert dist[4] == 4
        assert dist[5] == 4
        assert origin[2] == 0
        assert origin[7] == 9

    def test_tie_breaks_to_smaller_source(self, path10):
        _, origin = multi_source_bfs(path10, [0, 8])
        assert origin[4] == 0  # distance 4 from both 0 and 8

    def test_radius(self, path10):
        dist, origin = multi_source_bfs(path10, [0], radius=2)
        assert set(dist) == {0, 1, 2}
        assert set(origin) == {0, 1, 2}

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            multi_source_bfs(Graph(2), [5])


class TestDijkstra:
    def test_unweighted_matches_bfs(self, random_graph):
        d1 = dijkstra(random_graph, 0)
        d2 = bfs_distances(random_graph, 0)
        assert d1 == {v: float(d) for v, d in d2.items()}

    def test_weight_overrides(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        dist = dijkstra(g, 0, weights={(0, 2): 10.0})
        assert dist[2] == 2.0

    def test_invalid_source(self):
        with pytest.raises(ValueError):
            dijkstra(Graph(2), 4)


class TestApspAndDiameter:
    def test_apsp_symmetry(self, small_random_graph):
        apsp = all_pairs_shortest_paths(small_random_graph)
        for u in range(small_random_graph.num_vertices):
            for v, d in apsp[u].items():
                assert apsp[v][u] == d

    def test_eccentricity_path(self, path10):
        assert eccentricity(path10, 0) == 9
        assert eccentricity(path10, 5) == 5

    def test_diameter_path(self, path10):
        assert diameter(path10) == 9

    def test_diameter_cycle(self, cycle12):
        assert diameter(cycle12) == 6

    def test_diameter_disconnected_uses_largest_component(self, disconnected_graph):
        assert diameter(disconnected_graph) == 4

    def test_diameter_empty(self):
        assert diameter(Graph(0)) == 0

    def test_diameter_matches_networkx(self, random_graph):
        import networkx as nx

        assert diameter(random_graph) == nx.diameter(random_graph.to_networkx())
