"""Tests for the lollipop, Watts–Strogatz and complete-bipartite generators."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.graphs import generators
from repro.graphs.shortest_paths import diameter


class TestLollipop:
    def test_vertex_and_edge_counts(self):
        g = generators.lollipop_graph(5, 4)
        assert g.num_vertices == 9
        assert g.num_edges == 5 * 4 // 2 + 4

    def test_is_connected_with_long_diameter(self):
        g = generators.lollipop_graph(6, 10)
        assert g.is_connected()
        assert diameter(g) >= 10

    def test_zero_length_stick_is_a_clique(self):
        g = generators.lollipop_graph(4, 0)
        assert g.num_edges == 6

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generators.lollipop_graph(0, 3)
        with pytest.raises(ValueError):
            generators.lollipop_graph(3, -1)

    def test_emulator_size_bound_holds_on_lollipop(self):
        g = generators.lollipop_graph(12, 20)
        result = build(g, BuildSpec(product="emulator", eps=0.1, kappa=4.0)).raw
        assert result.within_size_bound()


class TestWattsStrogatz:
    def test_no_rewiring_is_a_ring_lattice(self):
        g = generators.watts_strogatz(20, 4, p=0.0, seed=1)
        assert g.num_edges == 20 * 2
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_rewiring_preserves_edge_count(self):
        g = generators.watts_strogatz(30, 4, p=0.5, seed=7)
        assert g.num_edges == 30 * 2

    def test_deterministic_given_seed(self):
        a = generators.watts_strogatz(24, 4, p=0.3, seed=5)
        b = generators.watts_strogatz(24, 4, p=0.3, seed=5)
        assert a == b

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generators.watts_strogatz(10, 1, p=0.1)
        with pytest.raises(ValueError):
            generators.watts_strogatz(10, 4, p=1.5)

    def test_full_rewiring_keeps_simple_graph(self):
        g = generators.watts_strogatz(16, 4, p=1.0, seed=3)
        # Simple graph: no vertex exceeds n-1 neighbors and the count is stable.
        assert g.num_edges == 16 * 2
        assert all(g.degree(v) <= 15 for v in g.vertices())


class TestCompleteBipartite:
    def test_counts(self):
        g = generators.complete_bipartite_graph(3, 4)
        assert g.num_vertices == 7
        assert g.num_edges == 12

    def test_no_edges_within_a_part(self):
        g = generators.complete_bipartite_graph(3, 4)
        assert not any(g.has_edge(u, v) for u in range(3) for v in range(3) if u != v)
        assert not any(
            g.has_edge(u, v) for u in range(3, 7) for v in range(3, 7) if u != v
        )

    def test_degenerate_parts(self):
        assert generators.complete_bipartite_graph(0, 5).num_edges == 0
        with pytest.raises(ValueError):
            generators.complete_bipartite_graph(-1, 2)

    def test_emulator_on_star_like_bipartite(self):
        # K_{1,r} is the star; K_{2,r} stresses the popular-cluster logic.
        g = generators.complete_bipartite_graph(2, 30)
        result = build(g, BuildSpec(product="emulator", eps=0.1, kappa=4.0)).raw
        assert result.within_size_bound()
