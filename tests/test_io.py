"""Unit tests for edge-list I/O."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.graphs import generators, io
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph


class TestUnweightedIo:
    def test_roundtrip(self, tmp_path):
        g = generators.connected_erdos_renyi(30, 0.1, seed=1)
        path = tmp_path / "graph.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path)
        assert back == g

    def test_empty_graph_roundtrip(self, tmp_path):
        g = Graph(5)
        path = tmp_path / "empty.txt"
        io.write_edge_list(g, path)
        back = io.read_edge_list(path)
        assert back.num_vertices == 5
        assert back.num_edges == 0

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n\n# comment\n0 2\n")
        g = io.read_edge_list(path)
        assert g.has_edge(0, 2)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1\n")
        with pytest.raises(ValueError):
            io.read_edge_list(path)

    def test_malformed_edge_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 1 2\n")
        with pytest.raises(ValueError):
            io.read_edge_list(path)

    def test_edge_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError):
            io.read_edge_list(path)


class TestWeightedIo:
    def test_roundtrip(self, tmp_path):
        g = WeightedGraph(4, [(0, 1, 2.0), (1, 3, 5.5)])
        path = tmp_path / "weighted.txt"
        io.write_weighted_edge_list(g, path)
        back = io.read_weighted_edge_list(path)
        assert back.num_edges == 2
        assert back.weight(0, 1) == 2.0
        assert back.weight(1, 3) == 5.5

    def test_integer_weights_written_as_ints(self, tmp_path):
        g = WeightedGraph(2, [(0, 1, 3.0)])
        path = tmp_path / "w.txt"
        io.write_weighted_edge_list(g, path)
        assert "0 1 3\n" in path.read_text()

    def test_malformed_weighted_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 1\n")
        with pytest.raises(ValueError):
            io.read_weighted_edge_list(path)

    def test_weighted_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n0 1 1.0\n")
        with pytest.raises(ValueError):
            io.read_weighted_edge_list(path)

    def test_emulator_roundtrip(self, tmp_path, small_random_graph):
        result = build(small_random_graph, BuildSpec(product="emulator", eps=0.1, kappa=4)).raw
        path = tmp_path / "emulator.txt"
        io.write_weighted_edge_list(result.emulator, path)
        back = io.read_weighted_edge_list(path)
        assert back.num_edges == result.emulator.num_edges
        assert back.total_weight() == pytest.approx(result.emulator.total_weight())
