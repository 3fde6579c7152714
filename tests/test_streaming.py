"""Tests for the semi-streaming substrate and constructions."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_spanner
from repro.applications.streaming import (
    EdgeStream,
    StreamingEmulatorBuilder,
    streaming_greedy_spanner,
)
from repro.graphs import generators


class TestEdgeStream:
    def test_stream_deduplicates_edges(self):
        stream = EdgeStream(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
        assert stream.num_edges == 2

    def test_stream_rejects_self_loops(self):
        with pytest.raises(ValueError):
            EdgeStream(4, [(1, 1)])

    def test_stream_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            EdgeStream(4, [(0, 7)])

    def test_each_iteration_counts_one_pass(self, random_graph):
        stream = EdgeStream.from_graph(random_graph)
        assert stream.passes == 0
        list(stream)
        list(stream)
        assert stream.passes == 2

    def test_to_graph_round_trips(self, random_graph):
        stream = EdgeStream.from_graph(random_graph)
        rebuilt = stream.to_graph()
        assert rebuilt == random_graph
        assert stream.passes == 1

    def test_from_graph_preserves_edge_count(self, grid6x6):
        stream = EdgeStream.from_graph(grid6x6)
        assert stream.num_edges == grid6x6.num_edges
        assert stream.num_vertices == grid6x6.num_vertices


class TestStreamingGreedySpanner:
    def test_single_pass(self, random_graph):
        stream = EdgeStream.from_graph(random_graph)
        _, stats = streaming_greedy_spanner(stream, k=2)
        assert stats.passes == 1

    def test_output_is_a_valid_multiplicative_spanner(self, random_graph):
        stream = EdgeStream.from_graph(random_graph)
        spanner, _ = streaming_greedy_spanner(stream, k=2)
        report = verify_spanner(random_graph, spanner, alpha=3.0, beta=0.0)
        assert report.valid

    def test_k1_keeps_every_edge(self, grid6x6):
        stream = EdgeStream.from_graph(grid6x6)
        spanner, stats = streaming_greedy_spanner(stream, k=1)
        assert spanner.num_edges == grid6x6.num_edges
        assert stats.output_edges == grid6x6.num_edges

    def test_larger_k_never_keeps_more_edges(self, random_graph):
        sizes = []
        for k in (1, 2, 3):
            stream = EdgeStream.from_graph(random_graph)
            spanner, _ = streaming_greedy_spanner(stream, k=k)
            sizes.append(spanner.num_edges)
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_invalid_k_rejected(self, path10):
        with pytest.raises(ValueError):
            streaming_greedy_spanner(EdgeStream.from_graph(path10), k=0)

    def test_tree_input_is_kept_verbatim(self):
        tree = generators.random_tree(40, seed=3)
        spanner, _ = streaming_greedy_spanner(EdgeStream.from_graph(tree), k=2)
        assert spanner.num_edges == tree.num_edges


class TestStreamingEmulatorBuilder:
    def test_emulator_matches_centralized_construction(self, small_random_graph):
        stream = EdgeStream.from_graph(small_random_graph)
        builder = StreamingEmulatorBuilder(stream, eps=0.1, kappa=4.0)
        result, _ = builder.build()
        spec = BuildSpec(product="emulator", schedule=builder.schedule)
        centralized = build(small_random_graph, spec).raw
        assert sorted(result.emulator.edges()) == sorted(centralized.emulator.edges())

    def test_one_pass_per_phase(self, small_random_graph):
        stream = EdgeStream.from_graph(small_random_graph)
        builder = StreamingEmulatorBuilder(stream, eps=0.1, kappa=4.0)
        _, stats = builder.build()
        assert stats.passes == builder.schedule.num_phases

    def test_peak_memory_accounts_for_graph_and_output(self, small_random_graph):
        stream = EdgeStream.from_graph(small_random_graph)
        result, stats = StreamingEmulatorBuilder(stream, eps=0.1, kappa=4.0).build()
        assert stats.peak_memory_edges >= small_random_graph.num_edges
        assert stats.output_edges == result.num_edges

    def test_size_bound_still_holds(self, small_random_graph):
        stream = EdgeStream.from_graph(small_random_graph)
        result, _ = StreamingEmulatorBuilder(stream, eps=0.1, kappa=4.0).build()
        assert result.within_size_bound()

    def test_ultra_sparse_default(self, random_graph):
        stream = EdgeStream.from_graph(random_graph)
        result, _ = StreamingEmulatorBuilder(stream, eps=0.1).build()
        assert result.num_edges <= random_graph.num_vertices * 1.2
