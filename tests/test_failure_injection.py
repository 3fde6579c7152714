"""Failure-injection and defensive-behaviour tests.

The library is meant to be embedded in larger pipelines, so misuse must fail
loudly and early: malformed graphs, mismatched schedules, bandwidth
violations in hand-written CONGEST programs, and corrupted emulator files
must all raise clear errors rather than silently producing wrong structures.
"""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_emulator
from repro.congest.network import BandwidthViolation, SynchronousNetwork
from repro.core.clusters import Cluster, Partition
from repro.core.emulator import UltraSparseEmulatorBuilder
from repro.core.parameters import CentralizedSchedule, DistributedSchedule
from repro.graphs import generators, io
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph


EMULATOR = BuildSpec(product="emulator", eps=0.1, kappa=4)


class TestMalformedInputs:
    def test_graph_rejects_bad_vertices(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)
        with pytest.raises(ValueError):
            g.neighbors(7)

    def test_weighted_graph_rejects_bad_weight(self):
        h = WeightedGraph(3)
        with pytest.raises(ValueError):
            h.add_edge(0, 1, -2.0)

    def test_schedule_rejects_nonsense(self):
        with pytest.raises(ValueError):
            CentralizedSchedule(n=10, eps=0.1, kappa=0.5)
        with pytest.raises(ValueError):
            DistributedSchedule(n=10, eps=0.1, kappa=4, rho=0.9)

    def test_builder_rejects_mismatched_schedule(self):
        graph = generators.path_graph(10)
        with pytest.raises(ValueError):
            UltraSparseEmulatorBuilder(graph, schedule=CentralizedSchedule(n=11, eps=0.1, kappa=4))

    def test_corrupted_emulator_file_detected(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("4 2\n0 1 1.0\n")  # header claims 2 edges, file has 1
        with pytest.raises(ValueError):
            io.read_weighted_edge_list(path)

    def test_validator_rejects_vertex_mismatch(self):
        graph = generators.path_graph(6)
        with pytest.raises(ValueError):
            verify_emulator(graph, WeightedGraph(7), 1.0, 1.0)


class TestPartitionMisuse:
    def test_overlapping_clusters_rejected(self):
        partition = Partition([Cluster(center=0, members={0, 1})])
        with pytest.raises(ValueError):
            partition.add(Cluster(center=2, members={1, 2}))

    def test_validate_disjoint_catches_corruption(self):
        partition = Partition([Cluster(center=0, members={0, 1})])
        # Corrupt the internal arrays deliberately (simulating a buggy
        # caller): list vertex 1, a member of 0's cluster, as a second center.
        partition._centers.append(1)  # type: ignore[attr-defined]
        with pytest.raises(AssertionError, match="overlap on vertex 1"):
            partition.validate_disjoint()


class TestBandwidthViolations:
    def test_double_send_raises_in_strict_mode(self):
        net = SynchronousNetwork(generators.path_graph(4))
        net.send(1, 2, (1,))
        with pytest.raises(BandwidthViolation):
            net.send(1, 2, (2,))

    def test_fat_payload_raises(self):
        net = SynchronousNetwork(generators.path_graph(4))
        with pytest.raises(BandwidthViolation):
            net.send(0, 1, (1, 2, 3, 4, 5, 6))

    def test_non_strict_mode_continues(self):
        net = SynchronousNetwork(generators.path_graph(4), strict=False)
        net.send(1, 2, (1,))
        net.send(1, 2, (2,))
        net.send(1, 2, (3,))
        assert net.bandwidth_violations == 2
        assert len(net.deliver()[2]) == 1


class TestDegenerateGraphs:
    def test_emulator_on_edgeless_graph(self):
        result = build(Graph(25), EMULATOR).raw
        assert result.num_edges == 0
        assert result.within_size_bound()

    def test_emulator_on_two_vertices(self):
        result = build(Graph(2, [(0, 1)]), EMULATOR.replace(kappa=2)).raw
        assert result.num_edges <= 2
        report = verify_emulator(Graph(2, [(0, 1)]), result.emulator,
                                 result.alpha, result.beta)
        assert report.valid

    def test_emulator_on_many_isolated_vertices_plus_clique(self):
        g = Graph(30)
        for i in range(5):
            for j in range(i + 1, 5):
                g.add_edge(i, j)
        result = build(g, EMULATOR).raw
        assert result.within_size_bound()
        report = verify_emulator(g, result.emulator, result.alpha, result.beta)
        assert report.valid

    def test_spanner_on_edgeless_graph(self):
        result = build(Graph(10), BuildSpec(product="spanner", eps=0.01, kappa=4, rho=0.45)).raw
        assert result.num_edges == 0

    def test_congest_on_single_edge(self):
        spec = BuildSpec(product="emulator", method="congest", eps=0.01, kappa=4, rho=0.45)
        result = build(Graph(2, [(0, 1)]), spec).raw
        assert result.num_edges <= 2
        assert result.both_endpoints_know_all_edges()
