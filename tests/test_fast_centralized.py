"""Tests for the Section 3.3 fast centralized (ruling-set based) construction."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_emulator, verify_no_shortening
from repro.core.fast_centralized import FastCentralizedBuilder
from repro.core.parameters import DistributedSchedule, size_bound
from repro.graphs import generators
from repro.graphs.graph import Graph


FAST_EMULATOR = BuildSpec(product="emulator", method="fast", eps=0.01, kappa=4, rho=0.45)


class TestSizeBound:
    @pytest.mark.parametrize("kappa,rho", [(4, 0.3), (4, 0.45), (8, 0.2), (8, 0.45)])
    def test_random_graph_within_bound(self, random_graph, kappa, rho):
        result = build(random_graph, FAST_EMULATOR.replace(kappa=kappa, rho=rho)).raw
        assert result.num_edges <= size_bound(random_graph.num_vertices, kappa) + 1e-9

    def test_grid(self, grid6x6):
        result = build(grid6x6, FAST_EMULATOR).raw
        assert result.within_size_bound()

    def test_star(self, star20):
        result = build(star20, FAST_EMULATOR).raw
        assert result.within_size_bound()

    def test_ring_of_cliques(self):
        g = generators.ring_of_cliques(6, 8)
        result = build(g, FAST_EMULATOR).raw
        assert result.within_size_bound()

    def test_empty_graph(self):
        result = build(Graph(4), FAST_EMULATOR).raw
        assert result.num_edges == 0

    def test_disconnected(self, disconnected_graph):
        result = build(disconnected_graph, FAST_EMULATOR).raw
        assert result.within_size_bound()


class TestStretch:
    def test_guarantee_random(self, random_graph):
        result = build(random_graph, FAST_EMULATOR).raw
        report = verify_emulator(random_graph, result.emulator,
                                 result.schedule.alpha, result.schedule.beta)
        assert report.valid

    def test_guarantee_grid(self, grid6x6):
        result = build(grid6x6, FAST_EMULATOR).raw
        report = verify_emulator(grid6x6, result.emulator,
                                 result.schedule.alpha, result.schedule.beta)
        assert report.valid

    def test_never_shortens(self, random_graph):
        result = build(random_graph, FAST_EMULATOR).raw
        assert verify_no_shortening(random_graph, result.emulator, sample_pairs=None)

    def test_interconnection_weights_exact(self, small_random_graph):
        from repro.core.charging import EdgeKind
        from repro.graphs.shortest_paths import bfs_distances

        result = build(small_random_graph, FAST_EMULATOR).raw
        for charge in result.ledger.charges:
            if charge.kind is EdgeKind.INTERCONNECTION:
                u, v = charge.edge
                assert charge.weight == bfs_distances(small_random_graph, u)[v]


class TestStructureAndInvariants:
    def test_charging_invariants(self, random_graph):
        result = build(random_graph, FAST_EMULATOR).raw
        degree_by_phase = {i: result.schedule.degree(i)
                           for i in range(result.schedule.num_phases)}
        result.ledger.verify_interconnection_budget(degree_by_phase)
        result.ledger.verify_superclustering_budget()
        result.ledger.verify_single_charging_phase()

    def test_superclusters_large_enough(self, random_graph):
        # Lemma 3.5 consequence: each supercluster of P_{i+1} contains at
        # least deg_i + 1 clusters of P_i (no hub splitting centrally).
        result = build(random_graph, FAST_EMULATOR).raw
        for i in range(len(result.partitions) - 1):
            prev, nxt = result.partitions[i], result.partitions[i + 1]
            deg = result.schedule.degree(i)
            for cluster in nxt.clusters():
                count = sum(1 for pc in prev.clusters() if pc.members <= cluster.members)
                assert count >= deg + 1 - 1e-9

    def test_final_partition_empty(self, random_graph):
        result = build(random_graph, FAST_EMULATOR).raw
        assert result.partitions[-1].num_clusters == 0

    def test_radius_bounds(self, random_graph):
        result = build(random_graph, FAST_EMULATOR).raw
        for i, partition in enumerate(result.partitions[:-1]):
            if partition.num_clusters:
                assert partition.max_radius() <= result.schedule.radius_bound(i) + 1e-9

    def test_deterministic(self, random_graph):
        r1 = build(random_graph, FAST_EMULATOR).raw
        r2 = build(random_graph, FAST_EMULATOR).raw
        assert sorted(r1.emulator.edges()) == sorted(r2.emulator.edges())

    def test_schedule_mismatch_rejected(self, path10):
        schedule = DistributedSchedule(n=50, eps=0.01, kappa=4, rho=0.45)
        with pytest.raises(ValueError):
            FastCentralizedBuilder(path10, schedule=schedule)

    def test_matches_size_of_algorithm1_on_star(self, star20):
        fast = build(star20, FAST_EMULATOR).raw
        slow = build(star20, BuildSpec(product="emulator", eps=0.1, kappa=4)).raw
        # Both collapse the star into a single supercluster.
        assert fast.num_edges == slow.num_edges == star20.num_vertices - 1
