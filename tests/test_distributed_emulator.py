"""Tests for the distributed CONGEST emulator construction (Section 3)."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_emulator, verify_no_shortening
from repro.core.parameters import DistributedSchedule, size_bound
from repro.distributed.emulator_congest import (
    DistributedEmulatorBuilder,
)
from repro.graphs import generators
from repro.graphs.graph import Graph


CONGEST_EMULATOR = BuildSpec(product="emulator", method="congest", eps=0.01, kappa=4, rho=0.45)


@pytest.fixture(scope="module")
def congest_result():
    """One shared construction on a 60-vertex random graph (module-scoped for speed)."""
    graph = generators.connected_erdos_renyi(60, 0.08, seed=11)
    return graph, build(graph, CONGEST_EMULATOR).raw


class TestSizeAndStretch:
    def test_within_size_bound(self, congest_result):
        graph, result = congest_result
        assert result.num_edges <= size_bound(graph.num_vertices, 4) + 1e-9

    def test_stretch_guarantee(self, congest_result):
        graph, result = congest_result
        report = verify_emulator(graph, result.emulator,
                                 result.schedule.alpha, result.schedule.beta)
        assert report.valid

    def test_no_shortening(self, congest_result):
        graph, result = congest_result
        assert verify_no_shortening(graph, result.emulator, sample_pairs=None)

    def test_small_grid(self):
        graph = generators.grid_graph(6, 6)
        result = build(graph, CONGEST_EMULATOR).raw
        assert result.num_edges <= size_bound(36, 4) + 1e-9
        report = verify_emulator(graph, result.emulator,
                                 result.schedule.alpha, result.schedule.beta)
        assert report.valid

    def test_star_graph(self):
        graph = generators.star_graph(30)
        result = build(graph, CONGEST_EMULATOR).raw
        assert result.num_edges <= size_bound(30, 4) + 1e-9
        report = verify_emulator(graph, result.emulator,
                                 result.schedule.alpha, result.schedule.beta)
        assert report.valid

    def test_ring_of_cliques(self):
        graph = generators.ring_of_cliques(5, 6)
        result = build(graph, CONGEST_EMULATOR.replace(kappa=3, rho=0.4)).raw
        assert result.num_edges <= size_bound(30, 3) + 1e-9

    def test_empty_graph(self):
        result = build(Graph(5), CONGEST_EMULATOR).raw
        assert result.num_edges == 0

    def test_disconnected(self, disconnected_graph):
        result = build(disconnected_graph, CONGEST_EMULATOR).raw
        assert result.num_edges <= size_bound(10, 4) + 1e-9


class TestDistributedGuarantees:
    def test_both_endpoints_know_every_edge(self, congest_result):
        _, result = congest_result
        assert result.both_endpoints_know_all_edges()

    def test_rounds_positive_and_bounded(self, congest_result):
        _, result = congest_result
        assert result.rounds > 0
        # The ratio to the theoretical bound should be a modest constant.
        assert result.rounds <= 100 * result.round_bound

    def test_messages_positive(self, congest_result):
        _, result = congest_result
        assert result.messages > 0

    def test_charging_invariants(self, congest_result):
        _, result = congest_result
        degree_by_phase = {i: result.schedule.degree(i)
                           for i in range(result.schedule.num_phases)}
        result.ledger.verify_interconnection_budget(degree_by_phase)
        result.ledger.verify_superclustering_budget()
        result.ledger.verify_single_charging_phase()

    def test_phase_stats_cover_all_phases(self, congest_result):
        _, result = congest_result
        assert len(result.phase_stats) == result.schedule.num_phases

    def test_last_phase_no_superclustering(self, congest_result):
        _, result = congest_result
        assert result.phase_stats[-1].superclusters_formed == 0

    def test_knowledge_map_covers_all_vertices(self, congest_result):
        graph, result = congest_result
        assert set(result.knowledge) == set(graph.vertices())


class TestRulingSetModes:
    def test_bitwise_mode_also_valid(self):
        graph = generators.connected_erdos_renyi(40, 0.1, seed=5)
        spec = CONGEST_EMULATOR.replace(options={"ruling_set_mode": "bitwise"})
        result = build(graph, spec).raw
        assert result.num_edges <= size_bound(40, 4) + 1e-9
        assert verify_no_shortening(graph, result.emulator, sample_pairs=None)
        assert result.both_endpoints_know_all_edges()

    def test_unknown_mode_rejected(self, path10):
        with pytest.raises(ValueError):
            DistributedEmulatorBuilder(path10, ruling_set_mode="magic")

    def test_schedule_mismatch_rejected(self, path10):
        schedule = DistributedSchedule(n=99, eps=0.01, kappa=4, rho=0.45)
        with pytest.raises(ValueError):
            DistributedEmulatorBuilder(path10, schedule=schedule)


class TestAgreementWithCentralized:
    def test_same_size_bound_and_validity_across_rhos(self):
        graph = generators.connected_erdos_renyi(50, 0.08, seed=9)
        for rho in (0.3, 0.45):
            result = build(graph, CONGEST_EMULATOR.replace(rho=rho)).raw
            assert result.num_edges <= size_bound(50, 4) + 1e-9
            report = verify_emulator(graph, result.emulator,
                                     result.schedule.alpha, result.schedule.beta)
            assert report.valid

    def test_deterministic(self):
        graph = generators.connected_erdos_renyi(40, 0.1, seed=13)
        r1 = build(graph, CONGEST_EMULATOR).raw
        r2 = build(graph, CONGEST_EMULATOR).raw
        assert sorted(r1.emulator.edges()) == sorted(r2.emulator.edges())
        assert r1.rounds == r2.rounds
