"""Tests for the distributed CONGEST emulator construction (Section 3)."""

from __future__ import annotations

from array import array

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_emulator, verify_no_shortening
from repro.congest.bellman_ford import detect_popular_clusters
from repro.core.emulator import PhaseStats
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


def test_a_center_cannot_join_two_superclusters():
    # Task 3 writes each superclustered center's host once; a center that
    # already has a host (here: the smallest popular center, which some
    # ruling tree spans) makes the step raise instead of overwriting it.
    graph = generators.grid_graph(12, 12)
    builder = DistributedEmulatorBuilder(graph)
    schedule, n = builder.schedule, graph.num_vertices
    centers = list(range(n))
    detection = detect_popular_clusters(
        graph, centers, schedule.degree(0), schedule.delta(0), net=builder.net)
    host = array("l", [-1]) * n
    offset = array("d", bytes(8 * n))
    victim = min(detection.popular)
    host[victim] = victim
    stats = PhaseStats(phase=0, num_clusters=n, delta=schedule.delta(0),
                       degree_threshold=schedule.degree(0))
    with pytest.raises(AssertionError, match=f"center {victim} joins the superclusters"):
        builder._superclustering_step(0, centers, detection.popular, host, offset, stats)


def test_a_non_center_hub_splits_its_announcements_into_superclusters(monkeypatch):
    # Root center 0 -- non-center hub 1 -- centers 2..64 at depth 2, and
    # centers 66, 67 at depth 3 behind the non-center relay 65.  The hub
    # receives 65 announcements, past ``hub_cap``, so Task 3 splits them
    # into superclusters at the hub, each headed by a representative.
    leaves, relay, deep = list(range(2, 65)), 65, [66, 67]
    n = 68
    graph = Graph(n)
    graph.add_edge(0, 1)
    graph.add_edge(1, relay)
    for center in leaves:
        graph.add_edge(1, center)
    for center in deep:
        graph.add_edge(relay, center)
    builder = DistributedEmulatorBuilder(graph)
    schedule = builder.schedule
    deg = int(schedule.degree(0))
    assert len(leaves) + len(deep) >= 2 * deg + 2  # reaches hub_cap

    groups = []
    split = DistributedEmulatorBuilder._split_hub_batch

    def recording(batch, degree_threshold):
        result = split(batch, degree_threshold)
        groups.extend(result)
        return result

    monkeypatch.setattr(DistributedEmulatorBuilder, "_split_hub_batch",
                        staticmethod(recording))
    host = array("l", [-1]) * n
    offset = array("d", bytes(8 * n))
    stats = PhaseStats(phase=0, num_clusters=n, delta=schedule.delta(0),
                       degree_threshold=schedule.degree(0))
    builder._superclustering_step(0, [0] + leaves + deep, {0}, host, offset, stats)

    assert len(groups) >= 2
    for group in groups:
        assert 2 * deg + 2 <= len(group) <= 6 * deg + 6
    # Every spanned center joins exactly one supercluster: the root its
    # own, every other center exactly one of the hub's groups.
    assert sorted(c for group in groups for c, _ in group) == leaves + deep
    assert host[0] == 0 and offset[0] == 0.0
    hub_depth = 1
    for group in groups:
        representative, rep_depth = min(group)
        assert host[representative] == representative
        assert offset[representative] == 0.0
        for center, depth in group:
            if center != representative:
                assert host[center] == representative
                assert offset[center] == (depth - hub_depth) + (rep_depth - hub_depth)
    assert {offset[c] for c in deep} == {3.0}  # via the hub from depth 3
