"""Tests for the deterministic ruling-set constructions."""

from __future__ import annotations

import math

import pytest

from repro.congest.network import SynchronousNetwork
from repro.congest.ruling_sets import (
    bitwise_ruling_set,
    greedy_ruling_set,
    verify_ruling_set,
)
from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances


class TestGreedyRulingSet:
    @pytest.mark.parametrize("separation", [2, 3, 5])
    def test_properties_on_random_graph(self, random_graph, separation):
        candidates = list(random_graph.vertices())
        result = greedy_ruling_set(random_graph, candidates, separation)
        assert verify_ruling_set(random_graph, candidates, result.members,
                                 separation, result.domination)

    def test_subset_candidates(self, grid6x6):
        candidates = [v for v in grid6x6.vertices() if v % 2 == 0]
        result = greedy_ruling_set(grid6x6, candidates, 3)
        assert result.members <= set(candidates)
        assert verify_ruling_set(grid6x6, candidates, result.members, 3, result.domination)

    def test_separation_one_selects_everything(self, path10):
        result = greedy_ruling_set(path10, list(path10.vertices()), 1)
        assert result.members == set(path10.vertices())

    def test_pairwise_distance_at_least_separation(self, random_graph):
        result = greedy_ruling_set(random_graph, list(random_graph.vertices()), 4)
        members = sorted(result.members)
        for i, u in enumerate(members):
            dist = bfs_distances(random_graph, u)
            for v in members[i + 1:]:
                assert dist.get(v, float("inf")) >= 4

    def test_domination_radius(self, random_graph):
        sep = 5
        result = greedy_ruling_set(random_graph, list(random_graph.vertices()), sep)
        assert result.domination == sep - 1

    def test_empty_candidates(self, path10):
        result = greedy_ruling_set(path10, [], 3)
        assert result.members == set()

    def test_single_candidate(self, path10):
        result = greedy_ruling_set(path10, [4], 3)
        assert result.members == {4}

    def test_round_charging(self, path10):
        net = SynchronousNetwork(path10)
        greedy_ruling_set(path10, list(path10.vertices()), 3, net=net, charged_rounds=12)
        assert net.charged_rounds == 12

    def test_default_round_charge(self, path10):
        net = SynchronousNetwork(path10)
        result = greedy_ruling_set(path10, list(path10.vertices()), 3, net=net)
        assert result.rounds == int(round(3 * math.ceil(math.log2(10))))

    def test_deterministic(self, random_graph):
        a = greedy_ruling_set(random_graph, list(random_graph.vertices()), 3)
        b = greedy_ruling_set(random_graph, list(random_graph.vertices()), 3)
        assert a.members == b.members


class TestBitwiseRulingSet:
    @pytest.mark.parametrize("separation", [2, 3, 4])
    def test_properties_centralized(self, random_graph, separation):
        candidates = list(random_graph.vertices())
        result = bitwise_ruling_set(random_graph, candidates, separation)
        assert verify_ruling_set(random_graph, candidates, result.members,
                                 separation, result.domination)

    def test_properties_on_simulator(self, grid6x6):
        net = SynchronousNetwork(grid6x6)
        candidates = list(grid6x6.vertices())
        result = bitwise_ruling_set(grid6x6, candidates, 3, net=net)
        assert verify_ruling_set(grid6x6, candidates, result.members, 3, result.domination)
        assert net.rounds_elapsed > 0

    def test_subset_candidates(self, grid6x6):
        candidates = [0, 7, 14, 21, 28, 35]
        result = bitwise_ruling_set(grid6x6, candidates, 4)
        assert result.members <= set(candidates)
        assert verify_ruling_set(grid6x6, candidates, result.members, 4, result.domination)

    def test_empty_candidates(self, path10):
        result = bitwise_ruling_set(path10, [], 3)
        assert result.members == set()

    def test_domination_weaker_than_greedy(self, random_graph):
        sep = 4
        greedy = greedy_ruling_set(random_graph, list(random_graph.vertices()), sep)
        bitwise = bitwise_ruling_set(random_graph, list(random_graph.vertices()), sep)
        assert bitwise.domination >= greedy.domination


class TestVerifyRulingSet:
    def test_rejects_non_subset(self, path10):
        assert not verify_ruling_set(path10, [0, 1], {5}, 2, 3)

    def test_rejects_too_close_members(self, path10):
        assert not verify_ruling_set(path10, list(range(10)), {0, 1}, 3, 9)

    def test_rejects_undominated_candidate(self, path10):
        assert not verify_ruling_set(path10, list(range(10)), {0}, 2, 3)

    def test_accepts_valid(self, path10):
        assert verify_ruling_set(path10, list(range(10)), {0, 5}, 4, 4)

    def test_empty_members_nonempty_candidates(self, path10):
        assert not verify_ruling_set(path10, [3], set(), 2, 2)


def test_bitwise_ruling_set_merge_explores_once_per_candidate(monkeypatch):
    """The merge sweep must not rerun one candidate's BFS per merged member."""
    from repro.congest import ruling_sets

    g = generators.gnm_random_graph(60, 90, seed=43)
    candidates = list(range(0, 60, 2))
    calls = []
    real = ruling_sets.bounded_bfs

    def counting(graph, source, radius):
        calls.append(source)
        return real(graph, source, radius)

    monkeypatch.setattr(ruling_sets, "bounded_bfs", counting)
    ruling_sets.bitwise_ruling_set(g, candidates, 4.0)
    assert len(calls) == len(set(calls))  # one exploration per candidate
