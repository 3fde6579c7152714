"""Algorithm 1 against a plain dict-and-set transliteration of the paper.

The reference below reads the pseudocode of Section 2 (Algorithm 1) line
by line: per-center BFS balls as dicts, ``S`` and ``N_i`` as a set and a
dict, clusters as member sets.  It shares no code with the builder beyond
the input graph and the schedule, so the builder's CSR rows, state bytes
and numpy masks must reproduce its ledger rows in order, ``H``, the
partitions ``P_i``, the sets ``U_i`` and the phase statistics exactly.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.emulator import UltraSparseEmulatorBuilder
from repro.core.parameters import CentralizedSchedule, ultra_sparse_kappa
from repro.graphs import generators
from repro.graphs.graph import Graph


class FixedSchedule:
    """A schedule with the given per-phase ``delta_i`` and ``deg_i``.

    Not the paper's schedule: it lets a test pick radii the canonical one
    never takes (``delta_0`` is always 1 and ``delta_1`` at least 5).
    """

    def __init__(self, n, deltas, degrees):
        self.n = n
        self.deltas = list(deltas)
        self.degrees = list(degrees)
        self.ell = len(self.deltas) - 1
        self.num_phases = len(self.deltas)

    def delta(self, phase):
        return self.deltas[phase]

    def degree(self, phase):
        return self.degrees[phase]


def _ball(adjacency, source, radius):
    """``vertex -> distance`` for every vertex within ``radius`` of ``source``."""
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth + 1 <= radius:
        depth += 1
        reached = []
        for u in frontier:
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = depth
                    reached.append(w)
        frontier = reached
    return dist


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def reference_algorithm1(graph, schedule):
    """Algorithm 1 as plain Python: ``(ledger, h_edges, partitions, unclustered, stats)``.

    ``ledger`` lists ``(phase, (u, v), weight, charged_to, kind)`` with
    ``u < v``, in the order the edges are added; ``h_edges`` maps each
    such pair to its lightest weight, in first-insertion order;
    ``partitions`` lists each ``P_i`` as ``(center, sorted members,
    radius, phase)`` rows by center; ``unclustered`` maps each phase to ``U_i``'s centers in the
    order they were considered; ``stats`` holds each phase's counters.
    """
    n = graph.num_vertices
    adjacency = [sorted(graph.neighbors(v)) for v in range(n)]
    # center -> (members, radius, phase created)
    clusters = {v: ({v}, 0.0, 0) for v in range(n)}
    ledger, unclustered, stats = [], {}, []
    partitions = [clusters]
    for phase in range(schedule.num_phases):
        delta, degree = schedule.delta(phase), schedule.degree(phase)
        superclustering = phase != schedule.ell
        phase_stats = dict(phase=phase, num_clusters=len(clusters), delta=delta,
                           degree_threshold=degree, popular_centers=0, unpopular_centers=0,
                           superclusters_formed=0, buffered_centers=0,
                           interconnection_edges=0, superclustering_edges=0)
        in_s = set(clusters)
        buffered = {}  # N_i: center -> (host of record, distance)
        joins = {}  # center -> (host, distance) of the supercluster it joins
        unclustered[phase] = []
        for center in sorted(clusters):
            if center not in in_s:
                continue
            in_s.discard(center)
            ball = _ball(adjacency, center, delta)
            neighbors = sorted(c for c in ball if c in in_s or c in buffered)
            if not superclustering or len(neighbors) < degree:
                for c in neighbors:
                    ledger.append(
                        (phase, _pair(center, c), float(ball[c]), center, "interconnection"))
                phase_stats["interconnection_edges"] += len(neighbors)
                phase_stats["unpopular_centers"] += 1
                unclustered[phase].append(center)
                continue
            phase_stats["popular_centers"] += 1
            phase_stats["superclusters_formed"] += 1
            joins[center] = (center, 0.0)
            for c in neighbors:
                ledger.append((phase, _pair(center, c), float(ball[c]), c, "superclustering"))
                joins[c] = (center, float(ball[c]))
                in_s.discard(c)
                buffered.pop(c, None)
            phase_stats["superclustering_edges"] += len(neighbors)
            wide = _ball(adjacency, center, 2 * delta)
            for c in sorted(wide):
                if c in in_s:
                    in_s.discard(c)
                    buffered[c] = (center, float(wide[c]))
                    phase_stats["buffered_centers"] += 1
        for c in sorted(buffered):
            host, d = buffered[c]
            ledger.append((phase, _pair(host, c), d, c, "superclustering"))
            joins[c] = (host, d)
        phase_stats["superclustering_edges"] += len(buffered)
        superclusters = {}
        for c, (host, d) in sorted(joins.items()):
            members, radius, _ = superclusters.get(host, (set(), 0.0, phase + 1))
            superclusters[host] = (members | clusters[c][0],
                                   max(radius, d + clusters[c][1]), phase + 1)
        clusters = superclusters
        partitions.append(clusters)
        stats.append(phase_stats)
    h_edges = {}
    for _, pair, weight, _, _ in ledger:
        h_edges[pair] = min(weight, h_edges.get(pair, weight))
    rows = [[(c, sorted(members), radius, created)
             for c, (members, radius, created) in sorted(p.items())] for p in partitions]
    return ledger, h_edges, rows, unclustered, stats


def assert_matches_reference(graph, schedule):
    result = UltraSparseEmulatorBuilder(graph, schedule).build()
    ledger, h_edges, partitions, unclustered, stats = reference_algorithm1(graph, schedule)
    assert [(c.phase, c.edge, c.weight, c.charged_to, c.kind.value)
            for c in result.ledger.charges] == ledger
    # H lists its edges by smaller endpoint, first insertions first.
    by_u = sorted(h_edges.items(), key=lambda item: item[0][0])
    assert list(result.emulator.edges()) == [(u, v, w) for (u, v), w in by_u]
    assert [[(c.center, sorted(c.members), c.radius, c.phase_created) for c in p.clusters()]
            for p in result.partitions] == partitions
    assert result.unclustered_centers == unclustered
    assert [dataclasses.asdict(s) for s in result.phase_stats] == stats
    return result


def _two_components_and_isolated():
    """A 12-cycle, a 5-clique and three isolated vertices."""
    edges = [(v, (v + 1) % 12) for v in range(12)]
    edges += [(u, v) for u in range(12, 17) for v in range(u + 1, 17)]
    return Graph(20, edges)


GRAPHS = {
    "gnm": lambda: generators.gnm_random_graph(120, 300, seed=1),
    "sparse-gnm": lambda: generators.gnm_random_graph(150, 120, seed=2),  # isolated vertices
    "grid": lambda: generators.grid_graph(9, 11),
    "ring-of-cliques": lambda: generators.ring_of_cliques(10, 5),
    "path": lambda: generators.path_graph(60),
    "components": _two_components_and_isolated,
    "empty": lambda: Graph(7),
}

#: ``(deltas, degree exponents)``: radii 0 (delta 0.5, parked at 1), 1,
#: 2 (parked at 4) and deep (5, 7.3, unbounded), with degrees
#: ``n^exponent``.
FIXED = [
    ((0.5, 1.0, 2.0, 5.0), (0.2, 0.3, 0.5, 1.0)),
    ((1.0, 1.5, 2.0, 2.5), (0.25, 0.25, 0.5, 1.0)),
    ((2.0, 7.3, math.inf), (0.3, 0.5, 1.0)),
    ((0.4, 3.0), (0.1, 1.0)),
]


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("eps, kappa", [(0.1, 4), (0.5, 8), (1.0, 16), (0.3, 3), (0.1, None)])
def test_canonical_schedules_match_the_reference(family, eps, kappa):
    graph = GRAPHS[family]()
    n = max(1, graph.num_vertices)
    kappa = ultra_sparse_kappa(n) if kappa is None else kappa
    assert_matches_reference(graph, CentralizedSchedule(n=n, eps=eps, kappa=kappa))


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("deltas, exponents", FIXED)
def test_fixed_radii_match_the_reference(family, deltas, exponents):
    graph = GRAPHS[family]()
    n = max(1, graph.num_vertices)
    schedule = FixedSchedule(n, deltas, [n ** e for e in exponents])
    assert_matches_reference(graph, schedule)


def test_a_center_whose_only_live_neighbors_are_buffered():
    # 0 absorbs 1 and 2 and parks 3 (distance 2), so 4's only live neighbour
    # is the buffered 3.
    graph = Graph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
    for degree in (2, 1):  # 4 unpopular (interconnects with 3), then popular (absorbs it)
        result = assert_matches_reference(graph, FixedSchedule(5, [1.0, 6.0], [degree, 10]))
        stats = result.phase_stats[0]
        assert stats.buffered_centers == 1
        charges = [(c.edge, c.kind.value) for c in result.ledger.charges if c.phase == 0]
        kind = "interconnection" if degree == 2 else "superclustering"
        assert ((3, 4), kind) in charges


@st.composite
def graphs_and_schedules(draw):
    n = draw(st.integers(min_value=1, max_value=28))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = Graph(n, [e for e, k in zip(pairs, keep) if k])
    phases = draw(st.integers(min_value=1, max_value=4))
    deltas = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.3, math.inf]),
                           min_size=phases, max_size=phases))
    degrees = draw(st.lists(st.floats(min_value=0.5, max_value=8.0),
                            min_size=phases, max_size=phases))
    return graph, FixedSchedule(n, deltas, degrees)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(graphs_and_schedules())
def test_random_graphs_and_radii_match_the_reference(case):
    graph, schedule = case
    assert_matches_reference(graph, schedule)
