"""Property-based tests (hypothesis) for the core invariants.

These check the paper's headline claims on randomly generated graphs and
parameters:

* the emulator never has more than ``n^(1+1/kappa)`` edges;
* the emulator never shortens a distance;
* the ``(alpha, beta)`` guarantee holds;
* the charging invariants of the size proof hold;
* spanners are always subgraphs;
* ruling sets always satisfy both defining properties;
* the popular-cluster detection matches the brute-force ground truth.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BuildSpec, build
from repro.analysis.validation import verify_emulator
from repro.congest.bellman_ford import detect_popular_clusters
from repro.congest.ruling_sets import greedy_ruling_set, verify_ruling_set
from repro.core.parameters import CentralizedSchedule, size_bound
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bfs_distances

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def random_graphs(draw, min_vertices=2, max_vertices=36):
    """A random simple graph given by an adjacency bitmap."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    possible_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edge_flags = draw(
        st.lists(st.booleans(), min_size=len(possible_edges), max_size=len(possible_edges))
    )
    edges = [e for e, keep in zip(possible_edges, edge_flags) if keep]
    return Graph(n, edges)


@st.composite
def connected_graphs(draw, min_vertices=2, max_vertices=30):
    """A connected random graph: random tree plus random extra edges."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    parents = [draw(st.integers(min_value=0, max_value=max(0, i - 1))) for i in range(1, n)]
    edges = [(i + 1, p) for i, p in enumerate(parents)]
    num_extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(num_extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    return Graph(n, edges)


class TestEmulatorProperties:
    @given(graph=random_graphs(), kappa=st.sampled_from([2, 3, 4, 8]))
    @settings(**SETTINGS)
    def test_size_bound_always_holds(self, graph, kappa):
        result = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=kappa)).raw
        assert result.num_edges <= size_bound(graph.num_vertices, kappa) + 1e-9

    @given(graph=connected_graphs(), kappa=st.sampled_from([2, 4]))
    @settings(**SETTINGS)
    def test_stretch_guarantee_always_holds(self, graph, kappa):
        result = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=kappa)).raw
        report = verify_emulator(graph, result.emulator, result.alpha, result.beta)
        assert report.valid

    @given(graph=connected_graphs(max_vertices=24))
    @settings(**SETTINGS)
    def test_distances_never_shortened(self, graph):
        result = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=4)).raw
        for source in range(graph.num_vertices):
            dg = bfs_distances(graph, source)
            dh = result.emulator.dijkstra(source)
            for target, d in dg.items():
                assert dh.get(target, float("inf")) >= d - 1e-9

    @given(graph=random_graphs(), kappa=st.sampled_from([2, 4, 8]))
    @settings(**SETTINGS)
    def test_charging_invariants(self, graph, kappa):
        result = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=kappa)).raw
        degree_by_phase = {
            i: result.schedule.degree(i) for i in range(result.schedule.num_phases)
        }
        result.ledger.verify_interconnection_budget(degree_by_phase)
        result.ledger.verify_superclustering_budget()
        result.ledger.verify_single_charging_phase()

    @given(graph=random_graphs())
    @settings(**SETTINGS)
    def test_edge_weights_upper_bound_distances(self, graph):
        result = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=4)).raw
        for u, v, w in result.emulator.edges():
            assert w >= bfs_distances(graph, u).get(v, float("inf")) - 1e-9


class TestSpannerProperties:
    @given(graph=connected_graphs(max_vertices=26))
    @settings(**SETTINGS)
    def test_spanner_is_always_subgraph(self, graph):
        result = build(graph, BuildSpec(product="spanner", eps=0.01, kappa=4, rho=0.45)).raw
        assert result.is_subgraph_of(graph)

    @given(graph=connected_graphs(max_vertices=22))
    @settings(**SETTINGS)
    def test_spanner_preserves_connectivity(self, graph):
        result = build(graph, BuildSpec(product="spanner", eps=0.01, kappa=4, rho=0.45)).raw
        assert len(result.spanner.connected_components()) == len(graph.connected_components())


class TestScheduleProperties:
    @given(
        n=st.integers(min_value=2, max_value=10_000),
        kappa=st.floats(min_value=2.0, max_value=128.0),
        eps=st.floats(min_value=0.01, max_value=0.1),
    )
    @settings(max_examples=100, deadline=None)
    def test_centralized_schedule_consistency(self, n, kappa, eps):
        sched = CentralizedSchedule(n=n, eps=eps, kappa=kappa)
        assert sched.num_phases == sched.ell + 1
        assert sched.delta(0) == 1.0
        # Degrees square phase over phase; telescoping needs this exactly.
        for i in range(sched.ell):
            assert math.isclose(sched.degree(i + 1), sched.degree(i) ** 2, rel_tol=1e-9)
        # Radii and deltas increase.
        for i in range(sched.ell):
            assert sched.delta(i + 1) > sched.delta(i)
            assert sched.radius_bound(i + 1) >= sched.radius_bound(i)

    @given(n=st.integers(min_value=2, max_value=10_000), kappa=st.floats(min_value=2, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_size_bound_monotone_in_kappa(self, n, kappa):
        assert size_bound(n, kappa) >= size_bound(n, kappa + 1) - 1e-6
        assert size_bound(n, kappa) >= n or n <= 1


class TestCongestProperties:
    @given(graph=connected_graphs(max_vertices=24), separation=st.integers(2, 5))
    @settings(**SETTINGS)
    def test_greedy_ruling_set_properties(self, graph, separation):
        candidates = list(graph.vertices())
        result = greedy_ruling_set(graph, candidates, separation)
        assert verify_ruling_set(graph, candidates, result.members, separation,
                                 result.domination)

    @given(
        graph=connected_graphs(max_vertices=20),
        degree=st.integers(min_value=1, max_value=6),
        delta=st.integers(min_value=1, max_value=4),
    )
    @settings(**SETTINGS)
    def test_popular_detection_matches_ground_truth(self, graph, degree, delta):
        centers = list(graph.vertices())
        result = detect_popular_clusters(graph, centers, degree, delta)
        expected = set()
        for c in centers:
            dist = bfs_distances(graph, c)
            count = sum(1 for o in centers if o != c and dist.get(o, math.inf) <= delta)
            if count >= degree:
                expected.add(c)
        assert result.popular == expected
