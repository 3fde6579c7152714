"""Tests for Algorithm 1 — the centralized ultra-sparse emulator.

These tests check the paper's actual claims: the ``n^(1+1/kappa)`` size
bound (Lemma 2.4), the stretch guarantee (Corollary 2.13), the charging
invariants behind the size proof (Section 2.2.1), the radius bounds
(Lemma 2.5) and the partition structure (Lemmas 2.2, 2.8).
"""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.analysis.validation import verify_emulator, verify_no_shortening
from repro.core import emulator as emulator_module
from repro.core.charging import EdgeKind
from repro.core.emulator import UltraSparseEmulatorBuilder
from repro.core.parameters import CentralizedSchedule, size_bound, ultra_sparse_kappa
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.graphs.kernels import normalize_radius


EMULATOR = BuildSpec(product="emulator", eps=0.1, kappa=4)


class TestSizeBound:
    @pytest.mark.parametrize("kappa", [2, 3, 4, 8, 16])
    def test_random_graph_within_bound(self, random_graph, kappa):
        result = build(random_graph, EMULATOR.replace(kappa=kappa)).raw
        assert result.num_edges <= size_bound(random_graph.num_vertices, kappa) + 1e-9
        assert result.within_size_bound()

    @pytest.mark.parametrize("kappa", [2, 4, 8])
    def test_grid_within_bound(self, grid6x6, kappa):
        result = build(grid6x6, EMULATOR.replace(kappa=kappa)).raw
        assert result.within_size_bound()

    def test_clique_within_bound(self, clique8):
        result = build(clique8, EMULATOR.replace(kappa=2)).raw
        assert result.within_size_bound()

    def test_star_within_bound(self, star20):
        result = build(star20, EMULATOR).raw
        assert result.within_size_bound()
        # The star collapses into one supercluster: n-1 superclustering edges.
        assert result.num_edges == star20.num_vertices - 1

    def test_hypercube_within_bound(self):
        g = generators.hypercube_graph(6)
        result = build(g, EMULATOR).raw
        assert result.within_size_bound()

    def test_ring_of_cliques_within_bound(self):
        g = generators.ring_of_cliques(8, 8)
        result = build(g, EMULATOR.replace(kappa=3)).raw
        assert result.within_size_bound()

    def test_disconnected_graph(self, disconnected_graph):
        result = build(disconnected_graph, EMULATOR.replace(kappa=2)).raw
        assert result.within_size_bound()

    def test_empty_graph(self):
        result = build(Graph(6), EMULATOR.replace(kappa=2)).raw
        assert result.num_edges == 0

    def test_single_vertex(self):
        result = build(Graph(1), EMULATOR.replace(kappa=2)).raw
        assert result.num_edges == 0

    def test_ultra_sparse_regime(self):
        g = generators.connected_erdos_renyi(200, 0.05, seed=3)
        kappa = ultra_sparse_kappa(200)
        result = build(g, EMULATOR.replace(kappa=kappa)).raw
        bound = size_bound(200, kappa)
        assert result.num_edges <= bound + 1e-9
        # n + o(n): the bound itself is barely above n.
        assert bound < 200 * 1.5

    def test_emulator_has_no_more_edges_than_charges(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        assert result.num_edges <= result.ledger.num_charges


class TestStretch:
    @pytest.mark.parametrize("kappa", [2, 4, 8])
    def test_guarantee_random(self, random_graph, kappa):
        result = build(random_graph, EMULATOR.replace(kappa=kappa)).raw
        report = verify_emulator(random_graph, result.emulator, result.alpha, result.beta)
        assert report.valid, report.violations[:3]

    def test_guarantee_grid(self, grid6x6):
        result = build(grid6x6, EMULATOR).raw
        report = verify_emulator(grid6x6, result.emulator, result.alpha, result.beta)
        assert report.valid

    def test_guarantee_path(self, path10):
        result = build(path10, EMULATOR.replace(kappa=2)).raw
        report = verify_emulator(path10, result.emulator, result.alpha, result.beta)
        assert report.valid

    def test_never_shortens_distances(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        assert verify_no_shortening(random_graph, result.emulator, sample_pairs=None)

    def test_phase0_neighbors_preserved_for_unpopular(self, path10):
        # On a path with kappa=2, deg_0 = sqrt(10) > 2, so every vertex is
        # unpopular in phase 0 and keeps all incident edges: H contains G.
        result = build(path10, EMULATOR.replace(kappa=2)).raw
        for u, v in path10.edges():
            assert result.emulator.has_edge(u, v)

    def test_edge_weights_equal_graph_distance_for_interconnection(self, random_graph):
        from repro.graphs.shortest_paths import bfs_distances

        result = build(random_graph, EMULATOR).raw
        interconnection = [c for c in result.ledger.charges
                           if c.kind is EdgeKind.INTERCONNECTION]
        # Check a handful of them exactly.
        for charge in interconnection[:25]:
            u, v = charge.edge
            assert charge.weight == bfs_distances(random_graph, u)[v]

    def test_weights_never_below_graph_distance(self, small_random_graph):
        from repro.graphs.shortest_paths import bfs_distances

        result = build(small_random_graph, EMULATOR).raw
        for u, v, w in result.emulator.edges():
            assert w >= bfs_distances(small_random_graph, u)[v] - 1e-9

    def test_tighter_eps_gives_no_worse_emulator(self, small_random_graph):
        loose = build(small_random_graph, EMULATOR).raw
        # Both must satisfy their own guarantee.
        tight_sched = CentralizedSchedule(n=40, eps=0.05, kappa=4)
        tight = build(small_random_graph, BuildSpec(product="emulator", schedule=tight_sched)).raw
        for result in (loose, tight):
            report = verify_emulator(small_random_graph, result.emulator,
                                     result.alpha, result.beta)
            assert report.valid


class TestChargingInvariants:
    def test_interconnection_budget(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        degree_by_phase = {i: result.schedule.degree(i)
                           for i in range(result.schedule.num_phases)}
        result.ledger.verify_interconnection_budget(degree_by_phase)

    def test_superclustering_budget(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        result.ledger.verify_superclustering_budget()

    def test_single_charging_phase(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        result.ledger.verify_single_charging_phase()

    def test_all_invariants_on_many_graphs(self):
        graphs = [
            generators.connected_erdos_renyi(60, 0.08, seed=s) for s in range(3)
        ] + [generators.ring_of_cliques(6, 6), generators.grid_graph(7, 7)]
        for g in graphs:
            result = build(g, EMULATOR).raw
            degree_by_phase = {i: result.schedule.degree(i)
                               for i in range(result.schedule.num_phases)}
            result.ledger.verify_interconnection_budget(degree_by_phase)
            result.ledger.verify_superclustering_budget()
            result.ledger.verify_single_charging_phase()
            assert result.within_size_bound()

    def test_ledger_covers_every_emulator_edge(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        charged_edges = {c.edge for c in result.ledger.charges}
        for u, v, _ in result.emulator.edges():
            assert (min(u, v), max(u, v)) in charged_edges


class TestStructure:
    def test_partitions_are_laminar(self, random_graph):
        # Every cluster of P_{i+1} is a union of clusters of P_i (Lemma 2.9).
        result = build(random_graph, EMULATOR).raw
        for i in range(len(result.partitions) - 1):
            prev, nxt = result.partitions[i], result.partitions[i + 1]
            for cluster in nxt.clusters():
                covered = set()
                for prev_cluster in prev.clusters():
                    if prev_cluster.members & cluster.members:
                        assert prev_cluster.members <= cluster.members
                        covered |= prev_cluster.members
                assert covered == cluster.members

    def test_partition_plus_unclustered_covers_vertices(self, random_graph):
        # Lemma 2.8: P_i together with U^(i-1) partitions V.
        result = build(random_graph, EMULATOR).raw
        n = random_graph.num_vertices
        for i, partition in enumerate(result.partitions):
            covered = set(partition.covered_vertices())
            for phase in range(i):
                for cluster in result.unclustered.get(phase, []):
                    covered |= cluster.members
            assert covered == set(range(n))

    def test_final_partition_empty(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        assert result.partitions[-1].num_clusters == 0

    def test_cluster_radii_within_schedule_bound(self, random_graph):
        # Lemma 2.5: Rad(P_i) <= R_i.
        result = build(random_graph, EMULATOR).raw
        for i, partition in enumerate(result.partitions[:-1]):
            if partition.num_clusters:
                assert partition.max_radius() <= result.schedule.radius_bound(i) + 1e-9

    def test_radius_witness_matches_emulator_distance(self, small_random_graph):
        # The recorded radius must upper-bound the actual emulator distance
        # from the center to every member.
        result = build(small_random_graph, EMULATOR).raw
        for partition in result.partitions:
            for cluster in partition.clusters():
                dist = result.emulator.dijkstra(cluster.center)
                for member in cluster.members:
                    assert dist.get(member, float("inf")) <= cluster.radius + 1e-9

    def test_last_phase_never_superclusters(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        assert result.phase_stats[-1].superclusters_formed == 0

    def test_phase_stats_consistency(self, random_graph):
        result = build(random_graph, EMULATOR).raw
        total = sum(s.edges_added for s in result.phase_stats)
        assert total == result.ledger.num_charges

    def test_superclusters_have_enough_subclusters(self, random_graph):
        # Lemma 2.1: a supercluster built in phase i contains >= deg_i + 1
        # clusters of P_i.
        result = build(random_graph, EMULATOR).raw
        for i in range(len(result.partitions) - 1):
            prev, nxt = result.partitions[i], result.partitions[i + 1]
            if nxt.num_clusters == 0:
                continue
            deg = result.schedule.degree(i)
            for cluster in nxt.clusters():
                count = sum(1 for pc in prev.clusters() if pc.members <= cluster.members)
                assert count >= deg + 1 - 1e-9


class TestBuilderApi:
    def test_schedule_mismatch_rejected(self, path10):
        schedule = CentralizedSchedule(n=99, eps=0.1, kappa=4)
        with pytest.raises(ValueError):
            UltraSparseEmulatorBuilder(path10, schedule=schedule)

    def test_explicit_schedule_used(self, path10):
        schedule = CentralizedSchedule(n=10, eps=0.1, kappa=8)
        result = build(path10, BuildSpec(product="emulator", schedule=schedule)).raw
        assert result.schedule is schedule

    def test_result_properties(self, path10):
        result = build(path10, EMULATOR).raw
        assert result.alpha == result.schedule.alpha
        assert result.beta == result.schedule.beta
        assert result.size_bound == pytest.approx(10 ** 1.25)

    def test_deterministic(self, random_graph):
        r1 = build(random_graph, EMULATOR).raw
        r2 = build(random_graph, EMULATOR).raw
        assert sorted(r1.emulator.edges()) == sorted(r2.emulator.edges())


class TestExplorations:
    """Algorithm 1 reads a center's 2*delta_i neighbourhood only when it is popular."""

    @staticmethod
    def _build_recording(monkeypatch, graph, **params):
        """Build while recording each ``(center, radius)`` the builder reads.

        ``reads`` are the delta_i neighbourhoods every considered center
        reads; ``parks`` the 2*delta_i neighbourhoods read for N_i.
        """
        reads, parks = [], []
        real_read, real_park = emulator_module._centers_within, emulator_module._park

        def read(csr, center, radius, state):
            reads.append((center, radius))
            return real_read(csr, center, radius, state)

        def park(csr, center, radius, *rest):
            parks.append((center, radius))
            return real_park(csr, center, radius, *rest)

        monkeypatch.setattr(emulator_module, "_centers_within", read)
        monkeypatch.setattr(emulator_module, "_park", park)
        result = UltraSparseEmulatorBuilder(graph, **params).build()
        return result, reads, parks

    @pytest.mark.parametrize("graph, params", [
        (generators.grid_graph(12, 12), {"eps": 0.5, "kappa": 8}),
        (generators.ring_of_cliques(12, 8), {"eps": 1.0, "kappa": 8}),
        (generators.connected_erdos_renyi(160, 0.04, seed=5), {"eps": 0.1, "kappa": 4}),
    ])
    def test_only_popular_centers_fetch_the_wide_ball(self, monkeypatch, graph, params):
        result, reads, parks = self._build_recording(monkeypatch, graph, **params)
        for stats, superclusters in zip(result.phase_stats, result.partitions[1:]):
            radius = normalize_radius(stats.delta)
            read = [center for center, r in reads if r == radius]
            # Every considered center reads its delta neighbourhood once.
            assert len(read) == len(set(read)) == stats.popular_centers + stats.unpopular_centers
            wide = [center for center, r in parks if r == normalize_radius(2 * stats.delta)]
            # Popular centers are exactly the supercluster centers of P_{i+1}.
            assert set(wide) <= set(superclusters.centers())
            if stats.phase == 0:
                # At delta_0 = 1 a popular center's ball reaches depth 1,
                # so it cannot prove its component exhausted: all widen.
                assert len(wide) == stats.popular_centers > 0

    def test_ball_covering_the_component_is_reused(self, monkeypatch):
        # delta_1 = 6 exceeds this graph's eccentricities, so the popular
        # phase-1 center's delta ball already holds its whole component and
        # there is nothing left in it to park.
        graph = generators.connected_erdos_renyi(160, 0.04, seed=5)
        result, reads, parks = self._build_recording(monkeypatch, graph, eps=0.5, kappa=8)
        stats = result.phase_stats[1]
        assert stats.delta == 6.0 and stats.popular_centers == 1
        assert stats.buffered_centers == 0
        assert 6 in {radius for _, radius in reads}
        assert all(radius != 12 for _, radius in parks)


def _mixed_components_graph():
    """A 30-vertex path, a 6-vertex star and four isolated vertices."""
    edges = [(u, u + 1) for u in range(29)] + [(30, v) for v in range(31, 36)]
    return Graph(40, edges)


@pytest.mark.parametrize("radius", [0, 1, 2, 2.5, 3, 7, None])
def test_neighboring_centers_match_the_reference(radius):
    from repro.graphs.shortest_paths import _dict_bounded_bfs

    graphs = (generators.gnm_random_graph(90, 150, seed=5),
              generators.gnm_random_graph(120, 100, seed=6),  # isolated vertices
              generators.path_graph(40),
              # Radius 3 covers no component with two centers; 7 covers the
              # star but not the path (2 * ecc > 7 from its first center).
              _mixed_components_graph())
    for graph in graphs:
        centers = list(range(0, graph.num_vertices, 3))
        got = emulator_module.NeighboringCenters(graph.csr(), centers, radius)
        assert list(got) == centers
        wants = {}
        for center in centers:
            ball = _dict_bounded_bfs(graph, center, radius)
            wants[center] = sorted(
                (c, float(ball[c])) for c in centers if c != center and c in ball)
        # Counts before any list is read, then every list.
        assert {c: got.count(c) for c in centers} == {c: len(w) for c, w in wants.items()}
        for center in centers:
            want = wants[center]
            assert got[center] == ([c for c, _ in want], [d for _, d in want]), (
                graph.num_vertices, center, radius)


def test_covered_component_costs_one_row_until_a_list_is_read(monkeypatch):
    from repro.graphs import kernels

    rows = []
    real_row = kernels.bfs_row

    def counting_row(csr, source, radius=None):
        rows.append((source, radius))
        return real_row(csr, source, radius)

    monkeypatch.setattr(kernels, "bfs_row", counting_row)
    graph = generators.connected_erdos_renyi(200, 0.05, seed=4)
    centers = list(range(3, 200, 2))
    got = emulator_module.NeighboringCenters(graph.csr(), centers, 40)
    assert rows == [(3, None)]
    assert all(got.count(c) == len(centers) - 1 for c in centers)
    assert len(got[3][0]) == len(centers) - 1 and rows == [(3, None)]
    assert got[9] == got[9] and rows == [(3, None), (9, None)]
