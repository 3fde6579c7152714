"""Unit tests for clusters and partial partitions."""

from __future__ import annotations

import io
import pickle
from array import array

import pytest

from repro.baselines import (
    build_elkin_neiman_emulator,
    build_elkin_peleg_emulator,
    build_thorup_zwick_emulator,
)
from repro.core.clusters import Cluster, Partition
from repro.core.emulator import UltraSparseEmulatorBuilder
from repro.core.fast_centralized import FastCentralizedBuilder
from repro.core.spanner import NearAdditiveSpannerBuilder
from repro.distributed import DistributedEmulatorBuilder, DistributedSpannerBuilder
from repro.graphs import generators


class TestCluster:
    def test_singleton(self):
        c = Cluster.singleton(7)
        assert c.center == 7
        assert c.members == {7}
        assert c.radius == 0.0
        assert c.phase_created == 0
        assert c.size == 1

    def test_center_must_be_member(self):
        with pytest.raises(ValueError):
            Cluster(center=1, members={2, 3})

    def test_default_members(self):
        c = Cluster(center=4)
        assert c.members == {4}

    def test_contains_iter_len(self):
        c = Cluster(center=1, members={1, 2, 3})
        assert 2 in c
        assert 9 not in c
        assert sorted(c) == [1, 2, 3]
        assert len(c) == 3

    def test_frozen_members(self):
        c = Cluster(center=0, members={0, 1})
        frozen = c.frozen_members()
        assert frozen == frozenset({0, 1})

    def test_repr(self):
        assert "center=0" in repr(Cluster.singleton(0))


class TestPartition:
    def test_singletons(self):
        p = Partition.singletons(5)
        assert p.num_clusters == 5
        assert p.num_covered == 5
        assert p.is_partition_of(5)

    def test_add_and_lookup(self):
        p = Partition()
        p.add(Cluster(center=0, members={0, 1}))
        assert p.has_center(0)
        assert p.covers(1)
        assert not p.covers(2)
        assert p.cluster_of_vertex(1).center == 0
        assert p.cluster_of_vertex(5) is None
        assert p.cluster_of_center(0).members == {0, 1}

    def test_add_duplicate_center_rejected(self):
        p = Partition([Cluster.singleton(0)])
        with pytest.raises(ValueError):
            p.add(Cluster(center=0, members={0, 1}))

    def test_add_overlapping_cluster_rejected(self):
        p = Partition([Cluster(center=0, members={0, 1})])
        with pytest.raises(ValueError):
            p.add(Cluster(center=2, members={1, 2}))

    def test_centers_sorted(self):
        p = Partition([Cluster.singleton(3), Cluster.singleton(1), Cluster.singleton(2)])
        assert p.centers() == [1, 2, 3]

    def test_clusters_order(self):
        p = Partition([Cluster.singleton(5), Cluster.singleton(2)])
        assert [c.center for c in p.clusters()] == [2, 5]

    def test_covered_vertices(self):
        p = Partition([Cluster(center=0, members={0, 3})])
        assert p.covered_vertices() == {0, 3}

    def test_max_radius(self):
        p = Partition([Cluster(center=0, members={0}, radius=2.0),
                       Cluster(center=1, members={1}, radius=5.0)])
        assert p.max_radius() == 5.0
        assert Partition().max_radius() == 0.0

    def test_is_partition_of(self):
        p = Partition([Cluster(center=0, members={0, 1}), Cluster.singleton(2)])
        assert p.is_partition_of(3)
        assert not p.is_partition_of(4)

    def test_validate_disjoint_passes(self):
        Partition.singletons(4).validate_disjoint()

    def test_len_iter_repr(self):
        p = Partition.singletons(3)
        assert len(p) == 3
        assert [c.center for c in p] == [0, 1, 2]
        assert "clusters=3" in repr(p)


def _answers(partition, n):
    """Everything a caller can read from ``partition`` about vertices -1 .. n."""
    def key(cluster):
        if cluster is None:
            return None
        return (cluster.center, sorted(cluster.members), cluster.radius, cluster.phase_created)

    vertices = range(-1, n + 1)
    return {
        "centers": partition.centers(),
        "center_ids": (partition.center_ids().dtype.str, partition.center_ids().tolist()),
        "clusters": [key(c) for c in partition.clusters()],
        "cluster_of_vertex": [key(partition.cluster_of_vertex(v)) for v in vertices],
        "covers": [partition.covers(v) for v in vertices],
        "has_center": [partition.has_center(v) for v in vertices],
        "num_clusters": partition.num_clusters,
        "num_covered": partition.num_covered,
        "max_radius": partition.max_radius(),
        "covered_vertices": partition.covered_vertices(),
        "is_partition_of": partition.is_partition_of(n),
    }


def _hosts(n, assignments):
    """``host``/``offset`` arrays from ``{center: (host, distance)}``."""
    host = array("l", [-1]) * n
    offset = array("d", bytes(8 * n))
    for c, (h, d) in assignments.items():
        host[c] = h
        offset[c] = d
    return host, offset


class TestArrayBackedPartition:
    """``singletons`` and ``regroup`` answer exactly like ``add()``-built partitions."""

    def test_singletons_match_added_singletons(self):
        built = Partition([Cluster.singleton(v) for v in range(7)])
        assert _answers(Partition.singletons(7), 7) == _answers(built, 7)
        assert _answers(Partition.singletons(0), 0) == _answers(Partition(), 0)

    def test_regroup_matches_added_superclusters(self):
        p0 = Partition.singletons(8)
        # 0 hosts 1 (d=1) and 5 (d=2); 3 hosts 2 (d=1); 4, 6 and 7 drop out.
        p1 = p0.regroup(*_hosts(8, {0: (0, 0.0), 1: (0, 1.0), 5: (0, 2.0),
                                    3: (3, 0.0), 2: (3, 1.0)}), 1)
        expected1 = Partition([Cluster(center=0, members={0, 1, 5}, radius=2.0, phase_created=1),
                               Cluster(center=3, members={2, 3}, radius=1.0, phase_created=1)])
        assert _answers(p1, 8) == _answers(expected1, 8)
        p1.validate_disjoint()

        # Radii compound: 3's cluster (radius 1) joins 0's at distance 4.
        p2 = p1.regroup(*_hosts(8, {0: (0, 0.0), 3: (0, 4.0)}), 2)
        expected2 = Partition([Cluster(center=0, members={0, 1, 2, 3, 5}, radius=5.0,
                                       phase_created=2)])
        assert _answers(p2, 8) == _answers(expected2, 8)
        assert _answers(p2.regroup(*_hosts(8, {}), 3), 8) == _answers(Partition(), 8)

    def test_emulator_partitions_match_their_added_copies(self):
        result = UltraSparseEmulatorBuilder(generators.grid_graph(12, 12), eps=0.5,
                                            kappa=8).build()
        for partition in result.partitions:
            copy = Partition(
                Cluster(center=c.center, members=set(c.members), radius=c.radius,
                        phase_created=c.phase_created)
                for c in partition.clusters()
            )
            assert _answers(partition, 144) == _answers(copy, 144)

    def test_clusters_are_grouped_once_and_cached(self):
        p = Partition([Cluster.singleton(0), Cluster.singleton(1)])
        assert p.cluster_of_center(1) is p.cluster_of_vertex(1)
        assert p.cluster_of_vertex(2) is None
        p.add(Cluster(center=2, members={2, 3}, radius=3.0))
        assert p.cluster_of_vertex(3).center == 2 and p.cluster_of_center(1).members == {1}
        assert p.cluster_of_center(2).radius == 3.0 and p.max_radius() == 3.0

    @pytest.mark.parametrize("assignments", [
        {1: (0, 1.0)},                # host 0 does not host itself
        {0: (0, 0.0), 1: (0, 1.0), 2: (1, 1.0)},  # host 1 joined 0
        {0: (0, 2.0), 1: (0, 1.0)},   # host 0 hosts itself at offset 2
    ])
    def test_regroup_rejects_a_host_that_does_not_host_itself(self, assignments):
        with pytest.raises(ValueError):
            Partition.singletons(4).regroup(*_hosts(4, assignments), 1)

    def test_regroup_rejects_a_host_that_is_not_a_center(self):
        p1 = Partition.singletons(4).regroup(*_hosts(4, {0: (0, 0.0), 1: (0, 1.0),
                                                         2: (2, 0.0)}), 1)
        # 1 is no center of p1, so it cannot host 2 even while hosting itself.
        with pytest.raises(ValueError):
            p1.regroup(*_hosts(4, {1: (1, 0.0), 2: (1, 1.0)}), 2)
        with pytest.raises(ValueError):
            p1.regroup(*_hosts(5, {0: (0, 0.0), 2: (4, 1.0), 4: (4, 0.0)}), 2)

    def test_pickles_as_arrays(self):
        p = Partition.singletons(5).regroup(*_hosts(5, {0: (0, 0.0), 4: (0, 1.0)}), 1)
        p.clusters()  # fill the cluster cache; it must not travel
        found = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                found.add(name)
                return super().find_class(module, name)

        restored = Recording(io.BytesIO(pickle.dumps(p))).load()
        assert "Partition" in found and "Cluster" not in found
        assert _answers(restored, 5) == _answers(p, 5)

    def test_add_rejects_negative_vertices(self):
        with pytest.raises(ValueError):
            Partition().add(Cluster(center=0, members={0, -1}))


#: SAI builders besides Algorithm 1, each run with its default parameters.
SAI_BUILDERS = {
    "emulator/fast": lambda g: FastCentralizedBuilder(g).build(),
    "spanner/centralized": lambda g: NearAdditiveSpannerBuilder(g).build(),
    "emulator/congest": lambda g: DistributedEmulatorBuilder(g).build(),
    "spanner/congest": lambda g: DistributedSpannerBuilder(g).build(),
    "elkin-peleg": build_elkin_peleg_emulator,
    "elkin-neiman": lambda g: build_elkin_neiman_emulator(g, seed=0),
    "thorup-zwick": lambda g: build_thorup_zwick_emulator(g, seed=0),
}

#: Two of the golden corpus's families: one connected, one not.
SAI_FAMILIES = {
    "grid": lambda: generators.grid_graph(12, 12),
    "disconnected": lambda: generators.gnm_random_graph(160, 240, seed=3),
}


@pytest.mark.parametrize("family", sorted(SAI_FAMILIES))
@pytest.mark.parametrize("builder", sorted(SAI_BUILDERS))
def test_builders_regroup_without_cluster_views(monkeypatch, builder, family):
    # Every builder forms P_{i+1} by relabelling P_i: no build may group
    # member sets into Cluster views, and every partition it forms is
    # disjoint.
    def refuse(self):
        raise AssertionError("a build materialized the Cluster views of a partition")

    formed = []
    regroup = Partition.regroup

    def checked_regroup(self, host, offset, phase_created):
        result = regroup(self, host, offset, phase_created)
        result.validate_disjoint()
        formed.append(result)
        return result

    monkeypatch.setattr(Partition, "_grouped", refuse)
    monkeypatch.setattr(Partition, "regroup", checked_regroup)
    result = SAI_BUILDERS[builder](SAI_FAMILIES[family]())
    assert formed
    for partition in getattr(result, "partitions", ()):
        partition.validate_disjoint()
