"""Elkin–Neiman (SODA'17) linear-size emulator baseline.

EN17a replaces the deterministic popularity test by sampling: in each phase,
cluster centers are sampled with probability ``1 / deg_i``; every cluster
with a sampled center within distance ``delta_i`` joins the closest such
sampled cluster, and all remaining clusters are interconnected with their
neighboring clusters and drop out of the hierarchy.  With the optimized
(geometrically decaying) contribution of the interconnection steps, the
expected size is ``O(n^(1+1/kappa))`` — linear for ``kappa = log n`` — but
the per-phase analysis cannot give the ``n + o(n)`` ultra-sparse bound the
paper obtains.

The construction is randomized; it is used as a comparator in experiment E4.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Optional

from repro.core.clusters import Partition
from repro.core.parameters import CentralizedSchedule
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import bounded_bfs, multi_source_attributed
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["ElkinNeimanResult", "build_elkin_neiman_emulator"]


@dataclass
class ElkinNeimanResult:
    """Output of the EN17a-style baseline construction."""

    emulator: WeightedGraph
    schedule: CentralizedSchedule
    superclustering_edges: int
    interconnection_edges: int

    @property
    def num_edges(self) -> int:
        """Number of edges in the emulator."""
        return self.emulator.num_edges


def build_elkin_neiman_emulator(
    graph: Graph,
    eps: float = 0.1,
    kappa: float = 4.0,
    seed: Optional[int] = None,
    schedule: Optional[CentralizedSchedule] = None,
) -> ElkinNeimanResult:
    """Build an EN17a-style sampled-superclustering emulator (randomized baseline)."""
    if schedule is None:
        schedule = CentralizedSchedule(n=max(1, graph.num_vertices), eps=eps, kappa=kappa)
    rng = random.Random(seed)
    n = graph.num_vertices
    emulator = WeightedGraph(n)
    superclustering_edges = 0
    interconnection_edges = 0

    partition = Partition.singletons(n)
    for phase in range(schedule.num_phases):
        centers = partition.centers()
        if not centers:
            break
        delta = schedule.delta(phase)
        degree = schedule.degree(phase)
        is_last = phase == schedule.ell
        sample_probability = 0.0 if is_last else min(1.0, 1.0 / degree)
        sampled = {c for c in centers if rng.random() < sample_probability}
        center_set = set(centers)
        # host[c] = h, offset[c] = d: the cluster centered at c joins the
        # supercluster centered at h, at distance d (-1: it joins none).
        host = array("l", [-1]) * n
        offset = array("d", bytes(8 * n))
        for s in sampled:
            host[s] = s

        # One multi-source pass assigns every vertex its closest sampled
        # center (smallest-ID ties — the same ``sorted((d, s))[0]`` rule
        # the per-center loop applied), so only centers with *no* sampled
        # cluster within delta still need their own exploration.
        attributed = multi_source_attributed(graph, sampled, delta)

        for center in centers:
            if center in sampled:
                continue
            assignment = attributed.get(center)
            if assignment is not None:
                closest, d = assignment
                if emulator.add_edge(center, closest, float(d)):
                    superclustering_edges += 1
                host[center] = closest
                offset[center] = d
            else:
                # No sampled cluster nearby: interconnect with every
                # neighboring cluster center and leave the hierarchy.
                dist = bounded_bfs(graph, center, delta)
                for other, d in sorted(dist.items()):
                    if other == center or other not in center_set:
                        continue
                    if emulator.add_edge(center, other, float(d)):
                        interconnection_edges += 1

        partition = partition.regroup(host, offset, phase + 1)

    return ElkinNeimanResult(
        emulator=emulator,
        schedule=schedule,
        superclustering_edges=superclustering_edges,
        interconnection_edges=interconnection_edges,
    )
