"""Thorup–Zwick (SODA'06) scale-free emulator baseline.

The paper describes the TZ06 construction in its scale-free SAI formulation
(Section 1.2): in each phase, clusters are sampled independently with
probability ``1 / deg_i``; every unsampled cluster joins the closest sampled
cluster (creating a superclustering edge), and is additionally connected to
every other unsampled cluster that is *closer to it than its closest sampled
cluster* (interconnection edges).  There are no distance thresholds — the
construction is scale-free — and the expected size is
``O(log kappa * n^(1 + 1/kappa))``.

This randomized baseline is used in experiment E4 to contrast the paper's
deterministic, exactly-``n^(1+1/kappa)`` bound with the classic
``O(log kappa)``-factor-larger constructions.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.clusters import Partition
from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph

__all__ = ["ThorupZwickResult", "build_thorup_zwick_emulator"]


@dataclass
class ThorupZwickResult:
    """Output of the TZ06-style baseline construction."""

    emulator: WeightedGraph
    kappa: float
    levels: int
    superclustering_edges: int
    interconnection_edges: int

    @property
    def num_edges(self) -> int:
        """Number of edges in the emulator."""
        return self.emulator.num_edges


def build_thorup_zwick_emulator(
    graph: Graph,
    kappa: float = 4.0,
    seed: Optional[int] = None,
) -> ThorupZwickResult:
    """Build a TZ06-style scale-free emulator (randomized baseline).

    Parameters
    ----------
    graph:
        The unweighted input graph.
    kappa:
        Sparsity parameter; sampling probability in phase ``i`` is
        ``deg_i^{-1} = n^{-2^i / kappa}``.
    seed:
        Seed for the sampling randomness.
    """
    rng = random.Random(seed)
    n = graph.num_vertices
    emulator = WeightedGraph(n)
    levels = max(1, math.ceil(math.log2(max(2.0, kappa))))
    superclustering_edges = 0
    interconnection_edges = 0

    partition = Partition.singletons(n)
    for level in range(levels + 1):
        centers = partition.centers()
        if len(centers) <= 1:
            break
        degree = float(n) ** (2.0 ** level / kappa) if n > 1 else 1.0
        sample_probability = min(1.0, 1.0 / degree)
        is_last = level == levels
        sampled = set() if is_last else {
            c for c in centers if rng.random() < sample_probability
        }
        # host[c] = h, offset[c] = d: the cluster centered at c joins the
        # supercluster centered at h, at distance d (-1: it joins none).
        host = array("l", [-1]) * n
        offset = array("d", bytes(8 * n))
        for s in sampled:
            host[s] = s

        # Every unsampled center reads its whole distance row (the
        # interconnection rule has no distance threshold) and works on it
        # with masks: ``others`` flags the unsampled centers, and the
        # sampled indices are sorted so the first one at the closest
        # distance has the smallest ID.
        csr = graph.csr()
        sampled_ids = np.array(sorted(sampled), dtype=np.int64)
        others = np.zeros(n, dtype=bool)
        others[centers] = True
        others[sampled_ids] = False

        for center in centers:
            if center in sampled:
                continue
            row = kernels.bfs_row(csr, center)
            sampled_row = row[sampled_ids]
            sampled_dist = float(sampled_row.min()) if sampled_ids.size else math.inf
            # Unsampled centers strictly closer than the closest sampled
            # center, in ascending (distance, vertex) order.
            near = others & (row < sampled_dist)
            near[center] = False
            targets = np.flatnonzero(near)
            weights = row[targets]
            order = np.lexsort((targets, weights))
            for other, d in zip(targets[order].tolist(), weights[order].tolist()):
                if emulator.add_edge(center, other, d):
                    interconnection_edges += 1
            if sampled_dist < math.inf:
                closest = int(sampled_ids[np.argmax(sampled_row == sampled_dist)])
                if emulator.add_edge(center, closest, sampled_dist):
                    superclustering_edges += 1
                host[center] = closest
                offset[center] = sampled_dist

        partition = partition.regroup(host, offset, level + 1)
        if partition.num_clusters == 0:
            break

    return ThorupZwickResult(
        emulator=emulator,
        kappa=kappa,
        levels=levels,
        superclustering_edges=superclustering_edges,
        interconnection_edges=interconnection_edges,
    )
