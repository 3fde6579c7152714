"""The Baswana–Sen randomized ``(2k - 1)``-multiplicative spanner.

The paper's size bound ``n^{1 + 1/kappa}`` is exactly the sparsity achieved
by multiplicative ``(2kappa - 1)``-spanners, so a natural calibration point
for experiment E4 is the standard *randomized clustering* construction of
Baswana and Sen: ``k - 1`` rounds of cluster sampling with probability
``n^{-1/k}`` followed by a per-vertex / per-cluster edge selection.  Its
expected size is ``O(k * n^{1 + 1/k})`` and its stretch is purely
multiplicative ``2k - 1``.

Compared with the greedy spanner (`repro.baselines.multiplicative`), this
construction is the one actually used in distributed and streaming settings,
which is why it earns its own module here; the greedy spanner stays as the
deterministic comparator.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set, Tuple

from repro.graphs.graph import Graph

__all__ = ["baswana_sen_spanner"]


def baswana_sen_spanner(graph: Graph, k: int, seed: Optional[int] = None) -> Graph:
    """Randomized ``(2k - 1)``-spanner with expected ``O(k n^{1+1/k})`` edges.

    Parameters
    ----------
    graph:
        The unweighted input graph.
    k:
        Stretch parameter (``k >= 1``); the result is a ``(2k - 1)``-spanner.
    seed:
        Seed for the cluster-sampling randomness (deterministic per seed).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = graph.num_vertices
    spanner = Graph(n)
    if n == 0 or graph.num_edges == 0:
        return spanner
    if k == 1:
        return graph.copy()

    rng = random.Random(seed)
    sample_probability = n ** (-1.0 / k)

    # cluster[v] is the center of the cluster v currently belongs to, or None
    # if v has left the clustering.  Initially every vertex is its own center.
    cluster: Dict[int, Optional[int]] = {v: v for v in graph.vertices()}
    # Residual edges still to be taken care of in future rounds.
    residual: Set[Tuple[int, int]] = {tuple(sorted(e)) for e in graph.edges()}

    def neighbors_by_cluster(v: int) -> Dict[int, Tuple[int, int]]:
        """For vertex ``v``: adjacent cluster center -> one witnessing edge."""
        witnesses: Dict[int, Tuple[int, int]] = {}
        for u in graph.neighbors(v):
            key = (v, u) if v < u else (u, v)
            if key not in residual:
                continue
            center = cluster.get(u)
            if center is None:
                continue
            if center not in witnesses:
                witnesses[center] = (v, u)
        return witnesses

    for _ in range(k - 1):
        sampled_centers = {
            center
            for center in set(c for c in cluster.values() if c is not None)
            if rng.random() < sample_probability
        }
        new_cluster: Dict[int, Optional[int]] = {}
        for v in graph.vertices():
            center = cluster.get(v)
            if center is None:
                new_cluster[v] = None
                continue
            if center in sampled_centers:
                # v's cluster survives this round.
                new_cluster[v] = center
                continue
            witnesses = neighbors_by_cluster(v)
            sampled_adjacent = [c for c in witnesses if c in sampled_centers]
            if sampled_adjacent:
                # Join the (arbitrary but deterministic) smallest sampled
                # adjacent cluster through one edge.  In the unweighted case
                # no adjacent cluster is strictly closer than the joined one,
                # so no further edges are added in this round; edges to the
                # other clusters stay residual for later rounds / the final
                # per-cluster selection.
                chosen = min(sampled_adjacent)
                u, w = witnesses[chosen]
                spanner.add_edge(u, w)
                new_cluster[v] = chosen
                # Edges into the joined cluster are resolved.
                for u2 in graph.neighbors(v):
                    if cluster.get(u2) == chosen:
                        key = (v, u2) if v < u2 else (u2, v)
                        residual.discard(key)
            else:
                # No sampled neighbor: keep one edge per adjacent cluster and
                # leave the clustering.
                for center_id, (a, b) in witnesses.items():
                    spanner.add_edge(a, b)
                    key = (a, b) if a < b else (b, a)
                    residual.discard(key)
                for u2 in graph.neighbors(v):
                    key = (v, u2) if v < u2 else (u2, v)
                    residual.discard(key)
                new_cluster[v] = None
        cluster = new_cluster

    # Final round: every vertex still clustered keeps one edge to each
    # adjacent cluster among the residual edges.
    for v in graph.vertices():
        witnesses = neighbors_by_cluster(v)
        for _, (a, b) in witnesses.items():
            spanner.add_edge(a, b)
            key = (a, b) if a < b else (b, a)
            residual.discard(key)
    return spanner
