"""Benchmarks for the array-native :class:`~repro.graphs.graph.Graph`.

Times what every build, sweep and daemon pays for its graph before the
first kernel call, on a seeded G(n, m) with ``m = 4n``:

* ingesting an edge list (one numpy sort of the directed keys);
* ``csr()`` after a batch of per-edge edits (folding the edit overlay
  into new arrays; on an unedited graph the snapshot is a free wrap);
* a pickle round trip (how a graph reaches sweep workers);
* ``content_hash`` (the graph half of every cache key).

Tier-1 checks only the outputs.  With ``REPRO_BENCH_WALL_CLOCK=1`` (as in
the CI benchmarks job) the bulk constructor must also beat an
``add_edge`` loop over the same edges.
"""

from __future__ import annotations

import os
import pickle
import random
import time

from repro.graphs import generators
from repro.graphs.graph import Graph

#: Edits folded by the ``csr()`` benchmark: a live-serving batch.
EDITS = 256


def _edges(tier_n, n=20_000, seed=0):
    n = tier_n(n)
    return n, list(generators.gnm_random_graph(n, 4 * n, seed=seed).edges())


def test_bench_graph_ingest(benchmark, tier_n):
    n, edges = _edges(tier_n)
    graph = benchmark(lambda: Graph(n, edges))
    assert graph.num_edges == len(edges)


def test_bench_graph_csr_fold(benchmark, tier_n):
    n, edges = _edges(tier_n)
    base = Graph(n, edges)
    rng = random.Random(1)
    removed = rng.sample(edges, EDITS // 2)

    def edited():
        graph = base.copy()
        for u, v in removed:
            graph.remove_edge(u, v)
        while graph.num_edges < len(edges):
            graph.add_edge(*rng.sample(range(n), 2))
        return (graph,), {}

    csr = benchmark.pedantic(lambda graph: graph.csr(), setup=edited, rounds=20)
    assert csr.num_edges == len(edges)


def test_bench_graph_pickle_roundtrip(benchmark, tier_n):
    n, edges = _edges(tier_n)
    graph = Graph(n, edges)
    restored = benchmark(lambda: pickle.loads(pickle.dumps(graph)))
    assert restored == graph


def test_bench_graph_content_hash(benchmark, tier_n):
    n, edges = _edges(tier_n)
    blob = pickle.dumps(Graph(n, edges))  # the digest is memoized, not pickled
    digest = benchmark.pedantic(lambda graph: graph.content_hash(),
                                setup=lambda: ((pickle.loads(blob),), {}), rounds=20)
    assert digest == Graph(n, edges).content_hash()


def test_bulk_ingest_beats_add_edge_loop(tier_n):
    """The bulk constructor against per-edge inserts of the same edges.

    Best of three on each side; the graphs must be equal.  The timing is
    compared only with ``REPRO_BENCH_WALL_CLOCK=1``.
    """
    n, edges = _edges(tier_n)

    def looped():
        graph = Graph(n)
        for u, v in edges:
            graph.add_edge(u, v)
        graph.csr()
        return graph

    def bulk():
        graph = Graph(n, edges)
        graph.csr()
        return graph

    def best_of(make):
        times = []
        for _ in range(3):
            started = time.perf_counter()
            graph = make()
            times.append(time.perf_counter() - started)
        return min(times), graph

    loop_seconds, loop_graph = best_of(looped)
    bulk_seconds, bulk_graph = best_of(bulk)
    assert bulk_graph == loop_graph
    if os.environ.get("REPRO_BENCH_WALL_CLOCK") != "1":
        return
    assert bulk_seconds < loop_seconds, (
        f"bulk ingest took {bulk_seconds:.4f}s vs {loop_seconds:.4f}s for add_edge")
