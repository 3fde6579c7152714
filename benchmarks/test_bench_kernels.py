"""Benchmarks for the flat-array CSR kernels.

Times the kernel layer (:mod:`repro.graphs.kernels`) against the
reference dict implementations it replaced, on graphs large enough that
exploration cost — not per-call overhead — dominates.  The headline check: CSR BFS must be at least **3x** faster than
the dict BFS at the active workload tier (the kernels exist for exactly
this reason; a regression below that is a bug, not noise).
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
from scipy.sparse import csgraph

import repro
from repro.graphs import generators, kernels
from repro.graphs.shortest_paths import (
    _dict_bfs_distances,
    _dict_multi_source_bfs,
)

#: Average degree of the benchmark graphs.  Dense enough that per-edge
#: work dominates the fixed per-call cost on every backend.
_AVG_DEGREE = 16


def _bench_graph(tier_n, n=4096, seed=0):
    n = tier_n(n)
    return generators.erdos_renyi(n, _AVG_DEGREE / n, seed=seed)


def _sources(graph, count, seed=1):
    return random.Random(seed).sample(range(graph.num_vertices), count)


def test_bench_kernel_bfs(benchmark, tier_n):
    """Kernel BFS (dict boundary included) from 8 sources."""
    graph = _bench_graph(tier_n)
    csr = graph.csr()
    sources = _sources(graph, 8)
    kernels.bfs_distances(csr, sources[0])  # compile the snapshot views

    result = benchmark(lambda: [kernels.bfs_distances(csr, s) for s in sources])
    assert all(len(dist) >= 1 for dist in result)


def test_bench_dict_bfs_reference(benchmark, tier_n):
    """The replaced dict/deque BFS on the same workload (for the ratio)."""
    graph = _bench_graph(tier_n)
    sources = _sources(graph, 8)

    result = benchmark(lambda: [_dict_bfs_distances(graph, s) for s in sources])
    assert all(len(dist) >= 1 for dist in result)


def test_bench_kernel_speedup_at_least_3x(tier_n):
    """The acceptance gate: CSR BFS >= 3x over dict BFS at this tier.

    Measured directly (best of several rounds on both sides, same
    sources) rather than via the benchmark fixture, so the assertion
    compares apples to apples within one process.
    """
    graph = _bench_graph(tier_n)
    csr = graph.csr()
    sources = _sources(graph, 10)
    kernels.bfs_distances(csr, sources[0])  # warm the snapshot views

    def best_of(fn, rounds=5):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            for s in sources:
                fn(s)
            times.append(time.perf_counter() - start)
        return min(times)

    kernel_time = best_of(lambda s: kernels.bfs_distances(csr, s))
    dict_time = best_of(lambda s: _dict_bfs_distances(graph, s))
    ratio = dict_time / kernel_time
    print(f"\nCSR BFS speedup over dict BFS: {ratio:.2f}x "
          f"(dict {dict_time:.4f}s, kernel {kernel_time:.4f}s, "
          f"backend={kernels.get_backend()})")
    assert ratio >= 3.0, (
        f"CSR BFS only {ratio:.2f}x faster than the dict BFS "
        f"(dict {dict_time:.4f}s vs kernel {kernel_time:.4f}s)"
    )


def test_bench_kernel_multi_source(benchmark, tier_n):
    """Kernel multi-source BFS (64 sources, unbounded) vs sanity values."""
    graph = _bench_graph(tier_n)
    csr = graph.csr()
    sources = sorted(_sources(graph, 64))
    dist, origin = kernels.multi_source_bfs(csr, sources)
    ref = _dict_multi_source_bfs(graph, sources)
    assert (dist, origin) == ref  # equivalence, then timing

    out = benchmark(lambda: kernels.multi_source_bfs(csr, sources))
    assert out == ref


def test_bench_kernel_dijkstra(benchmark, tier_n):
    """Weighted Dijkstra kernel on a CSR snapshot of a weighted overlay."""
    graph = _bench_graph(tier_n, n=2048)
    rng = random.Random(2)
    from repro.graphs.weighted_graph import WeightedGraph

    overlay = WeightedGraph(graph.num_vertices)
    for u, v in graph.edges():
        overlay.add_edge(u, v, rng.choice([1.0, 2.0, 3.0]))
    wcsr = overlay.csr()
    sources = _sources(graph, 8)
    reference = overlay._dict_dijkstra(sources[0])
    assert kernels.dijkstra(wcsr, sources[0]) == reference

    result = benchmark(lambda: [kernels.dijkstra(wcsr, s) for s in sources])
    assert len(result) == len(sources)


def test_bench_kernel_rows(tier_n):
    """Unbounded rows: the kernel each snapshot selects vs scipy's heap.

    Prints the per-row time of ``bfs_row`` on gnm (m = 4n), square-grid
    and path graphs and of ``dijkstra_row`` on the default emulator of
    the gnm graph, next to :func:`scipy.sparse.csgraph.dijkstra` called
    directly on the same matrix.  Rows must match bit for bit, and both
    gnm inputs must select breadth-first order.  The wall-clock check
    (breadth-first order no slower than the heap on the gnm inputs) runs
    only with ``REPRO_BENCH_WALL_CLOCK=1``, as in the CI benchmarks job,
    so the tier-1 run stays free of timing assertions.
    """
    n = tier_n(10_000)
    side = int(n ** 0.5)
    gnm = generators.gnm_random_graph(n, 4 * n, seed=0)
    emulator = repro.build(gnm, repro.BuildSpec()).raw.emulator
    cases = (  # name, snapshot, row kernel, whether scipy reads it unweighted, gnm
        ("bfs_row gnm", gnm.csr(), kernels.bfs_row, True, True),
        ("bfs_row grid", generators.grid_graph(side, side).csr(), kernels.bfs_row, True, False),
        ("bfs_row path", generators.path_graph(n).csr(), kernels.bfs_row, True, False),
        ("dijkstra_row gnm emulator", emulator.csr(), kernels.dijkstra_row, False, True),
    )
    sources = _sources(gnm, 8)
    wall_clock = os.environ.get("REPRO_BENCH_WALL_CLOCK") == "1"
    print()
    for name, csr, row, unweighted, is_gnm in cases:
        matrix = csr.scipy_matrix()
        picks = [s % csr.num_vertices for s in sources]

        def heap(s, matrix=matrix, unweighted=unweighted):
            return csgraph.dijkstra(matrix, unweighted=unweighted, indices=s)

        for s in picks:  # the first row also makes the snapshot's selection
            assert np.array_equal(row(csr, s), heap(s)), (name, s)
        assert csr._bfs_rows or not is_gnm, name
        times = {}
        for label, fn in (("kernel", lambda s: row(csr, s)), ("heap", heap)):
            rounds = []
            for _ in range(5):
                start = time.perf_counter()
                for s in picks:
                    fn(s)
                rounds.append(time.perf_counter() - start)
            times[label] = min(rounds) / len(picks) * 1e3
        path = "breadth-first order" if csr._bfs_rows else "heap"
        print(f"{name:27s} n={csr.num_vertices:6d} {path:19s} "
              f"{times['kernel']:7.3f} ms/row, heap {times['heap']:7.3f} ms/row "
              f"({times['heap'] / times['kernel']:.2f}x)")
        if wall_clock and is_gnm:
            assert times["kernel"] <= times["heap"], (name, times)
