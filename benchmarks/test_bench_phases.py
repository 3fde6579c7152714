"""Benchmarks for the batched phase-exploration layer.

Times one superclustering-phase-shaped workload — many bounded
explorations from a center set at one radius — through
:func:`repro.graphs.kernels.batched_bfs` against the per-center loop it
replaced, plus full emulator/spanner builds (the fast emulator and the
spanner exercise the :class:`~repro.graphs.shortest_paths.PhaseExplorer`
end to end; Algorithm 1 reads its balls with
:func:`repro.graphs.kernels.ball`).  The
headline check: the batched pass must be at least **2x** faster than
per-center exploration at the active workload tier whenever a
vectorized backend is importable (the batching layer exists for exactly
this reason; scalar-only interpreters skip the gate because batching
degrades to the identical per-source loop there).
"""

from __future__ import annotations

import random
import time

import pytest

from repro.api import BuildSpec, build
from repro.graphs import generators, kernels

#: Average degree of the phase-exploration benchmark graph — dense
#: enough that a radius-4 ball is a real exploration, sparse enough to
#: stay paper-realistic.
_AVG_DEGREE = 16

#: Exploration radius of the benchmark "phase" (a mid-construction
#: ``2 * delta_i``).
_RADIUS = 4


def _phase_workload(tier_n, n=2048, num_centers=256, seed=0):
    n = tier_n(n)
    graph = generators.erdos_renyi(n, _AVG_DEGREE / n, seed=seed)
    centers = sorted(random.Random(1).sample(range(n), min(tier_n(num_centers), n)))
    return graph, centers


def test_bench_phase_exploration_batched(benchmark, tier_n):
    """One batched pass over a phase's center explorations."""
    graph, centers = _phase_workload(tier_n)
    csr = graph.csr()
    kernels.bfs_distances(csr, centers[0])  # compile the snapshot views

    result = benchmark(lambda: list(kernels.batched_bfs(csr, centers, _RADIUS)))
    assert len(result) == len(centers)


def test_bench_phase_exploration_per_center(benchmark, tier_n):
    """The replaced per-center exploration loop (for the ratio)."""
    graph, centers = _phase_workload(tier_n)
    csr = graph.csr()
    kernels.bfs_distances(csr, centers[0])

    result = benchmark(
        lambda: [kernels.bounded_bfs(csr, s, _RADIUS) for s in centers]
    )
    assert len(result) == len(centers)


def test_bench_batched_speedup_at_least_2x(tier_n):
    """The acceptance gate: batched >= 2x over per-center at this tier.

    Measured directly (best of several rounds on both sides, same
    centers) rather than via the benchmark fixture, so the assertion
    compares apples to apples within one process.
    """
    if kernels.available_backends() == ("python",):
        pytest.skip("no vectorized backend importable; batching degrades to "
                    "the identical per-source loop")
    graph, centers = _phase_workload(tier_n)
    csr = graph.csr()
    kernels.bfs_distances(csr, centers[0])

    def best_of(fn, rounds=5):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    batched = best_of(lambda: list(kernels.batched_bfs(csr, centers, _RADIUS)))
    per_center = best_of(lambda: [kernels.bounded_bfs(csr, s, _RADIUS) for s in centers])
    ratio = per_center / batched
    print(f"\nbatched phase exploration speedup: {ratio:.2f}x "
          f"(per-center {per_center:.4f}s, batched {batched:.4f}s, "
          f"{len(centers)} centers, backend={kernels.get_backend()})")
    assert ratio >= 2.0, (
        f"batched exploration only {ratio:.2f}x faster than per-center "
        f"(per-center {per_center:.4f}s vs batched {batched:.4f}s)"
    )


def _build_graph(tier_n, seed=3):
    n = tier_n(1024)
    return generators.erdos_renyi(n, 10 / n, seed=seed)


def test_bench_emulator_full_build(benchmark, tier_n):
    """Algorithm 1 end to end (CSR-row balls, array-backed partitions)."""
    graph = _build_graph(tier_n)
    spec = BuildSpec(product="emulator", method="centralized", eps=0.1, kappa=3.0)

    result = benchmark.pedantic(lambda: build(graph, spec), iterations=1, rounds=3)
    assert result.size > 0


def test_bench_emulator_fast_full_build(benchmark, tier_n):
    """Section 3.3 ruling-set construction end to end."""
    graph = _build_graph(tier_n)
    spec = BuildSpec(product="emulator", method="fast", eps=0.01, kappa=3.0, rho=0.45)

    result = benchmark.pedantic(lambda: build(graph, spec), iterations=1, rounds=3)
    assert result.size > 0


def test_bench_spanner_full_build(benchmark, tier_n):
    """Section 4 spanner construction end to end."""
    graph = _build_graph(tier_n)
    spec = BuildSpec(product="spanner", method="centralized", eps=0.01, kappa=3.0,
                     rho=0.45)

    result = benchmark.pedantic(lambda: build(graph, spec), iterations=1, rounds=3)
    assert result.size > 0


def test_bench_local_workload_generation(benchmark, tier_n):
    """Seeded ``local`` stream generation (batched ball precompute)."""
    from repro.serve.workloads import generate_queries

    graph = _build_graph(tier_n, seed=4)
    num_queries = graph.num_vertices  # long stream: the batched path

    stream = benchmark(lambda: generate_queries(graph, "local", num_queries, seed=2))
    assert len(stream) == num_queries
