"""Benchmarks for full phase-structured builds.

Times the emulator and spanner builders end to end (every builder reads
one :func:`repro.graphs.kernels.ball` per considered center) and the
seeded ``local`` query-stream generator, which reads one ball per
distinct source.
"""

from __future__ import annotations

from repro.api import BuildSpec, build
from repro.graphs import generators


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
    """Seeded ``local`` stream generation (one lazy ball per distinct source)."""
    from repro.serve.workloads import generate_queries

    graph = _build_graph(tier_n, seed=4)
    num_queries = graph.num_vertices  # long stream: most sources are drawn

    stream = benchmark(lambda: generate_queries(graph, "local", num_queries, seed=2))
    assert len(stream) == num_queries
