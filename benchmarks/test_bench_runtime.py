"""Benchmark / table E7 — running-time scaling of the centralized builders."""

from __future__ import annotations

from repro import BuildSpec, build
from repro.experiments.runtime_experiment import format_runtime_table, run_runtime_experiment


def test_bench_e7_runtime_table(benchmark, scaling_bench_workloads):
    """Measure construction time over a scaling family and print E7."""
    rows = benchmark.pedantic(
        run_runtime_experiment,
        kwargs={"workloads": scaling_bench_workloads, "kappa": 4},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_runtime_table(rows))
    assert all(r.algorithm1_seconds > 0 for r in rows)


def test_bench_e7_algorithm1(benchmark, single_random_workload):
    """Per-call timing of Algorithm 1 (kappa=4, 256 vertices)."""
    spec = BuildSpec(product="emulator", eps=0.1, kappa=4)
    result = benchmark(build, single_random_workload.graph, spec).raw
    assert result.within_size_bound()


def test_bench_e7_fast_construction(benchmark, single_random_workload):
    """Per-call timing of the Section 3.3 construction (kappa=4, 256 vertices)."""
    spec = BuildSpec(product="emulator", method="fast", eps=0.01, kappa=4, rho=0.45)
    result = benchmark(build, single_random_workload.graph, spec).raw
    assert result.num_edges <= result.size_bound + 1e-9
