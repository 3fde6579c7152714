"""Benchmark / table E2 — ultra-sparse emulators (``n + o(n)`` edges)."""

from __future__ import annotations

from repro import BuildSpec, build
from repro.core.parameters import CentralizedSchedule, ultra_sparse_kappa
from repro.experiments.ultrasparse_experiment import (
    format_ultrasparse_table,
    run_ultrasparse_experiment,
)


def test_bench_e2_ultrasparse_table(benchmark, scaling_bench_workloads):
    """Build ultra-sparse emulators over a scaling family and print E2."""
    rows = benchmark.pedantic(
        run_ultrasparse_experiment,
        kwargs={"workloads": scaling_bench_workloads},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_ultrasparse_table(rows))
    assert all(r.excess_over_n <= r.allowed_excess + 1e-9 for r in rows)


def test_bench_e2_single_ultrasparse_build(benchmark, single_random_workload):
    """Time one ultra-sparse (kappa = omega(log n)) construction."""
    n = single_random_workload.n
    schedule = CentralizedSchedule(n=n, eps=0.1, kappa=ultra_sparse_kappa(n))

    spec = BuildSpec(product="emulator", schedule=schedule)
    result = benchmark(build, single_random_workload.graph, spec).raw
    assert result.within_size_bound()
