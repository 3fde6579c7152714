"""Benchmark / table E1 — emulator size vs the ``n^(1+1/kappa)`` bound.

Regenerates the E1 table of EXPERIMENTS.md and benchmarks the cost of a
single Algorithm 1 construction on a representative workload.
"""

from __future__ import annotations

from repro import BuildSpec, build
from repro.experiments.size_experiment import format_size_table, run_size_experiment


def test_bench_e1_size_table(benchmark, bench_workloads):
    """Build emulators across workloads/kappas and print the E1 table."""
    rows = benchmark.pedantic(
        run_size_experiment,
        kwargs={"workloads": bench_workloads, "kappas": (2, 4, 8, 16)},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_size_table(rows))
    assert all(r.within_bound for r in rows)


def test_bench_e1_single_construction(benchmark, single_random_workload):
    """Time a single Algorithm 1 run (kappa=4) on a 256-vertex random graph."""
    spec = BuildSpec(product="emulator", eps=0.1, kappa=4)
    result = benchmark(build, single_random_workload.graph, spec).raw
    assert result.within_size_bound()
