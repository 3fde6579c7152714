"""Benchmark / table E6 — Section 4 spanners vs the EM19 baseline."""

from __future__ import annotations

from repro import BuildSpec, build
from repro.experiments.spanner_experiment import format_spanner_table, run_spanner_experiment


def test_bench_e6_spanner_table(benchmark, bench_workloads):
    """Build both spanners on every workload and print E6."""
    rows = benchmark.pedantic(
        run_spanner_experiment,
        kwargs={"workloads": bench_workloads, "kappa": 4, "sample_pairs": 200},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_spanner_table(rows))
    assert all(r.ours_valid and r.em19_valid for r in rows)


def test_bench_e6_single_spanner_build(benchmark, single_random_workload):
    """Time one Section 4 spanner construction."""
    spec = BuildSpec(product="spanner", eps=0.01, kappa=4, rho=0.45)
    result = benchmark(build, single_random_workload.graph, spec).raw
    assert result.is_subgraph_of(single_random_workload.graph)
