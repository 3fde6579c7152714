"""Benchmark / table E5 — the distributed CONGEST construction."""

from __future__ import annotations

from repro import BuildSpec, build
from repro.experiments.congest_experiment import format_congest_table, run_congest_experiment
from repro.experiments.workloads import standard_workloads


def test_bench_e5_congest_table(benchmark, tier_n):
    """Run the CONGEST construction across workloads/rhos and print E5."""
    workloads = standard_workloads(n=tier_n(64), seed=0)
    rows = benchmark.pedantic(
        run_congest_experiment,
        kwargs={"workloads": workloads, "kappa": 4, "rhos": (0.3, 0.45)},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_congest_table(rows))
    for row in rows:
        assert row.size_ratio <= 1.0 + 1e-9
        assert row.both_endpoints_know


def test_bench_e5_single_congest_build(benchmark, small_bench_workloads):
    """Time one CONGEST construction on a 96-vertex workload."""
    graph = small_bench_workloads[0].graph
    spec = BuildSpec(product="emulator", method="congest", eps=0.01, kappa=4, rho=0.45)
    result = benchmark.pedantic(
        build,
        args=(graph, spec),
        iterations=1,
        rounds=3,
    ).raw
    assert result.both_endpoints_know_all_edges()
