"""Benchmark / table E10 — emulator edge sets as near-exact hopsets.

Regenerates the E10 table of EXPERIMENTS.md and benchmarks one hopset
construction plus hopbound measurement.
"""

from __future__ import annotations

from repro import BuildSpec, build
from repro.experiments.hopset_experiment import format_hopset_table, run_hopset_experiment


def test_bench_e10_hopset_table(benchmark, small_bench_workloads):
    """Build hopsets across workloads and print the E10 table."""
    rows = benchmark.pedantic(
        run_hopset_experiment,
        kwargs={"workloads": small_bench_workloads},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_hopset_table(rows))
    # The hopset never needs more hops than a plain BFS would, and usually far fewer.
    assert all(r.hopbound_exact <= max(1, r.baseline_hops) for r in rows)


def test_bench_e10_single_hopset(benchmark, single_random_workload):
    """Time a single ultra-sparse hopset construction."""
    spec = BuildSpec(product="hopset", eps=0.1)
    result = benchmark(build, single_random_workload.graph, spec).raw
    assert result.num_edges <= result.emulator_result.size_bound + 1e-9
