"""Benchmark / table E3 — measured stretch vs the (1+eps, beta) guarantee."""

from __future__ import annotations

from repro import BuildSpec, build
from repro.analysis.validation import verify_emulator
from repro.experiments.stretch_experiment import format_stretch_table, run_stretch_experiment


def test_bench_e3_stretch_table(benchmark, small_bench_workloads):
    """Build + validate emulators over all workloads and print E3."""
    rows = benchmark.pedantic(
        run_stretch_experiment,
        kwargs={"workloads": small_bench_workloads, "kappa": 4, "sample_pairs": 300},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_stretch_table(rows))
    assert all(r.valid for r in rows)


def test_bench_e3_validation_cost(benchmark, single_random_workload):
    """Time the exact-pair validation itself (the measurement harness)."""
    graph = single_random_workload.graph
    result = build(graph, BuildSpec(product="emulator", eps=0.1, kappa=4)).raw
    report = benchmark(
        verify_emulator, graph, result.emulator, result.alpha, result.beta, 300
    )
    assert report.valid
