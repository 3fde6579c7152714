"""Benchmark / table E16 — the wire overhead of the serving daemon.

Times the daemon's serving hot paths against an in-process daemon on an
ephemeral port: single-query round trips (the pure wire tax over the
in-process engine measured in ``test_bench_serve``) and the batched
endpoint that amortizes it.  The E16 table itself is regenerated once.
"""

from __future__ import annotations

import pytest

from repro.experiments.daemon_experiment import format_daemon_table, run_daemon_experiment
from repro.experiments.workloads import workload_by_name
from repro.serve import OracleDaemon, RemoteOracle, ServeSpec, generate_queries


@pytest.fixture(scope="module")
def served(single_random_workload):
    """One daemon (ephemeral port) serving the shared random workload."""
    with OracleDaemon(port=0) as daemon:
        daemon.add_oracle("default", single_random_workload.graph, ServeSpec(seed=0))
        daemon.start()
        yield single_random_workload.graph, daemon


def test_bench_e16_daemon_table(benchmark, tier_n):
    """Regenerate the E16 in-process vs. wire table."""
    workload = workload_by_name("erdos-renyi", tier_n(96), seed=0)

    def run():
        return run_daemon_experiment(
            workload=workload, num_queries=200, concurrency=(1, 2), stretch_sample=40
        )

    served_workload, rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print()
    print(format_daemon_table(served_workload, rows))
    assert all(row.stretch_ok for row in rows)


def test_bench_daemon_wire_queries(benchmark, served):
    """Time 200 single-query HTTP round trips on one keep-alive connection."""
    graph, daemon = served
    queries = generate_queries(graph, "zipf", 200, seed=0)
    with RemoteOracle(daemon.url) as remote:

        def run():
            return [remote.query(u, v) for u, v in queries]

        answers = benchmark(run)
    assert len(answers) == len(queries)


def test_bench_daemon_wire_batch(benchmark, served):
    """Time the same 200 queries through one batched round trip."""
    graph, daemon = served
    queries = generate_queries(graph, "zipf", 200, seed=0)
    with RemoteOracle(daemon.url) as remote:

        def run():
            return remote.query_batch(queries)

        answers = benchmark(run)
    assert len(answers) == len(queries)
