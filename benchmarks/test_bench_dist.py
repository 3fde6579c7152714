"""Benchmarks for the distributed sweep executor (:mod:`repro.dist`).

Times the same fault-free sweep through the process-pool executor and
through the coordinator/worker work queue with the same number of local
worker processes, and gates the acceptance bound: the distributed
executor's wire protocol (lease + heartbeat + ``/complete`` per task
over one kept connection per worker thread, graph shipped once per
worker) must cost **<= 2x** the process pool.

The two sides do not pay the same start-up: the process pool starts
fresh worker interpreters for every sweep, while the distributed
executor's local workers stay warm across sweeps, so only its first
sweep pays interpreter start-up.  The workload is sized so builds
dominate either way.  The 2x check is a wall-clock assertion and runs
only with ``REPRO_BENCH_WALL_CLOCK=1`` (as in the CI benchmarks job);
the records-equality checks always run.
"""

from __future__ import annotations

import os
import time

from repro.api import GridSweep, run_sweep
from repro.dist import canonical_record
from repro.graphs import generators

#: Enough tasks that lease round-trips amortise (18 builds per run).
SWEEP = GridSweep(products=("emulator", "spanner"), methods=("centralized",),
                  eps_values=(None, 0.25, 0.5), kappas=(None, 3.0, 6.0))

WORKERS = 2


def _workload_graph(tier_n, seed=5):
    # Large on purpose: the gate compares coordination taxes, so builds
    # must dominate the worker processes' interpreter start-up (~1s).
    # Below n≈4096 the fixed start-up is the whole distributed cost and
    # the 2x bound is unachievable by construction.
    n = tier_n(8192)
    return generators.erdos_renyi(n, 8 / n, seed=seed)


def _run_pool(graph):
    return run_sweep({"g": graph}, SWEEP, workers=WORKERS)


def _run_dist(graph):
    return run_sweep({"g": graph}, SWEEP,
                     dist={"local_workers": WORKERS, "worker_mode": "process"})


def test_bench_sweep_process_pool(benchmark, tier_n):
    """The sharded process-pool executor (the 2x gate's reference)."""
    graph = _workload_graph(tier_n)
    records = benchmark.pedantic(lambda: _run_pool(graph),
                                 iterations=1, rounds=2)
    assert records and all(not record.quarantined for record in records)


def test_bench_sweep_distributed(benchmark, tier_n):
    """The same sweep through the coordinator/worker work queue."""
    graph = _workload_graph(tier_n)
    records = benchmark.pedantic(lambda: _run_dist(graph),
                                 iterations=1, rounds=2)
    assert records and all(not record.quarantined for record in records)


def test_distributed_overhead_under_2x_process_pool(tier_n):
    """The acceptance gate: fault-free distributed cost <= 2x the pool.

    Best-of-two on each side so one slow fork (cold interpreter, page
    cache) cannot fail the gate; the records themselves must also agree,
    so the ratio is measured over identical work.  The ratio is checked
    only with ``REPRO_BENCH_WALL_CLOCK=1``.
    """
    graph = _workload_graph(tier_n)

    def best_of(run):
        times, records = [], None
        for _ in range(2):
            started = time.perf_counter()
            records = run(graph)
            times.append(time.perf_counter() - started)
        return min(times), records

    pool_seconds, pool_records = best_of(_run_pool)
    dist_seconds, dist_records = best_of(_run_dist)

    assert len(dist_records) == len(pool_records)
    assert ([canonical_record(r.result) for r in dist_records]
            == [canonical_record(r.result) for r in pool_records])
    if os.environ.get("REPRO_BENCH_WALL_CLOCK") != "1":
        return
    assert dist_seconds <= 2.0 * pool_seconds, (
        f"distributed sweep took {dist_seconds:.3f}s vs process pool "
        f"{pool_seconds:.3f}s ({dist_seconds / pool_seconds:.2f}x > 2x)"
    )
