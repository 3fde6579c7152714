"""Experiment E16 — what does the wire cost? In-process vs. daemon serving.

E15 establishes the oracle trade-off *in process*; E16 measures the cost
of the deployment shape that makes one oracle shareable: the serving
daemon (:mod:`repro.serve.daemon`).  The same seeded query stream is
answered twice on one graph —

* **in-process**: the stock :func:`~repro.serve.harness.run_load_test`
  path (build + engine in the caller's process, no wire), and
* **over the wire**: an in-process :class:`~repro.serve.OracleDaemon` on
  an ephemeral port, driven by :func:`~repro.serve.wire.run_wire_sweep`
  at each client-concurrency level — every query a JSON round trip
  through a :class:`~repro.serve.RemoteOracle`.

The table shows the wire tax per query (p50/p95/p99) and how client
concurrency buys the throughput back: the daemon's threaded server
overlaps round trips, and the engine's miss coalescing means concurrent
clients hitting the same hot sources share one backend computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.experiments.workloads import Workload, workload_by_name
from repro.serve import OracleDaemon, ServeSpec, run_load_test, run_wire_sweep

__all__ = ["DaemonRow", "run_daemon_experiment", "format_daemon_table"]


@dataclass
class DaemonRow:
    """One row of the E16 table (one serving mode on the shared stream)."""

    mode: str
    concurrency: int
    throughput_qps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    stretch_ok: bool


def run_daemon_experiment(
    workload: Optional[Workload] = None,
    spec: Optional[ServeSpec] = None,
    query_workload: str = "zipf",
    num_queries: int = 300,
    concurrency: Tuple[int, ...] = (1, 2, 4),
    stretch_sample: int = 50,
    seed: int = 0,
) -> Tuple[Workload, List[DaemonRow]]:
    """Run E16: the in-process baseline, then the wire sweep, one shared stream."""
    if workload is None:
        workload = workload_by_name("erdos-renyi", 64, seed=seed)
    if spec is None:
        spec = ServeSpec(seed=seed)
    rows: List[DaemonRow] = []
    report = run_load_test(
        workload.graph,
        spec,
        workload=query_workload,
        num_queries=num_queries,
        stretch_sample=stretch_sample,
        seed=seed,
    )
    rows.append(DaemonRow(
        mode="in-process",
        concurrency=1,
        throughput_qps=report.throughput_qps,
        latency_p50_ms=report.latency_p50_ms,
        latency_p95_ms=report.latency_p95_ms,
        latency_p99_ms=report.latency_p99_ms,
        stretch_ok=report.stretch_ok,
    ))
    with OracleDaemon(port=0) as daemon:
        daemon.add_oracle("default", workload.graph, spec)
        daemon.start()
        sweep = run_wire_sweep(
            daemon.url,
            workload.graph,
            workload=query_workload,
            num_queries=num_queries,
            seed=seed,
            concurrency=concurrency,
            stretch_sample=stretch_sample,
        )
    for level in sweep.levels:
        rows.append(DaemonRow(
            mode="wire",
            concurrency=level.concurrency,
            throughput_qps=level.throughput_qps,
            latency_p50_ms=level.latency_p50_ms,
            latency_p95_ms=level.latency_p95_ms,
            latency_p99_ms=level.latency_p99_ms,
            stretch_ok=sweep.stretch_ok,
        ))
    return workload, rows


def format_daemon_table(workload: Workload, rows: List[DaemonRow]) -> str:
    """Render the E16 table."""
    return format_table(
        ["mode", "clients", "q/s", "p50 ms", "p95 ms", "p99 ms", "ok"],
        [
            [r.mode, r.concurrency, r.throughput_qps, r.latency_p50_ms,
             r.latency_p95_ms, r.latency_p99_ms, str(r.stretch_ok)]
            for r in rows
        ],
        title=(
            f"E16: in-process vs. daemon wire serving on {workload.name} "
            f"(n={workload.n}, m={workload.m})"
        ),
    )
