"""Production query serving: oracle registry, query engine, load harness.

The build layer (:mod:`repro.api`) stops at *construction*; this
subsystem is the missing half of the paper's oracle application story —
it loads a built product and serves approximate distance queries under
load::

    from repro import Graph
    from repro.serve import ServeSpec, load

    engine = load(graph, ServeSpec(product="emulator", method="fast"))
    engine.query(0, 17)                      # single pair
    engine.query_batch(pairs, workers=4)     # sharded across processes
    engine.stats()                           # hits / misses / evictions

Pieces
------
:class:`ServeSpec`
    Frozen serving configuration: the backing ``product`` × ``method`` ×
    parameters, the oracle ``backend``, and engine knobs.
:func:`register_oracle` / :func:`get_oracle` / :func:`available_oracles`
    The oracle backend registry (mirrors the builder registry); stock
    backends are ``emulator``, ``spanner``, ``hopset`` and ``exact``.
:class:`DistanceOracle`
    The protocol every backend and the engine satisfy: ``query`` /
    ``query_batch`` / ``single_source`` / ``stats`` + ``alpha`` / ``beta``.
:class:`DistanceRow`
    The read-only single-source map the emulator, spanner and exact
    backends return: a dense float64 row behind the ``Mapping`` API.
:class:`QueryEngine`
    Bounded per-source LRU memoization, source-grouped batches, and a
    multi-worker mode sharding batches across a process pool.  The engine
    is thread-safe and coalesces concurrent misses for the same source
    onto one backend computation.
:func:`load`
    The entry point: ``ServeSpec`` -> preprocessed, query-ready engine.
:func:`generate_queries` + :func:`run_load_test` / :class:`ServeReport`
    Seeded query workloads (uniform / zipf / local / mixed) and the load
    harness measuring throughput, p50/p95/p99 latency and observed vs.
    guaranteed stretch into a JSON-round-trippable report.
:class:`OracleDaemon` / :class:`RemoteOracle` / :func:`run_wire_sweep`
    The client/server half (:mod:`repro.serve.daemon`,
    :mod:`repro.serve.remote`, :mod:`repro.serve.wire`): a persistent
    HTTP daemon serving named oracles straight from their (coalescing)
    engines with profile-driven warm-up, the ``remote`` proxy backend that shares one
    daemon-built oracle across processes, and the wire-level
    client-concurrency load sweep::

        daemon = OracleDaemon(port=0)
        daemon.add_oracle("default", graph, ServeSpec())
        daemon.start()
        remote = serve.load(graph, ServeSpec(backend="remote",
                                             options={"url": daemon.url}))
        remote.query(0, 17)                  # answered by the daemon

:class:`LiveEngine` / :class:`GraphMutation` / :func:`run_churn_sweep`
    Live serving (:mod:`repro.serve.live`): a mutable engine that applies
    edge insertions/deletions immediately, rebuilds the oracle in a
    background thread, hot-swaps it atomically, and tags every answer
    with ``(version, staleness)``; ``ServeSpec(live=True)`` routes
    :func:`load` to it, the daemon serves it with ``POST /mutate``, and
    the churn sweep drives a live daemon with concurrent queries and
    mutations while checking every tagged answer against the graph
    version it was computed on::

        engine = serve.load(graph, ServeSpec(live=True))
        engine.mutate(deletes=[(0, 17)])     # applied immediately
        engine.query_tagged(0, 17)           # (value, version, staleness, ...)
"""

from repro.serve.spec import ServeSpec
from repro.serve.registry import (
    RegisteredOracle,
    available_oracles,
    buildable_oracles,
    get_oracle,
    is_oracle_registered,
    register_oracle,
)
from repro.serve.oracles import (
    DistanceOracle,
    DistanceRow,
    EmulatorOracle,
    ExactOracle,
    HopsetOracle,
    OracleBackend,
    SpannerOracle,
)
from repro.serve.engine import QueryEngine
from repro.serve.service import load
from repro.serve.workloads import (
    QUERY_WORKLOADS,
    WorkloadProfile,
    available_workloads,
    generate_queries,
    profile,
)
from repro.serve.harness import ServeReport, nearest_rank_percentile, run_load_test
from repro.serve.daemon import (
    DaemonConfig,
    OracleConfig,
    OracleDaemon,
)
from repro.serve.remote import RemoteOracle, RemoteOracleError
from repro.serve.live import (
    GraphMutation,
    LiveAnswer,
    LiveEngine,
    MutationReceipt,
    OracleVersion,
)
from repro.serve.wire import (
    ChurnLevel,
    ChurnSweepReport,
    WireSweepLevel,
    WireSweepReport,
    run_churn_sweep,
    run_wire_sweep,
)

__all__ = [
    "ServeSpec",
    "RegisteredOracle",
    "register_oracle",
    "get_oracle",
    "available_oracles",
    "buildable_oracles",
    "is_oracle_registered",
    "DistanceOracle",
    "DistanceRow",
    "OracleBackend",
    "EmulatorOracle",
    "SpannerOracle",
    "HopsetOracle",
    "ExactOracle",
    "QueryEngine",
    "load",
    "QUERY_WORKLOADS",
    "WorkloadProfile",
    "available_workloads",
    "generate_queries",
    "profile",
    "ServeReport",
    "nearest_rank_percentile",
    "run_load_test",
    "DaemonConfig",
    "OracleConfig",
    "OracleDaemon",
    "RemoteOracle",
    "RemoteOracleError",
    "GraphMutation",
    "OracleVersion",
    "LiveAnswer",
    "MutationReceipt",
    "LiveEngine",
    "WireSweepLevel",
    "WireSweepReport",
    "run_wire_sweep",
    "ChurnLevel",
    "ChurnSweepReport",
    "run_churn_sweep",
]
