"""Command-line interface: ``python -m repro`` / ``repro``.

Every construction goes through the unified facade
(:func:`repro.api.build`) and every query-serving stack through the
serving layer (:func:`repro.serve.load`); sub-commands select a
``(product, method)`` pair, an oracle backend, and the paper parameters.

Sub-commands
------------
``build``
    Build any product (``--product emulator|spanner|hopset``) with any
    method (``--method centralized|fast|congest``) for a graph read from an
    edge-list file (or a generated workload) and write it out as an edge
    list.  The legacy ``--algorithm`` flag remains as an alias.
``verify``
    Check a previously built emulator against its graph.
``experiments``
    Run the experiment suite (E1-E19) and print the result tables.
``sweep``
    Run a config-driven product x method x parameter grid through the
    facade and print one table row per build.  With ``--coordinator``
    the grid runs on the fault-tolerant distributed executor: an
    embedded work-queue coordinator leases tasks to workers (local ones
    spawned via ``--dist-workers``, remote ones joining with
    ``repro dist-worker``).
``dist-coordinator``
    Run a sweep as a standalone work-queue coordinator: bind the lease
    protocol at ``--bind``, journal task state for restart resume, and
    wait for ``repro dist-worker`` processes to drain the grid through
    a shared ``--cache-dir``.
``dist-worker``
    Join a running coordinator, lease tasks, build them, and deliver
    results through the shared content-addressed cache directory.
``hopset``
    Build an emulator-derived hopset (any emulator method) and report its
    size and measured hopbound.
``query``
    Load a serving stack (any product, any oracle backend) and answer a
    list of ``u:v`` distance queries; with ``--url`` the queries go to a
    running daemon instead of a locally built oracle.
``bench-serve``
    Drive a serving stack with a seeded query workload and print the load
    harness' JSON report (throughput, p50/p95/p99 latency, observed vs
    guaranteed stretch).  With ``--url`` the same workload is driven over
    the wire against a daemon, swept across ``--concurrency`` levels.
``serve-daemon``
    Start the persistent oracle-serving daemon (one oracle from the
    graph/serve flags, or many from a ``--config`` JSON file) and block
    until interrupted.  Prints ``daemon listening on http://host:port``
    once the socket accepts, so scripts can scrape the ephemeral port.
    With ``--live`` the oracle accepts ``POST /mutate`` edge mutations
    and tags every answer with ``(version, staleness)``.
``mutate``
    Send a batch of edge insertions/deletions to a live oracle served by
    a running daemon and print the mutation receipt.
``oracle``
    Legacy alias of ``query`` pinned to the ultra-sparse emulator backend.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Any, List, Optional, Tuple

from repro.analysis.validation import verify_emulator
from repro.api import (
    METHODS,
    PRODUCTS,
    BuildSpec,
    GridSweep,
    ResultCache,
    build,
    format_sweep_table,
    run_sweep,
)
from repro.experiments.runner import available_experiments, run_all, run_experiment
from repro.experiments.workloads import workload_by_name
from repro.graphs import io as graph_io
from repro.graphs.graph import Graph
from repro.obs import (
    clear_spans,
    export_trace,
    format_trace_summary,
    load_trace,
    set_enabled,
    summarize_trace,
)
from repro.serve import (
    DaemonConfig,
    OracleDaemon,
    RemoteOracle,
    RemoteOracleError,
    ServeSpec,
    WorkloadProfile,
    available_oracles,
    available_workloads,
    run_load_test,
    run_wire_sweep,
)
from repro.serve import load as serve_load

__all__ = ["main", "build_parser"]

#: Legacy ``--algorithm`` values and the (product, method) pair they mean.
_ALGORITHM_ALIASES = {
    "centralized": ("emulator", "centralized"),
    "fast": ("emulator", "fast"),
    "congest": ("emulator", "congest"),
    "spanner": ("spanner", "centralized"),
}


def _add_graph_arguments(parser: argparse.ArgumentParser, default_n: int = 256) -> None:
    """The shared graph-input arguments (edge-list file or generated family)."""
    parser.add_argument("--input", help="edge-list file (header 'n m', lines 'u v')")
    parser.add_argument("--family", help="generate a workload family instead of reading a file")
    parser.add_argument("--n", type=int, default=default_n,
                        help="size of the generated workload")
    parser.add_argument("--seed", type=int, default=0, help="workload generator seed")


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared serving-stack arguments (product/method/backend + engine knobs)."""
    parser.add_argument("--product", choices=list(PRODUCTS), default="emulator",
                        help="preprocessed product backing the oracle")
    parser.add_argument("--method", choices=list(METHODS), default="centralized",
                        help="construction method of the backing build")
    parser.add_argument("--backend", choices=available_oracles(), default=None,
                        help="oracle backend (default: the one named after --product)")
    parser.add_argument("--eps", type=float, default=None,
                        help="epsilon parameter (default: builder default)")
    parser.add_argument("--kappa", type=float, default=None,
                        help="kappa parameter (default: builder default)")
    parser.add_argument("--rho", type=float, default=None,
                        help="rho parameter (fast/congest methods)")
    parser.add_argument("--cache-sources", type=int, default=256,
                        help="bound on the engine's per-source LRU memo")
    parser.add_argument("--live", action="store_true",
                        help="serve a live (mutable) engine: mutations are "
                             "accepted and every answer is version-tagged")
    parser.add_argument("--rebuild-after", type=int, default=None,
                        help="--live only: force a rebuild once this many "
                             "mutations are unabsorbed (default: only when "
                             "the guarantee requires it)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-emulator",
        description="Ultra-sparse near-additive emulators (Elkin & Matar, PODC 2021)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    build_cmd = subparsers.add_parser(
        "build", help="build an emulator, spanner, or hopset via the unified facade"
    )
    _add_graph_arguments(build_cmd)
    build_cmd.add_argument(
        "--product",
        choices=list(PRODUCTS),
        default=None,
        help="what to build (default: emulator, or whatever --algorithm implies)",
    )
    build_cmd.add_argument(
        "--method",
        choices=list(METHODS),
        default=None,
        help="which construction to run (default: centralized)",
    )
    build_cmd.add_argument(
        "--algorithm",
        choices=sorted(_ALGORITHM_ALIASES),
        default="centralized",
        help="legacy alias for --product/--method (ignored when those are given)",
    )
    build_cmd.add_argument("--eps", type=float, default=0.1, help="epsilon parameter")
    build_cmd.add_argument("--kappa", type=float, default=4.0,
                           help="kappa (sparsity) parameter")
    build_cmd.add_argument("--rho", type=float, default=0.45,
                           help="rho parameter (fast/congest methods)")
    build_cmd.add_argument("--output", help="write the result as a (weighted) edge list")
    _add_trace_argument(build_cmd)

    sweep = subparsers.add_parser(
        "sweep", help="run a product x method x parameter grid through the facade"
    )
    _add_graph_arguments(sweep, default_n=128)
    sweep.add_argument("--products", nargs="+", choices=list(PRODUCTS), default=list(PRODUCTS),
                       help="products to sweep")
    sweep.add_argument("--methods", nargs="+", choices=list(METHODS), default=list(METHODS),
                       help="methods to sweep")
    sweep.add_argument("--eps-values", nargs="+", type=float, default=None,
                       help="epsilon grid (default: builder defaults)")
    sweep.add_argument("--kappas", nargs="+", type=float, default=None,
                       help="kappa grid (default: builder defaults)")
    sweep.add_argument("--rhos", nargs="+", type=float, default=None,
                       help="rho grid (default: builder defaults)")
    sweep.add_argument("--verify-pairs", type=int, default=None,
                       help="verify each result on this many sampled pairs")
    sweep.add_argument("--workers", type=int, default=1,
                       help="shard the grid across this many worker processes (1 = serial)")
    sweep.add_argument("--cache-dir", default=None,
                       help="content-addressed result cache directory "
                            "(default: $REPRO_CACHE_DIR if set, else no caching)")
    sweep.add_argument("--cache-max-entries", type=int, default=None,
                       help="LRU-evict cache entries past this count "
                            "(default: unbounded)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="disable the result cache even if --cache-dir or "
                            "$REPRO_CACHE_DIR is set")
    sweep.add_argument("--no-shared-explorations", action="store_true",
                       help="recompute center explorations per spec instead of "
                            "sharing them across the specs on one graph "
                            "(results are identical; for benchmarking only)")
    sweep.add_argument("--coordinator", default=None, metavar="[HOST:]PORT",
                       help="run the grid on the distributed work-queue "
                            "executor, binding the coordinator here "
                            "(port 0 = ephemeral); prints 'coordinator "
                            "listening on URL' once the socket accepts")
    sweep.add_argument("--dist-workers", type=int, default=2,
                       help="local worker processes to spawn when "
                            "--coordinator is given (0 = wait for external "
                            "'repro dist-worker' processes)")
    sweep.add_argument("--journal", default=None,
                       help="--coordinator only: journal task state to this "
                            "file so a restarted coordinator resumes the sweep")
    _add_trace_argument(sweep)

    dist_coordinator = subparsers.add_parser(
        "dist-coordinator",
        help="serve a sweep's task queue to distributed workers",
    )
    _add_graph_arguments(dist_coordinator, default_n=128)
    dist_coordinator.add_argument("--products", nargs="+", choices=list(PRODUCTS),
                                  default=list(PRODUCTS), help="products to sweep")
    dist_coordinator.add_argument("--methods", nargs="+", choices=list(METHODS),
                                  default=list(METHODS), help="methods to sweep")
    dist_coordinator.add_argument("--eps-values", nargs="+", type=float, default=None,
                                  help="epsilon grid (default: builder defaults)")
    dist_coordinator.add_argument("--kappas", nargs="+", type=float, default=None,
                                  help="kappa grid (default: builder defaults)")
    dist_coordinator.add_argument("--rhos", nargs="+", type=float, default=None,
                                  help="rho grid (default: builder defaults)")
    dist_coordinator.add_argument("--verify-pairs", type=int, default=None,
                                  help="verify each result on this many sampled pairs")
    dist_coordinator.add_argument("--bind", default="127.0.0.1:0", metavar="[HOST:]PORT",
                                  help="lease-protocol bind address "
                                       "(default: ephemeral port on 127.0.0.1)")
    dist_coordinator.add_argument("--cache-dir", default=".repro-dist-cache",
                                  help="shared content-addressed cache directory "
                                       "(the result transport; workers must see "
                                       "the same files)")
    dist_coordinator.add_argument("--journal", default=None,
                                  help="journal task state to this file so a "
                                       "restarted coordinator resumes the sweep")
    dist_coordinator.add_argument("--lease-ttl", type=float, default=5.0,
                                  help="seconds a task lease lives between heartbeats")
    dist_coordinator.add_argument("--max-attempts", type=int, default=3,
                                  help="leases a task may burn before quarantine")
    dist_coordinator.add_argument("--dist-workers", type=int, default=0,
                                  help="local worker processes to spawn "
                                       "(default 0: external workers only)")

    dist_worker = subparsers.add_parser(
        "dist-worker", help="lease and build tasks from a running coordinator"
    )
    dist_worker.add_argument("--url", required=True,
                             help="coordinator base URL (http://host:port)")
    dist_worker.add_argument("--cache-dir", required=True,
                             help="shared cache directory results are delivered to")
    dist_worker.add_argument("--worker-id", default=None,
                             help="stable worker name (default: hostname-pid)")
    dist_worker.add_argument("--max-tasks", type=int, default=None,
                             help="exit after completing this many tasks")
    dist_worker.add_argument("--stay", action="store_true",
                             help="keep polling after the sweep completes "
                                  "(serve successive sweeps at the same URL)")
    dist_worker.add_argument("--give-up-after", type=float, default=30.0,
                             help="seconds of consecutive coordinator "
                                  "unreachability before exiting")

    verify = subparsers.add_parser("verify", help="verify an emulator against its graph")
    verify.add_argument("--graph", required=True, help="edge-list file of the original graph")
    verify.add_argument("--emulator", required=True,
                        help="weighted edge-list file of the emulator")
    verify.add_argument("--alpha", type=float, required=True, help="multiplicative stretch bound")
    verify.add_argument("--beta", type=float, required=True, help="additive stretch bound")
    verify.add_argument("--sample-pairs", type=int, default=None,
                        help="check only this many sampled pairs (default: all pairs)")

    experiments = subparsers.add_parser("experiments", help="run the E1-E19 experiment suite")
    experiments.add_argument("--only", choices=available_experiments(), default=None,
                             help="run a single experiment")
    experiments.add_argument("--full", action="store_true",
                             help="use the larger (slower) workload sizes")
    experiments.add_argument("--workers", type=int, default=1,
                             help="worker processes for the executor-backed experiments "
                                  "(E1, E7, E14)")

    hopset = subparsers.add_parser("hopset", help="build an emulator-derived hopset")
    _add_graph_arguments(hopset)
    hopset.add_argument(
        "--method",
        choices=list(METHODS),
        default="centralized",
        help="emulator construction the hopset is derived from",
    )
    hopset.add_argument("--eps", type=float, default=0.1, help="epsilon parameter")
    hopset.add_argument("--kappa", type=float, default=None,
                        help="kappa parameter (default: ultra-sparse omega(log n))")
    hopset.add_argument("--rho", type=float, default=0.45,
                        help="rho parameter (fast/congest methods)")
    hopset.add_argument("--sample-pairs", type=int, default=200,
                        help="pairs used when measuring the hopbound")
    hopset.add_argument("--output", help="write the hopset as a weighted edge list")

    query = subparsers.add_parser(
        "query", help="serve approximate distance queries from any oracle backend"
    )
    _add_graph_arguments(query)
    _add_serve_arguments(query)
    query.add_argument("--queries", nargs="+", default=[],
                       help="queries as 'u:v' pairs, e.g. 0:17 3:42")
    query.add_argument("--url", default=None,
                       help="query a running serve-daemon at this URL instead of "
                            "building a local oracle (graph flags are ignored)")
    query.add_argument("--oracle-name", default=None,
                       help="served oracle to query with --url (default: the "
                            "daemon's default oracle)")

    bench_serve = subparsers.add_parser(
        "bench-serve",
        help="drive a serving stack with a query workload and print the JSON report",
    )
    _add_graph_arguments(bench_serve)
    _add_serve_arguments(bench_serve)
    bench_serve.add_argument("--workload", choices=available_workloads(), default="uniform",
                             help="query-stream shape")
    bench_serve.add_argument("--queries", type=int, default=10000,
                             help="length of the query stream")
    bench_serve.add_argument("--workers", type=int, default=1,
                             help="answer the stream in sharded batches on this many "
                                  "worker processes (1 = serial)")
    bench_serve.add_argument("--stretch-sample", type=int, default=100,
                             help="distinct stream pairs re-checked against exact BFS")
    bench_serve.add_argument("--output", help="also write the JSON report to this file")
    bench_serve.add_argument("--url", default=None,
                             help="drive a running serve-daemon at this URL over the "
                                  "wire instead of an in-process stack")
    bench_serve.add_argument("--oracle-name", default=None,
                             help="served oracle to drive with --url (default: the "
                                  "daemon's default oracle)")
    bench_serve.add_argument("--concurrency", nargs="+", type=int, default=[1, 2, 4],
                             help="client-concurrency levels of the --url wire sweep")
    _add_trace_argument(bench_serve)

    serve_daemon = subparsers.add_parser(
        "serve-daemon",
        help="start the persistent oracle-serving daemon and block until interrupted",
    )
    _add_graph_arguments(serve_daemon)
    _add_serve_arguments(serve_daemon)
    serve_daemon.add_argument("--host", default="127.0.0.1", help="address to bind")
    serve_daemon.add_argument("--port", type=int, default=0,
                              help="port to bind (0 = ephemeral; the chosen port is "
                                   "printed on startup)")
    serve_daemon.add_argument("--config", default=None,
                              help="JSON config file of named oracles (overrides the "
                                   "graph/serve flags)")
    serve_daemon.add_argument("--name", default="default",
                              help="name the single flag-built oracle is served under")
    serve_daemon.add_argument("--warmup-profile", default=None,
                              help="saved workload profile (JSON) whose hottest "
                                   "sources are preloaded at startup")
    serve_daemon.add_argument("--warmup-sources", type=int, default=None,
                              help="how many profile sources to preload "
                                   "(default: up to the memo bound)")
    serve_daemon.add_argument("--max-inflight", type=int, default=None,
                              help="admission bound: past this many concurrent "
                                   "requests new ones are shed with 503 + "
                                   "Retry-After (default: unbounded)")
    serve_daemon.add_argument("--deadline-ms", type=float, default=None,
                              help="per-request deadline in milliseconds; overruns "
                                   "answer 504 (clients may ask for less via the "
                                   "'deadline_ms' request field)")
    serve_daemon.add_argument("--verbose", action="store_true",
                              help="log every HTTP request to stderr")

    mutate = subparsers.add_parser(
        "mutate",
        help="send edge mutations to a live oracle on a running serve-daemon",
    )
    mutate.add_argument("--url", required=True,
                        help="base URL of the running serve-daemon")
    mutate.add_argument("--insert", nargs="+", default=[],
                        help="edges to insert as 'u:v' pairs, e.g. 0:17 3:42")
    mutate.add_argument("--delete", nargs="+", default=[],
                        help="edges to delete as 'u:v' pairs")
    mutate.add_argument("--oracle-name", default=None,
                        help="served oracle to mutate (default: the daemon's "
                             "default oracle)")
    mutate.add_argument("--wait", action="store_true",
                        help="block until the mutations are absorbed into a "
                             "fresh oracle version before returning")

    oracle = subparsers.add_parser(
        "oracle", help="answer approximate distance queries (legacy ultra-sparse emulator)"
    )
    _add_graph_arguments(oracle)
    oracle.add_argument("--eps", type=float, default=0.1, help="epsilon parameter")
    oracle.add_argument("--kappa", type=float, default=None,
                        help="kappa parameter (default: ultra-sparse omega(log n))")
    oracle.add_argument("--queries", nargs="+", default=[],
                        help="queries as 'u:v' pairs, e.g. 0:17 3:42")

    obs_report = subparsers.add_parser(
        "obs-report",
        help="summarize a Chrome trace written by --trace as a per-span table",
    )
    obs_report.add_argument("trace", help="trace JSON file written by --trace")
    return parser


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="OUT.JSON",
                        help="write the run's telemetry spans as Chrome trace "
                             "JSON (loadable in chrome://tracing / Perfetto)")


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.input:
        return graph_io.read_edge_list(args.input)
    family = args.family or "erdos-renyi"
    return workload_by_name(family, args.n, seed=args.seed).graph


def _resolve_product_method(args: argparse.Namespace) -> Tuple[str, str]:
    """Resolve ``--product`` / ``--method``, honoring the legacy ``--algorithm``.

    Whichever of the two halves is not given explicitly falls back to what
    ``--algorithm`` implies (default: emulator/centralized), so e.g.
    ``--algorithm congest --product emulator`` still runs the CONGEST
    construction rather than silently switching to centralized.
    """
    alias_product, alias_method = _ALGORITHM_ALIASES[args.algorithm]
    return args.product or alias_product, args.method or alias_method


def _clamped_eps(eps: float, product: str, method: str) -> float:
    """The historical CLI epsilon clamp.

    The spanner and fast/congest schedules assume a small working epsilon
    (unclamped values yield vacuous stretch bounds), and the CLI has always
    capped those paths at 0.01.
    """
    if method == "centralized" and product != "spanner":
        return eps
    return min(eps, 0.01)


def _serve_spec(args: argparse.Namespace) -> ServeSpec:
    """Build the :class:`ServeSpec` of a ``query`` / ``bench-serve`` invocation."""
    spec = ServeSpec(
        product=args.product,
        method=args.method,
        eps=args.eps,
        kappa=args.kappa,
        rho=args.rho,
        seed=args.seed,
        backend=args.backend,
        cache_sources=args.cache_sources,
        live=args.live,
        live_rebuild_after=args.rebuild_after,
    )
    # The clamp keys on the product the backend actually builds, which a
    # --backend differing from --product overrides (the exact backend
    # builds nothing, so there is nothing to clamp).
    if args.eps is not None and spec.effective_product is not None:
        spec = spec.replace(
            eps=_clamped_eps(args.eps, spec.effective_product, args.method)
        )
    return spec


def _command_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    product, method = _resolve_product_method(args)
    eps = _clamped_eps(args.eps, product, method)
    result = build(
        graph,
        BuildSpec(product=product, method=method, eps=eps, kappa=args.kappa, rho=args.rho,
                  seed=args.seed),
    )
    raw = result.raw
    if product == "emulator":
        if method == "congest":
            print(f"emulator (CONGEST): {result.size} edges, {raw.rounds} rounds, "
                  f"{raw.messages} messages, both-endpoints-know="
                  f"{raw.both_endpoints_know_all_edges()}")
        elif method == "fast":
            print(f"emulator (fast): {result.size} edges (bound {result.size_bound:.1f})")
        else:
            print(f"emulator: {result.size} edges "
                  f"(bound {result.size_bound:.1f}, alpha {result.alpha:.3f}, "
                  f"beta {result.beta:.1f})")
    elif product == "spanner":
        suffix = " (CONGEST)" if method == "congest" else ""
        print(f"spanner{suffix}: {result.size} edges (subgraph of input: "
              f"{raw.is_subgraph_of(graph)})")
    else:
        print(f"hopset ({method}): {result.size} edges "
              f"(alpha {result.alpha:.3f}, beta {result.beta:.1f}, "
              f"hopbound estimate {raw.hopbound_estimate})")
    if args.output:
        if product == "spanner":
            graph_io.write_edge_list(raw.spanner, args.output)
        else:
            graph_io.write_weighted_edge_list(result.subject, args.output)
        print(f"wrote {args.output}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    import os

    # Pure flag logic first, so a misconfiguration errors before the
    # potentially expensive graph load.
    cache = None if args.no_cache else (args.cache_dir or os.environ.get("REPRO_CACHE_DIR"))
    if args.cache_max_entries is not None:
        if cache is None:
            raise ValueError(
                "--cache-max-entries requires a cache; pass --cache-dir "
                "(or set REPRO_CACHE_DIR) and drop --no-cache"
            )
        cache = ResultCache(cache, max_entries=args.cache_max_entries)
    graph = _load_graph(args)
    name = args.input or (args.family or "erdos-renyi")
    sweep = GridSweep(
        products=tuple(args.products),
        methods=tuple(args.methods),
        eps_values=tuple(args.eps_values) if args.eps_values else (None,),
        kappas=tuple(args.kappas) if args.kappas else (None,),
        rhos=tuple(args.rhos) if args.rhos else (None,),
        seed=args.seed,
    )
    dist = None
    if args.coordinator is not None:
        from repro.dist.protocol import parse_bind

        host, port = parse_bind(args.coordinator)
        dist = {
            "host": host, "port": port,
            "local_workers": args.dist_workers,
            "journal": args.journal,
            # Scripts scrape this line for the ephemeral port, like the
            # daemon's "daemon listening on ..." line.
            "announce": lambda url: print(
                f"coordinator listening on {url}", flush=True
            ),
        }
    elif args.journal is not None:
        raise ValueError("--journal requires --coordinator")
    records = run_sweep(
        {name: graph}, sweep, verify_pairs=args.verify_pairs,
        workers=args.workers, cache=cache,
        share_explorations=not args.no_shared_explorations,
        dist=dist,
    )
    print(format_sweep_table(records))
    return 0


def _command_dist_coordinator(args: argparse.Namespace) -> int:
    from repro.dist.protocol import parse_bind

    host, port = parse_bind(args.bind)
    graph = _load_graph(args)
    name = args.input or (args.family or "erdos-renyi")
    sweep = GridSweep(
        products=tuple(args.products),
        methods=tuple(args.methods),
        eps_values=tuple(args.eps_values) if args.eps_values else (None,),
        kappas=tuple(args.kappas) if args.kappas else (None,),
        rhos=tuple(args.rhos) if args.rhos else (None,),
        seed=args.seed,
    )
    records = run_sweep(
        {name: graph}, sweep, verify_pairs=args.verify_pairs,
        cache=args.cache_dir,
        dist={
            "host": host, "port": port,
            "local_workers": args.dist_workers,
            "lease_ttl": args.lease_ttl,
            "max_attempts": args.max_attempts,
            "journal": args.journal,
            "announce": lambda url: print(
                f"coordinator listening on {url}", flush=True
            ),
        },
        on_error="quarantine",
    )
    print(format_sweep_table(records, title="distributed sweep"))
    return 0


def _command_dist_worker(args: argparse.Namespace) -> int:
    from repro.dist import DistWorker

    url = args.url if args.url.startswith("http") else f"http://{args.url}"
    worker = DistWorker(
        url,
        ResultCache(args.cache_dir),
        worker_id=args.worker_id,
        exit_when_done=not args.stay,
        max_tasks=args.max_tasks,
        give_up_after=args.give_up_after,
    )
    summary = worker.run()
    if summary["unreachable"] and not summary["leases"]:
        # Never got a single lease before giving up: almost certainly a
        # wrong --url or dead coordinator, not a drained sweep.
        raise ValueError(
            f"coordinator at {url} was never reachable "
            f"(gave up after {args.give_up_after:.0f}s)"
        )
    print(f"worker {summary['worker']}: {summary['completed']} completed, "
          f"{summary['failed']} failed, {summary['leases']} lease(s)")
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    graph = graph_io.read_edge_list(args.graph)
    emulator = graph_io.read_weighted_edge_list(args.emulator)
    report = verify_emulator(graph, emulator, args.alpha, args.beta,
                             sample_pairs=args.sample_pairs)
    print(f"pairs checked: {report.pairs_checked}")
    print(f"max multiplicative stretch: {report.max_multiplicative_stretch:.4f}")
    print(f"max additive error: {report.max_additive_error:.4f}")
    print(f"valid: {report.valid}")
    return 0 if report.valid else 1


def _command_hopset(args: argparse.Namespace) -> int:
    from repro.hopsets.hopset import exact_hopbound

    graph = _load_graph(args)
    eps = _clamped_eps(args.eps, "hopset", args.method)
    result = build(
        graph,
        BuildSpec(product="hopset", method=args.method, eps=eps, kappa=args.kappa,
                  rho=args.rho, seed=args.seed),
    )
    hopbound = exact_hopbound(graph, result.raw.hopset, sample_pairs=args.sample_pairs)
    print(f"hopset ({args.method}): {result.size} edges "
          f"(alpha {result.alpha:.3f}, beta {result.beta:.1f})")
    print(f"measured hopbound (exact union distances, {args.sample_pairs} pairs): {hopbound}")
    if args.output:
        graph_io.write_weighted_edge_list(result.raw.hopset, args.output)
        print(f"wrote {args.output}")
    return 0


def _parse_query(raw: str) -> tuple:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"query {raw!r} is not of the form u:v")
    return int(parts[0]), int(parts[1])


def _parse_queries(raw_queries: List[str]) -> List[tuple]:
    try:
        return [_parse_query(raw) for raw in raw_queries]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _command_query(args: argparse.Namespace) -> int:
    queries = _parse_queries(args.queries)
    if args.url:
        # No local build: every answer is a round trip to the daemon.
        with RemoteOracle(args.url, oracle=args.oracle_name) as engine:
            print(f"serving oracle {engine.oracle_name!r} at {engine.url}: "
                  f"{engine.space_in_edges} stored edges "
                  f"(alpha {engine.alpha:.3f}, beta {engine.beta:.1f})")
            for u, v in queries:
                print(f"d({u}, {v}) <= {engine.query(u, v)}")
        stats = engine.stats()
        print(f"remote: {stats['requests']} request(s), "
              f"{stats['retried_requests']} retried, "
              f"{stats['reconnects']} reconnect(s)")
        return 0
    graph = _load_graph(args)
    spec = _serve_spec(args)
    engine = serve_load(graph, spec)
    print(f"serving {spec.describe()}: {engine.space_in_edges} stored edges "
          f"(alpha {engine.alpha:.3f}, beta {engine.beta:.1f})")
    for u, v in queries:
        print(f"d({u}, {v}) <= {engine.query(u, v)}")
    stats = engine.stats()
    print(f"engine: {stats['queries']} queries, {stats['cache_hits']} hit(s), "
          f"{stats['cache_misses']} miss(es), {stats['cache_evictions']} eviction(s)")
    return 0


def _command_bench_serve(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    if args.url:
        report = run_wire_sweep(
            args.url,
            graph,
            oracle=args.oracle_name,
            workload=args.workload,
            num_queries=args.queries,
            seed=args.seed,
            concurrency=tuple(args.concurrency),
            stretch_sample=args.stretch_sample,
        )
        print(report.summary(), file=sys.stderr)
        text = report.to_json()
    else:
        report = run_load_test(
            graph,
            _serve_spec(args),
            workload=args.workload,
            num_queries=args.queries,
            seed=args.seed,
            workers=args.workers,
            stretch_sample=args.stretch_sample,
        )
        text = report.to_json()
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return 0 if report.stretch_ok else 1


def _command_serve_daemon(args: argparse.Namespace) -> int:
    hardening = {
        "max_inflight": args.max_inflight,
        "default_deadline_ms": args.deadline_ms,
    }
    if args.config:
        daemon = OracleDaemon.from_config(
            DaemonConfig.from_file(args.config),
            host=args.host, port=args.port, verbose=args.verbose, **hardening,
        )
    else:
        daemon = OracleDaemon(host=args.host, port=args.port, verbose=args.verbose,
                              **hardening)
        profile = (WorkloadProfile.load(args.warmup_profile)
                   if args.warmup_profile else None)
        daemon.add_oracle(
            args.name,
            _load_graph(args),
            _serve_spec(args),
            warmup_profile=profile,
            warmup_sources=args.warmup_sources,
        )
    # SIGTERM (the orchestrator's stop signal) drains gracefully: refuse
    # new work, finish in-flight requests, then exit cleanly.  The drain
    # runs on its own thread because ``drain()`` joins the serve thread,
    # and a signal handler runs *on* the main thread only — the handler
    # just kicks it off and lets ``serve_forever`` unblock.
    drainer: List[threading.Thread] = []

    def _on_sigterm(signum: int, frame: Any) -> None:
        print("SIGTERM; draining", file=sys.stderr)
        thread = threading.Thread(target=daemon.drain, name="daemon-drain")
        drainer.append(thread)
        thread.start()

    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # not on the main thread (embedded use): skip the hook
        pass
    try:
        with daemon:
            for name, meta in daemon.healthz()["oracles"].items():
                print(f"oracle {name!r}: {meta['backend']} "
                      f"({meta['num_vertices']} vertices, "
                      f"{meta['space_in_edges']} stored edges, "
                      f"{meta['warmed_sources']} warmed source(s))")
            # Scripts (the CI smoke step) scrape this line for the ephemeral port.
            print(f"daemon listening on {daemon.url}", flush=True)
            try:
                daemon.serve_forever()
            except KeyboardInterrupt:
                print("interrupted; shutting down", file=sys.stderr)
            for thread in drainer:
                thread.join(timeout=60.0)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    return 0


def _command_mutate(args: argparse.Namespace) -> int:
    inserts = _parse_queries(args.insert)
    deletes = _parse_queries(args.delete)
    with RemoteOracle(args.url, oracle=args.oracle_name) as engine:
        if not engine.is_live:
            print(f"error: oracle {engine.oracle_name!r} at {engine.url} is not live",
                  file=sys.stderr)
            return 2
        receipt = engine.mutate(inserts=inserts, deletes=deletes, wait=args.wait)
    print(f"oracle {engine.oracle_name!r}: applied {receipt['applied']} "
          f"mutation(s), skipped {receipt['skipped']} no-op(s)")
    print(f"version {receipt['version']} (watermark {receipt['watermark']}, "
          f"staleness {receipt['staleness']})"
          + (" [rebuilt]" if receipt.get("rebuilt") else "")
          + (" [repaired]" if receipt.get("repaired") else "")
          + (" [rebuild scheduled]" if receipt.get("rebuild_scheduled") else ""))
    return 0


def _command_oracle(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    queries = _parse_queries(args.queries)
    engine = serve_load(
        graph,
        ServeSpec.ultra_sparse(graph.num_vertices, eps=args.eps, kappa=args.kappa,
                               seed=args.seed),
    )
    print(f"oracle: {engine.space_in_edges} stored edges "
          f"(alpha {engine.alpha:.3f}, beta {engine.beta:.1f})")
    for u, v in queries:
        print(f"d({u}, {v}) <= {engine.query(u, v)}")
    return 0


def _command_obs_report(args: argparse.Namespace) -> int:
    try:
        events = load_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_trace_summary(summarize_trace(events)))
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    quick = not args.full
    if args.only:
        print(run_experiment(args.only, quick=quick, workers=args.workers))
        return 0
    for experiment_id, table in run_all(quick=quick, workers=args.workers).items():
        print(table)
        print()
    return 0


def _run_facade_command(command, args: argparse.Namespace) -> int:
    """Run a facade-backed command, turning spec/registry errors into exit 2."""
    try:
        return command(args)
    except (KeyError, ValueError, RemoteOracleError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "build":
        return _run_facade_command(_command_build, args)
    if args.command == "sweep":
        return _run_facade_command(_command_sweep, args)
    if args.command == "dist-coordinator":
        return _run_facade_command(_command_dist_coordinator, args)
    if args.command == "dist-worker":
        return _run_facade_command(_command_dist_worker, args)
    if args.command == "verify":
        return _command_verify(args)
    if args.command == "experiments":
        return _command_experiments(args)
    if args.command == "hopset":
        return _run_facade_command(_command_hopset, args)
    if args.command == "query":
        return _run_facade_command(_command_query, args)
    if args.command == "bench-serve":
        return _run_facade_command(_command_bench_serve, args)
    if args.command == "serve-daemon":
        return _run_facade_command(_command_serve_daemon, args)
    if args.command == "mutate":
        return _run_facade_command(_command_mutate, args)
    if args.command == "oracle":
        return _run_facade_command(_command_oracle, args)
    if args.command == "obs-report":
        return _command_obs_report(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None) if args.command != "obs-report" else None
    if trace_path:
        # --trace overrides REPRO_OBS=0: an explicit trace request means
        # the user wants the spans.
        set_enabled(True)
        clear_spans()
    try:
        return _dispatch(parser, args)
    finally:
        if trace_path:
            count = export_trace(trace_path)
            print(f"wrote {trace_path} ({count} span(s))", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
