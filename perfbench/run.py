"""End-to-end benchmark of the emulator build, serving and sweep stacks.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

The benchmark imports the package from the checkout's ``src/`` directory,
makes every input from ``--seed`` with its own random generator (so a
change to the package's graph generators cannot change the inputs), runs
the workload's operation in a closed loop for ``--seconds`` seconds,
checks the outputs, and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}

``--trace 0`` runs with the package's telemetry disabled and reports the
end-to-end metrics; ``--trace 1`` enables it and reports the per-layer
metrics, computed from the spans and counters the package records.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up runs per benchmark run (``setup_s`` is their mean): at least
#: the minimum, then more while under the time budget.  The budget spans
#: a few of a shared host's fast and slow phases, which last seconds; like
#: ``latency_ms`` the mean moves smoothly with their shares where a median
#: would flip between them.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 60
SETUP_BUDGET_S = 5.0
#: ``latency_ms`` is the mean over slices of this width of the mean
#: latency in each slice.  Operation times within a run can be bimodal
#: (a shared host's CPUs switch between a fast and a slow speed every few
#: seconds); a median then flips between the modes as their shares shift
#: from run to run, while a mean moves smoothly.  Slices weigh each
#: second alike however many operations it held.  Operations longer than
#: a slice get one slice each, so for them this is the plain mean.
INTERVAL_S = 1.0
#: Vertices of the serving graphs (``m = 4n`` edges, as in the ROADMAP
#: measurements): a miss materializes an n-entry map, the dict boundary
#: the ROADMAP targets.
SERVE_N = 10_000
#: Vertices of the build graph: about ten builds a second, so each
#: one-second slice averages several.
BUILD_N = 5_000
#: The distributed sweep's graph is smaller: its makespan is dominated by
#: worker start-up, and several sweeps must fit in one run.
SWEEP_N = 2_000
#: Source skew of the Zipf stream: the default of
#: ``repro.serve.workloads.zipf_queries``.
ZIPF_EXPONENT = 1.1
#: Queries of the serving stream (it wraps around if a run gets further).
STREAM_QUERIES = 100_000
#: Stream queries answered before timing starts, so the memo (the
#: default 256-source LRU) is in its steady state when timing does.
SERVE_WARMUP = 600
#: Sampled pairs for the post-run verification of each built product.
VERIFY_PAIRS = 50
#: Answers checked against exact BFS after the serving run.
SERVE_CHECKED = 16
SWEEP_WORKERS = 2

Edges = List[Tuple[int, int]]


def make_edges(n: int, m: int, rng: random.Random) -> Edges:
    """``m`` distinct random edges on ``n`` vertices (a seeded G(n, m))."""
    seen = set()
    while len(seen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return sorted(seen)


def zipf_stream(n: int, count: int, rng: random.Random) -> Edges:
    """Zipf-skewed sources (weight ``1 / rank^1.1`` over a shuffled vertex
    order) with uniform targets: the shape of the package's ``zipf`` query
    workload, the default of its serving experiments and the mix its
    serving benchmarks and daemon smoke test send."""
    by_rank = list(range(n))
    rng.shuffle(by_rank)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n)]
    pairs = []
    for u in rng.choices(by_rank, weights=weights, k=count):
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        pairs.append((u, v))
    return pairs


def bfs(graph: Any, source: int) -> List[float]:
    """Exact hop distances from ``source`` (the benchmark's own reference)."""
    dist = [math.inf] * graph.num_vertices
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u):
                if dist[w] == math.inf:
                    dist[w] = level
                    nxt.append(w)
        frontier = nxt
    return dist


def within_guarantee(exact: float, answer: float, alpha: float, beta: float) -> bool:
    """Whether ``answer`` satisfies ``d <= answer <= alpha * d + beta``."""
    if exact == math.inf:
        return answer == math.inf
    return exact - 1e-9 <= answer <= alpha * exact + beta + 1e-9


def digest(result: Any) -> str:
    """Order-free digest of a build result's content (edges + guarantees)."""
    h = hashlib.sha256()
    for u, v, w in sorted(result.edges):
        h.update(f"{u} {v} {w!r};".encode())
    h.update(f"{result.size} {result.alpha!r} {result.beta!r}".encode())
    return h.hexdigest()


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def nearest_rank(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Run:
    """State of one benchmark run: inputs, timers, counters and checks."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.trace = trace
        self.import_s = 0.0
        self.setup_s: List[float] = []
        self.graph_ms: List[float] = []
        self.csr_ms: List[float] = []
        self.verify_ms = 0.0
        self.starts: List[float] = []
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.window = (0.0, 0.0)
        #: The program span doing the workload's real work, how many of
        #: them the timed loop ran (default: one per operation), and how
        #: many run side by side (``op_work_ms``).
        self.work_span = "build"
        self.work_count: Optional[float] = None
        self.parallelism = 1
        self.counts: Dict[str, float] = {}
        self.spans: List[Any] = []

    # -- checks ---------------------------------------------------------
    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    # -- set-up ---------------------------------------------------------
    def load_graph(self, n: int, edges: Edges) -> Any:
        """Build the package's graph from the edge list and compile its CSR."""
        from repro import Graph

        start = time.perf_counter()
        graph = Graph.from_edge_list(n, edges)
        loaded = time.perf_counter()
        graph.csr()
        self.graph_ms.append((loaded - start) * 1e3)
        self.csr_ms.append((time.perf_counter() - loaded) * 1e3)
        return graph

    def set_up(self, make: Callable[[], Any],
               close: Optional[Callable[[Any], None]] = None) -> Any:
        """Run ``make`` repeatedly, timing each set-up; keep the last.

        The previous set-up is released and collected, untimed, before the
        next one starts, so every set-up starts from the heap a fresh
        process has.  Otherwise whether a full collection lands inside a
        set-up alternates from one to the next.
        """
        kept = None
        while len(self.setup_s) < SETUP_MIN_REPEATS or (
            len(self.setup_s) < SETUP_MAX_REPEATS and sum(self.setup_s) < SETUP_BUDGET_S
        ):
            if kept is not None and close is not None:
                close(kept)
            kept = None
            gc.collect()
            start = time.perf_counter()
            kept = make()
            self.setup_s.append(time.perf_counter() - start)
        if self.trace:
            self.collect_spans()
        return kept

    # -- measurement ----------------------------------------------------
    def measure(self, op: Callable[[int], Any],
                after: Optional[Callable[[Any], bool]] = None) -> None:
        """Call ``op(i)`` in a closed loop for the run's seconds.

        Only ``op`` is timed; ``after`` checks its output untimed and
        returns whether it was correct.  An op that raises or fails its
        check counts as failed and contributes no latency sample.
        """
        start_unix = time.time()
        deadline = time.perf_counter() + self.seconds
        index = 0
        while True:
            self.attempted += 1
            started = time.perf_counter()
            try:
                output = op(index)
            except Exception as error:  # a failed operation, not a crash
                self.failed += 1
                self.problems.append(f"op {index}: {type(error).__name__}: {error}")
            else:
                elapsed = time.perf_counter() - started
                if after is None or after(output):
                    self.starts.append(started)
                    self.latencies.append(elapsed)
                else:
                    self.failed += 1
                # Drop the output before the next op runs, so it does not
                # inflate the heap that op's collections scan.
                output = None
            index += 1
            if time.perf_counter() >= deadline:
                break
        self.window = (start_unix, time.time())

    def verify(self, result: Any, graph: Any) -> None:
        """Sampled verification of a built product (timed as ``verify_ms``)."""
        start = time.perf_counter()
        report = result.verify(graph, sample_pairs=VERIFY_PAIRS)
        self.verify_ms = (time.perf_counter() - start) * 1e3
        self.check(bool(report.valid), f"{result.product} failed sampled verification")

    # -- results --------------------------------------------------------
    def interval_means(self) -> List[float]:
        """Mean operation latency in each INTERVAL_S slice of the timed loop."""
        slices: Dict[int, List[float]] = {}
        for started, elapsed in zip(self.starts, self.latencies):
            slices.setdefault(int((started - self.starts[0]) / INTERVAL_S), []).append(elapsed)
        return [statistics.fmean(values) for values in slices.values()]

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        ms = [value * 1e3 for value in self.latencies]
        if ms:
            # Tails are printed, not bounded: the build and sweep workloads
            # complete too few operations per run for a steady tail.
            print(f"{len(ms)} ops: p50 {median(ms):.3f} ms, "
                  f"p90 {nearest_rank(ms, 0.9):.3f} ms, "
                  f"p99 {nearest_rank(ms, 0.99):.3f} ms", file=sys.stderr)
        # The largest of this process and its waited-for children: the
        # distributed sweep's builds run in worker processes.
        peak_kb = max(resource.getrusage(who).ru_maxrss
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        return {
            "latency_ms": (mean(self.interval_means()) * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (mean(self.setup_s), "s"),
        }

    def collect_spans(self) -> None:
        """Move the package's buffered spans into the run's own list.

        Called after set-up and at the end, so a timed loop that overflows
        the package's bounded buffer cannot evict the set-up spans.
        """
        from repro.obs import clear_spans, snapshot_spans

        self.spans.extend(snapshot_spans())
        clear_spans()

    def per_layer(self) -> Dict[str, Tuple[float, str]]:
        self.collect_spans()
        spans = self.spans
        builds = [s for s in spans if s.name == "build"]
        phases = [s for s in spans if s.name.endswith(".phase")]
        by_build: Dict[int, List[Any]] = {s.span_id: [] for s in builds}
        for phase in phases:
            if phase.parent_id in by_build:
                by_build[phase.parent_id].append(phase)
        per_build = list(by_build.values())
        begin, end = self.window
        work = [s.duration_s for s in spans
                if s.name == self.work_span and begin <= s.start_unix <= end]
        # A mean over the recorded spans stays right if the buffer dropped some.
        count = len(self.latencies) if self.work_count is None else self.work_count
        work_ms = (statistics.fmean(work) * 1e3 * count
                   / (max(1, len(self.latencies)) * self.parallelism) if work else 0.0)
        mean_ms = mean(self.latencies) * 1e3
        layers = {
            "import_s": (self.import_s, "s"),
            "graph_ms": (median(self.graph_ms), "ms"),
            "csr_ms": (median(self.csr_ms), "ms"),
            "build_ms": (median([s.duration_s * 1e3 for s in builds]), "ms"),
            "phase_ms": (median([s.duration_s * 1e3 for s in phases]), "ms"),
            "verify_ms": (self.verify_ms, "ms"),
            "op_work_ms": (work_ms, "ms"),
            "op_overhead_ms": (mean_ms - work_ms, "ms"),
            "phases": (median([len(p) for p in per_build]), "count"),
            "centers_explored": (median(
                [sum(s.attrs.get("centers_explored", 0) for s in p) for p in per_build]
            ), "count"),
            "batched_passes": (median(
                [sum(s.attrs.get("batched_passes", 0) for s in p) for p in per_build]
            ), "count"),
        }
        for name in ("cache_hits", "cache_misses", "daemon_requests",
                     "dist_leases", "dist_reassignments"):
            layers[name] = (self.counts.get(name, 0), "count")
        layers["cache_hit_rate"] = (self.hit_rate(), "%")
        return layers

    def hit_rate(self) -> float:
        """Memo hits as a share of the timed loop's queries, in percent."""
        lookups = self.counts.get("cache_hits", 0) + self.counts.get("cache_misses", 0)
        return 100.0 * self.counts.get("cache_hits", 0) / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def run_build(run: Run) -> None:
    """Repeated default facade builds (emulator/centralized) of one graph."""
    from repro import BuildSpec, build

    edges = make_edges(BUILD_N, 4 * BUILD_N, run.rng)
    spec = BuildSpec()

    def make() -> Tuple[Any, Any]:
        # The first build of a fresh graph; every timed build must match it.
        graph = run.load_graph(BUILD_N, edges)
        return graph, build(graph, spec)

    graph, reference = run.set_up(make)
    expected = digest(reference)

    def after(result: Any) -> bool:
        ok = digest(result) == expected and result.within_size_bound()
        run.check(ok, "a build differed from the first or broke the size bound")
        return ok

    run.measure(lambda _i: build(graph, spec), after)
    run.verify(reference, graph)


def run_serve_zipf(run: Run) -> None:
    """Zipf-skewed queries over HTTP to a local daemon with the default memo."""
    from repro.serve import OracleDaemon, RemoteOracle, ServeSpec

    n = SERVE_N
    edges = make_edges(n, 4 * n, run.rng)
    stream = zipf_stream(n, STREAM_QUERIES, run.rng)

    def make() -> Tuple[Any, Any, Any]:
        graph = run.load_graph(n, edges)
        daemon = OracleDaemon(port=0)
        try:
            daemon.add_oracle("default", graph, ServeSpec())
            daemon.start()
            client = RemoteOracle(daemon.url)
        except BaseException:
            daemon.close()
            raise
        return graph, daemon, client

    def close(served: Tuple[Any, Any, Any]) -> None:
        served[2].close()
        served[1].close()

    graph, daemon, client = run.set_up(make, close)
    try:
        engine = daemon.engine_for(None)
        for u, v in stream[:SERVE_WARMUP]:
            client.query(u, v)

        def counters() -> Dict[str, Any]:
            stats = daemon.stats()["oracles"]["default"]
            return {"cache_hits": stats["cache_hits"], "cache_misses": stats["cache_misses"],
                    "daemon_requests": daemon.requests}

        before = counters()
        answers: List[Tuple[int, int, float]] = []

        def op(i: int) -> None:
            u, v = stream[(SERVE_WARMUP + i) % len(stream)]
            answers.append((u, v, client.query(u, v)))

        run.work_span = "daemon.request"
        run.measure(op)
        for name, value in counters().items():
            run.counts[name] = value - before[name]
        run.work_count = run.counts["daemon_requests"]
        lookups = run.counts["cache_hits"] + run.counts["cache_misses"]
        run.check(lookups == len(answers),
                  f"{lookups} memo hits and misses for {len(answers)} queries")
        print(f"memo hit rate {run.hit_rate():.1f}%", file=sys.stderr)
        step = max(1, len(answers) // SERVE_CHECKED)
        for u, v, answer in answers[::step]:
            if not within_guarantee(bfs(graph, u)[v], answer, engine.alpha, engine.beta):
                run.failed += 1
                run.check(False, f"answer {answer} for ({u}, {v}) breaks the guarantee")
        run.verify(engine.oracle.result, graph)
    finally:
        close((graph, daemon, client))


def run_sweep_dist(run: Run) -> None:
    """Distributed sweeps: a coordinator and two local worker processes."""
    from repro import GridSweep, run_sweep

    edges = make_edges(SWEEP_N, 4 * SWEEP_N, run.rng)
    sweep = GridSweep(products=("emulator", "spanner"), methods=("centralized",),
                      eps_values=(None, 0.5), kappas=(None, 4.0))

    def make() -> Tuple[Any, Any]:
        # The serial in-process sweep is the reference every distributed
        # sweep's records must match, in order.
        graph = run.load_graph(SWEEP_N, edges)
        return graph, run_sweep({"g": graph}, sweep)

    graph, reference = run.set_up(make)
    expected = [digest(record.result) for record in reference]
    dist = {"local_workers": SWEEP_WORKERS, "worker_mode": "process", "wait_timeout": 60.0}

    def after(records: List[Any]) -> bool:
        ok = [None if r.result is None else digest(r.result) for r in records] == expected
        run.check(ok, "distributed sweep records differ from the serial sweep")
        return ok

    run.parallelism = SWEEP_WORKERS
    run.measure(lambda _i: run_sweep({"g": graph}, sweep, dist=dist), after)
    run.work_count = len(expected) * len(run.latencies)
    if run.trace:
        from repro.obs import metrics_snapshot

        snapshot = metrics_snapshot()
        for name, metric in (("dist_leases", "repro_dist_leases_total"),
                             ("dist_reassignments", "repro_dist_reassignments_total")):
            samples = snapshot.get(metric, {}).get("samples", [])
            run.counts[name] = sum(sample["value"] for sample in samples)
    run.verify(reference[0].result, graph)


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "build": run_build,
    "serve-zipf": run_serve_zipf,
    "sweep-dist": run_sweep_dist,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2

    # Telemetry is read at import; worker processes inherit the setting.
    os.environ["REPRO_OBS"] = "1" if args.trace else "0"
    # Scratch files (the distributed sweep's transport store) stay inside
    # the checkout and are removed at exit.
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    sys.path.insert(0, str(SRC))

    run = Run(args.seed, args.seconds, bool(args.trace))
    try:
        started = time.perf_counter()
        import repro

        run.import_s = time.perf_counter() - started
        if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
            print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
            return 2
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = run.per_layer() if args.trace else run.end_to_end()
    for problem in run.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems and run.failed == 0 and bool(run.latencies),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
