"""Wire-level load testing: drive a live daemon with concurrent clients.

The in-process harness (:func:`repro.serve.harness.run_load_test`)
measures an engine; this module measures a *deployment* — a running
:mod:`repro.serve.daemon` — the way its clients will experience it:
every query is an HTTP round trip through a
:class:`~repro.serve.remote.RemoteOracle`, and the stream is replayed at
several client-concurrency levels, each level fanning the queries across
that many threads with one persistent connection per thread.

The result is a :class:`WireSweepReport`: per concurrency level the
throughput and p50/p95/p99 per-query wire latency, plus the same
observed-vs-guaranteed stretch gate as the in-process harness (a sample
of distinct pairs re-checked against exact BFS on the local graph).  The
report round-trips through JSON so CI can persist and diff it — the
``bench-serve --url`` CLI prints exactly this.

Levels run over the same query stream in order, so the daemon's memo is
cold for the first level and steady-state after — which is what a
concurrency sweep should compare (scheduling overhead, not cache luck).
Pass ``per_level_seeds=True`` for fully independent streams instead.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.obs import latency_summary
from repro.serve.harness import _check_stretch
from repro.serve.remote import RemoteOracle
from repro.serve.workloads import generate_queries

__all__ = [
    "WireSweepLevel",
    "WireSweepReport",
    "run_wire_sweep",
    "ChurnLevel",
    "ChurnSweepReport",
    "run_churn_sweep",
]

_INF = float("inf")


@dataclass(frozen=True)
class WireSweepLevel:
    """One concurrency level of a wire sweep (latencies are per-query ms)."""

    concurrency: int
    num_queries: int
    elapsed_seconds: float
    throughput_qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float


@dataclass(frozen=True)
class WireSweepReport:
    """A full wire-level load test; flat and JSON-round-trippable."""

    url: str
    oracle: str
    backend: str
    workload: str
    num_vertices: int
    space_in_edges: int
    alpha: float
    beta: float
    num_queries: int
    levels: List[WireSweepLevel]
    stretch_pairs_checked: int
    stretch_violations: int
    stretch_ok: bool
    max_multiplicative_stretch: float
    max_additive_error: float
    #: The daemon's ``/stats`` payload captured after the sweep.
    daemon_stats: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The report as plain JSON scalars / lists / dicts."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WireSweepReport":
        """Rebuild a report from :meth:`to_dict` output."""
        data = dict(data)
        data["levels"] = [WireSweepLevel(**level) for level in data.get("levels", [])]
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WireSweepReport":
        """Parse a report previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One line per concurrency level, human-readable."""
        lines = [
            f"wire sweep of {self.oracle!r} at {self.url} "
            f"({self.workload}, {self.num_queries} queries, stretch ok={self.stretch_ok})"
        ]
        for level in self.levels:
            lines.append(
                f"  c={level.concurrency:<3d} {level.throughput_qps:8.0f} q/s   "
                f"p50 {level.latency_p50_ms:7.3f}ms   p95 {level.latency_p95_ms:7.3f}ms   "
                f"p99 {level.latency_p99_ms:7.3f}ms"
            )
        return "\n".join(lines)


def _drive_level(
    url: str,
    oracle: Optional[str],
    queries: Sequence[Tuple[int, int]],
    concurrency: int,
    *,
    timeout: float,
    retries: int,
    backoff: float,
) -> WireSweepLevel:
    """Replay ``queries`` across ``concurrency`` client threads, one query per trip."""
    shards = [queries[offset::concurrency] for offset in range(concurrency)]
    shards = [shard for shard in shards if shard]
    per_thread_latencies: List[List[float]] = [[] for _ in shards]
    errors: List[BaseException] = []

    def run_client(index: int, shard: Sequence[Tuple[int, int]]) -> None:
        try:
            client = RemoteOracle(url, oracle=oracle, timeout=timeout,
                                  retries=retries, backoff=backoff)
            with client:
                sink = per_thread_latencies[index]
                for u, v in shard:
                    t0 = time.perf_counter()
                    client.query(u, v)
                    sink.append((time.perf_counter() - t0) * 1000.0)
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)

    threads = [
        threading.Thread(target=run_client, args=(index, shard), daemon=True)
        for index, shard in enumerate(shards)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    summary = latency_summary(
        [latency for sink in per_thread_latencies for latency in sink]
    )
    return WireSweepLevel(
        concurrency=concurrency,
        num_queries=summary.count,
        elapsed_seconds=elapsed,
        throughput_qps=summary.count / max(elapsed, 1e-9),
        latency_mean_ms=summary.mean,
        latency_p50_ms=summary.p50,
        latency_p95_ms=summary.p95,
        latency_p99_ms=summary.p99,
    )


def run_wire_sweep(
    url: str,
    graph: Graph,
    *,
    oracle: Optional[str] = None,
    workload: str = "uniform",
    num_queries: int = 1000,
    seed: int = 0,
    concurrency: Sequence[int] = (1, 2, 4),
    stretch_sample: int = 100,
    per_level_seeds: bool = False,
    timeout: float = 10.0,
    retries: int = 3,
    backoff: float = 0.05,
    workload_options: Optional[Dict[str, Any]] = None,
) -> WireSweepReport:
    """Load-test a live daemon over the wire at several concurrency levels.

    Parameters
    ----------
    url:
        Daemon base URL (``http://host:port``).
    graph:
        The graph the daemon's oracle was built on — used to generate the
        query stream and for the exact-BFS stretch re-check.  Vertex-count
        agreement with the daemon is verified up front.
    oracle:
        Served oracle name (``None`` = the daemon's default).
    workload, num_queries, seed, workload_options:
        The seeded query stream, exactly as in the in-process harness.
    concurrency:
        Client-thread counts to sweep, each level replaying the stream.
    stretch_sample:
        Distinct stream pairs re-checked against exact BFS through the
        wire (0 skips the gate).
    per_level_seeds:
        Generate an independent stream per level (seed + level index)
        instead of replaying one stream.

    Raises
    ------
    RemoteOracleError
        If the daemon is unreachable after the transport retry budget.
    ValueError
        For empty/invalid concurrency lists or a graph whose vertex count
        disagrees with the daemon's oracle.
    """
    levels = [int(c) for c in concurrency]
    if not levels or any(c < 1 for c in levels):
        raise ValueError(f"concurrency levels must be positive ints, got {concurrency!r}")
    if stretch_sample < 0:
        raise ValueError(f"stretch_sample must be >= 0, got {stretch_sample}")
    probe = RemoteOracle(url, oracle=oracle, timeout=timeout, retries=retries,
                         backoff=backoff)
    if graph.num_vertices != probe.num_vertices:
        probe.close()
        raise ValueError(
            f"local graph has {graph.num_vertices} vertices but the daemon's "
            f"{probe.oracle_name!r} oracle serves {probe.num_vertices}"
        )
    queries = generate_queries(graph, workload, num_queries, seed=seed,
                               **(workload_options or {}))
    measured: List[WireSweepLevel] = []
    with probe:
        for index, level in enumerate(levels):
            stream = queries
            if per_level_seeds and index:
                stream = generate_queries(graph, workload, num_queries,
                                          seed=seed + index,
                                          **(workload_options or {}))
            measured.append(
                _drive_level(url, oracle, stream, level, timeout=timeout,
                             retries=retries, backoff=backoff)
            )
        checked, violations, max_mult, max_additive = (0, 0, 1.0, 0.0)
        if stretch_sample:
            checked, violations, max_mult, max_additive = _check_stretch(
                graph, probe, queries, stretch_sample
            )
        daemon_stats = probe.daemon_stats()
        return WireSweepReport(
            url=probe.url,
            oracle=probe.oracle_name,
            backend=str(probe.stats().get("remote_backend", "unknown")),
            workload=workload,
            num_vertices=graph.num_vertices,
            space_in_edges=probe.space_in_edges,
            alpha=probe.alpha,
            beta=probe.beta,
            num_queries=len(queries),
            levels=measured,
            stretch_pairs_checked=checked,
            stretch_violations=violations,
            stretch_ok=violations == 0,
            max_multiplicative_stretch=max_mult,
            max_additive_error=max_additive,
            daemon_stats=daemon_stats,
        )


# ----------------------------------------------------------------------
# Churn sweep: concurrent queries + mutations against a *live* daemon
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnLevel:
    """One concurrency level of a churn sweep (queries racing mutations)."""

    concurrency: int
    num_queries: int
    elapsed_seconds: float
    throughput_qps: float
    latency_mean_ms: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    #: Mutation batches the level's mutator posted while queries ran.
    mutation_batches: int
    #: Effective operations those batches applied.
    mutations_applied: int
    #: Distinct oracle versions observed in this level's tagged answers.
    versions_observed: int
    staleness_mean: float
    staleness_max: int
    #: Fraction of answers still carrying their version's guarantee.
    guaranteed_fraction: float


@dataclass(frozen=True)
class ChurnSweepReport:
    """A wire-level churn test of a live daemon; JSON-round-trippable.

    ``guarantee_ok`` is the acceptance gate: every sampled tagged answer
    was re-checked against exact BFS on the locally reconstructed graph at
    its version's watermark and satisfied
    ``d_G <= answer <= alpha_v * d_G + beta_v`` — the version-tag
    invariant of :mod:`repro.serve.live`.
    """

    url: str
    oracle: str
    backend: str
    workload: str
    num_vertices: int
    num_queries: int
    levels: List[ChurnLevel]
    mutations_applied: int
    rebuilds: int
    forced_rebuilds: int
    incremental_repairs: int
    final_version: int
    answers_checked: int
    guarantee_violations: int
    guarantee_ok: bool
    max_multiplicative_stretch: float
    max_additive_error: float
    #: The daemon's ``/stats`` payload captured after the sweep.
    daemon_stats: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The report as plain JSON scalars / lists / dicts."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChurnSweepReport":
        """Rebuild a report from :meth:`to_dict` output."""
        data = dict(data)
        data["levels"] = [ChurnLevel(**level) for level in data.get("levels", [])]
        return cls(**data)

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChurnSweepReport":
        """Parse a report previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One line per concurrency level, human-readable."""
        lines = [
            f"churn sweep of {self.oracle!r} at {self.url} "
            f"({self.workload}, {self.num_queries} queries/level, "
            f"{self.mutations_applied} mutations, {self.rebuilds} rebuilds, "
            f"guarantee ok={self.guarantee_ok})"
        ]
        for level in self.levels:
            lines.append(
                f"  c={level.concurrency:<3d} {level.throughput_qps:8.0f} q/s   "
                f"p95 {level.latency_p95_ms:7.3f}ms   "
                f"staleness mean {level.staleness_mean:5.2f} max {level.staleness_max:<3d} "
                f"versions {level.versions_observed}"
            )
        return "\n".join(lines)


#: One recorded tagged answer: (u, v, value, version, staleness, guaranteed).
_TaggedRecord = Tuple[int, int, float, int, int, bool]


def _drive_churn_level(
    url: str,
    oracle: Optional[str],
    queries: Sequence[Tuple[int, int]],
    concurrency: int,
    *,
    mutate: Callable[[], Tuple[int, int]],
    timeout: float,
    retries: int,
    backoff: float,
) -> Tuple[ChurnLevel, List[_TaggedRecord]]:
    """Replay ``queries`` across threads while ``mutate`` churns the graph.

    Every client error is re-raised — a query rejected or dropped during a
    rebuild fails the sweep, which is exactly the hot-swap property under
    test.  Returns the level plus every tagged answer for the post-hoc
    guarantee check.
    """
    shards = [queries[offset::concurrency] for offset in range(concurrency)]
    shards = [shard for shard in shards if shard]
    per_thread_latencies: List[List[float]] = [[] for _ in shards]
    per_thread_answers: List[List[_TaggedRecord]] = [[] for _ in shards]
    errors: List[BaseException] = []
    mutation_result: List[Tuple[int, int]] = []

    def run_client(index: int, shard: Sequence[Tuple[int, int]]) -> None:
        try:
            client = RemoteOracle(url, oracle=oracle, timeout=timeout,
                                  retries=retries, backoff=backoff)
            with client:
                latency_sink = per_thread_latencies[index]
                answer_sink = per_thread_answers[index]
                for u, v in shard:
                    t0 = time.perf_counter()
                    answer = client.query_tagged(u, v)
                    latency_sink.append((time.perf_counter() - t0) * 1000.0)
                    answer_sink.append((u, v, answer.value, answer.version,
                                        answer.staleness, answer.guaranteed))
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)

    def run_mutator() -> None:
        try:
            mutation_result.append(mutate())
        except BaseException as error:
            errors.append(error)

    threads = [
        threading.Thread(target=run_client, args=(index, shard), daemon=True)
        for index, shard in enumerate(shards)
    ]
    threads.append(threading.Thread(target=run_mutator, daemon=True))
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    batches, applied = mutation_result[0] if mutation_result else (0, 0)
    answers = [record for sink in per_thread_answers for record in sink]
    summary = latency_summary(
        [latency for sink in per_thread_latencies for latency in sink]
    )
    staleness_values = [record[4] for record in answers]
    level = ChurnLevel(
        concurrency=concurrency,
        num_queries=summary.count,
        elapsed_seconds=elapsed,
        throughput_qps=summary.count / max(elapsed, 1e-9),
        latency_mean_ms=summary.mean,
        latency_p50_ms=summary.p50,
        latency_p95_ms=summary.p95,
        latency_p99_ms=summary.p99,
        mutation_batches=batches,
        mutations_applied=applied,
        versions_observed=len({record[3] for record in answers}),
        staleness_mean=(sum(staleness_values) / len(staleness_values)
                        if staleness_values else 0.0),
        staleness_max=max(staleness_values, default=0),
        guaranteed_fraction=(sum(1 for record in answers if record[5]) / len(answers)
                             if answers else 1.0),
    )
    return level, answers


def run_churn_sweep(
    url: str,
    graph: Graph,
    *,
    oracle: Optional[str] = None,
    workload: str = "uniform",
    num_queries: int = 400,
    seed: int = 0,
    concurrency: Sequence[int] = (1, 2, 4),
    deletions_per_batch: int = 2,
    batches_per_level: int = 3,
    check_sample: int = 200,
    timeout: float = 10.0,
    retries: int = 3,
    backoff: float = 0.05,
    workload_options: Optional[Dict[str, Any]] = None,
) -> ChurnSweepReport:
    """Drive a *live* daemon with concurrent queries and mutation batches.

    Per concurrency level, client threads replay a seeded query stream via
    ``query_tagged`` while one mutator thread posts ``batches_per_level``
    deletion batches (``deletions_per_batch`` random edges each, seeded) —
    so queries race mutations and background rebuilds the whole time.  The
    sweep keeps a client-side model of the graph: it replays each batch
    locally in the daemon's effective-operation order and asserts the
    daemon's receipt agrees (the sweep must be the oracle's only mutator).

    The post-hoc gate reconstructs, for each version observed in a sampled
    answer, the graph at that version's watermark, and checks the answer
    against exact BFS there with the *version's own* ``(alpha, beta)``
    (repair-widened betas included).  Deletions-only churn keeps every
    stale answer's guarantee valid — the decremental upper-bound argument
    this sweep exists to exercise end to end.

    Raises ``ValueError`` when the served oracle is not live, and
    ``RuntimeError`` when the daemon's mutation log disagrees with the
    local model (a second mutator) or a tagged version is unknown.
    """
    levels = [int(c) for c in concurrency]
    if not levels or any(c < 1 for c in levels):
        raise ValueError(f"concurrency levels must be positive ints, got {concurrency!r}")
    if deletions_per_batch < 1:
        raise ValueError(f"deletions_per_batch must be >= 1, got {deletions_per_batch}")
    if batches_per_level < 0:
        raise ValueError(f"batches_per_level must be >= 0, got {batches_per_level}")
    if check_sample < 0:
        raise ValueError(f"check_sample must be >= 0, got {check_sample}")
    probe = RemoteOracle(url, oracle=oracle, timeout=timeout, retries=retries,
                         backoff=backoff)
    if not probe.is_live:
        probe.close()
        raise ValueError(
            f"oracle {probe.oracle_name!r} at {url} is not live; churn sweeps "
            "need a daemon serving a live spec (repro serve-daemon --live)"
        )
    if graph.num_vertices != probe.num_vertices:
        probe.close()
        raise ValueError(
            f"local graph has {graph.num_vertices} vertices but the daemon's "
            f"{probe.oracle_name!r} oracle serves {probe.num_vertices}"
        )
    rng = random.Random(seed)
    current = graph.copy()            # client-side model of the daemon's graph
    ops: List[Tuple[str, int, int]] = []   # local replica of the effective op log

    def make_mutator() -> Callable[[], Tuple[int, int]]:
        def run() -> Tuple[int, int]:
            batches = applied = 0
            for _ in range(batches_per_level):
                time.sleep(0.005)     # let queries interleave with the churn
                edges = list(current.edges())
                if len(edges) < deletions_per_batch:
                    break
                batch = rng.sample(edges, deletions_per_batch)
                receipt = probe.mutate(deletes=batch)
                if receipt.get("applied") != len(batch):
                    raise RuntimeError(
                        f"daemon applied {receipt.get('applied')} of a "
                        f"{len(batch)}-deletion batch; is another client "
                        "mutating this oracle?"
                    )
                for u, v in batch:
                    current.remove_edge(u, v)
                    ops.append(("delete", u, v) if u < v else ("delete", v, u))
                batches += 1
                applied += len(batch)
            return batches, applied
        return run

    measured: List[ChurnLevel] = []
    all_answers: List[_TaggedRecord] = []
    with probe:
        for index, level in enumerate(levels):
            stream = generate_queries(graph, workload, num_queries,
                                      seed=seed + index,
                                      **(workload_options or {}))
            churn_level, answers = _drive_churn_level(
                url, oracle, stream, level, mutate=make_mutator(),
                timeout=timeout, retries=retries, backoff=backoff,
            )
            measured.append(churn_level)
            all_answers.extend(answers)
        daemon_stats = probe.daemon_stats()
    oracle_stats = daemon_stats.get("oracles", {}).get(probe.oracle_name, {})
    live = oracle_stats.get("live")
    if not isinstance(live, dict):
        raise RuntimeError(f"daemon reported no live stats for {probe.oracle_name!r}")
    if live.get("applied_mutations") != len(ops):
        raise RuntimeError(
            f"daemon log has {live.get('applied_mutations')} mutations but this "
            f"sweep applied {len(ops)}; is another client mutating this oracle?"
        )
    versions = {entry["version"]: entry for entry in live.get("versions", [])}
    checked = violations = 0
    max_mult, max_additive = 1.0, 0.0
    if check_sample and all_answers:
        sample = all_answers
        if len(sample) > check_sample:
            sample = random.Random(seed + 1).sample(sample, check_sample)
        graphs: Dict[int, Graph] = {}
        exact: Dict[Tuple[int, int], Dict[int, float]] = {}
        for u, v, value, version, _staleness, _guaranteed in sample:
            meta = versions.get(version)
            if meta is None:
                raise RuntimeError(
                    f"answer tagged with unknown version {version}; "
                    f"daemon knows {sorted(versions)}"
                )
            watermark = int(meta["watermark"])
            if watermark not in graphs:
                snapshot = graph.copy()
                for op, a, b in ops[:watermark]:
                    if op == "insert":
                        snapshot.add_edge(a, b)
                    else:
                        snapshot.remove_edge(a, b)
                graphs[watermark] = snapshot
            key = (watermark, u)
            if key not in exact:
                exact[key] = kernels.bfs_distances(graphs[watermark].csr(), u,
                                                   as_float=True)
            d = exact[key].get(v, _INF)
            checked += 1
            if d == _INF:
                if value != _INF:
                    violations += 1
                continue
            if value < d - 1e-9 or value > meta["alpha"] * d + meta["beta"] + 1e-9:
                violations += 1
                continue
            if d > 0:
                max_mult = max(max_mult, value / d)
            max_additive = max(max_additive, value - d)
    return ChurnSweepReport(
        url=probe.url,
        oracle=probe.oracle_name,
        backend=str(probe.stats().get("remote_backend", "unknown")),
        workload=workload,
        num_vertices=graph.num_vertices,
        num_queries=num_queries,
        levels=measured,
        mutations_applied=len(ops),
        rebuilds=int(live.get("rebuilds", 0)),
        forced_rebuilds=int(live.get("forced_rebuilds", 0)),
        incremental_repairs=int(live.get("incremental_repairs", 0)),
        final_version=int(live.get("version", 0)),
        answers_checked=checked,
        guarantee_violations=violations,
        guarantee_ok=violations == 0,
        max_multiplicative_stretch=max_mult,
        max_additive_error=max_additive,
        daemon_stats=daemon_stats,
    )
