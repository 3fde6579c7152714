"""The persistent oracle-serving daemon: build once, answer many over the wire.

`repro.serve` (the engine, the harness) is an in-process library: every
client pays a full oracle build and no two processes share one.  The
daemon is the missing deployment shape — a long-lived HTTP server that
loads one or more named :class:`~repro.serve.spec.ServeSpec` oracles at
startup and serves queries to any number of client processes, so the
expensive structure is built *once* and every query afterwards is a cheap
round over the wire (the same separation the distributed-setting papers
draw between where the structure lives and who asks the queries).

Endpoints (JSON wire format; infinity-free — unreachable distances travel
as ``null`` and are restored to ``float("inf")`` client-side):

``POST /query``
    ``{"u": 0, "v": 17, "oracle": "default"?}`` ->
    ``{"answer": 3.0, ...}``.
``POST /query_batch``
    ``{"pairs": [[0, 17], [3, 42]], "oracle"?}`` -> ``{"answers": [...]}``.
``POST /single_source``
    ``{"source": 0, "oracle"?}`` -> ``{"distances": {"17": 3.0, ...}}``.
``POST /mutate``
    ``{"inserts": [[u, v], ...], "deletes": [...], "wait": false?,
    "oracle"?}`` -> the :class:`~repro.serve.live.MutationReceipt` as
    JSON.  Only live oracles (``ServeSpec(live=True)``) accept mutations;
    their ``/query*`` responses additionally carry ``version`` /
    ``staleness`` / ``guaranteed`` tags (see :mod:`repro.serve.live`).
``GET /stats``
    Daemon counters (requests, latency histogram) plus every engine's
    hit/miss/eviction/coalescing counters and per-oracle
    ``space_in_edges``.
``GET /healthz``
    Liveness plus per-oracle metadata (``alpha`` / ``beta`` /
    ``num_vertices`` / ``space_in_edges``) — the handshake the
    :class:`~repro.serve.remote.RemoteOracle` client reads once.

Concurrency model: the daemon serves through the package's one HTTP
server base, :mod:`repro.serve.jsonhttp` (one thread per connection, one
serve loop, one close policy, one body reader), and every named oracle
is served by its engine directly —
:class:`~repro.serve.engine.QueryEngine` (or the
:class:`~repro.serve.live.LiveEngine` built on it) is thread-safe and
coalesces misses: concurrent queries for the same source wait on the one
in-flight backend computation instead of queueing duplicate work, and the
expensive oracle call runs outside the memo lock so other sources keep
answering meanwhile.  Each request runs inside a
:func:`~repro.serve.engine.deadline_scope`, so the engine fails it fast
with :class:`~repro.serve.engine.DeadlineExceeded` (a ``504``) once its
budget is spent.

Warm-up: a saved :class:`~repro.serve.workloads.WorkloadProfile` preloads
the hottest sources into each engine's memo at startup
(:meth:`QueryEngine.prewarm`), so a freshly restarted daemon serves its
steady-state hit rate from the first request.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.faults import fault_point
from repro.graphs.graph import Graph
from repro.obs import (
    LATENCY_BUCKETS_MS,
    Histogram,
    inc,
    prometheus_text,
    register_collector,
    register_histogram,
    remove_collector,
    set_gauge,
    span,
)
from repro.serve.engine import DeadlineExceeded, QueryEngine, deadline_scope
from repro.serve.jsonhttp import Answer, JsonHandler, JsonServer
from repro.serve.live import GraphMutation, LiveEngine
from repro.serve.service import load as serve_load
from repro.serve.spec import ServeSpec
from repro.serve.workloads import WorkloadProfile

__all__ = [
    "DaemonConfig",
    "LATENCY_BUCKETS_MS",
    "OracleConfig",
    "OracleDaemon",
    "from_wire",
    "to_wire",
]

_INF = float("inf")


def to_wire(value: float) -> Optional[float]:
    """A distance as it travels in JSON: ``inf`` (unreachable) becomes ``null``."""
    return None if value == _INF else value


def from_wire(value: Optional[float]) -> float:
    """Restore a wire distance: ``null``/``None`` means unreachable (``inf``)."""
    return _INF if value is None else float(value)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OracleConfig:
    """One named oracle of a daemon config: what to build, on which graph.

    The graph comes from an edge-list file (``graph_path``) or a generated
    workload family (``family`` / ``n`` / ``graph_seed``); ``warmup_profile``
    names a saved :class:`~repro.serve.workloads.WorkloadProfile` whose
    hottest ``warmup_sources`` sources (``None`` = up to the engine's memo
    bound) are preloaded at startup.
    """

    spec: ServeSpec = field(default_factory=ServeSpec)
    graph_path: Optional[str] = None
    family: Optional[str] = None
    n: int = 256
    graph_seed: int = 0
    warmup_profile: Optional[str] = None
    warmup_sources: Optional[int] = None

    def load_graph(self) -> Graph:
        """Materialize the configured graph."""
        if self.graph_path:
            from repro.graphs import io as graph_io

            return graph_io.read_edge_list(self.graph_path)
        from repro.experiments.workloads import workload_by_name

        return workload_by_name(self.family or "erdos-renyi", self.n,
                                seed=self.graph_seed).graph

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OracleConfig":
        """Build a config from one JSON object of a daemon config file."""
        if not isinstance(data, Mapping):
            raise ValueError(f"oracle config must be an object, got {data!r}")
        known = {"spec", "graph_path", "family", "n", "graph_seed",
                 "warmup_profile", "warmup_sources"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown oracle config keys {sorted(unknown)}; valid keys: {sorted(known)}"
            )
        spec_data = data.get("spec", {})
        if not isinstance(spec_data, Mapping):
            raise ValueError(f"oracle config 'spec' must be an object, got {spec_data!r}")
        spec_keys = {f.name for f in fields(ServeSpec)}
        unknown = set(spec_data) - spec_keys
        if unknown:
            raise ValueError(
                f"unknown oracle spec keys {sorted(unknown)}; valid keys: {sorted(spec_keys)}"
            )
        return cls(
            spec=ServeSpec(**spec_data),
            graph_path=data.get("graph_path"),
            family=data.get("family"),
            n=int(data.get("n", 256)),
            graph_seed=int(data.get("graph_seed", 0)),
            warmup_profile=data.get("warmup_profile"),
            warmup_sources=(None if data.get("warmup_sources") is None
                            else int(data["warmup_sources"])),
        )


@dataclass(frozen=True)
class DaemonConfig:
    """A daemon's full startup configuration: named oracles to load.

    JSON shape (see ``README.md``)::

        {"oracles": {"roads": {"spec": {"product": "emulator", "eps": 0.1},
                               "graph_path": "roads.edges",
                               "warmup_profile": "roads-profile.json"},
                     "social": {"spec": {"backend": "spanner"},
                                "family": "erdos-renyi", "n": 512}}}

    The first oracle in file order answers requests that name no oracle
    (override with ``"default_oracle"``).
    """

    oracles: Mapping[str, OracleConfig]
    default_oracle: Optional[str] = None

    def __post_init__(self) -> None:
        oracles = dict(self.oracles)
        if not oracles:
            raise ValueError("daemon config needs at least one oracle")
        object.__setattr__(self, "oracles", oracles)
        if self.default_oracle is not None and self.default_oracle not in oracles:
            raise ValueError(
                f"default_oracle {self.default_oracle!r} is not a configured oracle; "
                f"configured: {sorted(oracles)}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DaemonConfig":
        """Build a config from a parsed JSON document."""
        if not isinstance(data, Mapping):
            raise ValueError(f"daemon config must be an object, got {data!r}")
        oracles = data.get("oracles")
        if not isinstance(oracles, Mapping):
            raise ValueError("daemon config needs an 'oracles' object")
        return cls(
            oracles={name: OracleConfig.from_dict(entry) for name, entry in oracles.items()},
            default_oracle=data.get("default_oracle"),
        )

    @classmethod
    def from_file(cls, path: str) -> "DaemonConfig":
        """Read a JSON config file."""
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
@dataclass
class _OracleEntry:
    """One served oracle: the serving engine plus startup bookkeeping.

    ``engine`` is a :class:`~repro.serve.engine.QueryEngine` for
    frozen-graph oracles and a :class:`~repro.serve.live.LiveEngine` for
    live ones (``live`` records which, once, at :meth:`OracleDaemon.add_oracle`);
    both are thread-safe and satisfy the ``DistanceOracle`` protocol.
    """

    name: str
    engine: Union[QueryEngine, LiveEngine]
    description: str
    live: bool
    warmed_sources: int = 0


class OracleDaemon:
    """A persistent HTTP server answering distance queries for named oracles.

    Lifecycle::

        daemon = OracleDaemon(port=0)            # 0 = ephemeral (tests/CI)
        daemon.add_oracle("default", graph, spec)
        daemon.start()                            # background thread
        ... daemon.url ...
        daemon.close()

    or blocking (the CLI): ``daemon.serve_forever()``.  Oracles must be
    added before the server starts taking requests — the handler reads
    the entry table without locking.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 verbose: bool = False, max_inflight: Optional[int] = None,
                 default_deadline_ms: Optional[float] = None,
                 retry_after_seconds: float = 1.0) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        self._server = JsonServer((host, port), _DaemonHandler, self)
        self._entries: Dict[str, _OracleEntry] = {}
        self._default_name: Optional[str] = None
        self._closed = False
        self._draining = False
        self._started_at = time.time()
        self._counter_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        self._max_inflight = max_inflight
        self._default_deadline_ms = default_deadline_ms
        self.retry_after_seconds = float(retry_after_seconds)
        self._inflight_cond = threading.Condition()
        # ``_inflight_requests`` counts every request until its response is
        # written (drain waits on it); ``_admitted_requests`` counts the
        # POSTs holding an admission slot, which they free before writing.
        self._inflight_requests = 0
        self._admitted_requests = 0
        self.shed_requests = 0
        self.deadline_exceeded = 0
        # The histogram instance works standalone (it feeds ``/stats``
        # even with telemetry disabled); registering it only makes it
        # scrapable at ``/metrics``.
        self._histogram = Histogram(LATENCY_BUCKETS_MS)
        register_histogram(
            "repro_daemon_request_latency_ms", self._histogram,
            help="Daemon request latency (milliseconds)",
        )
        register_collector(self._collect_engine_metrics)
        self.verbose = verbose
        self.requests = 0
        self.request_errors = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def add_oracle(
        self,
        name: str,
        graph: Optional[Graph] = None,
        spec: Optional[ServeSpec] = None,
        *,
        engine: Optional[Any] = None,
        warmup_profile: Optional[WorkloadProfile] = None,
        warmup_sources: Optional[int] = None,
    ) -> Any:
        """Load (or adopt) an oracle and serve it under ``name``.

        Either ``graph`` (+ optional ``spec``) — the oracle is built via
        :func:`repro.serve.load` — or a pre-built ``engine``.  The first
        oracle added becomes the default for requests naming none.
        ``warmup_profile`` preloads the profile's hottest
        ``warmup_sources`` sources into the memo before serving.

        A spec with ``live=True`` (or a pre-built
        :class:`~repro.serve.live.LiveEngine`) is served as a live oracle:
        it accepts ``POST /mutate`` and its answers carry version tags.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"oracle name must be a non-empty string, got {name!r}")
        if name in self._entries:
            raise ValueError(f"oracle {name!r} is already served")
        if engine is None:
            if graph is None:
                raise ValueError("add_oracle needs a graph (or a pre-built engine=)")
            engine = serve_load(graph, spec or ServeSpec())
        warmed = 0
        if warmup_profile is not None:
            warmed = engine.prewarm(
                warmup_profile.top_sources(warmup_sources), limit=warmup_sources
            )
        description = spec.describe() if spec is not None else getattr(
            engine.oracle, "name", engine.oracle.__class__.__name__
        )
        self._entries[name] = _OracleEntry(
            name=name, engine=engine, description=description,
            live=isinstance(engine, LiveEngine), warmed_sources=warmed,
        )
        if self._default_name is None:
            self._default_name = name
        return engine

    @classmethod
    def from_config(cls, config: DaemonConfig, *, host: str = "127.0.0.1",
                    port: int = 0, verbose: bool = False,
                    max_inflight: Optional[int] = None,
                    default_deadline_ms: Optional[float] = None,
                    retry_after_seconds: float = 1.0) -> "OracleDaemon":
        """Build a daemon with every oracle of ``config`` loaded and warmed."""
        daemon = cls(host=host, port=port, verbose=verbose,
                     max_inflight=max_inflight,
                     default_deadline_ms=default_deadline_ms,
                     retry_after_seconds=retry_after_seconds)
        try:
            for name, oracle_config in config.oracles.items():
                profile = (WorkloadProfile.load(oracle_config.warmup_profile)
                           if oracle_config.warmup_profile else None)
                daemon.add_oracle(
                    name,
                    oracle_config.load_graph(),
                    oracle_config.spec,
                    warmup_profile=profile,
                    warmup_sources=oracle_config.warmup_sources,
                )
            if config.default_oracle is not None:
                daemon._default_name = config.default_oracle
        except Exception:
            daemon.close()
            raise
        return daemon

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The actually bound port (resolves an ephemeral ``port=0`` bind)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients (and :class:`~repro.serve.remote.RemoteOracle`) use."""
        return f"http://{self.host}:{self.port}"

    @property
    def oracle_names(self) -> List[str]:
        return list(self._entries)

    @property
    def default_oracle_name(self) -> Optional[str]:
        return self._default_name

    def engine_for(self, name: Optional[str]) -> Union[QueryEngine, LiveEngine]:
        """The serving engine for ``name`` (``None`` = the default)."""
        return self._entry_for(name).engine

    def _entry_for(self, name: Optional[str]) -> _OracleEntry:
        if name is None:
            name = self._default_name
        if name is None or name not in self._entries:
            served = ", ".join(sorted(self._entries)) or "none"
            raise KeyError(f"no oracle named {name!r} is served; served oracles: {served}")
        return self._entries[name]

    def healthz(self) -> Dict[str, Any]:
        """The ``GET /healthz`` payload (liveness + health state + metadata).

        ``ok`` is pure liveness (the daemon answered); ``status`` grades
        it: ``"healthy"``, ``"degraded"`` (a live oracle's background
        rebuild is failing, or admission is saturated and shedding), or
        ``"draining"`` (graceful shutdown in progress).  Deployments page
        on ``degraded`` and de-pool on ``draining``; ``ok`` alone only
        feeds dumb TCP health checks.
        """
        with self._inflight_cond:
            inflight = self._inflight_requests
            admitted = self._admitted_requests
            draining = self._draining
        saturated = (self._max_inflight is not None
                     and admitted >= self._max_inflight)
        degraded = saturated or any(
            entry.live and entry.engine.degraded for entry in self._entries.values()
        )
        status = "draining" if draining else ("degraded" if degraded else "healthy")
        return {
            "ok": True,
            "status": status,
            "uptime_seconds": time.time() - self._started_at,
            "inflight_requests": inflight,
            "max_inflight": self._max_inflight,
            "shed_requests": self.shed_requests,
            "default_oracle": self._default_name,
            "oracles": {
                name: self._oracle_healthz(entry)
                for name, entry in self._entries.items()
            },
        }

    @staticmethod
    def _oracle_healthz(entry: _OracleEntry) -> Dict[str, Any]:
        info = {
            "backend": getattr(entry.engine.oracle, "name",
                               entry.engine.oracle.__class__.__name__),
            "description": entry.description,
            "alpha": entry.engine.alpha,
            "beta": entry.engine.beta,
            "num_vertices": entry.engine.num_vertices,
            "space_in_edges": entry.engine.space_in_edges,
            "warmed_sources": entry.warmed_sources,
            "live": entry.live,
        }
        if entry.live:
            version = entry.engine.version
            info["version"] = version.version
            info["staleness"] = entry.engine.staleness
            info["degraded"] = entry.engine.degraded
        return info

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload (daemon counters + per-engine stats)."""
        with self._counter_lock:
            daemon_stats = {
                "requests": self.requests,
                "request_errors": self.request_errors,
                "shed_requests": self.shed_requests,
                "deadline_exceeded": self.deadline_exceeded,
                "max_inflight": self._max_inflight,
                "draining": self._draining,
                "uptime_seconds": time.time() - self._started_at,
            }
        daemon_stats["latency_ms"] = self._histogram.snapshot()
        return {
            "daemon": daemon_stats,
            "default_oracle": self._default_name,
            "oracles": {
                name: dict(entry.engine.stats(), warmed_sources=entry.warmed_sources)
                for name, entry in self._entries.items()
            },
        }

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition)."""
        return prometheus_text()

    def _collect_engine_metrics(self) -> None:
        """Scrape-time collector mirroring per-engine counters into gauges.

        Registered at construction and run only when metrics are
        rendered, so the query hot path carries no per-query metric
        updates; ``/metrics`` still agrees with ``/stats`` because both
        read the same engine counters.
        """
        for name, entry in self._entries.items():
            stats = entry.engine.stats()
            live = stats.pop("live", None)
            for key, value in stats.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                set_gauge(f"repro_engine_{key}", float(value), oracle=name)
            if isinstance(live, dict):
                for key, value in live.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    set_gauge(f"repro_live_{key}", float(value), oracle=name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OracleDaemon":
        """Serve in a background thread (returns once the socket accepts)."""
        if self._closed:
            raise RuntimeError("daemon is closed")
        self._server.start(f"repro-serve-daemon:{self.port}")
        return self

    def serve_forever(self) -> None:
        """Serve until :meth:`close`/:meth:`drain` (from another thread) or interrupt."""
        self.start()
        self._server.wait()

    def close(self) -> None:
        """Stop serving *abruptly*, release the socket, and close every engine.

        Idle keep-alive connections are cut at once (their clients see a
        transport error on the next request, as with a real kill); a
        request being answered still gets its answer, then its
        connection ends.  :meth:`drain` is the graceful SIGTERM-style
        alternative.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            remove_collector(self._collect_engine_metrics)
            self._server.close()
            for entry in self._entries.values():
                entry.engine.close()

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: finish in-flight work, then close cleanly.

        The SIGTERM path (the CLI wires it up): new connections are
        refused immediately and new requests on existing keep-alive
        connections get ``503``, while requests already admitted run to
        completion (up to ``timeout`` seconds).  Idle keep-alive clients
        then observe a clean EOF — a FIN after a fully delivered
        response, never a mid-stream cut.  Returns ``True`` when every
        in-flight request finished inside the timeout.
        """
        with self._lifecycle_lock:
            if self._closed:
                return True
            with self._inflight_cond:
                self._draining = True
            # Refuse new connections while existing handlers finish.
            self._server.stop()
            deadline = time.monotonic() + timeout
            with self._inflight_cond:
                while self._inflight_requests > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._inflight_cond.wait(remaining)
                drained = self._inflight_requests == 0
            self._closed = True
            remove_collector(self._collect_engine_metrics)
            # Every admitted response has been written (or the timeout
            # hit): ending the connections now sends idle keep-alive
            # clients a clean FIN.
            self._server.close()
            for entry in self._entries.values():
                entry.engine.close()
            return drained

    def __enter__(self) -> "OracleDaemon":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request bookkeeping (called by the handler)
    # ------------------------------------------------------------------
    def _record_request(self, latency_ms: float, ok: bool, *,
                        endpoint: str = "?", oracle: str = "") -> None:
        with self._counter_lock:
            self.requests += 1
            if not ok:
                self.request_errors += 1
        self._histogram.observe(latency_ms)
        inc("repro_daemon_requests_total", endpoint=endpoint, oracle=oracle,
            help="Daemon HTTP requests handled")
        if not ok:
            inc("repro_daemon_request_errors_total", endpoint=endpoint, oracle=oracle,
                help="Daemon HTTP requests answered with an error status")

    def _try_admit(self) -> Tuple[bool, str]:
        """Admit one query/mutate request, or name the shed reason.

        Admission is a hard bound, not a queue: past ``max_inflight``
        concurrent requests (or while draining) the caller sheds with
        ``503 + Retry-After`` instead of parking another handler thread.
        ``GET`` endpoints bypass admission — ``/healthz`` and ``/metrics``
        are exactly what an operator needs *during* an overload.
        """
        with self._inflight_cond:
            if self._draining or self._closed:
                reason = "draining"
            elif (self._max_inflight is not None
                    and self._admitted_requests >= self._max_inflight):
                reason = "overload"
            else:
                self._admitted_requests += 1
                self._inflight_requests += 1
                return True, ""
        with self._counter_lock:
            self.shed_requests += 1
        inc("repro_daemon_shed_total", reason=reason,
            help="Requests shed with 503 by admission control")
        return False, reason

    def _release_admission(self) -> None:
        """Free an admitted request's slot once its answer is computed.

        Freed before the response is written: a client that has read its
        response and sends the next request must find the slot free,
        however late the handler thread is scheduled afterwards.
        """
        with self._inflight_cond:
            self._admitted_requests -= 1

    def _begin_request(self) -> None:
        """Track a non-admission-controlled (GET) request for drain."""
        with self._inflight_cond:
            self._inflight_requests += 1

    def _end_request(self) -> None:
        with self._inflight_cond:
            self._inflight_requests -= 1
            self._inflight_cond.notify_all()

    def _record_deadline_exceeded(self, endpoint: str) -> None:
        with self._counter_lock:
            self.deadline_exceeded += 1
        inc("repro_daemon_deadline_exceeded_total", endpoint=endpoint,
            help="Requests that overran their deadline and were answered 504")

    def _effective_deadline(self, requested_ms: Any) -> Optional[float]:
        """The request's deadline in seconds: min(server default, client ask)."""
        deadline_ms = self._default_deadline_ms
        if requested_ms is not None:
            if (isinstance(requested_ms, bool)
                    or not isinstance(requested_ms, (int, float))
                    or requested_ms <= 0):
                raise ValueError(
                    f"field 'deadline_ms' must be a positive number, got {requested_ms!r}"
                )
            deadline_ms = (float(requested_ms) if deadline_ms is None
                           else min(deadline_ms, float(requested_ms)))
        return None if deadline_ms is None else deadline_ms / 1000.0


# ----------------------------------------------------------------------
# The HTTP face
# ----------------------------------------------------------------------
def _require_vertex(body: Mapping[str, Any], key: str) -> int:
    """A vertex id field of a request body (bool is *not* an int here)."""
    value = body.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {key!r} must be an integer vertex id, got {value!r}")
    return value


def _pairs_field(body: Mapping[str, Any], key: str,
                 default: Optional[List[Any]] = None) -> List[Tuple[int, int]]:
    """A list-of-``[u, v]``-pairs field of a request body."""
    raw = body.get(key, default)
    if not isinstance(raw, list):
        raise ValueError(f"field {key!r} must be a list of [u, v] pairs, got {raw!r}")
    pairs: List[Tuple[int, int]] = []
    for item in raw:
        if (not isinstance(item, (list, tuple)) or len(item) != 2
                or any(not isinstance(x, int) or isinstance(x, bool) for x in item)):
            raise ValueError(f"pair {item!r} is not a [u, v] integer pair")
        pairs.append((item[0], item[1]))
    return pairs


def _ask(entry: _OracleEntry, method: str, *args: Any) -> Tuple[Any, Dict[str, Any]]:
    """Call ``method`` on the entry's engine -> ``(value, tags)``.

    A live oracle answers through the ``*_tagged`` variant, and its
    version/staleness/guarantee tags ride along in the payload.
    """
    if not entry.live:
        return getattr(entry.engine, method)(*args), {}
    answer = getattr(entry.engine, f"{method}_tagged")(*args)
    return answer.value, {"version": answer.version,
                          "staleness": answer.staleness,
                          "guaranteed": answer.guaranteed}


def _handle_query(entry: _OracleEntry, body: Mapping[str, Any]) -> Dict[str, Any]:
    u = _require_vertex(body, "u")
    v = _require_vertex(body, "v")
    value, tags = _ask(entry, "query", u, v)
    return {"u": u, "v": v, "answer": to_wire(value), **tags}


def _handle_query_batch(entry: _OracleEntry, body: Mapping[str, Any]) -> Dict[str, Any]:
    values, tags = _ask(entry, "query_batch", _pairs_field(body, "pairs"))
    return {"answers": [to_wire(value) for value in values], **tags}


def _handle_single_source(entry: _OracleEntry, body: Mapping[str, Any]) -> Dict[str, Any]:
    source = _require_vertex(body, "source")
    distances, tags = _ask(entry, "single_source", source)
    return {"source": source,
            "distances": {str(v): d for v, d in distances.items()}, **tags}


def _handle_mutate(entry: _OracleEntry, body: Mapping[str, Any]) -> Dict[str, Any]:
    if not entry.live:
        raise ValueError(
            "oracle is not live and accepts no mutations; serve it with "
            "a live spec (ServeSpec(live=True) / `repro serve-daemon --live`)"
        )
    unknown = set(body) - {"oracle", "inserts", "deletes", "wait", "deadline_ms"}
    if unknown:
        raise ValueError(
            f"unknown mutate keys {sorted(unknown)}; valid keys: "
            "['deadline_ms', 'deletes', 'inserts', 'oracle', 'wait']"
        )
    inserts = _pairs_field(body, "inserts", default=[])
    deletes = _pairs_field(body, "deletes", default=[])
    wait = body.get("wait", False)
    if not isinstance(wait, bool):
        raise ValueError(f"field 'wait' must be a boolean, got {wait!r}")
    engine = entry.engine
    receipt = engine.apply(
        GraphMutation(inserts=tuple(inserts), deletes=tuple(deletes))
    )
    payload = receipt.to_dict()
    if wait:
        engine.quiesce(timeout=120.0)
        version = engine.version
        payload["version"] = version.version
        payload["watermark"] = version.watermark
        payload["staleness"] = engine.staleness
    return payload


class _DaemonHandler(JsonHandler):
    """Routes HTTP requests to the owning :class:`OracleDaemon`.

    ``GET`` routes bypass admission control; every ``POST`` route is an
    oracle call ``route(entry, body) -> payload``, admitted (or shed with
    ``503``) and run inside the request's deadline.
    """

    #: The answering oracle's name, for the request counters; reset once
    #: each answer is counted.
    oracle = ""

    def serve(self, route: Any) -> None:
        daemon = self.server.owner
        if self.command == "GET":
            daemon._begin_request()
            try:
                with span("daemon.request", endpoint=self.path):
                    super().serve(route)
            finally:
                daemon._end_request()
            return
        admitted, shed_reason = daemon._try_admit()
        if not admitted:
            retry_after = daemon.retry_after_seconds
            if shed_reason == "draining":
                # A draining daemon reads nothing more from this connection.
                self.close_connection = True
            self.send_json(
                503, {"error": f"request shed ({shed_reason})", "retry_after": retry_after},
                {"Retry-After": f"{retry_after:g}"},
            )
            return
        try:
            with span("daemon.request", endpoint=self.path) as request_span:
                try:
                    fault_point("daemon.request", endpoint=self.path)
                    body = self.json_body()
                    self.oracle = body.get("oracle") or daemon.default_oracle_name or ""
                    request_span.set(oracle=self.oracle)
                    entry = daemon._entry_for(body.get("oracle"))
                    deadline = daemon._effective_deadline(body.get("deadline_ms"))
                    with deadline_scope(deadline):
                        answer = 200, route(entry, body), None
                except Exception as error:
                    answer = self.error_answer(error)
                admitted = False
                daemon._release_admission()
                self.send_json(*answer)
        finally:
            if admitted:  # pragma: no cover - only if the span itself raised
                daemon._release_admission()
            daemon._end_request()

    def error_answer(self, error: Exception) -> Answer:
        if isinstance(error, DeadlineExceeded):
            daemon = self.server.owner
            daemon._record_deadline_exceeded(self.path)
            retry_after = daemon.retry_after_seconds
            return (504, {"error": str(error), "retry_after": retry_after},
                    {"Retry-After": f"{retry_after:g}"})
        return super().error_answer(error)

    def count_answer(self, code: int) -> None:
        # Counted before the answer is written: a client that has read it
        # (and at once asks /stats) must already see this request counted.
        self.server.owner._record_request(
            (time.perf_counter() - self.started) * 1000.0, ok=code < 400,
            endpoint=self.path, oracle=self.oracle)
        self.oracle = ""

    routes = {
        "/query": {"POST": _handle_query},
        "/query_batch": {"POST": _handle_query_batch},
        "/single_source": {"POST": _handle_single_source},
        "/mutate": {"POST": _handle_mutate},
        "/healthz": {"GET": lambda handler: handler.server.owner.healthz()},
        "/stats": {"GET": lambda handler: handler.server.owner.stats()},
        "/metrics": {"GET": JsonHandler.metrics},
    }
