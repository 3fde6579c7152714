"""The ``remote`` oracle backend: proxy queries to a serving daemon.

The symmetric half of :mod:`repro.serve.daemon`: where the daemon makes
one expensive oracle shareable, :class:`RemoteOracle` is how a client
process shares it — an object satisfying the full
:class:`~repro.serve.oracles.DistanceOracle` protocol whose every answer
is an HTTP round trip to a daemon.  Because it *is* the protocol,
everything downstream composes unchanged: wrap it in a
:class:`~repro.serve.engine.QueryEngine` for client-side LRU memoization
over the wire, hand it to :func:`~repro.serve.harness.run_load_test` or
:class:`~repro.applications.routing.LandmarkRoutingScheme`, or select it
declaratively::

    spec = ServeSpec(backend="remote", options={"url": "http://127.0.0.1:8080"})
    engine = repro.serve.load(graph, spec)   # QueryEngine over the wire

Transport behaviour:

* **connection reuse** — one persistent :class:`KeptConnection` per
  oracle (the daemon speaks HTTP/1.1 keep-alive), reopened after
  transport errors;
* **timeouts and bounded retry** — every transport failure (connection
  refused, reset, timeout) is retried up to ``retries`` times with
  *full-jitter* exponential backoff (attempt ``k`` sleeps a seeded-random
  ``uniform(0, backoff * 2**(k-1))`` seconds, so a fleet of clients never
  hammers a restarting daemon in lockstep), after which a typed
  :exc:`RemoteOracleError` is raised — a bare ``URLError`` or
  ``ConnectionError`` never escapes a query;
* **circuit breaker** — ``breaker_threshold`` consecutive *exhausted*
  retry rounds open the breaker: further requests fail fast with
  :exc:`CircuitOpenError` (no network, no sleep) until a jittered
  ``breaker_reset`` window elapses, then one half-open probe either
  closes it (success) or re-opens it (failure).  The state is exported on
  the ``repro_remote_breaker_state`` gauge (0 closed / 1 open / 2
  half-open);
* **server-side errors stay typed** — a daemon 400 surfaces as
  :exc:`ValueError` and a 404 as :exc:`KeyError`, exactly what the
  in-process backends raise for the same mistakes, so protocol
  conformance tests pass against either.

The oracle pickles (the connection and lock are dropped and lazily
rebuilt), so even the engine's multi-process ``query_batch(workers=)``
mode works — each pool worker opens its own connection.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.faults import FaultInjected, fault_point
from repro.graphs.graph import Graph
from repro.obs import set_gauge
from repro.serve.daemon import from_wire
from repro.serve.live import GraphMutation, LiveAnswer
from repro.serve.registry import register_oracle
from repro.serve.spec import ServeSpec

__all__ = ["CircuitOpenError", "KeptConnection", "RemoteOracle", "RemoteOracleError"]

#: Transport-level failures worth retrying (the daemon may be restarting,
#: the connection may have idled out).  HTTP-level errors are never here;
#: injected ``remote.request`` faults are — they simulate exactly this class.
_TRANSPORT_ERRORS = (ConnectionError, socket.timeout, socket.gaierror,
                     http.client.HTTPException, TimeoutError, OSError,
                     FaultInjected)

#: Numeric encoding of the breaker state on the Prometheus gauge.
_BREAKER_GAUGE = {"closed": 0.0, "open": 1.0, "half_open": 2.0}


class KeptConnection(http.client.HTTPConnection):
    """A keep-alive HTTP/1.1 client connection with Nagle's algorithm off.

    It connects on first use, and again on the next request after any
    close: a transport error, an answer that ends the connection, or
    :meth:`close`.  Like any ``http.client`` connection it is not
    thread-safe: one thread owns it, or a lock guards it.  The daemon's
    clients and the distributed sweep's workers both talk through it.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        super().__init__(host, port, timeout=timeout)
        #: Connections opened so far.
        self.connects = 0

    def connect(self) -> None:  # noqa: D102
        super().connect()
        # Small request/response pairs: Nagle plus delayed ACK would
        # stall each one.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1

    def round_trip(self, method: str, path: str, body: Optional[bytes] = None
                   ) -> Tuple[http.client.HTTPResponse, bytes]:
        """Send one request and read its whole answer: ``(response, body)``.

        A JSON body gets its content type.  Any error closes the
        connection before it propagates, so the next call starts clean.
        """
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.request(method, path, body=body, headers=headers)
            response = self.getresponse()
            return response, response.read()  # always drain: keep-alive hygiene
        except BaseException:
            self.close()
            raise


class RemoteOracleError(RuntimeError):
    """A daemon could not be reached (or answered garbage) after bounded retries."""


class CircuitOpenError(RemoteOracleError):
    """Fast failure: the circuit breaker is open, no round trip was attempted."""


class RemoteOracle:
    """A :class:`DistanceOracle` proxying every call to a daemon URL.

    Parameters
    ----------
    url:
        Daemon base URL, e.g. ``http://127.0.0.1:8080``.
    oracle:
        Name of the served oracle to query (``None`` = the daemon's
        default oracle).
    timeout:
        Socket timeout in seconds for each round trip.
    retries:
        How many times a failed round trip is retried (so up to
        ``retries + 1`` attempts) before :exc:`RemoteOracleError`.
    backoff:
        Base of the exponential retry backoff: attempt ``k`` sleeps a
        seeded-random ``uniform(0, backoff * 2**(k-1))`` seconds first
        (full jitter — a restarting daemon sees a spread-out herd).
    seed:
        Seeds the jitter RNG; ``None`` draws from the process RNG.  Tests
        and chaos suites pin it for bit-for-bit replay.
    breaker_threshold:
        Consecutive *exhausted* retry rounds that open the circuit
        breaker (``0`` disables it).  While open, requests raise
        :exc:`CircuitOpenError` immediately — no connection attempt, no
        backoff sleep — shielding both sides from a retry storm.
    breaker_reset:
        Seconds the breaker stays open (jittered to 50-100% of the value)
        before one half-open probe is allowed through.

    The constructor performs one ``GET /healthz`` handshake (with the same
    retry policy) to validate the URL and cache the served oracle's
    metadata (``alpha`` / ``beta`` / ``num_vertices`` / ``space_in_edges``).
    """

    #: Registry-style identity, mirrored from the stock backends.
    name = "remote"

    def __init__(self, url: str, *, oracle: Optional[str] = None,
                 timeout: float = 10.0, retries: int = 3,
                 backoff: float = 0.05, seed: Optional[int] = None,
                 breaker_threshold: int = 3,
                 breaker_reset: float = 1.0) -> None:
        parsed = urllib.parse.urlsplit(url if "//" in url else f"http://{url}")
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"remote oracle URLs must be http://, got {url!r}")
        if not parsed.hostname:
            raise ValueError(f"remote oracle URL {url!r} has no host")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {backoff}")
        if breaker_threshold < 0:
            raise ValueError(
                f"breaker_threshold must be non-negative, got {breaker_threshold}"
            )
        if breaker_reset <= 0:
            raise ValueError(f"breaker_reset must be positive, got {breaker_reset}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._oracle_name = oracle
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._rng = random.Random(seed)
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset = float(breaker_reset)
        self._breaker_state = "closed"
        self._breaker_open_until = 0.0
        self._consecutive_failures = 0
        self._lock = threading.Lock()
        self._connection = KeptConnection(self._host, self._port, self._timeout)
        self.requests = 0
        self.retried_requests = 0
        self.breaker_opens = 0
        self.fast_failures = 0
        try:
            self._metadata = self._handshake()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Introspection (protocol surface, answered from the cached handshake)
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """The daemon base URL."""
        return f"http://{self._host}:{self._port}"

    @property
    def oracle_name(self) -> str:
        """The served oracle this proxy queries."""
        return self._metadata["oracle"]

    @property
    def alpha(self) -> float:
        return float(self._metadata["alpha"])

    @property
    def beta(self) -> float:
        return float(self._metadata["beta"])

    @property
    def num_vertices(self) -> int:
        return int(self._metadata["num_vertices"])

    @property
    def space_in_edges(self) -> int:
        """Edges the *daemon* stores for this oracle (nothing lives client-side)."""
        return int(self._metadata["space_in_edges"])

    @property
    def is_live(self) -> bool:
        """Whether the served oracle accepts mutations (``POST /mutate``).

        From the cached handshake — a daemon restarted with a different
        spec needs a fresh :class:`RemoteOracle`.
        """
        return bool(self._metadata.get("live"))

    def stats(self) -> Dict[str, Any]:
        """Client-side transport counters plus the cached handshake metadata.

        Purely local — no round trip — so it stays answerable when the
        daemon is down; :meth:`daemon_stats` fetches the live server view.
        """
        return {
            "backend": self.name,
            "url": self.url,
            "oracle": self.oracle_name,
            "remote_backend": self._metadata.get("backend"),
            "num_vertices": self.num_vertices,
            "space_in_edges": self.space_in_edges,
            "alpha": self.alpha,
            "beta": self.beta,
            "requests": self.requests,
            "retried_requests": self.retried_requests,
            "reconnects": self.reconnects,
            "breaker_state": self._breaker_state,
            "breaker_opens": self.breaker_opens,
            "fast_failures": self.fast_failures,
            "consecutive_failures": self._consecutive_failures,
        }

    def daemon_stats(self) -> Dict[str, Any]:
        """The daemon's live ``GET /stats`` payload."""
        return self._request("GET", "/stats")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """Approximate distance between ``u`` and ``v`` via one round trip."""
        payload = self._request("POST", "/query", self._with_oracle({"u": u, "v": v}))
        return from_wire(payload.get("answer"))

    def query_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        """Approximate distances for many pairs in one round trip."""
        pairs = [[u, v] for u, v in pairs]
        payload = self._request("POST", "/query_batch",
                                self._with_oracle({"pairs": pairs}))
        answers = payload.get("answers")
        if not isinstance(answers, list) or len(answers) != len(pairs):
            raise RemoteOracleError(
                f"daemon at {self.url} answered {len(pairs)} pairs with {answers!r}"
            )
        return [from_wire(answer) for answer in answers]

    def single_source(self, source: int) -> Dict[int, float]:
        """All approximate distances from ``source`` in one round trip."""
        payload = self._request("POST", "/single_source",
                                self._with_oracle({"source": source}))
        distances = payload.get("distances")
        if not isinstance(distances, dict):
            raise RemoteOracleError(
                f"daemon at {self.url} answered /single_source with {distances!r}"
            )
        return {int(vertex): float(distance) for vertex, distance in distances.items()}

    # ------------------------------------------------------------------
    # Live oracles: mutations and tagged answers
    # ------------------------------------------------------------------
    def query_tagged(self, u: int, v: int) -> LiveAnswer:
        """:meth:`query` plus the live ``(version, staleness)`` tags.

        Against a non-live oracle the tags degrade to the frozen-graph
        truth: version 0, staleness 0, guaranteed.
        """
        payload = self._request("POST", "/query", self._with_oracle({"u": u, "v": v}))
        return LiveAnswer(
            from_wire(payload.get("answer")),
            int(payload.get("version", 0)),
            int(payload.get("staleness", 0)),
            bool(payload.get("guaranteed", True)),
        )

    def query_batch_tagged(self, pairs: Iterable[Tuple[int, int]]) -> LiveAnswer:
        """:meth:`query_batch` with tags; one daemon version answers the batch."""
        pairs = [[u, v] for u, v in pairs]
        payload = self._request("POST", "/query_batch",
                                self._with_oracle({"pairs": pairs}))
        answers = payload.get("answers")
        if not isinstance(answers, list) or len(answers) != len(pairs):
            raise RemoteOracleError(
                f"daemon at {self.url} answered {len(pairs)} pairs with {answers!r}"
            )
        return LiveAnswer(
            [from_wire(answer) for answer in answers],
            int(payload.get("version", 0)),
            int(payload.get("staleness", 0)),
            bool(payload.get("guaranteed", True)),
        )

    def mutate(self, inserts: Iterable[Tuple[int, int]] = (),
               deletes: Iterable[Tuple[int, int]] = (), *,
               wait: bool = False) -> Dict[str, Any]:
        """Forward one mutation batch to the daemon (``POST /mutate``).

        ``wait=True`` blocks until the daemon has absorbed the backlog
        into a fresh oracle version.  Returns the daemon's
        :class:`~repro.serve.live.MutationReceipt` payload; raises
        :exc:`ValueError` when the served oracle is not live.
        """
        mutation = GraphMutation(inserts=tuple(inserts), deletes=tuple(deletes))
        body = self._with_oracle(dict(mutation.to_dict(), wait=bool(wait)))
        return self._request("POST", "/mutate", body)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def reconnects(self) -> int:
        """Connections this oracle has opened (``1`` while one is kept)."""
        return self._connection.connects

    def close(self) -> None:
        """Drop the persistent connection (reopened lazily on next use)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "RemoteOracle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # The connection and lock are per-process; pool workers and unpickled
    # copies each rebuild their own on first use.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_connection"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._connection = KeptConnection(self._host, self._port, self._timeout)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _handshake(self) -> Dict[str, Any]:
        health = self._request("GET", "/healthz")
        oracles = health.get("oracles")
        if not isinstance(oracles, dict) or not oracles:
            raise RemoteOracleError(f"daemon at {self.url} serves no oracles: {health!r}")
        name = self._oracle_name or health.get("default_oracle")
        if name not in oracles:
            raise KeyError(
                f"no oracle named {name!r} at {self.url}; served oracles: "
                f"{', '.join(sorted(oracles))}"
            )
        metadata = dict(oracles[name])
        metadata["oracle"] = name
        for key in ("alpha", "beta", "num_vertices", "space_in_edges"):
            if key not in metadata:
                raise RemoteOracleError(
                    f"daemon at {self.url} announced no {key!r} for oracle {name!r}"
                )
        return metadata

    def _with_oracle(self, body: Dict[str, Any]) -> Dict[str, Any]:
        if self._oracle_name is not None:
            body["oracle"] = self._oracle_name
        return body

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """One JSON round trip: breaker gate, jittered bounded retries.

        Transport failures retry; HTTP error statuses are mapped to the
        exception the equivalent local mistake raises (400 -> ValueError,
        404 -> KeyError) and are not retried — resending a malformed
        request cannot fix it.  Any HTTP answer counts as breaker success
        (the daemon is reachable); only an exhausted retry round counts
        as a breaker failure.
        """
        encoded = None if body is None else json.dumps(body).encode("utf-8")
        last_error: Optional[Exception] = None
        with self._lock:
            self.requests += 1
            self._breaker_gate_locked(method, path)
            for attempt in range(self._retries + 1):
                if attempt:
                    self.retried_requests += 1
                    # Full jitter: sleep anywhere in [0, backoff * 2**(k-1)].
                    time.sleep(self._rng.uniform(
                        0.0, self._backoff * (2 ** (attempt - 1))
                    ))
                try:
                    fault_point("remote.request", path=path, attempt=attempt)
                    response, raw = self._connection.round_trip(method, path, encoded)
                except _TRANSPORT_ERRORS as error:
                    last_error = error
                    self._connection.close()
                    continue
                self._breaker_success_locked()
                return self._decode_locked(response.status, raw, path)
            self._breaker_failure_locked()
        raise RemoteOracleError(
            f"daemon at {self.url} unreachable after {self._retries + 1} attempt(s) "
            f"({method} {path}): {last_error!r}"
        ) from last_error

    # ------------------------------------------------------------------
    # Circuit breaker (all methods expect self._lock held)
    # ------------------------------------------------------------------
    def _breaker_gate_locked(self, method: str, path: str) -> None:
        """Fast-fail while the breaker is open; admit one half-open probe."""
        if self._breaker_threshold <= 0 or self._breaker_state == "closed":
            return
        if self._breaker_state == "open":
            remaining = self._breaker_open_until - time.monotonic()
            if remaining > 0:
                self.fast_failures += 1
                raise CircuitOpenError(
                    f"circuit breaker open for daemon at {self.url} "
                    f"({method} {path} rejected; retry in {remaining:.2f}s)"
                )
            # The reset window elapsed: this request is the half-open probe
            # (the whole round trip runs under the lock, so exactly one).
            self._set_breaker_locked("half_open")

    def _breaker_success_locked(self) -> None:
        self._consecutive_failures = 0
        if self._breaker_state != "closed":
            self._set_breaker_locked("closed")

    def _breaker_failure_locked(self) -> None:
        if self._breaker_threshold <= 0:
            return
        self._consecutive_failures += 1
        if (self._breaker_state == "half_open"
                or self._consecutive_failures >= self._breaker_threshold):
            # Jitter the open window too (50-100% of breaker_reset): a
            # fleet sharing one dead daemon must not probe in lockstep.
            self._breaker_open_until = time.monotonic() + self._breaker_reset * (
                0.5 + 0.5 * self._rng.random()
            )
            self.breaker_opens += 1
            self._set_breaker_locked("open")

    def _set_breaker_locked(self, state: str) -> None:
        self._breaker_state = state
        set_gauge("repro_remote_breaker_state", _BREAKER_GAUGE[state],
                  url=self.url,
                  help="Remote-oracle circuit breaker (0 closed, 1 open, 2 half-open)")

    def _decode_locked(self, status: int, raw: bytes, path: str) -> Dict[str, Any]:
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise RemoteOracleError(
                f"daemon at {self.url} answered {path} with invalid JSON: {error}"
            ) from None
        if status == 400:
            raise ValueError(payload.get("error", f"bad request to {path}"))
        if status == 404:
            raise KeyError(payload.get("error", f"{path} not found at {self.url}"))
        if status >= 300:
            raise RemoteOracleError(
                f"daemon at {self.url} answered {path} with HTTP {status}: "
                f"{payload.get('error', payload)!r}"
            )
        if not isinstance(payload, dict):
            raise RemoteOracleError(
                f"daemon at {self.url} answered {path} with {type(payload).__name__}, "
                "expected a JSON object"
            )
        return payload


@register_oracle("remote", description="proxy to a repro serve-daemon over HTTP",
                 self_contained=False)
def _make_remote_oracle(graph: Optional[Graph], spec: ServeSpec) -> RemoteOracle:
    """Registry factory: ``ServeSpec(backend="remote", options={"url": ...})``.

    Options: ``url`` (required), ``oracle`` (served oracle name),
    ``timeout`` / ``retries`` / ``backoff`` / ``seed`` (transport policy)
    and ``breaker_threshold`` / ``breaker_reset`` (circuit breaker).  The
    local graph, when provided, is only checked for vertex-count
    agreement with the daemon's oracle — answers come exclusively from
    the daemon.
    """
    url = spec.options.get("url")
    if not url:
        raise ValueError(
            'the remote backend needs a daemon URL: ServeSpec(backend="remote", '
            'options={"url": "http://host:port"})'
        )
    oracle = RemoteOracle(
        url,
        oracle=spec.options.get("oracle"),
        timeout=spec.options.get("timeout", 10.0),
        retries=spec.options.get("retries", 3),
        backoff=spec.options.get("backoff", 0.05),
        seed=spec.options.get("seed"),
        breaker_threshold=spec.options.get("breaker_threshold", 3),
        breaker_reset=spec.options.get("breaker_reset", 1.0),
    )
    if graph is not None and graph.num_vertices != oracle.num_vertices:
        oracle.close()
        raise ValueError(
            f"local graph has {graph.num_vertices} vertices but the daemon's "
            f"{oracle.oracle_name!r} oracle serves {oracle.num_vertices}; "
            "point the spec at the daemon serving this graph"
        )
    return oracle
