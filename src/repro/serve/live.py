"""Live-graph serving: versioned oracles with atomic hot swap.

The rest of :mod:`repro.serve` answers queries on a *frozen* graph; this
module is the ingestion half of the ROADMAP's "streaming + dynamic
serving" item — one mutation API shared by deletion-only (decremental)
serving, the streaming builder, and the daemon, and a :class:`LiveEngine`
that keeps serving while the graph underneath it churns:

* a :class:`GraphMutation` is one validated, JSON-round-trippable batch
  of edge insertions/deletions — the *single* edge-batch type used by
  :meth:`LiveEngine.apply`, ``POST /mutate`` on the daemon, and
  :meth:`repro.applications.streaming.EdgeStream.mutation_batches`;
* mutations apply to the engine's private graph **immediately**; the
  backing oracle is repaired or rebuilt *lazily* — a single background
  thread reruns the ``repro.build`` facade on a graph snapshot (each
  snapshot recompiles its CSR form, exercising the PR 4 invalidation
  machinery) and the finished engine is swapped in atomically under a
  generation counter, so in-flight queries never block on a rebuild and
  never observe a half-built backend;
* every answer is tagged with a :class:`LiveAnswer` ``(version,
  staleness)`` pair: ``version`` names the :class:`OracleVersion` that
  computed it and ``staleness`` counts the mutations that version has
  not absorbed.  The decremental upper-bound argument (deletions only
  grow distances, so ``d_H <= alpha * d_G + beta`` survives them)
  decides the ``guaranteed`` flag: a stale answer keeps the guarantee
  exactly when every unabsorbed mutation is a deletion.

Incremental repair
------------------
A full rebuild is the general fallback, but an *insertion whose
endpoints share a cluster* of the emulator's partial partitions only
perturbs distances inside that cluster's radius.  For those, the engine
patches the current emulator in place of a rebuild: the new edge joins
``H`` at weight 1 (its exact new distance) and the cluster is re-explored
phase-locally — a bounded BFS from its center in the *current* graph,
lowering the center-to-member emulator weights that the insertion
shortened.  Lowered weights are exact current distances, so the lower
bound is untouched; each absorbed insertion can relax the additive term
of at most one path segment, so a version carrying ``k`` stacked repairs
serves the widened guarantee ``(alpha, (k + 1) * beta)`` (recorded on its
:class:`OracleVersion`).  Insertions that cross clusters — the phase-local
radius is exceeded — fall back to a rebuild, as does any mix of
insertions with deletions.

Version-tag invariant (tests rely on this — see CONTRIBUTING.md): an
answer tagged ``version = v`` was computed *entirely* by version ``v``'s
backend and satisfies ``d_G(u, v) <= answer <= alpha_v * d_G(u, v) +
beta_v`` on the graph at ``v``'s watermark
(:meth:`LiveEngine.graph_at`); a batch is answered by one version
end-to-end, never a mix.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.faults import fault_point
from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.obs import inc, set_gauge, span
from repro.serve.engine import QueryEngine
from repro.serve.oracles import DistanceRow, OracleBackend
from repro.serve.spec import ServeSpec

__all__ = [
    "GraphMutation",
    "OracleVersion",
    "LiveAnswer",
    "MutationReceipt",
    "LiveEngine",
]

#: Stacked incremental repairs a version may absorb before the widened
#: additive term ``(k + 1) * beta`` stops being worth skipping a rebuild.
MAX_STACKED_REPAIRS = 8


def _normalized_edges(edges: Iterable[Sequence[int]], kind: str) -> Tuple[Tuple[int, int], ...]:
    """Validate and canonicalize an edge batch: ``u < v``, ints, no self-loops."""
    normalized: List[Tuple[int, int]] = []
    seen: Set[Tuple[int, int]] = set()
    for item in edges:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise ValueError(f"{kind} entry {item!r} is not a (u, v) pair")
        u, v = item
        if (not isinstance(u, int) or isinstance(u, bool)
                or not isinstance(v, int) or isinstance(v, bool)):
            raise ValueError(f"{kind} pair {item!r} must hold integer vertex ids")
        if u < 0 or v < 0:
            raise ValueError(f"{kind} pair ({u}, {v}) has a negative vertex id")
        if u == v:
            raise ValueError(f"{kind} pair ({u}, {v}) is a self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        normalized.append(key)
    return tuple(normalized)


@dataclass(frozen=True)
class GraphMutation:
    """One batch of edge mutations — the shared edge-batch type of the stack.

    Edges are canonicalized to ``u < v`` and deduplicated; self-loops and
    non-integer endpoints are rejected at construction, while the range
    check against a concrete graph happens at :meth:`LiveEngine.apply`
    time (a mutation does not know its graph's ``n``).  Within one batch
    insertions apply before deletions, each in listed order; operations
    that do not change the graph (inserting a present edge, deleting a
    missing one) are skipped and never count toward staleness.
    """

    inserts: Tuple[Tuple[int, int], ...] = ()
    deletes: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserts", _normalized_edges(self.inserts, "insert"))
        object.__setattr__(self, "deletes", _normalized_edges(self.deletes, "delete"))

    @property
    def num_operations(self) -> int:
        """Number of listed operations (insertions plus deletions)."""
        return len(self.inserts) + len(self.deletes)

    def __len__(self) -> int:
        return self.num_operations

    def __bool__(self) -> bool:
        return self.num_operations > 0

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The batch as plain JSON lists (the ``POST /mutate`` body shape)."""
        return {
            "inserts": [[u, v] for u, v in self.inserts],
            "deletes": [[u, v] for u, v in self.deletes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GraphMutation":
        """Rebuild a batch from :meth:`to_dict` output (unknown keys rejected)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"mutation must be an object, got {data!r}")
        unknown = set(data) - {"inserts", "deletes"}
        if unknown:
            raise ValueError(
                f"unknown mutation keys {sorted(unknown)}; valid keys: ['deletes', 'inserts']"
            )
        inserts = data.get("inserts", [])
        deletes = data.get("deletes", [])
        if not isinstance(inserts, (list, tuple)) or not isinstance(deletes, (list, tuple)):
            raise ValueError("mutation 'inserts' and 'deletes' must be lists of [u, v] pairs")
        return cls(inserts=tuple(tuple(e) for e in inserts),
                   deletes=tuple(tuple(e) for e in deletes))

    def to_json(self) -> str:
        """The batch as a JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "GraphMutation":
        """Parse a batch previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class OracleVersion:
    """One generation of a :class:`LiveEngine`'s backing oracle.

    Attributes
    ----------
    version:
        Monotone generation id (0 is the initial build).
    watermark:
        How many applied mutations this version has absorbed: the version
        was built for (or repaired up to) the graph after the first
        ``watermark`` effective operations of the mutation log.
    kind:
        ``"initial"``, ``"rebuild"``, or ``"repair"``.
    alpha, beta:
        The stretch guarantee this version's answers carry *on the graph
        at its watermark* — ``beta`` is already widened when the version
        stacks incremental repairs.
    space_in_edges:
        Edges the version's backend stores.
    build_seconds:
        Wall-clock cost of the build (or of the repair patch).
    repairs:
        Incremental repairs stacked into this version since its last full
        build (0 right after any rebuild).
    """

    version: int
    watermark: int
    kind: str
    alpha: float
    beta: float
    space_in_edges: int
    build_seconds: float
    repairs: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """The record as plain JSON scalars."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OracleVersion":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(**dict(data))


class LiveAnswer(NamedTuple):
    """A tagged answer: the value plus the version/staleness context.

    ``value`` is a distance for ``query``, a list for ``query_batch``, and
    a dict for ``single_source`` — one version answers the whole payload.
    ``guaranteed`` is ``True`` when the answer still carries its version's
    ``(alpha, beta)`` guarantee on the *current* graph: every unabsorbed
    mutation is a deletion (which only grows distances).
    """

    value: Any
    version: int
    staleness: int
    guaranteed: bool


@dataclass(frozen=True)
class MutationReceipt:
    """What :meth:`LiveEngine.apply` reports about one mutation batch."""

    #: Operations that changed the graph (and now count toward staleness).
    applied: int
    #: Listed operations that were no-ops (edge already present/absent).
    skipped: int
    #: Serving version id right after the batch.
    version: int
    #: That version's absorbed-mutation watermark.
    watermark: int
    #: Mutations the serving version has not absorbed (after this batch).
    staleness: int
    #: A rebuild completed inline (sync mode only).
    rebuilt: bool
    #: The batch was absorbed by an incremental phase-local repair.
    repaired: bool
    #: A background rebuild was scheduled (async mode).
    rebuild_scheduled: bool
    #: The rebuild was *forced* (a mutation invalidated the guarantee)
    #: rather than periodic.
    forced: bool

    def to_dict(self) -> Dict[str, Any]:
        """The receipt as plain JSON scalars."""
        return asdict(self)


class _RepairedEmulatorOracle(OracleBackend):
    """The emulator backend after one or more phase-local repairs.

    Dijkstra on the patched emulator ``H'``; the additive term is widened
    to ``(repairs + 1) * beta`` because each absorbed insertion can split
    one more path segment (see the module docstring).
    """

    name = "emulator"

    def __init__(self, graph: Graph, result: Any, emulator: Any, *,
                 alpha: float, beta: float, repairs: int) -> None:
        super().__init__(graph, result)
        self._emulator = emulator
        self._alpha = float(alpha)
        self._beta = float(beta)
        self.repairs = repairs

    @property
    def emulator(self):
        """The patched weighted emulator answering queries."""
        return self._emulator

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def beta(self) -> float:
        return self._beta

    @property
    def space_in_edges(self) -> int:
        return self._emulator.num_edges

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["repairs"] = self.repairs
        return stats

    def _distances_from(self, source: int) -> DistanceRow:
        return DistanceRow(kernels.dijkstra_row(self._emulator.csr(), source))


def _bounded_bfs(graph: Graph, source: int, bound: int) -> Dict[int, int]:
    """Hop distances from ``source`` up to ``bound`` (phase-local exploration)."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= bound:
            continue
        for w in graph.neighbors(u):
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return dist


#: Sentinel distinguishing "support set not computed yet" from "no
#: support information for this backend" (``None`` — every deletion
#: conservatively forces a rebuild).
_UNCOMPUTED = object()


class _Generation:
    """One installed oracle generation (engine + repair/support context)."""

    __slots__ = ("version", "engine", "graph", "raw", "emulator",
                 "spanner", "base_alpha", "base_beta", "build_seconds", "_support")

    def __init__(self, engine: QueryEngine, graph: Graph,
                 build_seconds: float) -> None:
        self.version: Optional[OracleVersion] = None
        self.engine = engine
        self.graph = graph            # snapshot the backend was built on
        self.build_seconds = build_seconds
        oracle = engine.oracle
        result = getattr(oracle, "result", None)
        self.raw = getattr(result, "raw", None)
        self.emulator = getattr(oracle, "emulator", None)
        self.spanner = getattr(oracle, "spanner", None)
        self.base_alpha = float(engine.alpha)
        self.base_beta = float(engine.beta)
        self._support: Any = _UNCOMPUTED

    def support(self) -> Optional[Set[Tuple[int, int]]]:
        """Graph edges whose deletion invalidates this generation's guarantee.

        Computed once per generation and cached rather than rescanning the
        emulator on every deletion; the swap to the next generation
        invalidates it for free.  ``None`` means the backend gives no
        cheap support signal and every deletion must force a rebuild.
        """
        if self._support is _UNCOMPUTED:
            if self.emulator is not None:
                # A weight-1 emulator edge is realized by the graph edge
                # underneath it; deleting that edge could make the weight
                # an underestimate (the lower-bound half of the guarantee).
                self._support = {
                    (u, v) if u < v else (v, u)
                    for u, v, w in self.emulator.edges()
                    if w <= 1.0 + 1e-9
                }
            elif self.spanner is not None:
                # A spanner is a subgraph: deleting one of its edges
                # removes it from the structure the oracle still queries.
                self._support = {
                    (u, v) if u < v else (v, u) for u, v in self.spanner.edges()
                }
            else:
                self._support = None
        return self._support


def _default_loader(graph: Graph, spec: ServeSpec) -> QueryEngine:
    from repro.serve.service import load as serve_load

    return serve_load(graph, spec)


class LiveEngine:
    """A :class:`DistanceOracle` over a mutating graph, with hot-swapped versions.

    Parameters
    ----------
    graph:
        The initial graph; the engine takes a private copy.
    spec:
        The :class:`ServeSpec` of the serving stack.  ``live`` is implied;
        the live-mode knobs are ``live_rebuild_after`` (absorb-lag
        threshold that triggers a periodic rebuild; ``None`` rebuilds only
        when forced), ``live_repair`` (enable the phase-local insertion
        fast path) and ``live_sync`` (rebuild inline inside
        :meth:`apply` instead of on the background thread — the
        deterministic mode; with ``live_repair=False`` and deletions only
        this is the classic decremental oracle).
    loader:
        The ``(graph, spec) -> QueryEngine`` factory each generation is
        built with; defaults to :func:`repro.serve.load`.  Tests inject a
        slowed loader to hold a rebuild open while queries run.
    rebuild_retry_base, rebuild_retry_cap, rebuild_retry_limit:
        Recovery policy for background rebuild failures: the engine keeps
        serving the last good generation, re-arms the rebuild, and waits
        ``min(cap, base * 2**(failures - 1))`` seconds before each retry.
        After ``rebuild_retry_limit`` consecutive failures it stays
        degraded (serving, ``stats()["live"]["degraded"]`` true) until a
        new mutation or :meth:`quiesce` schedules a fresh attempt.

    With zero mutations the engine is a transparent wrapper: every query
    takes exactly the :class:`~repro.serve.engine.QueryEngine` path of a
    non-live stack, so answers are byte-identical.  Each generation's
    engine is thread-safe and coalesces concurrent misses per source, so
    the live engine may be queried from any number of threads.
    """

    def __init__(self, graph: Graph, spec: Optional[ServeSpec] = None, *,
                 loader: Optional[Any] = None,
                 rebuild_retry_base: float = 0.05,
                 rebuild_retry_cap: float = 2.0,
                 rebuild_retry_limit: int = 4,
                 **params: Any) -> None:
        if spec is None:
            spec = ServeSpec(**dict(params, live=True))
        elif params:
            spec = spec.replace(**params)
        if not spec.live:
            spec = spec.replace(live=True)
        self._spec = spec
        self._base_spec = spec.replace(live=False)
        self._loader = loader if loader is not None else _default_loader
        self._graph = graph.copy()
        self._graph0 = graph.copy()
        self._ops: List[Tuple[str, int, int]] = []
        self._insert_prefix: List[int] = [0]
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._thread: Optional[threading.Thread] = None
        self._closing = False
        self._rebuild_pending = False
        self._rebuilding = False
        self._pending_forced = False
        self._rebuild_error: Optional[BaseException] = None
        self._rebuild_retry_base = float(rebuild_retry_base)
        self._rebuild_retry_cap = float(rebuild_retry_cap)
        self._rebuild_retry_limit = int(rebuild_retry_limit)
        self._consecutive_failures = 0
        self._retry_delay = 0.0
        self.rebuild_failures = 0
        self._version_counter = -1
        self._history: List[OracleVersion] = []
        self._retired: List[QueryEngine] = []
        # Monotone counters (mirroring the engine-stats convention).
        self.mutation_batches = 0
        self.inserts_applied = 0
        self.deletes_applied = 0
        self.rebuilds = 0
        self.forced_rebuilds = 0
        self.incremental_repairs = 0
        self.repair_fallbacks = 0
        self._gen: Optional[_Generation] = None
        initial = self._build_generation(self._graph.copy())
        with self._cond:
            self._install(initial, kind="initial", watermark=0, forced=False, repairs=0)

    # ------------------------------------------------------------------
    # Introspection (protocol surface + live state)
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ServeSpec:
        """The serving spec (with ``live=True``)."""
        return self._spec

    @property
    def oracle(self) -> Any:
        """The current generation's backend oracle."""
        return self._current().engine.oracle

    @property
    def engine(self) -> QueryEngine:
        """The current generation's :class:`QueryEngine`."""
        return self._current().engine

    @property
    def alpha(self) -> float:
        """Multiplicative term of the current version's guarantee."""
        return self._current().engine.alpha

    @property
    def beta(self) -> float:
        """Additive term of the current version's guarantee (repair-widened)."""
        return self._current().engine.beta

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the served graph."""
        return self._graph.num_vertices

    @property
    def space_in_edges(self) -> int:
        """Edges the current version's backend stores."""
        return self._current().engine.space_in_edges

    @property
    def graph(self) -> Graph:
        """The current (post-mutations) graph — a copy, safe to inspect."""
        with self._lock:
            return self._graph.copy()

    @property
    def version(self) -> OracleVersion:
        """The currently serving :class:`OracleVersion`."""
        version = self._current().version
        assert version is not None
        return version

    @property
    def degraded(self) -> bool:
        """Whether the background rebuild is failing (the engine still serves)."""
        with self._lock:
            return self._rebuild_error is not None

    @property
    def applied_mutations(self) -> int:
        """Total effective operations applied so far (the log length)."""
        with self._lock:
            return len(self._ops)

    @property
    def staleness(self) -> int:
        """Mutations the serving version has not absorbed."""
        _, staleness, _ = self._snapshot()
        return staleness

    @property
    def raw_result(self) -> Any:
        """The current generation's raw build result (``None`` for ``exact``)."""
        return self._current().raw

    def versions(self) -> List[OracleVersion]:
        """Every version installed so far, in installation order."""
        with self._lock:
            return list(self._history)

    def mutation_log(self) -> List[Tuple[str, int, int]]:
        """The effective operations applied so far, as ``(op, u, v)`` tuples."""
        with self._lock:
            return list(self._ops)

    def graph_at(self, watermark: int) -> Graph:
        """Reconstruct the graph after the first ``watermark`` operations.

        This is the graph a version with that watermark was built for —
        the reference the version-tag invariant checks answers against.
        """
        with self._lock:
            if not (0 <= watermark <= len(self._ops)):
                raise ValueError(
                    f"watermark {watermark} out of range [0, {len(self._ops)}]"
                )
            ops = self._ops[:watermark]
            graph = self._graph0.copy()
        for op, u, v in ops:
            if op == "insert":
                graph.add_edge(u, v)
            else:
                graph.remove_edge(u, v)
        return graph

    def stats(self) -> Dict[str, Any]:
        """Current generation's engine stats plus the ``live`` section."""
        gen, staleness, guaranteed = self._snapshot()
        stats = gen.engine.stats()
        with self._lock:
            version = gen.version
            assert version is not None
            stats["live"] = {
                "version": version.version,
                "kind": version.kind,
                "watermark": version.watermark,
                "applied_mutations": len(self._ops),
                "staleness": staleness,
                "guaranteed": guaranteed,
                "mutation_batches": self.mutation_batches,
                "inserts_applied": self.inserts_applied,
                "deletes_applied": self.deletes_applied,
                "rebuilds": self.rebuilds,
                "forced_rebuilds": self.forced_rebuilds,
                "incremental_repairs": self.incremental_repairs,
                "repair_fallbacks": self.repair_fallbacks,
                "rebuild_pending": self._rebuild_pending or self._rebuilding,
                "rebuild_after": self._spec.live_rebuild_after,
                "sync": self._spec.live_sync,
                "repair_enabled": self._spec.live_repair,
                "rebuild_failures": self.rebuild_failures,
                "consecutive_rebuild_failures": self._consecutive_failures,
                "degraded": self._rebuild_error is not None,
                "retry_delay_seconds": self._retry_delay,
                "rebuild_error": (None if self._rebuild_error is None
                                  else str(self._rebuild_error)),
                "versions": [v.to_dict() for v in self._history],
            }
        return stats

    # ------------------------------------------------------------------
    # Queries (protocol + tagged variants)
    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """Approximate distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        return self.query_tagged(u, v).value

    def query_batch(self, pairs: Iterable[Tuple[int, int]], *,
                    workers: Optional[int] = None) -> List[float]:
        """Approximate distances for many pairs — one version answers them all."""
        return self.query_batch_tagged(pairs, workers=workers).value

    def single_source(self, source: int) -> Dict[int, float]:
        """All approximate distances from ``source`` (a fresh map, caller-owned)."""
        return self.single_source_tagged(source).value

    def query_tagged(self, u: int, v: int) -> LiveAnswer:
        """:meth:`query` plus the ``(version, staleness, guaranteed)`` tag."""
        gen, staleness, guaranteed = self._snapshot()
        value = gen.engine.query(u, v)
        assert gen.version is not None
        return LiveAnswer(value, gen.version.version, staleness, guaranteed)

    def query_batch_tagged(self, pairs: Iterable[Tuple[int, int]], *,
                           workers: Optional[int] = None) -> LiveAnswer:
        """:meth:`query_batch` tagged; the whole batch is answered by one version."""
        gen, staleness, guaranteed = self._snapshot()
        values = gen.engine.query_batch(pairs, workers=workers)
        assert gen.version is not None
        return LiveAnswer(values, gen.version.version, staleness, guaranteed)

    def single_source_tagged(self, source: int) -> LiveAnswer:
        """:meth:`single_source` plus the version tag."""
        gen, staleness, guaranteed = self._snapshot()
        value = gen.engine.single_source(source)
        assert gen.version is not None
        return LiveAnswer(value, gen.version.version, staleness, guaranteed)

    def prewarm(self, sources: Iterable[int], *, limit: Optional[int] = None) -> int:
        """Preload the *current* generation's memo (see :meth:`QueryEngine.prewarm`)."""
        return self._current().engine.prewarm(sources, limit=limit)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def apply(self, mutation: GraphMutation) -> MutationReceipt:
        """Apply one mutation batch to the live graph.

        The graph changes immediately; the serving oracle is repaired or
        rebuilt per the spec's live knobs (inline in sync mode, on the
        background thread otherwise — queries keep flowing meanwhile).
        Raises ``ValueError`` for out-of-range endpoints and
        ``RuntimeError`` once the engine is closed.
        """
        if not isinstance(mutation, GraphMutation):
            mutation = GraphMutation.from_dict(mutation)
        with self._cond:
            if self._closing:
                raise RuntimeError("LiveEngine is closed")
            n = self._graph.num_vertices
            for u, v in mutation.inserts + mutation.deletes:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"vertex {max(u, v)} out of range [0, {n})")
            applied: List[Tuple[str, int, int]] = []
            for u, v in mutation.inserts:
                if self._graph.add_edge(u, v):
                    applied.append(("insert", u, v))
            for u, v in mutation.deletes:
                if self._graph.remove_edge(u, v):
                    applied.append(("delete", u, v))
            self.mutation_batches += 1
            for op, u, v in applied:
                self._ops.append((op, u, v))
                self._insert_prefix.append(
                    self._insert_prefix[-1] + (1 if op == "insert" else 0)
                )
                if op == "insert":
                    self.inserts_applied += 1
                else:
                    self.deletes_applied += 1
            rebuilt = repaired = scheduled = forced = False
            if applied:
                rebuilt, repaired, scheduled, forced = self._react(applied)
            gen, staleness, _ = self._snapshot_locked()
            assert gen.version is not None
            set_gauge("repro_live_staleness", float(staleness),
                      help="Mutations applied past the serving generation's watermark")
            return MutationReceipt(
                applied=len(applied),
                skipped=mutation.num_operations - len(applied),
                version=gen.version.version,
                watermark=gen.version.watermark,
                staleness=staleness,
                rebuilt=rebuilt,
                repaired=repaired,
                rebuild_scheduled=scheduled,
                forced=forced,
            )

    def mutate(self, inserts: Iterable[Tuple[int, int]] = (),
               deletes: Iterable[Tuple[int, int]] = ()) -> MutationReceipt:
        """Convenience wrapper: build the :class:`GraphMutation` and apply it."""
        return self.apply(GraphMutation(inserts=tuple(inserts), deletes=tuple(deletes)))

    def ingest(self, batches: Iterable[GraphMutation]) -> int:
        """Apply a stream of mutation batches; returns total effective ops.

        The natural sink for
        :meth:`repro.applications.streaming.EdgeStream.mutation_batches`,
        making an edge stream a mutation source for the live stack.
        """
        total = 0
        for batch in batches:
            total += self.apply(batch).applied
        return total

    def quiesce(self, timeout: Optional[float] = None) -> bool:
        """Block until every applied mutation is absorbed by a version.

        If nothing is scheduled to absorb the backlog (staleness below the
        periodic threshold), a non-forced rebuild is scheduled so the wait
        terminates.  Returns ``False`` on timeout.  A background rebuild
        failure with a retry still armed is waited through (the engine is
        degraded but recovering); once retries are exhausted the failure
        is re-raised here as ``RuntimeError``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if (self._rebuild_error is not None
                        and not self._rebuild_pending and not self._rebuilding):
                    error = self._rebuild_error
                    self._rebuild_error = None
                    self._consecutive_failures = 0
                    self._retry_delay = 0.0
                    set_gauge("repro_live_degraded", 0.0,
                              help="1 when the live engine's background rebuild is failing")
                    raise RuntimeError("background rebuild failed") from error
                gen = self._gen
                assert gen is not None and gen.version is not None
                if gen.version.watermark == len(self._ops):
                    return True
                if self._closing:
                    return False
                if not self._rebuild_pending and not self._rebuilding:
                    if self._spec.live_sync:
                        self._rebuild_now(forced=False)
                        continue
                    self._schedule_rebuild(forced=False)
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the rebuild thread and release every generation's engine."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=10.0)
        with self._lock:
            engines = list(self._retired)
            self._retired.clear()
            if self._gen is not None:
                engines.append(self._gen.engine)
        for engine in engines:
            engine.close()

    def __enter__(self) -> "LiveEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-exit ordering
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Internal: state snapshots
    # ------------------------------------------------------------------
    def _current(self) -> _Generation:
        with self._lock:
            gen = self._gen
            assert gen is not None
            return gen

    def _snapshot(self) -> Tuple[_Generation, int, bool]:
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Tuple[_Generation, int, bool]:
        """The serving generation plus its staleness/guarantee, atomically.

        Queries hold the returned generation for their whole payload, so a
        concurrent swap never mixes versions within one answer.
        """
        gen = self._gen
        assert gen is not None and gen.version is not None
        applied = len(self._ops)
        watermark = gen.version.watermark
        staleness = applied - watermark
        # The decremental upper-bound argument: the guarantee survives
        # exactly when no unabsorbed mutation is an insertion.
        guaranteed = self._insert_prefix[applied] == self._insert_prefix[watermark]
        return gen, staleness, guaranteed

    # ------------------------------------------------------------------
    # Internal: rebuild/repair machinery
    # ------------------------------------------------------------------
    def _build_generation(self, snapshot: Graph) -> _Generation:
        """Build a fresh generation for ``snapshot`` (runs outside the lock)."""
        started = time.perf_counter()
        with span("live.build", edges=snapshot.num_edges):
            engine = self._loader(snapshot, self._base_spec)
        return _Generation(engine, snapshot, time.perf_counter() - started)

    def _install(self, gen: _Generation, *, kind: str, watermark: int,
                 forced: bool, repairs: int) -> None:
        """Swap ``gen`` in as the serving generation (callers hold the lock).

        The swap is one reference assignment under the generation counter;
        in-flight queries on the previous generation finish on it
        untouched.  Retired engines are closed at :meth:`close` (closing
        them here could break a pool mid-batch).
        """
        self._version_counter += 1
        with span("live.swap", kind=kind, version=self._version_counter,
                  watermark=watermark):
            gen.version = OracleVersion(
                version=self._version_counter,
                watermark=watermark,
                kind=kind,
                alpha=float(gen.engine.alpha),
                beta=float(gen.engine.beta),
                space_in_edges=int(gen.engine.space_in_edges),
                build_seconds=gen.build_seconds,
                repairs=repairs,
            )
            if self._gen is not None:
                self._retired.append(self._gen.engine)
            self._gen = gen
            self._history.append(gen.version)
            if kind == "rebuild":
                self.rebuilds += 1
                if forced:
                    self.forced_rebuilds += 1
            if self._rebuild_error is not None or self._consecutive_failures:
                # A successful install ends any failure streak: the engine
                # is no longer degraded.
                self._rebuild_error = None
                self._consecutive_failures = 0
                self._retry_delay = 0.0
                set_gauge("repro_live_degraded", 0.0,
                          help="1 when the live engine's background rebuild is failing")
        set_gauge("repro_live_generation", float(self._version_counter),
                  help="Version number of the serving generation")
        set_gauge("repro_live_staleness", float(len(self._ops) - watermark),
                  help="Mutations applied past the serving generation's watermark")
        self._cond.notify_all()

    def _react(self, applied: List[Tuple[str, int, int]]) -> Tuple[bool, bool, bool, bool]:
        """Decide repair/rebuild for freshly applied ops (lock held).

        Returns ``(rebuilt, repaired, scheduled, forced)``.
        """
        gen = self._gen
        assert gen is not None and gen.version is not None
        inserts = [(u, v) for op, u, v in applied if op == "insert"]
        deletes = [(u, v) for op, u, v in applied if op == "delete"]
        forced = False
        if inserts:
            repairable = (
                self._spec.live_repair
                and not deletes
                and not self._rebuild_pending
                and not self._rebuilding
                and gen.emulator is not None
                and gen.raw is not None
                and gen.version.watermark == len(self._ops) - len(applied)
                and gen.version.repairs + len(inserts) <= MAX_STACKED_REPAIRS
            )
            if repairable:
                try:
                    repaired_gen = self._attempt_repair(gen, inserts)
                except Exception:
                    # A crashed repair (injected or organic) must not lose
                    # the mutation: fall back to the forced-rebuild path.
                    repaired_gen = None
                if repaired_gen is not None:
                    self._install(
                        repaired_gen,
                        kind="repair",
                        watermark=len(self._ops),
                        forced=False,
                        repairs=gen.version.repairs + len(inserts),
                    )
                    self.incremental_repairs += len(inserts)
                    return False, True, False, False
            if self._spec.live_repair and gen.emulator is not None:
                self.repair_fallbacks += 1
            # An unabsorbed insertion can shrink distances below what the
            # served structure assumes: the upper bound is gone until a
            # rebuild absorbs it.
            forced = True
        if deletes and not forced:
            support = gen.support()
            if support is None or any(key in support for key in deletes):
                forced = True
        threshold = self._spec.live_rebuild_after
        staleness = len(self._ops) - gen.version.watermark
        if not forced and (threshold is None or staleness < threshold):
            return False, False, False, False
        if self._spec.live_sync:
            self._rebuild_now(forced=forced)
            return True, False, False, forced
        self._schedule_rebuild(forced=forced)
        return False, False, True, forced

    def _rebuild_now(self, *, forced: bool) -> None:
        """Inline rebuild for sync mode (lock held; blocks the mutator only)."""
        snapshot = self._graph.copy()
        watermark = len(self._ops)
        try:
            fault_point("live.rebuild", watermark=watermark, sync=True)
            gen = self._build_generation(snapshot)
        except BaseException as error:
            # Sync mode has no background thread to retry on: count the
            # failure, mark the engine degraded, and let the mutator see
            # the exception directly.
            self._record_rebuild_failure(error, forced=forced, rearm=False)
            raise
        self._install(gen, kind="rebuild", watermark=watermark,
                      forced=forced, repairs=0)

    def _schedule_rebuild(self, *, forced: bool) -> None:
        """Mark a rebuild pending and wake the background thread (lock held)."""
        self._rebuild_pending = True
        self._pending_forced = self._pending_forced or forced
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._rebuild_loop,
                name="repro-live-rebuild",
                daemon=True,
            )
            self._thread.start()
        self._cond.notify_all()

    def _rebuild_loop(self) -> None:
        """The single background rebuild worker: snapshot, build, swap, repeat."""
        while True:
            with self._cond:
                while not self._rebuild_pending and not self._closing:
                    self._cond.wait()
                if self._closing:
                    return
                if self._retry_delay > 0:
                    # Capped exponential backoff before a retry; close()
                    # and fresh mutations both interrupt the wait early.
                    self._cond.wait(self._retry_delay)
                    if self._closing:
                        return
                    self._retry_delay = 0.0
                snapshot = self._graph.copy()
                watermark = len(self._ops)
                forced = self._pending_forced
                self._rebuild_pending = False
                self._pending_forced = False
                self._rebuilding = True
            try:
                fault_point("live.rebuild", watermark=watermark)
                gen = self._build_generation(snapshot)
            except BaseException as error:
                with self._cond:
                    self._rebuilding = False
                    self._record_rebuild_failure(error, forced=forced, rearm=True)
                continue
            with self._cond:
                self._rebuilding = False
                if self._closing:
                    gen.engine.close()
                    return
                self._install(gen, kind="rebuild", watermark=watermark,
                              forced=forced, repairs=0)
                # Mutations that arrived mid-build keep their own pending
                # flag; nothing to re-arm here.

    def _record_rebuild_failure(self, error: BaseException, *,
                                forced: bool, rearm: bool) -> None:
        """Count one rebuild failure and arm the retry (lock held).

        The engine keeps serving the last good generation throughout; the
        failure is visible immediately in ``stats()["live"]`` and on the
        ``repro_live_degraded`` gauge — nobody has to call
        :meth:`quiesce` to find out.  With ``rearm`` the pending flag is
        set again so the background thread retries after a capped
        exponential backoff; past ``rebuild_retry_limit`` consecutive
        failures the engine stays degraded until new work arrives.
        """
        self.rebuild_failures += 1
        self._consecutive_failures += 1
        self._rebuild_error = error
        inc("repro_live_rebuild_failures_total",
            help="Background rebuild attempts that raised")
        set_gauge("repro_live_degraded", 1.0,
                  help="1 when the live engine's background rebuild is failing")
        if rearm and self._consecutive_failures <= self._rebuild_retry_limit:
            self._retry_delay = min(
                self._rebuild_retry_cap,
                self._rebuild_retry_base * (2 ** (self._consecutive_failures - 1)),
            )
            self._rebuild_pending = True
            self._pending_forced = self._pending_forced or forced
        else:
            self._retry_delay = 0.0
        self._cond.notify_all()

    def _attempt_repair(self, gen: _Generation,
                        inserts: List[Tuple[int, int]]) -> Optional[_Generation]:
        """Phase-local repair for intra-cluster insertions (lock held).

        Every inserted edge must have both endpoints inside one cluster of
        some partial partition — otherwise the insertion's effect is not
        contained by a cluster radius and the caller falls back to a full
        rebuild.  The patch is cheap: ``O(|H|)`` to copy the emulator plus
        one radius-bounded BFS per repaired edge.
        """
        partitions = getattr(gen.raw, "partitions", None)
        if not partitions:
            return None
        plans = []
        for u, v in inserts:
            cluster = None
            for partition in partitions:
                candidate = partition.cluster_of_vertex(u)
                if candidate is not None and v in candidate:
                    cluster = candidate
                    break
            if cluster is None:
                return None
            plans.append((u, v, cluster))
        started = time.perf_counter()
        fault_point("live.repair", inserts=len(plans))
        with span("live.repair", inserts=len(plans)):
            patched = gen.emulator.copy()
            for u, v, cluster in plans:
                # The new graph edge is itself an exact-distance emulator edge.
                patched.add_edge(u, v, 1.0)
                # Phase-local re-exploration: distances inside the cluster may
                # have shrunk; refresh the center-to-member weights from the
                # current graph (``add_edge`` keeps the minimum weight, so
                # this only ever lowers them — to exact current distances).
                bound = max(1, int(math.ceil(cluster.radius)))
                reachable = _bounded_bfs(self._graph, cluster.center, bound)
                for member in cluster.members:
                    hops = reachable.get(member)
                    if member != cluster.center and hops:
                        patched.add_edge(cluster.center, member, float(hops))
        repairs = gen.version.repairs + len(plans) if gen.version else len(plans)
        oracle = _RepairedEmulatorOracle(
            self._graph.copy(),
            getattr(gen.engine.oracle, "result", None),
            patched,
            alpha=gen.base_alpha,
            # Each stacked repair lets one more inserted edge split a
            # shortest path, widening the additive term by one beta.
            beta=gen.base_beta * (repairs + 1),
            repairs=repairs,
        )
        engine = QueryEngine(oracle, cache_sources=self._spec.cache_sources,
                             workers=self._spec.workers)
        repaired = _Generation(engine, oracle.graph,
                               time.perf_counter() - started)
        repaired.raw = gen.raw          # partitions stay valid for later repairs
        repaired.base_alpha = gen.base_alpha
        repaired.base_beta = gen.base_beta
        return repaired
