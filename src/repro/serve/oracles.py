"""Distance-oracle backends: the common protocol and the stock implementations.

The paper's headline application for near-additive emulators / spanners /
hopsets ([EP15], [ASZ20], [EN20]) is the *approximate distance oracle*:
preprocess the graph once into a sparse structure, then answer distance
queries on the sparse structure instead of the graph.  Every answer for a
pair ``(u, v)`` satisfies

    d_G(u, v) <= answer <= alpha * d_G(u, v) + beta

where ``(alpha, beta)`` is the backing product's stretch guarantee.

This module defines

* :class:`DistanceOracle` — the runtime-checkable protocol every backend
  (and the :class:`~repro.serve.engine.QueryEngine` wrapper) satisfies:
  ``query`` / ``query_batch`` / ``single_source`` / ``stats`` plus the
  ``alpha`` / ``beta`` stretch metadata; and
* the four stock backends, registered under their product names:

  ==========  ========================================================
  backend     how a single-source map is computed
  ==========  ========================================================
  emulator    Dijkstra on the weighted emulator ``H``
  spanner     BFS on the (unweighted, subgraph) spanner ``S``
  hopset      hop-limited Bellman–Ford on ``G ∪ H`` ([EN20])
  exact       BFS on ``G`` itself — the ``(1, 0)`` reference backend
  ==========  ========================================================

Backends answer from scratch on every call; memoization, batching and
multi-worker sharding live one layer up in
:class:`~repro.serve.engine.QueryEngine`.

A backend's ``single_source`` returns a read-only ``Mapping`` from
vertex to distance.  The emulator, spanner and exact backends return a
:class:`DistanceRow` over the kernel's dense float64 row (``8 * n``
bytes, no per-vertex Python objects); the hopset backend, remote oracles
and custom backends may return plain dicts.  Callers that need to mutate
the map wrap it in ``dict(...)``.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from operator import index
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.api.facade import build as facade_build
from repro.api.result import BuildResultAdapter
from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph
from repro.hopsets.bounded_hop import hop_limited_distances, union_with_graph
from repro.serve.registry import register_oracle
from repro.serve.spec import ServeSpec

__all__ = [
    "DistanceOracle",
    "DistanceRow",
    "OracleBackend",
    "EmulatorOracle",
    "SpannerOracle",
    "HopsetOracle",
    "ExactOracle",
]

_INF = float("inf")


@runtime_checkable
class DistanceOracle(Protocol):
    """What every serving-layer oracle exposes, regardless of backend."""

    @property
    def alpha(self) -> float: ...

    @property
    def beta(self) -> float: ...

    @property
    def num_vertices(self) -> int: ...

    @property
    def space_in_edges(self) -> int: ...

    def query(self, u: int, v: int) -> float: ...

    def query_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[float]: ...

    def single_source(self, source: int) -> Mapping[int, float]: ...

    def stats(self) -> Dict[str, Any]: ...


class DistanceRow(Mapping):
    """A read-only single-source map over a dense float64 distance row.

    ``row[v]`` is the distance to ``v``; ``inf`` marks an unreachable
    vertex, which the map does not contain.  Lookups return Python
    floats.  Iteration yields the reachable vertices in ascending
    ``(distance, vertex)`` order, the order the kernels' dicts use, so
    ``dict(row.items())`` equals the kernel's dict entry for entry.  The
    row is marked non-writeable; the map takes ownership of it.
    """

    __slots__ = ("_row",)

    def __init__(self, row) -> None:
        row = np.asarray(row, dtype=np.float64)
        if row.ndim != 1:
            raise ValueError(f"a distance row must be one-dimensional, got shape {row.shape}")
        row.flags.writeable = False
        self._row = row

    @property
    def array(self) -> np.ndarray:
        """The underlying non-writeable float64 row (``inf`` = unreachable)."""
        return self._row

    def get(self, v, default=None):
        """The distance to ``v`` as a float; ``default`` if ``v`` is unreachable or no vertex."""
        if type(v) is not int:
            try:
                v = index(v)
            except TypeError:
                return default
        if not 0 <= v < self._row.shape[0]:
            return default
        d = self._row[v]
        return default if d == _INF else float(d)

    def __getitem__(self, v) -> float:
        d = self.get(v)
        if d is None:
            raise KeyError(v)
        return d

    def __len__(self) -> int:
        return int(np.count_nonzero(np.isfinite(self._row)))

    def __iter__(self):
        return iter(kernels.finite_entries(self._row)[0].tolist())

    def items(self) -> "_RowItems":
        return _RowItems(self)

    def __reduce__(self):
        # Through the constructor, so the unpickled row is read-only too.
        return DistanceRow, (self._row,)

    def __repr__(self) -> str:
        return f"DistanceRow(n={self._row.shape[0]}, reachable={len(self)})"


class _RowItems(ItemsView):
    """``DistanceRow.items()`` built from arrays, not ``n`` lookups."""

    __slots__ = ()

    def __iter__(self):
        vertices, distances = kernels.finite_entries(self._mapping.array)
        return zip(vertices.tolist(), distances.tolist())


class OracleBackend:
    """Shared plumbing of the stock backends.

    Subclasses implement :meth:`_distances_from` (one fresh single-source
    computation) and :attr:`space_in_edges`; everything else — vertex
    validation, pair queries, batching, stats — is uniform.
    ``_distances_from`` returns any ``Mapping[int, float]`` holding
    exactly the reachable vertices: a :class:`DistanceRow` over a kernel
    row, or a plain dict.
    """

    #: Registry name; set by each subclass.
    name = "abstract"

    def __init__(self, graph: Graph, result: Optional[BuildResultAdapter]) -> None:
        self._graph = graph
        self._result = result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def result(self) -> Optional[BuildResultAdapter]:
        """The facade build backing this oracle (``None`` for ``exact``)."""
        return self._result

    @property
    def graph(self) -> Graph:
        """The input graph the guarantee is stated against."""
        return self._graph

    @property
    def num_vertices(self) -> int:
        """Number of vertices of the input graph."""
        return self._graph.num_vertices

    @property
    def alpha(self) -> float:
        """Multiplicative term of the answer guarantee."""
        return float(self._result.alpha) if self._result is not None else 1.0

    @property
    def beta(self) -> float:
        """Additive term of the answer guarantee."""
        return float(self._result.beta) if self._result is not None else 0.0

    @property
    def space_in_edges(self) -> int:
        """Number of edges the oracle stores to answer queries."""
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Uniform backend statistics (identity, space, guarantee, build time)."""
        stats: Dict[str, Any] = {
            "backend": self.name,
            "num_vertices": self.num_vertices,
            "space_in_edges": self.space_in_edges,
            "alpha": self.alpha,
            "beta": self.beta,
        }
        if self._result is not None:
            stats["product"] = self._result.product
            stats["method"] = self._result.method
            stats["build_seconds"] = self._result.elapsed
        return stats

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, u: int, v: int) -> float:
        """Approximate distance between ``u`` and ``v`` (``inf`` if disconnected)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0.0
        return self._distances_from(u).get(v, _INF)

    def query_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        """Approximate distances for many pairs, grouped by source.

        One fresh single-source computation per distinct source; the
        memoizing engine above is the right tool for repeated batches.
        """
        pairs = list(pairs)
        for u, v in pairs:
            self._check_vertex(u)
            self._check_vertex(v)
        by_source: Dict[int, Mapping[int, float]] = {}
        answers: List[float] = []
        for u, v in pairs:
            if u == v:
                answers.append(0.0)
                continue
            if u not in by_source:
                by_source[u] = self._distances_from(u)
            answers.append(by_source[u].get(v, _INF))
        return answers

    def single_source(self, source: int) -> Mapping[int, float]:
        """All approximate distances from ``source`` (a fresh, possibly read-only map)."""
        self._check_vertex(source)
        return self._distances_from(source)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _distances_from(self, source: int) -> Mapping[int, float]:
        raise NotImplementedError

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self._graph.num_vertices):
            raise ValueError(f"vertex {v} out of range [0, {self._graph.num_vertices})")


# ----------------------------------------------------------------------
# Stock backends
# ----------------------------------------------------------------------
class EmulatorOracle(OracleBackend):
    """Dijkstra on the weighted ``(1 + eps, beta)``-emulator ``H``."""

    name = "emulator"

    def __init__(self, graph: Graph, spec: ServeSpec) -> None:
        result = facade_build(graph, spec.build_spec().replace(product="emulator"))
        super().__init__(graph, result)
        self._emulator: WeightedGraph = result.subject

    @property
    def emulator(self) -> WeightedGraph:
        """The weighted emulator ``H`` answering queries."""
        return self._emulator

    @property
    def space_in_edges(self) -> int:
        return self._emulator.num_edges

    def _distances_from(self, source: int) -> DistanceRow:
        return DistanceRow(kernels.dijkstra_row(self._emulator.csr(), source))


class SpannerOracle(OracleBackend):
    """BFS on the near-additive *subgraph* spanner ``S``."""

    name = "spanner"

    def __init__(self, graph: Graph, spec: ServeSpec) -> None:
        result = facade_build(graph, spec.build_spec().replace(product="spanner"))
        super().__init__(graph, result)
        self._spanner: Graph = result.subject

    @property
    def spanner(self) -> Graph:
        """The subgraph spanner ``S`` answering queries."""
        return self._spanner

    @property
    def space_in_edges(self) -> int:
        return self._spanner.num_edges

    def _distances_from(self, source: int) -> DistanceRow:
        return DistanceRow(kernels.bfs_row(self._spanner.csr(), source))


class HopsetOracle(OracleBackend):
    """Hop-limited Bellman–Ford on ``G ∪ H`` with the hopset's hop budget.

    The hop budget defaults to the build's a-priori
    ``hopbound_estimate`` (deliberately generous — see
    :func:`repro.hopsets.hopset._hopbound_estimate`) and can be overridden
    with ``ServeSpec(options={"hopbound": t})``.  Because hopset edge
    weights are exact distances, answers never undershoot ``d_G``, and the
    ``(alpha, beta)`` guarantee holds once the budget covers the stretch
    analysis' segment decomposition.
    """

    name = "hopset"

    def __init__(self, graph: Graph, spec: ServeSpec) -> None:
        result = facade_build(graph, spec.build_spec().replace(product="hopset"))
        super().__init__(graph, result)
        hopbound = spec.options.get("hopbound", result.raw.hopbound_estimate)
        if not isinstance(hopbound, int) or hopbound < 1:
            raise ValueError(f"hopbound must be a positive int, got {hopbound!r}")
        self._hopbound = hopbound
        self._union: WeightedGraph = union_with_graph(graph, result.raw.hopset)

    @property
    def hopbound(self) -> int:
        """The hop budget every query runs with."""
        return self._hopbound

    @property
    def space_in_edges(self) -> int:
        # The oracle stores G ∪ H: the hopset alone answers nothing
        # without the graph underneath it.
        return self._union.num_edges

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["hopbound"] = self._hopbound
        return stats

    def _distances_from(self, source: int) -> Dict[int, float]:
        return hop_limited_distances(self._union, source, self._hopbound)


class ExactOracle(OracleBackend):
    """BFS on ``G`` itself — the ``(1, 0)`` reference every backend is judged against."""

    name = "exact"

    def __init__(self, graph: Graph, spec: ServeSpec) -> None:  # noqa: ARG002
        super().__init__(graph, None)

    @property
    def space_in_edges(self) -> int:
        return self._graph.num_edges

    def _distances_from(self, source: int) -> DistanceRow:
        return DistanceRow(kernels.bfs_row(self._graph.csr(), source))


@register_oracle("emulator", description="Dijkstra on the weighted (1+eps, beta)-emulator")
def _make_emulator_oracle(graph: Graph, spec: ServeSpec) -> EmulatorOracle:
    return EmulatorOracle(graph, spec)


@register_oracle("spanner", description="BFS on the near-additive subgraph spanner")
def _make_spanner_oracle(graph: Graph, spec: ServeSpec) -> SpannerOracle:
    return SpannerOracle(graph, spec)


@register_oracle("hopset", description="hop-limited Bellman-Ford on G ∪ H ([EN20])")
def _make_hopset_oracle(graph: Graph, spec: ServeSpec) -> HopsetOracle:
    return HopsetOracle(graph, spec)


@register_oracle("exact", description="exact BFS on G — the (1, 0) reference backend")
def _make_exact_oracle(graph: Graph, spec: ServeSpec) -> ExactOracle:
    return ExactOracle(graph, spec)
