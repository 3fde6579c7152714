"""Semi-streaming spanner construction over an edge stream.

Near-additive emulators and spanners were originally motivated in part by
the streaming model ([EZ04] in the paper's bibliography): the graph arrives
as a stream of edges and the algorithm may keep only ``O(n polylog n)``
words of memory.  This module provides the streaming substrate — an edge
stream with pass / memory accounting — plus two reference constructions:

* :func:`streaming_greedy_spanner` — the classic one-pass greedy
  ``(2k - 1)``-multiplicative spanner: keep an edge only if the spanner
  stored so far does not already connect its endpoints within ``2k - 1``
  hops.  Memory is the spanner itself, ``O(n^{1 + 1/k})`` edges.
* :class:`StreamingEmulatorBuilder` — a pass-per-phase simulation of the
  superclustering-and-interconnection scheme: each phase of Algorithm 1
  needs only the cluster centers and bounded explorations, and those
  explorations can be answered from one extra pass over the stream (the
  stream is materialized into an adjacency structure restricted to the
  radius of interest).  The point is to account for passes and peak memory,
  not to beat the centralized construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.api import BuildSpec, build as facade_build
from repro.core.emulator import EmulatorResult
from repro.core.parameters import CentralizedSchedule, ultra_sparse_kappa
from repro.graphs.graph import Graph

__all__ = [
    "EdgeStream",
    "StreamingStats",
    "streaming_greedy_spanner",
    "StreamingEmulatorBuilder",
]


class EdgeStream:
    """A replayable stream of edges with pass accounting.

    Parameters
    ----------
    num_vertices:
        Number of vertices of the streamed graph.
    edges:
        The edge sequence; it is materialized once so the stream can be
        replayed (each replay counts as one pass).
    """

    def __init__(self, num_vertices: int, edges: Iterable[Tuple[int, int]]) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._n = num_vertices
        self._edges: List[Tuple[int, int]] = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for n={num_vertices}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) in stream")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            self._edges.append(key)
        self.passes = 0

    @classmethod
    def from_graph(cls, graph: Graph) -> "EdgeStream":
        """Stream the edges of an existing graph (in sorted order)."""
        return cls(graph.num_vertices, sorted(graph.edges()))

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of distinct edges in the stream."""
        return len(self._edges)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Replay the stream; each full iteration counts as one pass."""
        self.passes += 1
        return iter(self._edges)

    def to_graph(self) -> Graph:
        """Materialize the stream into a graph (counts as one pass)."""
        return Graph(self._n, self)

    def mutation_batches(self, batch_size: int = 64) -> Iterator["GraphMutation"]:
        """Replay the stream as insertion batches for the live serving stack.

        Yields :class:`~repro.serve.live.GraphMutation` batches of up to
        ``batch_size`` edge insertions, in stream order — the adapter that
        makes an edge stream a *mutation source*: feed it to
        :meth:`repro.serve.live.LiveEngine.ingest` and the streamed graph
        grows inside a serving engine, with the stream's pass accounting
        intact (consuming the generator counts as one pass, like every
        other replay).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        from repro.serve.live import GraphMutation

        batch: List[Tuple[int, int]] = []
        for edge in self:
            batch.append(edge)
            if len(batch) >= batch_size:
                yield GraphMutation(inserts=tuple(batch))
                batch = []
        if batch:
            yield GraphMutation(inserts=tuple(batch))


@dataclass
class StreamingStats:
    """Pass and memory accounting for a streaming construction.

    Attributes
    ----------
    passes:
        Number of passes over the edge stream.
    peak_memory_edges:
        Largest number of edges held in memory at any point (the
        semi-streaming resource).
    output_edges:
        Number of edges in the final output.
    """

    passes: int
    peak_memory_edges: int
    output_edges: int


def streaming_greedy_spanner(
    stream: EdgeStream, k: int
) -> Tuple[Graph, StreamingStats]:
    """One-pass greedy ``(2k - 1)``-multiplicative spanner over a stream.

    Parameters
    ----------
    stream:
        The edge stream.
    k:
        Stretch parameter; the output is a ``(2k - 1)``-spanner of the
        streamed graph with ``O(n^{1 + 1/k})`` edges.

    Returns
    -------
    (Graph, StreamingStats)
        The spanner and the pass / memory accounting (always exactly one
        pass; peak memory equals the output size for this algorithm).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = 2 * k - 1
    spanner = Graph(stream.num_vertices)
    passes_before = stream.passes
    for u, v in stream:
        if _bounded_hops(spanner, u, v, bound) > bound:
            spanner.add_edge(u, v)
    stats = StreamingStats(
        passes=stream.passes - passes_before,
        peak_memory_edges=spanner.num_edges,
        output_edges=spanner.num_edges,
    )
    return spanner, stats


def _bounded_hops(graph: Graph, source: int, target: int, bound: int) -> float:
    """Hop distance between ``source`` and ``target`` capped at ``bound``."""
    if source == target:
        return 0
    from collections import deque

    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= bound:
            continue
        for w in graph.neighbors(u):
            if w == target:
                return du + 1
            if w not in dist:
                dist[w] = du + 1
                queue.append(w)
    return float("inf")


class StreamingEmulatorBuilder:
    """Multi-pass streaming wrapper around the emulator construction.

    The superclustering-and-interconnection scheme touches the graph only
    through bounded explorations from cluster centers.  A streaming
    implementation therefore works phase by phase: one pass per phase
    rebuilds the adjacency structure (the semi-streaming memory), and the
    phase logic runs on it.  Since Algorithm 1 has ``ell + 1 = O(log kappa)``
    phases, the whole construction uses ``O(log kappa)`` passes.

    This class *simulates* that accounting faithfully — it replays the
    stream once per phase and reports peak memory — while producing exactly
    the same emulator as the centralized builder (the phase logic is shared,
    so the outputs are bit-identical).

    Parameters
    ----------
    stream:
        The edge stream of the input graph.
    eps, kappa:
        Emulator parameters; ``kappa=None`` selects the ultra-sparse regime.
    """

    def __init__(
        self,
        stream: EdgeStream,
        eps: float = 0.1,
        kappa: Optional[float] = None,
    ) -> None:
        self._stream = stream
        n = max(2, stream.num_vertices)
        if kappa is None:
            kappa = ultra_sparse_kappa(n)
        self._schedule = CentralizedSchedule(
            n=max(1, stream.num_vertices), eps=eps, kappa=kappa
        )

    @property
    def schedule(self) -> CentralizedSchedule:
        """The parameter schedule the streamed construction uses."""
        return self._schedule

    def build(self) -> Tuple[EmulatorResult, StreamingStats]:
        """Run the pass-per-phase construction.

        Returns the emulator result (identical to the centralized one) and
        the streaming accounting: ``ell + 1`` passes — one per phase — plus
        the materialization pass, with peak memory equal to the streamed
        adjacency structure plus the growing emulator.
        """
        passes_before = self._stream.passes
        # One pass per phase: each phase's bounded explorations need the
        # adjacency structure, which a streaming implementation rebuilds from
        # the stream at the start of the phase.  The rebuilt structure is the
        # same graph every time, so we materialize once per phase and reuse
        # the last copy for the actual construction.
        graph: Optional[Graph] = None
        for _ in range(self._schedule.num_phases):
            graph = self._stream.to_graph()
        assert graph is not None
        result = facade_build(
            graph,
            BuildSpec(product="emulator", method="centralized", schedule=self._schedule),
        ).raw
        stats = StreamingStats(
            passes=self._stream.passes - passes_before,
            peak_memory_edges=graph.num_edges + result.num_edges,
            output_edges=result.num_edges,
        )
        return result, stats
