#!/usr/bin/env python3
"""Example: the streaming and decremental settings the paper's intro motivates.

Two short scenarios on the same input graph:

1. **Streaming.**  The graph arrives as an edge stream.  We build (a) the
   classic one-pass greedy multiplicative spanner and (b) the pass-per-phase
   near-additive emulator, and report passes, peak memory, and output size.

2. **Decremental.**  Edges fail over time.  A deletion-only
   :class:`~repro.serve.live.LiveEngine` keeps answering approximate
   distance queries while rebuilding its emulator only occasionally.

Run it with::

    python examples/streaming_and_dynamic.py
"""

from __future__ import annotations

import random

from repro.applications import (
    EdgeStream,
    StreamingEmulatorBuilder,
    streaming_greedy_spanner,
)
from repro.graphs import generators
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import GraphMutation, LiveEngine, ServeSpec


def streaming_scenario(graph) -> None:
    """Build spanner and emulator from an edge stream and report the accounting."""
    print("== streaming ==")
    stream = EdgeStream.from_graph(graph)
    spanner, spanner_stats = streaming_greedy_spanner(stream, k=3)
    print(f"one-pass greedy 5-spanner: {spanner.num_edges} edges "
          f"({spanner_stats.passes} pass, peak memory {spanner_stats.peak_memory_edges} edges)")

    stream = EdgeStream.from_graph(graph)
    result, emulator_stats = StreamingEmulatorBuilder(stream, eps=0.1).build()
    print(f"pass-per-phase emulator:   {result.num_edges} edges "
          f"({emulator_stats.passes} passes, peak memory "
          f"{emulator_stats.peak_memory_edges} edges)")


def decremental_scenario(graph, num_failures: int = 30) -> None:
    """Delete random edges while querying distances."""
    print("\n== decremental ==")
    # Synchronous rebuilds and no insertion repair: the classic decremental
    # oracle.  Besides the deletions that force one, rebuild every 10.
    spec = ServeSpec.ultra_sparse(graph.num_vertices, eps=0.1, live=True,
                                  live_rebuild_after=10, live_repair=False, live_sync=True)
    rng = random.Random(7)
    edges = sorted(graph.edges())
    rng.shuffle(edges)

    u, v = 0, graph.num_vertices - 1
    with LiveEngine(graph, spec) as oracle:
        for step, edge in enumerate(edges[:num_failures], start=1):
            oracle.apply(GraphMutation(deletes=(edge,)))
            if step % 10 == 0:
                answer = oracle.query(u, v)
                exact = bfs_distances(oracle.graph, u).get(v, float("inf"))
                print(f"after {step:>3} failures: oracle d({u},{v}) = {answer:>5.1f} "
                      f"(exact {exact}), rebuilds so far: {oracle.stats()['live']['rebuilds']}")
        live = oracle.stats()["live"]
    deletions, rebuilds = live["deletes_applied"], live["rebuilds"]
    print(f"total: {deletions} deletions, {rebuilds} rebuilds "
          f"({rebuilds / max(1, deletions):.2f} rebuilds per deletion, "
          f"{live['forced_rebuilds']} forced)")


def main() -> None:
    """Run both scenarios on a sparse random graph."""
    graph = generators.connected_erdos_renyi(200, 0.03, seed=11)
    print(f"input graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n")
    streaming_scenario(graph)
    decremental_scenario(graph)


if __name__ == "__main__":
    main()
