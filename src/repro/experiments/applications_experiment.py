"""Experiment E13 — the downstream applications built on the emulator.

The paper motivates near-additive emulators through their applications:
distance oracles, almost-shortest paths, and the streaming / dynamic /
distributed settings.  This experiment exercises the reproduction's
application layer end to end on each workload and reports the numbers a
user of those applications would care about:

* the approximate **distance oracle**: space (emulator edges) and measured
  mean / worst multiplicative stretch on sampled queries;
* **landmark routing**: number of landmarks, table words per vertex and the
  measured routing stretch;
* the **streaming** construction: passes over the edge stream and peak
  memory;
* the **decremental oracle**: rebuilds per deletion after a batch of random
  deletions — served by a deletions-only :class:`~repro.serve.live.LiveEngine`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List

from repro.analysis.reporting import format_table
from repro.analysis.sampling import sample_vertex_pairs
from repro.applications.routing import LandmarkRoutingScheme
from repro.applications.streaming import EdgeStream, StreamingEmulatorBuilder
from repro.experiments.workloads import Workload, standard_workloads
from repro.graphs.shortest_paths import bfs_distances
from repro.serve import DistanceOracle, ServeSpec
from repro.serve import load as serve_load

__all__ = ["ApplicationsRow", "run_applications_experiment", "format_applications_table"]


@dataclass
class ApplicationsRow:
    """One row of the E13 table."""

    workload: str
    n: int
    oracle_edges: int
    oracle_mean_stretch: float
    oracle_max_stretch: float
    landmarks: int
    routing_words_per_vertex: float
    routing_mean_stretch: float
    streaming_passes: int
    streaming_peak_memory: int
    deletions: int
    rebuilds: int
    rebuild_ratio: float


def _oracle_stretch(
    workload: Workload, oracle: DistanceOracle, sample_pairs: int, seed: int = 0
) -> tuple:
    """Mean and max multiplicative stretch of oracle answers on sampled pairs."""
    pairs = sample_vertex_pairs(workload.graph, sample_pairs, seed=seed)
    by_source = {}
    for u, v in pairs:
        by_source.setdefault(u, []).append(v)
    ratios: List[float] = []
    for source, targets in sorted(by_source.items()):
        exact = bfs_distances(workload.graph, source)
        for target in targets:
            dg = exact.get(target)
            if not dg:
                continue
            answer = oracle.query(source, target)
            if answer == float("inf"):
                continue
            ratios.append(answer / dg)
    if not ratios:
        return 1.0, 1.0
    return sum(ratios) / len(ratios), max(ratios)


def run_applications_experiment(
    workloads: Iterable[Workload] = None,
    eps: float = 0.1,
    sample_pairs: int = 200,
    deletions: int = 20,
    seed: int = 0,
) -> List[ApplicationsRow]:
    """Run E13 and return one row per workload."""
    if workloads is None:
        workloads = standard_workloads(n=128)
    rows: List[ApplicationsRow] = []
    for workload in workloads:
        # The serving-layer emulator stack with the historical oracle
        # defaults (ultra-sparse kappa, bounded per-source memo).
        oracle = serve_load(
            workload.graph,
            ServeSpec.ultra_sparse(workload.graph.num_vertices, eps=eps),
        )
        mean_stretch, max_stretch = _oracle_stretch(workload, oracle, sample_pairs, seed=seed)

        # Reuse the oracle: the routing scheme's default path would build
        # the identical emulator stack a second time.
        routing = LandmarkRoutingScheme(workload.graph, eps=eps, oracle=oracle)
        routing_summary = routing.stretch_summary(sample_sources=6)

        stream = EdgeStream.from_graph(workload.graph)
        _, streaming_stats = StreamingEmulatorBuilder(stream, eps=eps).build()

        rng = random.Random(seed)
        edges = sorted(workload.graph.edges())
        rng.shuffle(edges)
        to_delete = edges[: min(deletions, max(0, len(edges) - workload.n))]
        live = serve_load(
            workload.graph,
            ServeSpec.ultra_sparse(
                workload.graph.num_vertices, eps=eps,
                live=True, live_rebuild_after=16, live_repair=False,
                live_sync=True,
            ),
        )
        deleted = sum(live.mutate(deletes=(edge,)).applied for edge in to_delete)
        live_stats = live.stats()["live"]
        live.close()

        rows.append(
            ApplicationsRow(
                workload=workload.name,
                n=workload.n,
                oracle_edges=oracle.space_in_edges,
                oracle_mean_stretch=mean_stretch,
                oracle_max_stretch=max_stretch,
                landmarks=routing.num_landmarks,
                routing_words_per_vertex=routing.tables.words_per_vertex,
                routing_mean_stretch=routing_summary["mean_stretch"],
                streaming_passes=streaming_stats.passes,
                streaming_peak_memory=streaming_stats.peak_memory_edges,
                deletions=deleted,
                rebuilds=live_stats["rebuilds"],
                rebuild_ratio=live_stats["rebuilds"] / deleted if deleted else 0.0,
            )
        )
    return rows


def format_applications_table(rows: List[ApplicationsRow]) -> str:
    """Render the E13 table."""
    return format_table(
        ["workload", "n", "oracle edges", "oracle stretch (mean)", "oracle stretch (max)",
         "landmarks", "routing words/vertex", "routing stretch (mean)",
         "stream passes", "stream peak mem", "deletions", "rebuilds", "rebuilds/deletion"],
        [
            [r.workload, r.n, r.oracle_edges, r.oracle_mean_stretch, r.oracle_max_stretch,
             r.landmarks, r.routing_words_per_vertex, r.routing_mean_stretch,
             r.streaming_passes, r.streaming_peak_memory, r.deletions, r.rebuilds,
             r.rebuild_ratio]
            for r in rows
        ],
        title="E13: application layer — oracle / routing / streaming / decremental numbers",
    )
