"""Downstream applications built on top of the emulator library.

Near-additive emulators are a building block for approximate shortest-path
pipelines (the applications surveyed in the paper's introduction: distance
oracles, almost-shortest-path computation in streaming / distributed /
dynamic settings).  This package contains reference implementations of the
two most direct applications:

* Preprocess-once / query-many approximate distance oracles live in the
  serving layer: ``repro.serve.load(graph, ServeSpec.ultra_sparse(n))``
  (space is the emulator size, ``n + o(n)`` words in the ultra-sparse
  regime).
* :func:`repro.applications.almost_shortest_paths.almost_shortest_path_lengths`
  — single-source almost-shortest path lengths computed on the emulator
  instead of the (denser) input graph.
* :class:`repro.applications.routing.LandmarkRoutingScheme` — landmark
  (cluster-center) based approximate routing / distance labelling.
* :mod:`repro.applications.streaming` — semi-streaming spanner and emulator
  construction with pass / memory accounting.
* :class:`repro.applications.dynamic.DecrementalEmulatorOracle` —
  deletion-only approximate distances, now a deprecated shim over the
  live serving engine (:class:`repro.serve.live.LiveEngine`).
"""

from repro.applications.almost_shortest_paths import (
    almost_shortest_path_lengths,
    all_sources_almost_shortest_paths,
)
from repro.applications.routing import LandmarkRoutingScheme, RoutingTables
from repro.applications.streaming import (
    EdgeStream,
    StreamingEmulatorBuilder,
    StreamingStats,
    streaming_greedy_spanner,
)
from repro.applications.dynamic import DecrementalEmulatorOracle, DecrementalStats
from repro.applications.path_reporting import PathReportingOracle

__all__ = [
    "PathReportingOracle",
    "almost_shortest_path_lengths",
    "all_sources_almost_shortest_paths",
    "LandmarkRoutingScheme",
    "RoutingTables",
    "EdgeStream",
    "StreamingEmulatorBuilder",
    "StreamingStats",
    "streaming_greedy_spanner",
    "DecrementalEmulatorOracle",
    "DecrementalStats",
]
