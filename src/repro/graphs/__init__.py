"""Graph substrate: graphs, shortest paths, generators, and I/O.

This package provides the unweighted graph representation on which the
emulator and spanner constructions operate, the weighted graph used to
represent emulators, exact and sampled shortest-path machinery, and a
collection of graph-family generators used by the experiment workloads.
"""

from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph
from repro.graphs.csr import CSRGraph, WeightedCSRGraph
from repro.graphs.shortest_paths import (
    bfs_distances,
    bounded_bfs,
    bfs_tree,
    dijkstra,
    bounded_dijkstra,
    all_pairs_shortest_paths,
    multi_source_bfs,
    multi_source_attributed,
)
from repro.graphs import generators
from repro.graphs import io
from repro.graphs import kernels

__all__ = [
    "Graph",
    "WeightedGraph",
    "CSRGraph",
    "WeightedCSRGraph",
    "bfs_distances",
    "bounded_bfs",
    "bfs_tree",
    "dijkstra",
    "bounded_dijkstra",
    "all_pairs_shortest_paths",
    "multi_source_bfs",
    "multi_source_attributed",
    "generators",
    "io",
    "kernels",
]
