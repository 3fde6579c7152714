"""Edge-list I/O for unweighted graphs and weighted emulators.

The formats are deliberately plain text so that constructed emulators and
spanners can be inspected, diffed and re-loaded by the examples and the
benchmark harness.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "write_weighted_edge_list",
    "read_weighted_edge_list",
]

PathLike = Union[str, Path]


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write an unweighted graph as ``n m`` header followed by ``u v`` lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_edge_list(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_edge_list`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError(f"malformed header in {path}: expected 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line in {path}: {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    graph = Graph(n, edges)
    if graph.num_edges != m:
        raise ValueError(
            f"edge count mismatch in {path}: header says {m}, read {graph.num_edges}"
        )
    return graph


def write_weighted_edge_list(graph: WeightedGraph, path: PathLike) -> None:
    """Write a weighted graph as ``n m`` header followed by ``u v w`` lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for u, v, w in graph.edges():
            if float(w).is_integer():
                handle.write(f"{u} {v} {int(w)}\n")
            else:
                handle.write(f"{u} {v} {w}\n")


def read_weighted_edge_list(path: PathLike) -> WeightedGraph:
    """Read a weighted graph written by :func:`write_weighted_edge_list`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header = handle.readline().split()
        if len(header) != 2:
            raise ValueError(f"malformed header in {path}: expected 'n m'")
        n, m = int(header[0]), int(header[1])
        graph = WeightedGraph(n)
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed weighted edge line in {path}: {line!r}")
            graph.add_edge(int(parts[0]), int(parts[1]), float(parts[2]))
    if graph.num_edges != m:
        raise ValueError(
            f"edge count mismatch in {path}: header says {m}, read {graph.num_edges}"
        )
    return graph
