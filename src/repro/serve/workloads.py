"""Seeded query-stream generators for the serving layer.

A *query workload* is a finite stream of ``(u, v)`` pairs standing in for
the traffic a deployed distance oracle would see.  Four shapes are
provided, chosen to stress different parts of the engine:

``uniform``
    Independent uniform source/target pairs — the worst case for the
    per-source memo (no locality at all).
``zipf``
    Sources drawn from a Zipf-like rank distribution over a seed-shuffled
    vertex order, targets uniform — the classic skewed read traffic that
    the LRU memo is built for.
``local``
    Both endpoints close in the graph: a uniform source paired with a
    target from its BFS ball of radius ``radius`` — models geographically
    local queries (map/routing front ends).
``mixed``
    Read-mostly production shape: ``hot_fraction`` of the stream re-reads
    a small hot set of pairs (itself Zipf-source shaped), the rest is
    uniform background traffic.

Every generator is deterministic given ``(graph, num_queries, seed)``;
the load harness and the tests rely on replayable streams.

A query stream can also be *profiled*: :func:`profile` reduces it to a
per-source frequency :class:`WorkloadProfile` that round-trips through
JSON (``save`` / ``load``).  Profiles are how traffic knowledge travels
between processes — the serving daemon (:mod:`repro.serve.daemon`)
preloads its engines from a saved profile at startup, and an in-process
:class:`~repro.serve.engine.QueryEngine` pre-warms the same way via
``engine.prewarm(profile.top_sources(k))``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.graphs import kernels
from repro.graphs.graph import Graph

__all__ = [
    "QUERY_WORKLOADS",
    "WorkloadProfile",
    "available_workloads",
    "generate_queries",
    "profile",
]

Pair = Tuple[int, int]


def _random_pair(rng: random.Random, n: int) -> Pair:
    u = rng.randrange(n)
    v = rng.randrange(n)
    while v == u:
        v = rng.randrange(n)
    return u, v


def uniform_queries(graph: Graph, num_queries: int, seed: int = 0) -> List[Pair]:
    """Independent uniform pairs (``u != v``; repeats possible)."""
    n = graph.num_vertices
    _require_pairs(n)
    rng = random.Random(seed)
    return [_random_pair(rng, n) for _ in range(num_queries)]


def zipf_queries(
    graph: Graph, num_queries: int, seed: int = 0, *, exponent: float = 1.1
) -> List[Pair]:
    """Zipf-skewed sources (rank weights ``1 / rank^exponent``), uniform targets.

    The vertex-to-rank assignment is a seed-dependent shuffle, so which
    vertices are hot varies with the seed while the skew shape does not.
    """
    n = graph.num_vertices
    _require_pairs(n)
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    rng = random.Random(seed)
    by_rank = list(range(n))
    rng.shuffle(by_rank)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    sources = rng.choices(by_rank, weights=weights, k=num_queries)
    pairs: List[Pair] = []
    for u in sources:
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        pairs.append((u, v))
    return pairs


def local_queries(
    graph: Graph, num_queries: int, seed: int = 0, *, radius: int = 4
) -> List[Pair]:
    """Uniform sources paired with a target from their BFS ball of ``radius``.

    Isolated sources (empty ball) fall back to a uniform target, so the
    stream always has ``num_queries`` valid pairs even on disconnected
    graphs.

    Each distinct source's ball is read once, with
    :func:`~repro.graphs.kernels.ball`, when the stream first draws it;
    its canonical ``(distance, vertex)`` order puts the source first.
    Targets are sampled *from the full ball*, so the Voronoi-style
    :func:`~repro.graphs.kernels.multi_source_attributed` assignment
    (which hands each vertex to a single source) cannot serve here.
    """
    n = graph.num_vertices
    _require_pairs(n)
    if radius < 1:
        raise ValueError(f"radius must be at least 1, got {radius}")
    rng = random.Random(seed)
    csr = graph.csr()
    balls: Dict[int, List[int]] = {}
    pairs: List[Pair] = []
    for _ in range(num_queries):
        u = rng.randrange(n)
        ball = balls.get(u)
        if ball is None:
            others = kernels.ball(csr, u, radius)[0][1:]
            ball = others if isinstance(others, list) else others.tolist()
            balls[u] = ball
        if ball:
            pairs.append((u, ball[rng.randrange(len(ball))]))
        else:
            pairs.append(_random_pair(rng, n))
    return pairs


def mixed_queries(
    graph: Graph,
    num_queries: int,
    seed: int = 0,
    *,
    hot_fraction: float = 0.9,
    hot_set_size: int = 32,
) -> List[Pair]:
    """Read-mostly mix: a small hot set re-read often, uniform background reads."""
    n = graph.num_vertices
    _require_pairs(n)
    if not (0.0 <= hot_fraction <= 1.0):
        raise ValueError(f"hot_fraction must lie in [0, 1], got {hot_fraction}")
    if hot_set_size < 1:
        raise ValueError(f"hot_set_size must be at least 1, got {hot_set_size}")
    rng = random.Random(seed)
    hot_set = zipf_queries(graph, hot_set_size, seed=seed + 1)
    pairs: List[Pair] = []
    for _ in range(num_queries):
        if rng.random() < hot_fraction:
            pairs.append(hot_set[rng.randrange(len(hot_set))])
        else:
            pairs.append(_random_pair(rng, n))
    return pairs


#: Workload name -> generator ``fn(graph, num_queries, seed, **options)``.
QUERY_WORKLOADS: Dict[str, Callable[..., List[Pair]]] = {
    "uniform": uniform_queries,
    "zipf": zipf_queries,
    "local": local_queries,
    "mixed": mixed_queries,
}


def available_workloads() -> List[str]:
    """Sorted list of query-workload names."""
    return sorted(QUERY_WORKLOADS)


def generate_queries(
    graph: Graph, workload: str, num_queries: int, seed: int = 0, **options
) -> List[Pair]:
    """Generate a seeded query stream of shape ``workload``.

    Raises ``ValueError`` for unknown workload names or graphs with fewer
    than two vertices (no pair to query).
    """
    if workload not in QUERY_WORKLOADS:
        raise ValueError(
            f"unknown query workload {workload!r}; choose from {available_workloads()}"
        )
    if num_queries < 0:
        raise ValueError(f"num_queries must be non-negative, got {num_queries}")
    return QUERY_WORKLOADS[workload](graph, num_queries, seed, **options)


def _require_pairs(n: int) -> None:
    if n < 2:
        raise ValueError(f"query workloads need at least 2 vertices, got {n}")


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadProfile:
    """Per-source frequency summary of a query stream; JSON-round-trippable.

    ``counts`` maps each source vertex to how often it appeared on the
    query side of a stream; ``total_queries`` is the stream length the
    profile was taken from.  The hot-source order (:meth:`top_sources`) is
    deterministic: descending frequency, ties broken toward the smaller
    vertex id — so a profile saved by one process warms another process'
    engine identically every time.
    """

    counts: Mapping[int, int]
    total_queries: int

    def __post_init__(self) -> None:
        counts = {}
        for source, count in dict(self.counts).items():
            source, count = int(source), int(count)
            if count < 0:
                raise ValueError(f"negative count {count} for source {source}")
            if count:
                counts[source] = count
        object.__setattr__(self, "counts", counts)
        if self.total_queries < 0:
            raise ValueError(f"total_queries must be non-negative, got {self.total_queries}")

    def __len__(self) -> int:
        return len(self.counts)

    def top_sources(self, k: Optional[int] = None) -> List[int]:
        """The ``k`` hottest sources (all, if ``k`` is ``None``), hottest first."""
        if k is not None and k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        ranked = sorted(self.counts, key=lambda source: (-self.counts[source], source))
        return ranked if k is None else ranked[:k]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The profile as a plain dict of JSON scalars (string source keys)."""
        return {
            "total_queries": self.total_queries,
            "counts": {str(source): count for source, count in sorted(self.counts.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        counts = data.get("counts", {})
        if not isinstance(counts, Mapping):
            raise ValueError("profile 'counts' must be a mapping")
        return cls(
            counts={int(source): int(count) for source, count in counts.items()},
            total_queries=int(data.get("total_queries", 0)),
        )

    def to_json(self, indent: int = 2) -> str:
        """The profile as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadProfile":
        """Parse a profile previously produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the profile to ``path`` as JSON."""
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "WorkloadProfile":
        """Read a profile previously written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_json(handle.read())


def profile(queries: Iterable[Pair]) -> WorkloadProfile:
    """Profile a query stream into per-source frequencies.

    Only the source side is counted — the serving layer's memo, warm-up,
    and miss coalescing are all keyed on sources, so that is the
    dimension worth shipping between processes.
    """
    counts: Dict[int, int] = {}
    total = 0
    for u, _v in queries:
        total += 1
        counts[u] = counts.get(u, 0) + 1
    return WorkloadProfile(counts=counts, total_queries=total)
