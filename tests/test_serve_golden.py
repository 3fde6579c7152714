"""Golden serving digests: every stock backend answers byte-identically.

For each stock backend (and a live emulator engine after one repaired
insertion) on two seeded graphs, the SHA-256 of

* the answers to a fixed 500-query Zipf stream, and
* ``list(engine.single_source(s).items())`` for three sources

is pinned.  The small graph stays below the kernels" vectorization
threshold and the large one above it, so both search paths are covered.
The items digest pins iteration order as well as values.  A change to the
serving path must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.graphs import generators
from repro.serve import ServeSpec, load
from repro.serve.workloads import zipf_queries

#: name -> (n, m, seed) of a ``gnm_random_graph``; the small one is
#: disconnected, so unreachable answers are pinned too.
GRAPHS = {
    "small": (160, 240, 3),
    "large": (2048, 6144, 5),
}

BACKENDS = ("emulator", "spanner", "hopset", "exact", "live")

#: (graph, backend) -> (stream digest, single-source digest).
GOLDEN = {
    ("large", "emulator"): (
        "44c2bce5fb44a55b0f3c2fdeb2095b647a74233f07164323d86997e8180cb559",
        "b4a220f235bee99afee16c92e1d1881bf7de588dcd9b494b0a254ca68d1ae012",
    ),
    ("large", "spanner"): (
        "bd5f01c485a02578ecc6abdc9d929ae41238c3c96d4ba6f83d1d1a8242490f29",
        "d7c80d03d1cac72cb869c17636c011b9a475daab78eb3d00741e4bf6bf4a818b",
    ),
    ("large", "hopset"): (
        "668929baf45b9d6fe88b91961b8e4a1ce4f57a1bcd70a369c8f61b8a52923661",
        "1df865d51b8d3db28c80e55bd3296ecfe4ae3f46ef29834a0845faf8052dbd13",
    ),
    ("large", "exact"): (
        "668929baf45b9d6fe88b91961b8e4a1ce4f57a1bcd70a369c8f61b8a52923661",
        "f86f100134ab6e6669096a687b32edaf46073d1f587439b016de76ee0c03c2b3",
    ),
    ("large", "live"): (
        "2d8c21ab194342b543ce1c7920312f09e46172a30d32775cee50b645b44ad322",
        "1e6995e5c717dfeddc29e0559c919fd21dd66f8a03be1895eccab58ffeea44fc",
    ),
    ("small", "emulator"): (
        "c9e793584ec86aba55152715c1d98de1ab43b63a5b2187ec9b9167dacbc08873",
        "c0ecbc9c1a1258cc05ee09d470ff665c4323d0ba49f79ab0d1fcadb11d7a23f3",
    ),
    ("small", "spanner"): (
        "c2186c72f3c26bd576cffd4a3b9891baec2ec9d83ebc106f182ae1f5f2d44863",
        "ea5bbc4347ada05ad3f8e9fc426cdfbc7b519c2d5fee5e0d30d47b073540d4e6",
    ),
    ("small", "hopset"): (
        "5c81adfc963353c2a66d583648cac60bc204e455e537cba4c88dfdf002062f75",
        "505eadd1a1b310395edc68a6e5973b7c0544e0ac4292bcc1b67c93beab495cfd",
    ),
    ("small", "exact"): (
        "5c81adfc963353c2a66d583648cac60bc204e455e537cba4c88dfdf002062f75",
        "6afa76ac5d39f9eb4a78c6815cca582e6ff0c8ba4cf7c4d2ea02a1efb413b4c5",
    ),
    ("small", "live"): (
        "acf7ce772bb6ff96c8d1e48a069b37441fd28db685b90c001d37dcc6fd8a9877",
        "666de78fa003703f8e98c7faf3a1cb6e75d3ce63bf5ae2ddf910fa78a4e63364",
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _co_clustered_non_edge(engine):
    """The first non-edge inside one cluster (a repairable insertion)."""
    for partition in engine.raw_result.partitions:
        for cluster in partition.clusters():
            members = sorted(cluster.members)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    if not engine.graph.has_edge(u, v):
                        return u, v
    raise AssertionError("no cluster has two non-adjacent members")


def _engine(graph, backend):
    if backend != "live":
        return load(graph, ServeSpec(backend=backend))
    engine = load(graph, ServeSpec(live=True, live_sync=True))
    engine.apply({"inserts": [_co_clustered_non_edge(engine)]})
    assert engine.incremental_repairs == 1  # answers come from the repaired H
    return engine


def _digests(graph_name, backend):
    n, m, seed = GRAPHS[graph_name]
    graph = generators.gnm_random_graph(n, m, seed=seed)
    stream = zipf_queries(graph, 500, seed=11)
    engine = _engine(graph, backend)
    try:
        answers = [engine.query(u, v) for u, v in stream]
        assert engine.query_batch(stream) == answers
        maps = [list(engine.single_source(s).items()) for s in (0, n // 2, n - 1)]
    finally:
        engine.close()
    return _digest(answers), _digest(maps)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_serving_digests_are_pinned(graph_name, backend):
    assert _digests(graph_name, backend) == GOLDEN[graph_name, backend]
