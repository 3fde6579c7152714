"""Golden serving digests: every stock backend answers byte-identically.

For each stock backend (and a live emulator engine after one repaired
insertion) on four seeded graphs, the SHA-256 of

* the answers to a fixed 500-query Zipf stream, and
* ``list(engine.single_source(s).items())`` for three sources

is pinned.  The graphs cover both kernels behind the unbounded rows the
emulator, spanner, exact and live backends serve (see
``repro.graphs.kernels._unbounded_row``):

* ``large`` (gnm, 2048 vertices) and ``grid`` (40 x 50) take
  breadth-first order; the large emulator walks its unit subdivision
  (0.58 dummy vertices per vertex), the grid's emulator is the grid;
* ``ring`` (a 2000-vertex ring lattice) keeps scipy's heap on both
  tests: its emulator's subdivision would add 4.9 dummy vertices per
  vertex, and its unit rows' levels are 8 vertices wide;
* ``small`` (gnm, 160 vertices) keeps the heap after its first row's
  narrow levels; it is disconnected, so unreachable answers are pinned.

Hopset answers and the phase searches are bounded rows, which always run
on the heap; the grid's emulator has no repairable insertion, so it has
no live digest.  The items digest pins iteration order as well as
values.  A change to the serving path must leave every digest unchanged.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.graphs import generators
from repro.serve import ServeSpec, load
from repro.serve.workloads import zipf_queries

#: name -> seeded graph factory.
GRAPHS = {
    "small": lambda: generators.gnm_random_graph(160, 240, seed=3),
    "large": lambda: generators.gnm_random_graph(2048, 6144, seed=5),
    "grid": lambda: generators.grid_graph(40, 50),
    "ring": lambda: generators.watts_strogatz(2000, 8, 0.0, seed=0),
}

#: (graph, backend) -> (stream digest, single-source digest).
GOLDEN = {
    ("grid", "emulator"): (
        "c8b211a27fad93e3a291ad8122798d0b39a73651ffc22c83bfa0caaa0f068422",
        "29dbab6d5dd0a4386843dee0f99b8b593c91e1d32d6421246d513cb382b13890",
    ),
    ("grid", "spanner"): (
        "c8b211a27fad93e3a291ad8122798d0b39a73651ffc22c83bfa0caaa0f068422",
        "29dbab6d5dd0a4386843dee0f99b8b593c91e1d32d6421246d513cb382b13890",
    ),
    ("grid", "hopset"): (
        "c8b211a27fad93e3a291ad8122798d0b39a73651ffc22c83bfa0caaa0f068422",
        "4427a5956439d2e6ce5ef1f8d161de13487a1fbc649e19d42ef67f229381a3ab",
    ),
    ("grid", "exact"): (
        "c8b211a27fad93e3a291ad8122798d0b39a73651ffc22c83bfa0caaa0f068422",
        "29dbab6d5dd0a4386843dee0f99b8b593c91e1d32d6421246d513cb382b13890",
    ),
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
    ("ring", "emulator"): (
        "feff25d9089c805423f46c2656280fc13799292cbaa32512694dfc57bd8731ce",
        "bccd7f807e7c6563f9b88eec9bb1eebd15b8cf86305e33248b935d10993fd5b7",
    ),
    ("ring", "spanner"): (
        "da0dcde36c82ea9ac8c679bc1dc9a4d0d43450c6081ebec671ac36000cb8d9e0",
        "8d79cad476fd13cb00a558b5e5b4c47d41d2301203a92788242b08ed52b66420",
    ),
    ("ring", "hopset"): (
        "888fd0ccf171df074ce33fcc9282a1ed79a999ef38680f3516985fe651a90f30",
        "c8b4d0b966c8c16931226ad2caf4b319ae8b0c8c60f437e8c41ef3bbfdbac36e",
    ),
    ("ring", "exact"): (
        "888fd0ccf171df074ce33fcc9282a1ed79a999ef38680f3516985fe651a90f30",
        "70a2607007d123105b1b548938a627b4a569dcd44bbeb57aa7000b7869ed1015",
    ),
    ("ring", "live"): (
        "feff25d9089c805423f46c2656280fc13799292cbaa32512694dfc57bd8731ce",
        "10aa244a42c3e79bd27f9adf9b193c4ff2fdd208165ba26f37bdb7246c879f62",
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
    graph = GRAPHS[graph_name]()
    n = graph.num_vertices
    stream = zipf_queries(graph, 500, seed=11)
    engine = _engine(graph, backend)
    try:
        answers = [engine.query(u, v) for u, v in stream]
        assert engine.query_batch(stream) == answers
        maps = [list(engine.single_source(s).items()) for s in (0, n // 2, n - 1)]
    finally:
        engine.close()
    return _digest(answers), _digest(maps)


@pytest.mark.parametrize(("graph_name", "backend"), sorted(GOLDEN))
def test_serving_digests_are_pinned(graph_name, backend):
    assert _digests(graph_name, backend) == GOLDEN[graph_name, backend]
