"""Equivalence and lifecycle tests for the flat-array CSR kernels.

The contract under test: every kernel backend produces *identical*
distances and origins to the original dict/deque implementations (kept in
:mod:`repro.graphs.shortest_paths` as the ``_dict_*`` reference
functions), on every graph shape the constructions meet — random,
disconnected, empty, single-vertex — and multi-source tie-breaking is
deterministic toward the smallest source ID on every backend.
"""

from __future__ import annotations

import math
import pickle
import random
import sys
import threading

import pytest

from repro.graphs import kernels
from repro.graphs.csr import CSRGraph, WeightedCSRGraph
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import (
    ExplorationCache,
    _dict_bounded_bfs,
    _dict_multi_source_bfs,
    bfs_distances,
    bounded_bfs,
    multi_source_bfs,
    shared_explorations,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.hopsets.bounded_hop import hop_limited_distances, union_with_graph

BACKENDS = kernels.available_backends()


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Run the test once per importable kernel backend."""
    kernels.set_backend(request.param)
    yield request.param
    kernels.set_backend("auto")


def random_graph(n, avg_degree, seed):
    rng = random.Random(seed)
    g = Graph(n)
    target = min(n * (n - 1) // 2, int(n * avg_degree / 2))
    while g.num_edges < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def disconnected_graph(seed):
    """Two random components plus isolated vertices."""
    rng = random.Random(seed)
    g = Graph(60)
    for lo, hi in ((0, 25), (25, 50)):  # vertices 50..59 stay isolated
        for _ in range(60):
            u, v = rng.randrange(lo, hi), rng.randrange(lo, hi)
            if u != v:
                g.add_edge(u, v)
    return g


GRAPH_CASES = [
    Graph(0),
    Graph(1),
    Graph(2, [(0, 1)]),
    Graph(5),  # edgeless
    Graph(6, [(i, i + 1) for i in range(5)]),  # path
    Graph(8, [(i, (i + 1) % 8) for i in range(8)]),  # cycle
    disconnected_graph(7),
    random_graph(40, 3.0, 11),
    random_graph(90, 6.0, 12),
    random_graph(150, 2.0, 13),
]


# ----------------------------------------------------------------------
# BFS equivalence
# ----------------------------------------------------------------------
def test_bfs_equivalence_randomized(backend):
    rng = random.Random(hash(backend) & 0xFFFF)
    for g in GRAPH_CASES:
        n = g.num_vertices
        sources = range(n) if n <= 8 else rng.sample(range(n), 8)
        for s in sources:
            for radius in (None, 0, 1, 2, 2.9, 5, float("inf")):
                assert bounded_bfs(g, s, radius) == _dict_bounded_bfs(g, s, radius), (
                    backend, n, s, radius,
                )


def test_bfs_kernel_direct_matches_reference(backend):
    g = random_graph(70, 4.0, 21)
    csr = g.csr()
    for s in (0, 13, 69):
        assert kernels.bfs_distances(csr, s) == _dict_bounded_bfs(g, s, None)
        floats = kernels.bfs_distances(csr, s, as_float=True)
        assert floats == {v: float(d) for v, d in _dict_bounded_bfs(g, s, None).items()}
        assert all(isinstance(v, float) for v in floats.values())


def test_concurrent_calls_on_one_snapshot_match_serial(backend):
    g = random_graph(70, 4.0, 22)
    csr = g.csr()
    expected = {s: _dict_bounded_bfs(g, s, None) for s in range(0, 70, 5)}
    mismatches = []

    def worker(offset):
        for _ in range(20):
            for s in list(expected)[offset::2]:
                if kernels.bfs_distances(csr, s) != expected[s]:
                    mismatches.append(s)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k % 2,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_multi_source_equivalence_randomized(backend):
    rng = random.Random(100 + len(backend))
    for g in GRAPH_CASES:
        n = g.num_vertices
        if n == 0:
            assert multi_source_bfs(g, []) == ({}, {})
            continue
        for trial in range(4):
            sources = rng.sample(range(n), min(n, 1 + trial))
            for radius in (None, 1, 3.5):
                got = multi_source_bfs(g, sources, radius)
                want = _dict_multi_source_bfs(g, sources, radius)
                assert got == want, (backend, n, sources, radius)


def test_multi_source_tie_breaks_toward_smallest_source(backend):
    # Even cycle: the vertex opposite two sources is equidistant from both.
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    dist, origin = multi_source_bfs(g, [2, 6])
    assert dist[0] == 2 and dist[4] == 2
    assert origin[0] == 2 and origin[4] == 2  # ties -> smallest source ID
    # A star where every leaf ties between all sources placed on leaves.
    star = Graph(9, [(0, i) for i in range(1, 9)])
    dist, origin = multi_source_bfs(star, [3, 5, 7])
    assert origin[0] == 3
    assert all(origin[v] == 3 for v in (1, 2, 4, 6, 8))


def test_multi_source_deterministic_across_backends():
    g = random_graph(120, 5.0, 33)
    rng = random.Random(5)
    expected = None
    for name in BACKENDS:
        kernels.set_backend(name)
        try:
            rng_local = random.Random(5)
            runs = [
                multi_source_bfs(g, rng_local.sample(range(120), 7), r)
                for r in (None, 2, 6)
            ]
        finally:
            kernels.set_backend("auto")
        if expected is None:
            expected = runs
        else:
            assert runs == expected, name


def test_iteration_order_identical_across_backends():
    """Dict iteration order is canonical (distance, vertex) on every backend.

    Seeded consumers materialize BFS results into lists (e.g. the
    ``local`` workload generator samples a BFS ball by index), so the
    order itself — not just the mapping — must not depend on which
    backend answered.
    """
    g = random_graph(110, 5.0, 34)
    wg = random_weighted(110, 5.0, 35)
    expected = None
    for name in BACKENDS:
        kernels.set_backend(name)
        try:
            runs = (
                [list(bounded_bfs(g, s, r).items()) for s in (0, 7, 103)
                 for r in (None, 2, 4)],
                [list(wg.dijkstra(s).items()) for s in (0, 7)],
                [list(part.items())
                 for part in multi_source_bfs(g, [5, 40, 90])],
            )
        finally:
            kernels.set_backend("auto")
        if expected is None:
            expected = runs
        else:
            assert runs == expected, name
    # The canonical order really is (distance, vertex) ascending.
    items = expected[0][0]
    assert items == sorted(items, key=lambda kv: (kv[1], kv[0]))


def test_local_workload_reproducible_across_backends():
    from repro.serve.workloads import generate_queries

    g = random_graph(100, 4.0, 36)
    expected = None
    for name in BACKENDS:
        kernels.set_backend(name)
        try:
            queries = generate_queries(g, "local", 200, seed=9)
        finally:
            kernels.set_backend("auto")
        if expected is None:
            expected = queries
        else:
            assert queries == expected, name


# ----------------------------------------------------------------------
# Weighted kernels
# ----------------------------------------------------------------------
def random_weighted(n, avg_degree, seed):
    rng = random.Random(seed)
    g = WeightedGraph(n)
    target = min(n * (n - 1) // 2, int(n * avg_degree / 2))
    while g.num_edges < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v, rng.choice([1.0, 1.0, 2.0, 3.0, 7.5]))
    return g


def test_dijkstra_equivalence(backend):
    for n, seed in ((1, 0), (30, 1), (90, 2)):
        g = random_weighted(n, 4.0, seed)
        for s in range(0, n, max(1, n // 5)):
            assert g.dijkstra(s) == g._dict_dijkstra(s), (backend, n, s)
            assert g.dijkstra(s, max_distance=5.0) == g._dict_dijkstra(s, max_distance=5.0)


def test_dijkstra_disconnected(backend):
    g = WeightedGraph(5, [(0, 1, 2.0)])
    assert g.dijkstra(0) == {0: 0.0, 1: 2.0}
    assert g.dijkstra(4) == {4: 0.0}


def test_hop_limited_kernel_matches_scalar():
    graph = random_graph(80, 4.0, 44)
    overlay = random_weighted(80, 2.0, 45)
    union = union_with_graph(graph, overlay)
    kernels.set_backend("python")
    try:
        scalar = {t: hop_limited_distances(union, 3, t) for t in (0, 1, 2, 5, 12)}
    finally:
        kernels.set_backend("auto")
    if "numpy" not in BACKENDS:
        pytest.skip("numpy not importable; vectorized hop-limited kernel unavailable")
    kernels.set_backend("numpy")
    try:
        for t, want in scalar.items():
            got = hop_limited_distances(union, 3, t)
            assert got.keys() == want.keys(), t
            assert all(math.isclose(got[v], want[v], abs_tol=1e-9) for v in want), t
    finally:
        kernels.set_backend("auto")


# ----------------------------------------------------------------------
# Radius handling (satellite fix)
# ----------------------------------------------------------------------
def test_negative_radius_rejected():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        bounded_bfs(g, 0, -1)
    with pytest.raises(ValueError):
        bounded_bfs(g, 0, -0.5)
    with pytest.raises(ValueError):
        multi_source_bfs(g, [0], -2)
    with pytest.raises(ValueError):
        kernels.normalize_radius(float("-inf"))
    with pytest.raises(ValueError):
        kernels.normalize_radius(float("nan"))


def test_float_radius_clamped_once():
    assert kernels.normalize_radius(2.9) == 2
    assert kernels.normalize_radius(3.0) == 3
    assert kernels.normalize_radius(0.0) == 0
    assert kernels.normalize_radius(None) is None
    assert kernels.normalize_radius(float("inf")) is None
    g = Graph(6, [(i, i + 1) for i in range(5)])
    assert bounded_bfs(g, 0, 2.9) == bounded_bfs(g, 0, 2)
    assert bounded_bfs(g, 0, float("inf")) == bfs_distances(g, 0)
    assert bounded_bfs(g, 0, 0) == {0: 0}


# ----------------------------------------------------------------------
# CSR snapshot lifecycle
# ----------------------------------------------------------------------
def test_csr_cached_and_invalidated_on_mutation():
    g = random_graph(25, 3.0, 55)
    snap = g.csr()
    assert g.csr() is snap  # memoized
    assert snap.num_vertices == 25 and snap.num_edges == g.num_edges
    g.add_edge(0, 24) if not g.has_edge(0, 24) else g.remove_edge(0, 24)
    assert g.csr() is not snap  # mutation dropped the snapshot
    assert bfs_distances(g, 0) == _dict_bounded_bfs(g, 0, None)


def test_csr_shared_by_copy():
    g = random_graph(20, 3.0, 56)
    snap = g.csr()
    clone = g.copy()
    assert clone.csr() is snap
    clone.add_edge(0, 19) if not clone.has_edge(0, 19) else clone.remove_edge(0, 19)
    assert clone.csr() is not snap
    assert g.csr() is snap  # the original is unaffected


def test_csr_rows_sorted():
    g = random_graph(30, 4.0, 57)
    snap = g.csr()
    for u in range(30):
        row = snap.indices[snap.indptr[u]:snap.indptr[u + 1]].tolist()
        assert row == sorted(g.neighbors(u))


def test_weighted_csr_invalidated_on_weight_reduction():
    g = WeightedGraph(3, [(0, 1, 5.0)])
    snap = g.csr()
    g.add_edge(0, 1, 9.0)  # kept minimum: no mutation
    assert g.csr() is snap
    g.add_edge(0, 1, 2.0)  # weight reduced: snapshot stale
    assert g.csr() is not snap
    assert g.dijkstra(0)[1] == 2.0


def test_graph_pickle_roundtrip_rebuilds_caches():
    g = random_graph(15, 3.0, 58)
    g.content_hash()
    g.csr()
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g
    assert clone.content_hash() == g.content_hash()
    assert bfs_distances(clone, 0) == bfs_distances(g, 0)
    wg = random_weighted(15, 3.0, 59)
    wg.csr()
    wclone = pickle.loads(pickle.dumps(wg))
    assert wclone.dijkstra(0) == wg.dijkstra(0)


def test_csr_snapshot_pickles_without_views():
    g = random_graph(15, 3.0, 60)
    snap = g.csr()
    snap.adjacency()
    clone = pickle.loads(pickle.dumps(snap))
    assert isinstance(clone, CSRGraph)
    assert clone.indices == snap.indices and clone.indptr == snap.indptr
    wsnap = random_weighted(10, 2.0, 61).csr()
    wclone = pickle.loads(pickle.dumps(wsnap))
    assert isinstance(wclone, WeightedCSRGraph)
    assert wclone.weights == wsnap.weights


# ----------------------------------------------------------------------
# Memoized content hash (satellite)
# ----------------------------------------------------------------------
def test_content_hash_memoized_and_invalidated():
    g = random_graph(25, 3.0, 62)
    first = g.content_hash()
    assert g.content_hash() is first  # memoized, not recomputed
    u, v = 0, 24
    added = g.add_edge(u, v)
    if not added:
        g.remove_edge(u, v)
    changed = g.content_hash()
    assert changed != first
    # Restore the original edge set: the digest must match again.
    if added:
        g.remove_edge(u, v)
    else:
        g.add_edge(u, v)
    assert g.content_hash() == first
    # And always equals a fresh graph with the same content.
    fresh = Graph(25, list(g.edges()))
    assert fresh.content_hash() == g.content_hash()


def test_content_hash_ignores_memo_on_copy_mutation():
    g = random_graph(12, 2.0, 63)
    g.content_hash()
    clone = g.copy()
    assert clone.content_hash() == g.content_hash()
    clone.add_edge(0, 11) if not clone.has_edge(0, 11) else clone.remove_edge(0, 11)
    assert clone.content_hash() != g.content_hash()


# ----------------------------------------------------------------------
# Exploration cache
# ----------------------------------------------------------------------
def test_exploration_cache_hits_and_copies():
    g = random_graph(40, 3.0, 64)
    cache = ExplorationCache(g)
    with shared_explorations(cache):
        first = bounded_bfs(g, 3, 2)
        second = bounded_bfs(g, 3, 2.9)  # clamps to the same radius
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
        assert first == second and first is not second
        first[999] = 999  # mutating a returned copy must not poison the store
        assert bounded_bfs(g, 3, 2) == second
        dist_a, orig_a = multi_source_bfs(g, [1, 5], 3)
        dist_b, orig_b = multi_source_bfs(g, [5, 1], 3.5)
        assert (dist_a, orig_a) == (dist_b, orig_b)
    assert bounded_bfs(g, 3, 2) == second  # uninstalled: straight computation


def test_exploration_cache_only_serves_its_graph():
    g = random_graph(30, 3.0, 65)
    other = random_graph(30, 3.0, 66)
    cache = ExplorationCache(g)
    with shared_explorations(cache):
        bounded_bfs(g, 0, 2)
        bounded_bfs(other, 0, 2)
    assert cache.stats()["misses"] == 1  # the other graph never touched it


def test_exploration_cache_bounded():
    g = random_graph(30, 3.0, 67)
    cache = ExplorationCache(g, max_entries=3)
    with shared_explorations(cache):
        for s in range(6):
            bounded_bfs(g, s, 1)
    assert cache.stats()["entries"] == 3
    with pytest.raises(ValueError):
        ExplorationCache(g, max_entries=0)


def test_shared_explorations_accepts_none():
    g = Graph(2, [(0, 1)])
    with shared_explorations(None) as installed:
        assert installed is None
        assert bfs_distances(g, 0) == {0: 0, 1: 1}


# ----------------------------------------------------------------------
# Backend plumbing
# ----------------------------------------------------------------------
def test_backend_selection_errors():
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")
    assert kernels.get_backend() == "auto"
    assert "python" in kernels.available_backends()


def test_source_validation(backend):
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        bounded_bfs(g, 7, None)
    with pytest.raises(ValueError):
        multi_source_bfs(g, [0, 9])
    with pytest.raises(ValueError):
        kernels.bfs_distances(g.csr(), -1)
