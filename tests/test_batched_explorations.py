"""Equivalence and transparency tests for the batched exploration layer.

The contract: :func:`repro.graphs.kernels.batched_bfs`,
:func:`repro.graphs.kernels.multi_source_attributed` and
:class:`repro.graphs.shortest_paths.PhaseExplorer` are **byte-identical**
stand-ins for the per-source calls they batch — same entries, same
canonical ``(distance, vertex)`` iteration order — on every importable
backend, every graph shape (random, disconnected, empty, edgeless),
every radius shape (0, fractional, ``inf``, unbounded), and every chunk
boundary (budgets forcing 1-source chunks).  The reference for the
kernels is the dict-based ``_dict_*`` implementation; whole builds are
pinned by the golden corpus (``tests/test_build_golden.py``), and the
``local`` query workload must emit the same stream on its lazy and its
batched path.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.graphs import kernels
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import (
    ExplorationCache,
    PhaseExplorer,
    _dict_bounded_bfs,
    _dict_multi_source_bfs,
    bounded_bfs,
    multi_source_attributed,
    shared_explorations,
)

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

RADII = (None, 0, 1, 2, 2.9, 5, float("inf"))


# ----------------------------------------------------------------------
# batched_bfs equivalence
# ----------------------------------------------------------------------
def test_batched_bfs_equivalence_randomized(backend):
    rng = random.Random(hash(backend) & 0xFFFF)
    for g in GRAPH_CASES:
        n = g.num_vertices
        if n == 0:
            assert list(kernels.batched_bfs(g.csr(), [], 2)) == []
            continue
        csr = g.csr()
        sources = list(range(n)) if n <= 8 else rng.sample(range(n), 10)
        for radius in RADII:
            got = list(kernels.batched_bfs(csr, sources, radius))
            # Content equality against the original dict/deque reference...
            assert got == [_dict_bounded_bfs(g, s, radius) for s in sources], (
                backend, n, radius,
            )
            # ...and iteration-order identity against the per-source kernel
            # (the kernels canonicalize to ascending (distance, vertex);
            # the dict reference emits per-level discovery order).
            per_source = [kernels.bounded_bfs(csr, s, radius) for s in sources]
            assert [list(d.items()) for d in got] == [
                list(d.items()) for d in per_source
            ], (backend, n, radius)


def test_batched_bfs_chunk_boundaries(backend):
    """A budget forcing 1-source chunks changes nothing but the batching."""
    g = random_graph(70, 4.0, 21)
    csr = g.csr()
    sources = list(range(0, 70, 3))
    for radius in (None, 2):
        reference = [kernels.bounded_bfs(csr, s, radius) for s in sources]
        for budget in (1, 70 * 8 + 1, 3 * 70 * 8, 10**9):
            got = list(kernels.batched_bfs(csr, sources, radius, memory_budget=budget))
            assert got == reference, (backend, radius, budget)


def test_batched_bfs_duplicate_and_unsorted_sources(backend):
    g = random_graph(50, 3.0, 22)
    csr = g.csr()
    sources = [17, 3, 17, 49, 0, 3]
    got = list(kernels.batched_bfs(csr, sources, 3))
    assert got == [kernels.bounded_bfs(csr, s, 3) for s in sources]


def test_batched_bfs_as_float(backend):
    g = random_graph(40, 3.0, 23)
    csr = g.csr()
    got = list(kernels.batched_bfs(csr, [0, 5, 11], 4, as_float=True))
    assert got == [kernels.bounded_bfs(csr, s, 4, as_float=True) for s in (0, 5, 11)]
    assert all(isinstance(v, float) for d in got for v in d.values())


def test_batched_bfs_validates_inputs(backend):
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        list(kernels.batched_bfs(g.csr(), [0, 9], 2))
    with pytest.raises(ValueError):
        list(kernels.batched_bfs(g.csr(), [0], -1))
    with pytest.raises(ValueError):
        list(kernels.batched_bfs(g.csr(), [0], 2, memory_budget=0))


def test_batch_chunk_size_policy():
    per_source = kernels._BATCH_BYTES_PER_VERTEX * 1000
    assert kernels.batch_chunk_size(1000, 100, memory_budget=per_source * 10) == 10
    assert kernels.batch_chunk_size(1000, 4, memory_budget=per_source * 10) == 4
    assert kernels.batch_chunk_size(1000, 100, memory_budget=1) == 1
    assert kernels.batch_chunk_size(0, 5, memory_budget=per_source) == 5
    with pytest.raises(ValueError):
        kernels.batch_chunk_size(10, 10, memory_budget=-5)


def test_batch_memory_budget_env(monkeypatch):
    g = random_graph(64, 3.0, 25)
    csr = g.csr()
    monkeypatch.setenv("REPRO_BATCH_MEMORY_BUDGET", "1")
    assert kernels.batch_chunk_size(64, 10) == 1
    reference = [kernels.bounded_bfs(csr, s, 2) for s in range(10)]
    assert list(kernels.batched_bfs(csr, range(10), 2)) == reference
    monkeypatch.setenv("REPRO_BATCH_MEMORY_BUDGET", "not-a-number")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert kernels.batch_chunk_size(64, 10) >= 1
    assert any("REPRO_BATCH_MEMORY_BUDGET" in str(w.message) for w in caught)


# ----------------------------------------------------------------------
# multi_source_attributed
# ----------------------------------------------------------------------
def test_multi_source_attributed_equivalence(backend):
    rng = random.Random(200 + len(backend))
    for g in GRAPH_CASES:
        n = g.num_vertices
        if n == 0:
            assert multi_source_attributed(g, []) == {}
            continue
        for trial in range(4):
            sources = rng.sample(range(n), min(n, 1 + trial))
            for radius in (None, 0, 1, 3.5, float("inf")):
                got = multi_source_attributed(g, sources, radius)
                dist, origin = _dict_multi_source_bfs(g, sources, radius)
                assert got == {v: (origin[v], d) for v, d in dist.items()}, (
                    backend, n, sources, radius,
                )


def test_multi_source_attributed_tie_break(backend):
    # Even cycle: vertex 0 and 4 are equidistant from sources 2 and 6.
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    attributed = multi_source_attributed(g, [6, 2])
    assert attributed[0] == (2, 2) and attributed[4] == (2, 2)
    assert attributed[2] == (2, 0) and attributed[6] == (6, 0)


def test_multi_source_attributed_empty_sources(backend):
    assert multi_source_attributed(Graph(4, [(0, 1)]), []) == {}


# ----------------------------------------------------------------------
# PhaseExplorer
# ----------------------------------------------------------------------
def test_phase_explorer_full_consumption(backend):
    g = random_graph(80, 4.0, 30)
    centers = sorted(random.Random(1).sample(range(80), 30))
    explorer = PhaseExplorer(g, centers, 3)
    for c in centers:
        got = explorer.explore(c)
        want = bounded_bfs(g, c, 3)
        assert got == want and list(got.items()) == list(want.items()), c
    assert explorer.prefetched == len(centers)


def test_phase_explorer_skipping_consumption(backend):
    g = random_graph(80, 4.0, 31)
    centers = sorted(random.Random(2).sample(range(80), 40))
    # Tiny budget: 1-source batches; skip most centers like Algorithm 1 does.
    explorer = PhaseExplorer(g, centers, 2, memory_budget=1)
    for i, c in enumerate(centers):
        if i % 5 == 0:
            assert explorer.explore(c) == bounded_bfs(g, c, 2)
    # With 1-source chunks nothing extra was computed for skipped centers.
    assert explorer.prefetched == len(centers[::5])


def test_phase_explorer_skip_heavy_never_speculates():
    """Sparse consumption: the explorer computes exactly what is asked."""
    g = random_graph(60, 3.0, 32)
    centers = list(range(60))
    explorer = PhaseExplorer(g, centers, 2)
    for c in (0, 20, 40, 59):  # survival far below 1/2
        explorer.explore(c)
    assert explorer.prefetched == explorer.consumed == 4


def test_phase_explorer_full_consumption_batches_geometrically():
    """Dense consumption of big balls: chunks grow, passes stay few."""
    g = random_graph(200, 4.0, 38)
    centers = list(range(200))
    explorer = PhaseExplorer(g, centers, None)  # unbounded: worth batching
    for c in centers:
        explorer.explore(c)
    assert explorer.prefetched == len(centers)  # nothing computed twice
    # observation window fetches singly, then chunks double: far fewer
    # passes than sources.
    assert explorer.batched_passes <= explorer.OBSERVATION_WINDOW + 10


def test_phase_explorer_full_consumption_has_zero_waste():
    """Consuming everything computes everything exactly once."""
    g = random_graph(400, 3.0, 39)
    explorer = PhaseExplorer(g, list(range(400)), 1)
    for c in range(400):
        assert explorer.explore(c) == bounded_bfs(g, c, 1)
    assert explorer.prefetched == explorer.consumed == 400


def test_phase_explorer_unbounded_radius(backend):
    g = disconnected_graph(33)
    centers = [0, 10, 30, 55]
    explorer = PhaseExplorer(g, centers, None)
    for c in centers:
        assert explorer.explore(c) == bounded_bfs(g, c, None)


def test_phase_explorer_radius_zero_and_float(backend):
    g = random_graph(30, 3.0, 34)
    ex0 = PhaseExplorer(g, range(30), 0)
    assert ex0.explore(7) == {7: 0}
    ex_float = PhaseExplorer(g, range(30), 2.9)
    assert ex_float.explore(3) == bounded_bfs(g, 3, 2)


def test_phase_explorer_reask_and_undeclared_source():
    g = random_graph(40, 3.0, 35)
    explorer = PhaseExplorer(g, [0, 5, 9], 3)
    first = explorer.explore(5)
    second = explorer.explore(5)  # ownership moved: recomputed, equal
    assert first == second and first is not second
    assert explorer.explore(20) == bounded_bfs(g, 20, 3)  # undeclared fallback
    bad = PhaseExplorer(g, [0, 99], 3)
    bad.explore(0)
    with pytest.raises(ValueError):  # invalid sources rejected at exploration
        bad.explore(99)


def test_phase_explorer_feeds_shared_cache():
    g = random_graph(50, 3.0, 36)
    centers = list(range(0, 50, 2))
    cache = ExplorationCache(g)
    with shared_explorations(cache):
        explorer = PhaseExplorer(g, centers, 3)
        results = {c: explorer.explore(c) for c in centers}
        assert cache.stats()["misses"] == len(centers)  # seeded by the batch
        # A second explorer is served entirely from the shared cache.
        again = PhaseExplorer(g, centers, 3)
        for c in centers:
            assert again.explore(c) == results[c]
        assert again.prefetched == 0
        assert cache.stats()["hits"] >= len(centers)


# ----------------------------------------------------------------------
# Build transparency under chunk boundaries
# ----------------------------------------------------------------------
def _facade_snapshot(graph):
    from repro.api import BuildSpec, build

    specs = [
        BuildSpec(product="emulator", method="centralized", eps=0.1, kappa=3.0),
        BuildSpec(product="emulator", method="fast", eps=0.01, kappa=3.0, rho=0.45),
        BuildSpec(product="spanner", method="centralized", eps=0.01, kappa=3.0, rho=0.45),
        BuildSpec(product="spanner", method="fast", eps=0.01, kappa=3.0, rho=0.45),
    ]
    snap = []
    for spec in specs:
        result = build(graph, spec)
        raw = result.raw
        edges = sorted(
            raw.spanner.edges() if spec.product == "spanner" else raw.emulator.edges()
        )
        snap.append((spec.product, spec.method, edges, result.size))
    return snap


def test_builds_identical_under_tiny_batch_budget(monkeypatch):
    """Chunk boundaries cut through every phase: output must not move."""
    graph = random_graph(90, 4.0, 41)
    reference = _facade_snapshot(graph)
    monkeypatch.setenv("REPRO_BATCH_MEMORY_BUDGET", "1")
    assert _facade_snapshot(graph) == reference


def test_ruling_set_explorations_hit_cache():
    from repro.congest.ruling_sets import (
        bitwise_ruling_set,
        greedy_ruling_set,
        verify_ruling_set,
    )

    g = random_graph(60, 3.0, 42)
    candidates = list(range(0, 60, 2))
    cache = ExplorationCache(g)
    first = greedy_ruling_set(g, candidates, 3.0, cache=cache)
    computed = cache.stats()["misses"]
    second = greedy_ruling_set(g, candidates, 3.0, cache=cache)
    assert second.members == first.members
    assert cache.stats()["misses"] == computed  # all repeats served from cache
    assert cache.stats()["hits"] >= len(first.members)
    assert verify_ruling_set(g, candidates, first.members, 3.0, 2.0)

    bits = bitwise_ruling_set(g, candidates, 3.0, cache=cache)
    assert verify_ruling_set(g, candidates, bits.members, 3.0, bits.domination)


def test_bitwise_ruling_set_merge_explores_once_per_candidate(monkeypatch):
    """The merge sweep must not rerun one candidate's BFS per merged member."""
    from repro.congest import ruling_sets

    g = random_graph(60, 3.0, 43)
    candidates = list(range(0, 60, 2))
    calls = []
    real = ruling_sets.bounded_bfs

    def counting(graph, source, radius):
        calls.append(source)
        return real(graph, source, radius)

    monkeypatch.setattr(ruling_sets, "bounded_bfs", counting)
    ruling_sets.bitwise_ruling_set(g, candidates, 4.0)
    assert len(calls) == len(set(calls))  # one exploration per candidate


def test_local_workload_identical_lazy_vs_batched():
    from repro.serve.workloads import generate_queries

    graph = random_graph(100, 4.0, 44)
    # 300 queries take the batched precompute path, 10 and 49 the lazy
    # per-source one; both draw from the same seeded stream.
    batched = generate_queries(graph, "local", 300, seed=9)
    for num in (10, 49):
        assert batched[:num] == generate_queries(graph, "local", num, seed=9), num


def test_local_workload_identical_across_backends_and_disconnected():
    from repro.serve.workloads import generate_queries

    graph = disconnected_graph(45)  # isolated vertices take the fallback pair
    expected = None
    for name in BACKENDS:
        kernels.set_backend(name)
        try:
            stream = generate_queries(graph, "local", 250, seed=5)
        finally:
            kernels.set_backend("auto")
        if expected is None:
            expected = stream
        else:
            assert stream == expected, name
