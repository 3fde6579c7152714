"""Equivalence and lifecycle tests for the flat-array CSR kernels.

The contract under test: every kernel path produces *identical*
distances and origins to the original dict/deque implementations (kept in
:mod:`repro.graphs.shortest_paths` as the ``_dict_*`` reference
functions), on every graph shape the constructions meet — random,
disconnected, empty, single-vertex — and multi-source tie-breaking is
deterministic toward the smallest source ID on every path.  Each kernel
picks its path from the radius and the snapshot's size, so the tests
reach both sides of a selection by monkeypatching its threshold.
"""

from __future__ import annotations

import math
import pickle
import random
import sys
import threading
import zlib

import numpy as np
import pytest
from scipy.sparse import csgraph

from repro.core import fast_centralized as fast_module
from repro.core import spanner as spanner_module
from repro.graphs import generators, kernels
from repro.graphs.csr import CSRGraph, WeightedCSRGraph
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import (
    _dict_bfs_forest,
    _dict_bounded_bfs,
    _dict_multi_source_bfs,
    bfs_distances,
    bounded_bfs,
    diameter,
    multi_source_attributed,
    multi_source_bfs,
)
from repro.graphs.weighted_graph import WeightedGraph
from repro.hopsets import bounded_hop
from repro.hopsets.bounded_hop import hop_limited_distances, union_with_graph


def _heap_rows(csr, source, *, unweighted):
    return kernels._scipy_row(csr, source, math.inf, unweighted=unweighted)


def _breadth_first_rows(csr, source, *, unweighted):
    if isinstance(csr, WeightedCSRGraph) and csr.subdivision_size() is None:
        return _heap_rows(csr, source, unweighted=unweighted)
    return kernels._bfs_order_row(csr.unit_matrix(), source, csr.num_vertices)[0]


#: The kernel paths a ``backend`` test runs on.  ``python`` keeps every
#: search on the scalar loops.  ``numpy`` and ``scipy`` drop the size
#: thresholds to 0, so every unbounded search vectorizes: ``numpy`` takes
#: each unbounded row in breadth-first order (distances rebuilt in numpy)
#: wherever the weights allow one, ``scipy`` from scipy's heap Dijkstra.
PATHS = {"python": None, "numpy": _breadth_first_rows, "scipy": _heap_rows}


def _select(monkeypatch, name):
    threshold = sys.maxsize if name == "python" else 0
    monkeypatch.setattr(kernels, "VECTOR_MIN_VERTICES", threshold)
    monkeypatch.setattr(kernels, "HOP_VECTOR_MIN_VERTICES", threshold)
    if PATHS[name] is not None:
        monkeypatch.setattr(kernels, "_unbounded_row", PATHS[name])


@pytest.fixture(params=list(PATHS))
def backend(request, monkeypatch):
    """Run the test once per kernel path (see :data:`PATHS`)."""
    _select(monkeypatch, request.param)
    return request.param


def _on_every_path(monkeypatch, run):
    """``run()``'s result on each kernel path, the scalar one first."""
    results = []
    for name in PATHS:
        with monkeypatch.context() as patched:
            _select(patched, name)
            results.append(run())
    return results


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
    rng = random.Random(zlib.crc32(backend.encode()))
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


def test_multi_source_deterministic_across_backends(monkeypatch):
    g = random_graph(120, 5.0, 33)

    def run():
        rng = random.Random(5)
        return [
            [list(part.items()) for part in multi_source_bfs(g, rng.sample(range(120), 7), r)]
            for r in (None, 2, 6)
        ]

    scalar, *vector = _on_every_path(monkeypatch, run)
    assert all(runs == scalar for runs in vector)


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
# BFS forests
# ----------------------------------------------------------------------
def _forest_dicts(arrays):
    """``bfs_forest``'s arrays as the reference's ``(parent, dist, root)`` dicts."""
    parent, dist, root = arrays
    spanned = np.flatnonzero(dist >= 0).tolist()
    return tuple({v: int(a[v]) for v in spanned} for a in (parent, dist, root))


FOREST_CASES = [
    generators.gnm_random_graph(400, 1600, seed=3),
    generators.gnm_random_graph(300, 450, seed=4),  # sparse: several components
    generators.path_graph(120),
    generators.grid_graph(12, 15),
    disconnected_graph(9),  # two components and ten isolated vertices
    Graph(0),
    Graph(5),  # edgeless
]


@pytest.mark.parametrize("g", FOREST_CASES, ids=lambda g: f"n{g.num_vertices}m{g.num_edges}")
def test_bfs_forest_matches_the_dict_reference(g):
    rng = random.Random(g.num_vertices + g.num_edges)
    n = g.num_vertices
    root_sets = [[]]
    if n:
        root_sets += [[rng.randrange(n)], [0, 1], [n - 2, n - 1]]  # single, adjacent
        root_sets += [rng.sample(range(n), min(n, k)) for k in (3, 12, 40)]
    for roots in root_sets:
        for depth in (0, 1, 2, 2.5, 3, 5.44, 7, 40.2, 10**6):
            want = _dict_bfs_forest(g, roots, depth)
            got = kernels.bfs_forest(g.csr(), roots, math.ceil(depth))
            assert _forest_dicts(got) == want, (n, roots, depth)
        assert _forest_dicts(kernels.bfs_forest(g.csr(), roots)) == \
            _dict_bfs_forest(g, roots, math.inf)


def test_bfs_forest_marks_unreached_and_beyond_hops():
    g = disconnected_graph(9)
    parent, dist, root = kernels.bfs_forest(g.csr(), [3, 27], 2)
    for v in range(50, 60):  # isolated vertices
        assert parent[v] == dist[v] == root[v] == -1
    assert parent[3] == 3 and root[3] == 3 and dist[3] == 0
    assert set(dist.tolist()) == {-1, 0, 1, 2}
    assert ((dist == -1) == (parent == -1)).all() and ((dist == -1) == (root == -1)).all()
    for v in np.flatnonzero(dist > 0).tolist():  # a parent is one hop closer, same tree
        assert dist[parent[v]] == dist[v] - 1 and root[parent[v]] == root[v]
        assert g.has_edge(v, int(parent[v]))


def test_bfs_forest_ties_go_to_the_smallest_root():
    g = Graph(8, [(i, (i + 1) % 8) for i in range(8)])  # 0 and 4 tie between 2 and 6
    parent, dist, root = kernels.bfs_forest(g.csr(), [6, 2])
    assert root.tolist() == [2, 2, 2, 2, 2, 6, 6, 6]
    assert dist.tolist() == [2, 1, 0, 1, 2, 1, 0, 1]
    assert parent[0] == 1 and parent[4] == 3


def test_bfs_forest_rejects_bad_arguments():
    csr = generators.path_graph(4).csr()
    with pytest.raises(ValueError):
        kernels.bfs_forest(csr, [4])
    with pytest.raises(ValueError):
        kernels.bfs_forest(csr, [-1])
    with pytest.raises(ValueError):
        kernels.bfs_forest(csr, [0], -1)


def test_forest_depth_rounding_is_pinned(monkeypatch):
    """The spanner's forest reaches ``ceil(depth)`` hops, the fast emulator's
    ``floor(depth)``: at a fractional depth they differ by one hop.

    Both behaviours predate the shared kernel and the golden corpus pins
    them; changing either one is an output change of its own.
    """
    path = generators.path_graph(10)
    spanner_reach = _dict_bfs_forest(path, [0], 2.5)[1]
    emulator_reach = multi_source_bfs(path, [0], 2.5)[0]
    assert max(spanner_reach.values()) == 3 and max(emulator_reach.values()) == 2
    g = generators.gnm_random_graph(300, 900, seed=1)
    calls = []

    def spy(name):
        def forest(csr, roots, hops):
            calls.append((name, hops))
            return kernels.bfs_forest(csr, roots, hops)
        return forest

    monkeypatch.setattr(spanner_module, "bfs_forest", spy("spanner"))
    monkeypatch.setattr(fast_module, "bfs_forest", spy("fast"))
    built = {"spanner": spanner_module.NearAdditiveSpannerBuilder(g).build(),
             "fast": fast_module.FastCentralizedBuilder(g).build()}
    fractional = 0
    for name, rounding in (("spanner", math.ceil), ("fast", math.floor)):
        result = built[name]
        depths = [result.schedule.ruling_radius(s.phase) + s.delta
                  for s in result.phase_stats if s.superclusters_formed]
        assert [hops for who, hops in calls if who == name] == [rounding(d) for d in depths]
        fractional += sum(d != int(d) for d in depths)
    assert fractional  # the phase-0 depth is 5.44: 6 hops against 5


def test_iteration_order_identical_across_backends(monkeypatch):
    """Dict iteration order is canonical (distance, vertex) on every path.

    Seeded consumers materialize BFS results into lists (e.g. the
    ``local`` workload generator samples a BFS ball by index), so the
    order itself — not just the mapping — must not depend on which
    path answered.
    """
    g = random_graph(110, 5.0, 34)
    wg = random_weighted(110, 5.0, 35)

    def run():
        return (
            [list(bounded_bfs(g, s, r).items()) for s in (0, 7, 103)
             for r in (None, 2, 4)],
            [list(wg.dijkstra(s).items()) for s in (0, 7)],
            [list(part.items())
             for part in multi_source_bfs(g, [5, 40, 90])],
        )

    scalar, *vector = _on_every_path(monkeypatch, run)
    assert all(runs == scalar for runs in vector)
    # The canonical order really is (distance, vertex) ascending.
    items = scalar[0][0]
    assert items == sorted(items, key=lambda kv: (kv[1], kv[0]))


def test_local_workload_reproducible():
    from repro.serve.workloads import generate_queries

    g = random_graph(100, 4.0, 36)
    fresh = Graph(100, list(g.edges()))  # its own snapshot and balls
    assert generate_queries(g, "local", 200, seed=9) == generate_queries(
        fresh, "local", 200, seed=9)


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


def _finite_items(row):
    """A dense row's finite entries in canonical ``(distance, vertex)`` order."""
    vertices, distances = kernels.finite_entries(row)
    return list(zip(vertices.tolist(), distances.tolist()))


def _canonical(distances):
    return sorted(((v, float(d)) for v, d in distances.items()),
                  key=lambda item: (item[1], item[0]))


def test_bfs_row_matches_reference():
    for g in GRAPH_CASES:
        csr = g.csr()
        for s in range(g.num_vertices):
            row = kernels.bfs_row(csr, s)
            assert row.dtype == np.float64 and row.shape == (g.num_vertices,)
            reference = _dict_bounded_bfs(g, s, None)
            assert _finite_items(row) == _canonical(reference)
            assert all(math.isinf(row[v]) for v in range(g.num_vertices)
                       if v not in reference)
            assert _finite_items(kernels.bfs_row(csr, s, 2)) == _canonical(
                _dict_bounded_bfs(g, s, 2))
    # Long, thin graphs keep the heap (their first row has narrow levels);
    # the gnm graph takes breadth-first order.  Both kernels must give
    # scipy's row bit for bit.
    shapes = (
        (generators.path_graph(300), False),
        (generators.grid_graph(12, 15), False),
        (generators.gnm_random_graph(400, 1600, seed=6), True),
    )
    for g, bfs_rows in shapes:
        csr = g.csr()
        for s in range(g.num_vertices):
            expected = csgraph.dijkstra(csr.scipy_matrix(), unweighted=True, indices=s)
            assert np.array_equal(kernels.bfs_row(csr, s), expected)
            assert np.array_equal(
                kernels._bfs_order_row(csr.unit_matrix(), s, g.num_vertices)[0], expected)
        assert csr._bfs_rows is bfs_rows


def integer_weighted(n, num_edges, seed, weights=range(1, 7), isolated=3):
    """Random integer ``weights``; the last ``isolated`` vertices stay isolated."""
    weights = [float(w) for w in weights]
    rng = random.Random(seed)
    g = WeightedGraph(n)
    for _ in range(num_edges):
        u, v = rng.randrange(n - isolated), rng.randrange(n - isolated)
        if u != v:
            g.add_edge(u, v, rng.choice(weights))
    return g


def _assert_rows_match_scipy(g, sources, *, subdivide=True):
    """``dijkstra_row`` (and, with ``subdivide``, breadth-first order over
    the unit subdivision whatever the snapshot picked) equal scipy's rows."""
    csr = g.csr()
    for s in sources:
        expected = csgraph.dijkstra(csr.scipy_matrix(), indices=s)
        assert np.array_equal(kernels.dijkstra_row(csr, s), expected), s
        if subdivide:
            assert np.array_equal(
                kernels._bfs_order_row(csr.unit_matrix(), s, g.num_vertices)[0], expected)
    return csr


def test_dijkstra_row_matches_reference():
    disconnected = WeightedGraph(7, [(0, 1, 2.0), (1, 2, 0.5), (4, 5, 3.0)])
    for g in (disconnected, random_weighted(30, 4.0, 1), random_weighted(90, 2.0, 2)):
        csr = g.csr()
        for s in range(g.num_vertices):
            row = kernels.dijkstra_row(csr, s)
            assert row.dtype == np.float64 and row.shape == (g.num_vertices,)
            reference = g._dict_dijkstra(s)
            assert _finite_items(row) == _canonical(reference)
            assert list(reference.items()) == _canonical(reference)
            assert sum(1 for d in row.tolist() if not math.isinf(d)) == len(reference)
            assert _finite_items(kernels.dijkstra_row(csr, s, 5.0)) == _canonical(
                g._dict_dijkstra(s, max_distance=5.0))
        assert csr._bfs_rows is False  # fractional weights have no subdivision
    # Integer weights: breadth-first order over the unit subdivision.
    for g in (WeightedGraph(1), WeightedGraph(6, [(0, 1, 3.0), (1, 2, 1.0), (3, 4, 6.0)]),
              integer_weighted(40, 30, 1), integer_weighted(120, 400, 2)):
        _assert_rows_match_scipy(g, range(g.num_vertices))
    # Past the dummy-vertex cap the snapshot keeps the heap and never
    # builds its subdivision.
    chain = WeightedGraph(30, [(i, i + 1, 5.0) for i in range(29)])
    csr = _assert_rows_match_scipy(chain, range(30), subdivide=False)
    assert csr._bfs_rows is False and csr._subdivision is None
    # Above VECTOR_MIN_VERTICES the dict kernel reads the same rows.
    g = integer_weighted(2100, 4000, 3, weights=(1, 1, 1, 2, 3))
    csr = _assert_rows_match_scipy(g, range(0, 2100, 150))
    assert csr._bfs_rows is True
    for s in (0, 1049, 2099):
        reference = g._dict_dijkstra(s)
        assert list(kernels.dijkstra(csr, s).items()) == _canonical(reference)


def test_infinite_max_distance_is_unbounded(monkeypatch):
    g = integer_weighted(2100, 8000, 4)
    csr = g.csr()
    expected = kernels.dijkstra(csr, 5)

    def scalar_heap(*args):
        raise AssertionError("an unbounded search fell to the scalar heap")

    monkeypatch.setattr(kernels, "_scalar_dijkstra", scalar_heap)
    assert kernels.dijkstra(csr, 5, math.inf) == expected
    assert g.dijkstra(5, max_distance=math.inf) == expected
    assert np.array_equal(kernels.dijkstra_row(csr, 5, math.inf), kernels.dijkstra_row(csr, 5))
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError):
            kernels.dijkstra(csr, 5, bad)
        with pytest.raises(ValueError):
            kernels.dijkstra_row(csr, 5, bad)
        with pytest.raises(ValueError):
            g.dijkstra(5, max_distance=bad)
    assert kernels.normalize_max_distance(None) is None
    assert kernels.normalize_max_distance(math.inf) is None
    assert kernels.normalize_max_distance(3) == 3.0


# ----------------------------------------------------------------------
# Balls
# ----------------------------------------------------------------------
BALL_GRAPHS = {
    "gnm": generators.gnm_random_graph(120, 300, seed=4),
    "grid": generators.grid_graph(9, 11),
    "disconnected": disconnected_graph(8),  # vertices 50..59 are isolated
}


def _plain(values):
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


@pytest.mark.parametrize("walk_max", [kernels.BALL_WALK_MAX_RADIUS, -1, 10**6],
                         ids=["default", "row-only", "walk-only"])
@pytest.mark.parametrize("name", sorted(BALL_GRAPHS))
def test_ball_matches_reference(monkeypatch, name, walk_max):
    """Entries, order and depth of the dict BFS, on both sides of the crossover."""
    monkeypatch.setattr(kernels, "BALL_WALK_MAX_RADIUS", walk_max)
    graph = BALL_GRAPHS[name]
    csr = graph.csr()
    radii = (0, 1, 2, 3, 7, diameter(graph) + 1)
    for s in range(graph.num_vertices):
        for r in radii:
            vertices, distances, depth = kernels.ball(csr, s, r)
            assert isinstance(vertices, list) == (r <= walk_max)
            reference = _dict_bounded_bfs(graph, s, r)
            items = list(zip(_plain(vertices), _plain(distances)))
            assert items == _canonical(reference)
            assert all(type(d) is float for _, d in items)
            assert depth == max(reference.values())


def test_ball_of_an_isolated_source_is_the_source():
    csr = BALL_GRAPHS["disconnected"].csr()
    for r in (0, 1, 2, 3, None):
        vertices, distances, depth = kernels.ball(csr, 55, r)
        assert (_plain(vertices), _plain(distances), depth) == ([55], [0.0], 0)


def test_ball_rejects_bad_arguments():
    csr = BALL_GRAPHS["grid"].csr()
    with pytest.raises(ValueError):
        kernels.ball(csr, 99, 1)
    with pytest.raises(ValueError):
        kernels.ball(csr, 0, -1)


def test_hop_limited_kernel_matches_scalar(monkeypatch):
    graph = random_graph(80, 4.0, 44)
    overlay = random_weighted(80, 2.0, 45)
    union = union_with_graph(graph, overlay)

    def run():
        return {t: hop_limited_distances(union, 3, t) for t in (0, 1, 2, 5, 12)}

    scalar, *vector = _on_every_path(monkeypatch, run)
    for runs in vector:
        for t, want in scalar.items():
            got = runs[t]
            # The vectorized rounds emit ascending vertex order, the scalar
            # loop discovery order; consumers only look distances up.
            assert list(got) == sorted(want), t
            assert all(math.isclose(got[v], want[v], abs_tol=1e-9) for v in want), t


def test_vector_side_never_reaches_the_scalar_loops(monkeypatch):
    g = random_graph(120, 5.0, 46)
    wg = random_weighted(120, 4.0, 47)

    def run():
        return (
            [list(bounded_bfs(g, s, r).items()) for s in (0, 64) for r in (None, math.inf)],
            [list(part.items()) for part in multi_source_bfs(g, [9, 3, 77, 9])],
            [list(wg.dijkstra(s, max_distance=d).items()) for s in (0, 64)
             for d in (None, math.inf)],
            hop_limited_distances(wg, 5, 4),
        )

    expected = run()

    def scalar_loop(*args):
        raise AssertionError("an unbounded search fell to a scalar loop")

    monkeypatch.setattr(kernels, "VECTOR_MIN_VERTICES", 0)
    monkeypatch.setattr(kernels, "HOP_VECTOR_MIN_VERTICES", 0)
    for name in ("_scalar_bfs", "_scalar_multi_source", "_scalar_dijkstra"):
        monkeypatch.setattr(kernels, name, scalar_loop)
    monkeypatch.setattr(bounded_hop, "_scalar_hop_limited", scalar_loop)
    *dicts, hops = run()
    assert dicts == list(expected[:3])
    assert hops.keys() == expected[3].keys()
    assert all(math.isclose(hops[v], d, abs_tol=1e-9) for v, d in expected[3].items())


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
# Argument checks
# ----------------------------------------------------------------------
def test_source_validation(backend):
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        bounded_bfs(g, 7, None)
    with pytest.raises(ValueError):
        multi_source_bfs(g, [0, 9])
    with pytest.raises(ValueError):
        kernels.bfs_distances(g.csr(), -1)
