"""Unit tests for the unweighted graph container."""

from __future__ import annotations

import gc
import hashlib
import pickle
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.graphs import generators

#: ``path_graph(4)`` plus the edge ``(0, 3)``, pickled (protocol 2) when a
#: Graph was a list of per-vertex neighbor sets.
LIST_OF_SETS_PICKLE = (
    b"\x80\x02crepro.graphs.graph\nGraph\nq\x00)\x81q\x01}q\x02(X\x02\x00\x00\x00_nq\x03K"
    b"\x04X\x04\x00\x00\x00_adjq\x04]q\x05(c__builtin__\nset\nq\x06]q\x07(K\x01K\x03e\x85q"
    b"\x08Rq\th\x06]q\n(K\x00K\x02e\x85q\x0bRq\x0ch\x06]q\r(K\x01K\x03e\x85q\x0eRq\x0fh"
    b"\x06]q\x10(K\x00K\x02e\x85q\x11Rq\x12eX\n\x00\x00\x00_num_edgesq\x13K\x04ub."
)


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_vertices_range(self):
        g = Graph(5)
        assert list(g.vertices()) == [0, 1, 2, 3, 4]

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_construct_with_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_edges == 3
        assert g.has_edge(0, 1)
        assert g.has_edge(3, 2)

    def test_from_edge_list(self):
        g = Graph.from_edge_list(3, [(0, 2)])
        assert g.num_edges == 1
        assert g.has_edge(2, 0)


class TestEdges:
    def test_add_edge_new(self):
        g = Graph(3)
        assert g.add_edge(0, 1) is True
        assert g.num_edges == 1

    def test_add_edge_duplicate(self):
        g = Graph(3)
        g.add_edge(0, 1)
        assert g.add_edge(1, 0) is False
        assert g.num_edges == 1

    def test_add_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_add_edge_out_of_range(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)
        with pytest.raises(ValueError):
            g.add_edge(-1, 0)

    def test_remove_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.remove_edge(0, 1) is True
        assert g.num_edges == 1
        assert not g.has_edge(0, 1)

    def test_remove_missing_edge(self):
        g = Graph(3)
        assert g.remove_edge(0, 1) is False

    def test_edges_are_ordered_pairs(self):
        g = Graph(4, [(3, 0), (2, 1)])
        edges = list(g.edges())
        assert all(u < v for u, v in edges)
        assert set(edges) == {(0, 3), (1, 2)}

    def test_has_edge_out_of_range_is_false(self):
        g = Graph(3, [(0, 1)])
        assert not g.has_edge(0, 5)
        assert not g.has_edge(-1, 0)


class TestNeighborsAndDegrees:
    def test_neighbors(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.neighbors(0) == {1, 2, 3}
        assert g.neighbors(1) == {0}

    def test_degree(self):
        g = Graph(4, [(0, 1), (0, 2)])
        assert g.degree(0) == 2
        assert g.degree(3) == 0

    def test_degree_histogram(self):
        g = generators.star_graph(5)
        hist = g.degree_histogram()
        assert hist == {4: 1, 1: 4}

    def test_degree_out_of_range(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.degree(5)


class TestConnectivity:
    def test_connected_path(self):
        assert generators.path_graph(6).is_connected()

    def test_disconnected(self):
        g = Graph(4, [(0, 1)])
        assert not g.is_connected()

    def test_empty_graph_is_connected(self):
        assert Graph(0).is_connected()

    def test_single_vertex_is_connected(self):
        assert Graph(1).is_connected()

    def test_connected_components(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        comps = g.connected_components()
        assert sorted(map(tuple, comps)) == [(0, 1, 2), (3, 4), (5,)]

    def test_components_cover_all_vertices(self):
        g = generators.connected_erdos_renyi(30, 0.1, seed=3)
        comps = g.connected_components()
        assert sorted(v for comp in comps for v in comp) == list(range(30))


class TestCopyAndViews:
    def test_copy_is_independent(self):
        g = Graph(3, [(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_copy_equal(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.copy() == g

    def test_subgraph_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.subgraph_edges([(0, 1)])
        assert sub.num_edges == 1
        assert sub.num_vertices == 4

    def test_equality_different_edges(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])

    def test_contains_and_len(self):
        g = Graph(5)
        assert 4 in g
        assert 5 not in g
        assert len(g) == 5

    def test_repr(self):
        assert "n=3" in repr(Graph(3, [(0, 1)]))


class TestNetworkxInterop:
    def test_roundtrip(self):
        g = generators.grid_graph(3, 3)
        nx_graph = g.to_networkx()
        back = Graph.from_networkx(nx_graph)
        assert back == g

    def test_from_networkx_relabels(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edge("b", "a")
        nx_graph.add_edge("b", "c")
        g = Graph.from_networkx(nx_graph)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_to_networkx_preserves_counts(self):
        g = generators.connected_erdos_renyi(25, 0.2, seed=1)
        nx_graph = g.to_networkx()
        assert nx_graph.number_of_nodes() == g.num_vertices
        assert nx_graph.number_of_edges() == g.num_edges


class TestBulkConstructor:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            Graph(3, [(0, 1), (2, 2)])

    @pytest.mark.parametrize("edge", [(0, 3), (3, 0), (-1, 0), (0, -2)])
    def test_out_of_range_rejected(self, edge):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 1), edge])

    def test_first_bad_edge_is_reported(self):
        with pytest.raises(ValueError, match="vertex 7 out of range"):
            Graph(3, [(0, 1), (0, 7), (1, 1)])

    @pytest.mark.parametrize("edge", [(0, 1.5), (0, 1.0), ("0", 1), (None, 1)])
    def test_non_integer_endpoints_rejected(self, edge):
        with pytest.raises(TypeError):
            Graph(3, [(0, 1), edge])

    @pytest.mark.parametrize("edge", [(0, 2**64), (-2**64, 1), (2**70, 2**70)])
    def test_endpoint_beyond_int64_rejected(self, edge):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 1), edge])

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0, 1), (2,)], [(0,), (1, 2, 0)]])
    def test_items_must_be_pairs(self, edges):
        with pytest.raises(ValueError):
            Graph(3, edges)

    def test_reversed_duplicates_counted_once(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
        assert g.num_edges == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]
        assert g.degree(1) == 2

    def test_generator_input(self):
        g = Graph(5, ((i, i + 1) for i in range(4)))
        assert g == generators.path_graph(5)
        assert g.num_edges == 4

    @pytest.mark.parametrize("edges", [[], (), iter([]), set()])
    def test_empty_input(self, edges):
        g = Graph(4, edges)
        assert g.num_edges == 0
        assert list(g.csr().indptr) == [0] * 5
        assert len(g.csr().indices) == 0

    def test_numpy_integer_endpoints(self):
        g = Graph(3, [(np.int64(0), np.int32(2))])
        assert g.has_edge(2, 0) and g.num_edges == 1

    def test_from_edge_list_is_the_bulk_path(self):
        edges = [(3, 1), (0, 2), (2, 0)]
        assert Graph.from_edge_list(4, edges) == Graph(4, edges)


class TestAddEdges:
    def test_counts_only_new_edges(self):
        g = Graph(4, [(0, 1)])
        assert g.add_edges([1, 0, 2, 3], [0, 2, 3, 2]) == 2
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]
        assert g.num_edges == 3

    def test_empty_columns(self):
        g = Graph(3, [(0, 1)])
        assert g.add_edges([], []) == 0
        assert g.num_edges == 1

    def test_bad_edge_leaves_graph_unchanged(self):
        g = Graph(3, [(0, 1)])
        digest = g.content_hash()
        with pytest.raises(ValueError, match="self-loops"):
            g.add_edges([1, 2], [2, 2])
        assert g.num_edges == 1 and g.content_hash() == digest

    def test_non_integer_column_rejected(self):
        with pytest.raises(TypeError):
            Graph(3).add_edges([0.0], [1.0])

    @pytest.mark.parametrize("u", [[2**70], np.array([2**63], dtype=np.uint64)])
    def test_endpoint_beyond_int64_rejected(self, u):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match=f"vertex {int(u[0])} out of range"):
            g.add_edges(u, [0])
        assert list(g.edges()) == [(0, 1)]

    def test_object_integer_columns_accepted(self):
        g = Graph(3)
        assert g.add_edges(np.array([0, 1], dtype=object), [1, 2]) == 2
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_columns_must_match(self):
        with pytest.raises(ValueError, match="differ in length"):
            Graph(3).add_edges([0, 1], [1])

    def test_merges_with_pending_edits(self):
        g = Graph(5, [(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        g.add_edge(3, 4)
        assert g.add_edges(np.array([0, 3]), np.array([1, 4])) == 1
        assert list(g.edges()) == [(0, 1), (1, 2), (3, 4)]


class TestContentHashPins:
    """Digests taken from the list-of-sets Graph: the byte stream is fixed."""

    @pytest.mark.parametrize("make, expected", [
        (lambda: generators.path_graph(6),
         "86bb9d2e1cb3c40863dfb1698c6aa8f11007c0699e7e86fafc0e201078a6b48a"),
        (lambda: generators.grid_graph(3, 4),
         "ef637cc3ef10d6c3ce0e5ae0ddc13aede8352f88e0a48c54e67c05ca42dbda52"),
        (lambda: generators.gnm_random_graph(50, 120, seed=0),
         "07ad3a9d80cc16461f9ee486fa3896cb3fcc96ba89c0c42d66bb614cc097478e"),
    ])
    def test_pinned(self, make, expected):
        graph = make()
        assert graph.content_hash() == expected
        # The same content reached through edits hashes the same.
        edited = Graph(graph.num_vertices)
        for u, v in reversed(list(graph.edges())):
            edited.add_edge(v, u)
        assert edited.content_hash() == expected


class TestLegacyPickles:
    EDGES = [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_list_of_sets_pickle_loads(self):
        g = pickle.loads(LIST_OF_SETS_PICKLE)
        assert g == Graph(4, self.EDGES)
        assert list(g.edges()) == self.EDGES
        assert g.num_edges == 4 and g.neighbors(0) == {1, 3}
        assert list(g.csr().indices) == [1, 3, 0, 2, 1, 3, 0, 2]

    def test_pre_1_4_tuple_state_loads(self):
        g = Graph.__new__(Graph)
        g.__setstate__((None, {"_n": 4, "_adj": [{1, 3}, {0, 2}, {1, 3}, {0, 2}],
                               "_num_edges": 4}))
        assert g == Graph(4, self.EDGES)
        assert g.content_hash() == Graph(4, self.EDGES).content_hash()

    def test_pickle_ships_the_two_arrays(self):
        g = Graph(4, self.EDGES)
        g.add_edge(1, 3)
        state = g.__getstate__()
        assert sorted(state) == ["_indices", "_indptr", "_n"]
        assert list(state["_indptr"]) == [0, 2, 5, 7, 10]
        assert pickle.loads(pickle.dumps(g)) == g


class TestAgainstSetModel:
    """Seeded random edits checked against a list-of-sets model."""

    @staticmethod
    def _check_reads(graph, model, rng):
        n = len(model)
        assert graph.num_edges == sum(map(len, model)) // 2
        for u in range(n):
            assert graph.neighbors(u) == model[u]
            assert graph.degree(u) == len(model[u])
            for v in rng.sample(range(n), min(n, 4)):
                assert graph.has_edge(u, v) == (v in model[u])

    @staticmethod
    def _check_folded(graph, model):
        n = len(model)
        expected = [(u, v) for u in range(n) for v in sorted(model[u]) if u < v]
        assert list(graph.edges()) == expected
        assert graph == Graph(n, expected)
        csr = graph.csr()
        assert list(csr.indices) == [v for u in range(n) for v in sorted(model[u])]
        degrees = [len(neighbors) for neighbors in model]
        assert list(csr.indptr) == [sum(degrees[:u]) for u in range(n + 1)]
        text = f"n={n}" + "".join(f";{u},{v}" for u, v in expected)
        assert graph.content_hash() == hashlib.sha256(text.encode("ascii")).hexdigest()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_operations(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 16)
        model = [set() for _ in range(n)]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))]
        pairs = [(u, v) for u, v in pairs if u != v]
        for u, v in pairs:
            model[u].add(v)
            model[v].add(u)
        graph = Graph(n, pairs)
        frozen = []  # (earlier graph, its model) pairs a copy split off from
        for _ in range(150):
            op = rng.random()
            u, v = rng.sample(range(n), 2)
            if op < 0.35:
                assert graph.add_edge(u, v) is (v not in model[u])
                model[u].add(v)
                model[v].add(u)
            elif op < 0.65:
                assert graph.remove_edge(u, v) is (v in model[u])
                model[u].discard(v)
                model[v].discard(u)
            elif op < 0.75:
                batch = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(5))]
                new = {(min(a, b), max(a, b)) for a, b in batch if b not in model[a]}
                assert graph.add_edges([a for a, _ in batch], [b for _, b in batch]) == len(new)
                for a, b in batch:
                    model[a].add(b)
                    model[b].add(a)
            elif op < 0.82:
                frozen.append((graph, [set(neighbors) for neighbors in model]))
                graph = graph.copy()
            elif op < 0.88:
                graph = pickle.loads(pickle.dumps(graph))
            else:
                self._check_folded(graph, model)
            self._check_reads(graph, model, rng)
        self._check_folded(graph, model)
        for earlier, earlier_model in frozen:
            self._check_reads(earlier, earlier_model, rng)
            self._check_folded(earlier, earlier_model)


def test_graph_retains_at_most_twice_its_csr_bytes():
    n, m = 20_000, 80_000
    edges = list(generators.gnm_random_graph(n, m, seed=0).edges())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = Graph(n, edges)
        csr = graph.csr()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    csr_bytes = (len(csr.indptr) * csr.indptr.itemsize
                 + len(csr.indices) * csr.indices.itemsize)
    assert graph.num_edges == m
    assert retained <= 2 * csr_bytes


def test_concurrent_readers_see_one_consistent_graph():
    """Readers share a graph with pending edits while some of them fold it.

    A fold replaces the arrays and the overlay in one assignment, so no
    reader may see the new arrays with the old overlay (or the reverse).
    """
    base = generators.gnm_random_graph(200, 600, seed=1)
    edited = base.copy()
    for u, v in list(base.edges())[::7]:
        edited.remove_edge(u, v)
    for u in range(0, 190, 3):
        edited.add_edge(u, u + 9)
    expected = Graph(200, list(edited.edges()))
    degrees = [expected.degree(u) for u in range(200)]
    errors = []

    def read(graph, fold):
        try:
            for u in range(200):
                if fold and u % 50 == 0:
                    graph.csr()
                if graph.degree(u) != degrees[u] or graph.neighbors(u) != expected.neighbors(u):
                    errors.append(u)
                if not graph.has_edge(u, next(iter(expected.neighbors(u)), u)) and degrees[u]:
                    errors.append(u)
        except Exception as error:  # a reader crash is a failure, not a hang
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            graph = edited.copy()
            threads = [threading.Thread(target=read, args=(graph, i % 2 == 0)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert graph == expected
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
