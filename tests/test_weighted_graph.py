"""Unit tests for the weighted graph (emulator container)."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.graphs.graph import Graph
from repro.graphs.weighted_graph import WeightedGraph


class TestConstruction:
    def test_empty(self):
        g = WeightedGraph(0)
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_with_edges(self):
        g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.num_edges == 2
        assert g.weight(0, 1) == 2.0

    def test_negative_vertex_count(self):
        with pytest.raises(ValueError):
            WeightedGraph(-2)


class TestEdges:
    def test_add_edge(self):
        g = WeightedGraph(3)
        assert g.add_edge(0, 1, 5.0) is True
        assert g.weight(1, 0) == 5.0

    def test_duplicate_keeps_minimum(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 5.0)
        assert g.add_edge(0, 1, 3.0) is False
        assert g.weight(0, 1) == 3.0
        assert g.num_edges == 1

    def test_duplicate_larger_weight_ignored(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 1, 9.0)
        assert g.weight(0, 1) == 2.0

    def test_self_loop_rejected(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError):
            g.add_edge(2, 2, 1.0)

    def test_nonpositive_weight_rejected(self):
        g = WeightedGraph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, 0.0)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_weight_rejected(self, weight):
        g = WeightedGraph(3)
        with pytest.raises(ValueError, match="edge weight must be positive and finite"):
            g.add_edge(0, 1, weight)
        with pytest.raises(ValueError, match="edge weight must be positive and finite"):
            WeightedGraph(3, [(0, 1, weight)])
        assert g.num_edges == 0 and list(g.edges()) == []

    def test_remove_edge(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        assert g.remove_edge(0, 1) is True
        assert g.num_edges == 0
        assert g.remove_edge(0, 1) is False

    def test_remove_then_add_keeps_later_positions(self):
        g = WeightedGraph(5, [(0, 1, 1.0), (0, 2, 2.0), (0, 3, 3.0), (1, 4, 4.0)])
        g.has_edge(0, 1)  # build the pair index before the removal
        assert g.remove_edge(2, 0) is True
        assert g.add_edge(0, 2, 5.0) is True
        assert g.add_edge(3, 0, 0.5) is False
        assert [g.weight(0, v) for v in (1, 2, 3)] == [1.0, 5.0, 0.5]
        assert g.weight(4, 1) == 4.0
        assert list(g.edges()) == [(0, 1, 1.0), (0, 3, 0.5), (0, 2, 5.0), (1, 4, 4.0)]

    def test_weight_missing_edge(self):
        g = WeightedGraph(3)
        with pytest.raises(KeyError):
            g.weight(0, 1)

    def test_edges_iteration(self):
        g = WeightedGraph(4, [(2, 0, 1.5), (1, 3, 2.5)])
        edges = sorted(g.edges())
        assert edges == [(0, 2, 1.5), (1, 3, 2.5)]

    def test_total_weight(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.5)])
        assert g.total_weight() == pytest.approx(3.5)

    def test_degree(self):
        g = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
        assert g.degree(0) == 3
        assert g.degree(1) == 1


def _columns(rows):
    """``(u, v, weight)`` rows as the three columns of ``add_edges``."""
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]


class TestAddEdges:
    ROWS = [(0, 1, 5.0), (2, 1, 2.0), (1, 0, 3.0), (0, 1, 4.0), (3, 2, 1.0)]

    def test_matches_per_edge_insertion(self):
        bulk, single = WeightedGraph(4), WeightedGraph(4)
        assert bulk.add_edges(*_columns(self.ROWS)) == 3
        for u, v, w in self.ROWS:
            single.add_edge(u, v, w)
        assert list(bulk.edges()) == list(single.edges())
        assert [bulk.neighbors(u) for u in range(4)] == [single.neighbors(u) for u in range(4)]

    def test_duplicates_keep_minimum_and_count_exactly(self):
        g = WeightedGraph(4, [(0, 1, 2.5)])
        assert g.add_edges(*_columns(self.ROWS)) == 2
        assert g.weight(0, 1) == 2.5  # the existing edge was already lighter
        assert g.weight(1, 2) == 2.0
        assert g.num_edges == 3

    def test_invalidates_the_csr_snapshot(self):
        g = WeightedGraph(4, [(0, 1, 1.0)])
        before = g.csr()
        g.add_edges([2], [3], [1.0])
        assert g.csr() is not before
        assert g.dijkstra(2) == {2: 0.0, 3: 1.0}

    @pytest.mark.parametrize("bad, message", [
        ((2, 2, 1.0), "self-loops"),
        ((0, 2, 0.0), "must be positive"),
        ((0, 2, -1.0), "must be positive"),
        ((0, 4, 1.0), "out of range"),
        ((-1, 2, 1.0), "out of range"),
        ((0, 2, float("nan")), "must be positive and finite"),
        ((0, 2, float("inf")), "must be positive and finite"),
    ])
    def test_bad_row_raises_before_mutating(self, bad, message):
        g = WeightedGraph(4, [(0, 1, 2.0)])
        with pytest.raises(ValueError, match=message) as bulk_error:
            g.add_edges(*_columns([(1, 2, 1.0), (0, 1, 1.0), bad]))
        with pytest.raises(ValueError) as single_error:
            WeightedGraph(4).add_edge(*bad)
        assert str(bulk_error.value) == str(single_error.value)
        assert list(g.edges()) == [(0, 1, 2.0)]
        assert g.num_edges == 1


class TestDijkstra:
    def test_path_distances(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        dist = g.dijkstra(0)
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0}

    def test_shortcut_preferred(self):
        g = WeightedGraph(3, [(0, 1, 10.0), (0, 2, 1.0), (2, 1, 1.0)])
        assert g.distance(0, 1) == 2.0

    def test_bounded_dijkstra(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 5.0), (2, 3, 1.0)])
        dist = g.dijkstra(0, max_distance=2.0)
        assert 2 not in dist
        assert dist[1] == 1.0

    def test_distance_disconnected(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        assert g.distance(0, 2) == float("inf")

    def test_distance_to_self(self):
        g = WeightedGraph(3)
        assert g.distance(1, 1) == 0.0

    def test_distances_from_alias(self):
        g = WeightedGraph(3, [(0, 1, 4.0)])
        assert g.distances_from(0) == g.dijkstra(0)

    def test_dijkstra_invalid_source(self):
        g = WeightedGraph(2)
        with pytest.raises(ValueError):
            g.dijkstra(5)


class TestMisc:
    def test_copy_independent(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        h = g.copy()
        h.add_edge(1, 2, 2.0)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_to_networkx(self):
        g = WeightedGraph(3, [(0, 1, 2.0)])
        nx_graph = g.to_networkx()
        assert nx_graph[0][1]["weight"] == 2.0

    def test_len_and_repr(self):
        g = WeightedGraph(5, [(0, 1, 1.0)])
        assert len(g) == 5
        assert "m=1" in repr(g)


class DictModel:
    """The dict-of-dicts weighted graph the columns replaced: the reference model.

    One dict per vertex maps each neighbor to the edge weight, in
    insertion order; ``edges()`` walks them by vertex.
    """

    def __init__(self, n):
        self.n = n
        self.adj = [dict() for _ in range(n)]
        self.num_edges = 0

    def add_edge(self, u, v, w):
        if v in self.adj[u]:
            if w < self.adj[u][v]:
                self.adj[u][v] = self.adj[v][u] = w
            return False
        self.adj[u][v] = self.adj[v][u] = w
        self.num_edges += 1
        return True

    def add_edges(self, rows):
        return sum(self.add_edge(u, v, w) for u, v, w in rows)

    def remove_edge(self, u, v):
        if v not in self.adj[u]:
            return False
        del self.adj[u][v], self.adj[v][u]
        self.num_edges -= 1
        return True

    def copy(self):
        model = DictModel(self.n)
        model.adj = [dict(neighbors) for neighbors in self.adj]
        model.num_edges = self.num_edges
        return model

    def edges(self):
        return [(u, v, w) for u in range(self.n) for v, w in self.adj[u].items() if u < v]

    def csr(self):
        indptr, indices, weights = [0], [], []
        for neighbors in self.adj:
            for v in sorted(neighbors):
                indices.append(v)
                weights.append(neighbors[v])
            indptr.append(len(indices))
        return indptr, indices, weights

    def state(self):
        """The pickled state of the dict-of-dicts container."""
        return {"_n": self.n, "_adj": self.copy().adj, "_num_edges": self.num_edges}


def _assert_matches(graph, model, rng):
    assert list(graph.edges()) == model.edges()
    assert graph.num_edges == model.num_edges
    for u in range(model.n):
        assert list(graph.neighbors(u).items()) == list(model.adj[u].items())
        assert graph.degree(u) == len(model.adj[u])
    for u, v, w in model.edges():
        assert graph.weight(v, u) == w and graph.has_edge(u, v)
    for _ in range(5):
        u, v = rng.randrange(model.n), rng.randrange(model.n)
        assert graph.has_edge(u, v) == (v in model.adj[u])
    csr = graph.csr()
    assert (list(csr.indptr), list(csr.indices), list(csr.weights)) == model.csr()


def _random_rows(rng, n, count):
    rows = []
    for _ in range(count):
        u, v = rng.sample(range(n), 2)
        rows.append((u, v, rng.choice((1.0, 2.0, 2.5, 3.0, 7.0))))
    return rows


class TestDictModel:
    """Seeded interleavings of every mutation, checked against :class:`DictModel`."""

    N = 12

    def _mutate(self, rng, graph, model):
        """Apply one random operation to both; return the pair it leaves."""
        op = rng.choice(("bulk", "bulk", "add", "add", "remove", "copy", "pickle"))
        if op == "bulk":
            rows = _random_rows(rng, self.N, rng.randrange(0, 9))
            assert graph.add_edges(*_columns(rows)) == model.add_edges(rows)
        elif op == "add":
            (u, v, w), = _random_rows(rng, self.N, 1)
            assert graph.add_edge(u, v, w) == model.add_edge(u, v, w)
        elif op == "remove":
            edges = model.edges()
            if edges and rng.random() < 0.7:
                u, v, _ = rng.choice(edges)
            else:
                u, v = rng.sample(range(self.N), 2)
            assert graph.remove_edge(v, u) == model.remove_edge(u, v)
        elif op == "copy":
            copied = graph.copy()
            copied_model = model.copy()
            graph.add_edge(0, 1, 0.5)  # the original changes alone
            model.add_edge(0, 1, 0.5)
            graph, model = copied, copied_model
        else:
            graph = pickle.loads(pickle.dumps(graph))
        return graph, model

    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings_match_the_model(self, seed):
        rng = random.Random(seed)
        graph, model = WeightedGraph(self.N), DictModel(self.N)
        for _ in range(60):
            graph, model = self._mutate(rng, graph, model)
            # Check after some operations only, so mutations also run on
            # graphs whose caches are not built.
            if rng.random() < 0.5:
                _assert_matches(graph, model, rng)
        _assert_matches(graph, model, rng)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("slots_tuple", [False, True])
    def test_dict_of_dicts_state_loads(self, seed, slots_tuple):
        rng = random.Random(seed)
        model = DictModel(self.N)
        for _ in range(30):
            model.add_edges(_random_rows(rng, self.N, 3))
            u, v, _ = rng.choice(model.edges())
            model.remove_edge(u, v)
        state = model.state()
        graph = WeightedGraph.__new__(WeightedGraph)
        graph.__setstate__((None, state) if slots_tuple else state)
        _assert_matches(graph, model, rng)
        # Edge-by-edge mutations keep the loaded neighbor order.
        for u, v, w in _random_rows(rng, self.N, 10):
            assert graph.add_edge(u, v, w) == model.add_edge(u, v, w)
            assert graph.remove_edge(v, u) == model.remove_edge(u, v)
            assert graph.add_edge(u, v, w) == model.add_edge(u, v, w)
        _assert_matches(graph, model, rng)

    def test_pickle_ships_the_columns_only(self):
        graph = WeightedGraph(4, [(0, 1, 2.0), (3, 2, 1.0)])
        graph.neighbors(0), graph.has_edge(0, 1), graph.csr()
        assert sorted(graph.__getstate__()) == ["_hi", "_lo", "_n", "_weight"]
        restored = pickle.loads(pickle.dumps(graph))
        assert list(restored.edges()) == [(0, 1, 2.0), (2, 3, 1.0)]

    def test_unit_weight_copy_of_a_graph(self):
        graph = Graph(6, [(4, 1), (0, 5), (1, 0), (2, 3), (5, 1)])
        weighted = WeightedGraph.from_graph(graph)
        model = DictModel(6)
        for u, v in graph.edges():
            model.add_edge(u, v, 1.0)
        _assert_matches(weighted, model, random.Random(0))
        assert WeightedGraph.from_graph(Graph(3)).num_edges == 0
