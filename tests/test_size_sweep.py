"""Size-bound sweep: the E1/E2 claims checked densely across kappa and n.

These complement the property-based tests with a deterministic sweep that
mirrors the "figure-style" view of the paper's size claims: how the emulator
size tracks the ``n^(1+1/kappa)`` curve as ``kappa`` grows, and how the
excess over ``n`` vanishes in the ultra-sparse regime.
"""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.core.parameters import CentralizedSchedule, size_bound, ultra_sparse_kappa
from repro.graphs import generators


@pytest.fixture(scope="module")
def sweep_graph():
    return generators.connected_erdos_renyi(150, 0.05, seed=77)


class TestKappaSweep:
    @pytest.mark.parametrize("kappa", [2, 3, 4, 6, 8, 12, 16, 24, 32, 64])
    def test_size_bound_across_kappa(self, sweep_graph, kappa):
        result = build(sweep_graph, BuildSpec(product="emulator", eps=0.1, kappa=kappa)).raw
        assert result.num_edges <= size_bound(150, kappa) + 1e-9

    def test_size_is_monotone_nonincreasing_in_kappa_up_to_noise(self, sweep_graph):
        # Larger kappa -> sparser target; measured sizes should trend down
        # (allow small non-monotonicity because phases change discretely).
        sizes = [build(sweep_graph, BuildSpec(product="emulator", eps=0.1, kappa=k)).raw.num_edges
                 for k in (2, 4, 8, 16, 32)]
        assert sizes[-1] <= sizes[0]
        assert min(sizes) >= 150 - 1  # never below a spanning structure minus one

    def test_kappa_two_uses_most_edges(self, sweep_graph):
        dense = build(sweep_graph, BuildSpec(product="emulator", eps=0.1, kappa=2)).raw.num_edges
        sparse = build(sweep_graph, BuildSpec(product="emulator", eps=0.1, kappa=32)).raw.num_edges
        assert dense >= sparse


class TestUltraSparseSweep:
    @pytest.mark.parametrize("n", [64, 128, 256, 400])
    def test_excess_over_n_shrinks_relatively(self, n):
        graph = generators.connected_erdos_renyi(n, min(1.0, 8.0 / n), seed=n)
        kappa = ultra_sparse_kappa(n)
        schedule = CentralizedSchedule(n=n, eps=0.1, kappa=kappa)
        result = build(graph, BuildSpec(product="emulator", schedule=schedule)).raw
        allowance = size_bound(n, kappa) - n
        assert result.num_edges - n <= allowance + 1e-9
        # The allowance itself is o(n): well under 20% of n at these sizes.
        assert allowance < 0.2 * n

    def test_ultra_sparse_kappa_monotone(self):
        values = [ultra_sparse_kappa(n) for n in (64, 256, 1024, 4096)]
        assert values == sorted(values)


class TestDifferentEpsilons:
    @pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
    def test_size_bound_independent_of_eps(self, sweep_graph, eps):
        # The size bound depends only on kappa, never on eps.
        result = build(sweep_graph, BuildSpec(product="emulator", eps=eps, kappa=8)).raw
        assert result.num_edges <= size_bound(150, 8) + 1e-9

    @pytest.mark.parametrize("eps", [0.02, 0.1])
    def test_stretch_guarantee_for_each_eps(self, sweep_graph, eps):
        from repro.analysis.validation import verify_emulator

        result = build(sweep_graph, BuildSpec(product="emulator", eps=eps, kappa=8)).raw
        report = verify_emulator(sweep_graph, result.emulator, result.alpha, result.beta,
                                 sample_pairs=250)
        assert report.valid
