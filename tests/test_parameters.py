"""Unit tests for the parameter schedules (Sections 2.1.2, 3.1.1, 4)."""

from __future__ import annotations

import math

import pytest

from repro.core.parameters import (
    CentralizedSchedule,
    DistributedSchedule,
    SpannerSchedule,
    size_bound,
    ultra_sparse_kappa,
)


class TestSizeBound:
    def test_basic(self):
        assert size_bound(100, 2) == pytest.approx(1000.0)

    def test_large_kappa_tends_to_n(self):
        assert size_bound(1000, 1000) == pytest.approx(1000 ** (1 + 1 / 1000))
        assert size_bound(1000, 10_000) < 1010

    def test_invalid(self):
        with pytest.raises(ValueError):
            size_bound(-1, 2)
        with pytest.raises(ValueError):
            size_bound(10, 0)

    def test_ultra_sparse_kappa_is_superlogarithmic(self):
        for n in (256, 4096, 1 << 20):
            assert ultra_sparse_kappa(n) > math.log2(n)

    def test_ultra_sparse_kappa_small_n(self):
        # Below 4 vertices the n = 4 value, so 1/kappa <= rho < 1/2 has a
        # solution (the default rho = 0.45) for the ruling-set schedules.
        for n in (0, 1, 2, 3):
            assert ultra_sparse_kappa(n) == ultra_sparse_kappa(4) == 4.0


class TestCentralizedSchedule:
    def test_ell_matches_formula(self):
        for kappa in (2, 3, 4, 8, 16, 33):
            sched = CentralizedSchedule(n=100, eps=0.1, kappa=kappa)
            assert sched.ell == max(1, math.ceil(math.log2((kappa + 1) / 2)))

    def test_degree_sequence_squares(self):
        sched = CentralizedSchedule(n=256, eps=0.1, kappa=8)
        for i in range(sched.ell):
            assert sched.degree(i + 1) == pytest.approx(sched.degree(i) ** 2)

    def test_degree_formula(self):
        sched = CentralizedSchedule(n=100, eps=0.1, kappa=4)
        assert sched.degree(0) == pytest.approx(100 ** 0.25)
        assert sched.degree(1) == pytest.approx(100 ** 0.5)

    def test_delta_zero_is_one(self):
        sched = CentralizedSchedule(n=50, eps=0.1, kappa=4)
        assert sched.delta(0) == pytest.approx(1.0)

    def test_radius_recursion(self):
        sched = CentralizedSchedule(n=50, eps=0.1, kappa=16)
        for i in range(sched.ell):
            assert sched.radius_bound(i + 1) == pytest.approx(
                2 * sched.delta(i) + sched.radius_bound(i)
            )

    def test_delta_formula(self):
        sched = CentralizedSchedule(n=50, eps=0.1, kappa=16)
        for i in range(sched.num_phases):
            assert sched.delta(i) == pytest.approx(
                (1 / 0.1) ** i + 2 * sched.radius_bound(i)
            )

    def test_radius_explicit_bound(self):
        # Lemma 2.6 / eq. 5: R_i <= 4 (1/eps)^(i-1) for eps <= 1/10.
        sched = CentralizedSchedule(n=1000, eps=0.1, kappa=64)
        for i in range(1, sched.num_phases):
            assert sched.radius_bound(i) <= 4.0 * (1 / 0.1) ** (i - 1) + 1e-9

    def test_alpha_beta(self):
        sched = CentralizedSchedule(n=100, eps=0.1, kappa=4)
        assert sched.alpha == pytest.approx(1 + 34 * 0.1 * sched.ell)
        assert sched.beta == pytest.approx(30 * 10 ** (sched.ell - 1))

    def test_max_edges(self):
        sched = CentralizedSchedule(n=100, eps=0.1, kappa=4)
        assert sched.max_edges == pytest.approx(100 ** 1.25)

    def test_num_phases(self):
        sched = CentralizedSchedule(n=100, eps=0.1, kappa=4)
        assert sched.num_phases == sched.ell + 1
        assert len(sched.degrees) == sched.num_phases
        assert len(sched.deltas) == sched.num_phases
        assert len(sched.radii) == sched.num_phases

    def test_from_target_stretch(self):
        sched = CentralizedSchedule.from_target_stretch(n=200, eps_target=0.5, kappa=8)
        assert sched.alpha == pytest.approx(1.5)

    def test_from_target_stretch_validation(self):
        with pytest.raises(ValueError):
            CentralizedSchedule.from_target_stretch(n=10, eps_target=2.0, kappa=4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CentralizedSchedule(n=0, eps=0.1, kappa=4)
        with pytest.raises(ValueError):
            CentralizedSchedule(n=10, eps=-0.1, kappa=4)
        with pytest.raises(ValueError):
            CentralizedSchedule(n=10, eps=0.1, kappa=1)

    def test_fractional_kappa_allowed(self):
        sched = CentralizedSchedule(n=100, eps=0.1, kappa=13.7)
        assert sched.max_edges == pytest.approx(100 ** (1 + 1 / 13.7))


class TestDistributedSchedule:
    def test_stage_structure(self):
        sched = DistributedSchedule(n=1000, eps=0.01, kappa=8, rho=0.4)
        assert sched.i0 == math.floor(math.log2(8 * 0.4))
        for i in range(sched.num_phases):
            if i <= sched.i0:
                assert sched.degree(i) == pytest.approx(1000 ** (2 ** i / 8))
            else:
                assert sched.degree(i) == pytest.approx(1000 ** 0.4)

    def test_degrees_capped_at_n_rho(self):
        sched = DistributedSchedule(n=500, eps=0.01, kappa=16, rho=0.3)
        for i in range(sched.num_phases):
            assert sched.degree(i) <= 500 ** 0.3 + 1e-9

    def test_degree_squaring_condition(self):
        # eq. 18 needs deg_{i+1} <= deg_i^2 in every phase.
        sched = DistributedSchedule(n=400, eps=0.01, kappa=8, rho=0.45)
        for i in range(sched.num_phases - 1):
            assert sched.degree(i + 1) <= sched.degree(i) ** 2 + 1e-9

    def test_radius_recursion(self):
        sched = DistributedSchedule(n=100, eps=0.01, kappa=4, rho=0.4)
        growth = 4 / 0.4 + 2
        for i in range(sched.ell):
            assert sched.radius_bound(i + 1) == pytest.approx(
                growth * sched.delta(i) + sched.radius_bound(i)
            )

    def test_separation_and_ruling_radius(self):
        sched = DistributedSchedule(n=100, eps=0.01, kappa=4, rho=0.4)
        for i in range(sched.num_phases):
            assert sched.separation(i) == pytest.approx(2 * sched.delta(i) + 1)
            assert sched.ruling_radius(i) == pytest.approx((2 / 0.4) * sched.delta(i))

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            DistributedSchedule(n=100, eps=0.01, kappa=4, rho=0.6)
        with pytest.raises(ValueError):
            DistributedSchedule(n=100, eps=0.01, kappa=4, rho=0.1)  # rho < 1/kappa

    def test_alpha_beta_round_bound(self):
        sched = DistributedSchedule(n=100, eps=0.01, kappa=4, rho=0.45)
        assert sched.alpha == pytest.approx(1 + 90 * 0.01 * sched.ell / 0.45)
        assert sched.beta == pytest.approx((75 / 0.45) * 100 ** (sched.ell - 1))
        assert sched.round_bound == pytest.approx(sched.beta * 100 ** 0.45)

    def test_from_target_stretch(self):
        sched = DistributedSchedule.from_target_stretch(n=200, eps_target=0.8, kappa=8, rho=0.4)
        assert sched.alpha == pytest.approx(1.8, rel=0.01)

    def test_ell_at_least_i0_plus_one(self):
        sched = DistributedSchedule(n=64, eps=0.01, kappa=4, rho=0.49)
        assert sched.ell >= sched.i0 + 1


class TestSpannerSchedule:
    def test_gamma_floor_is_two(self):
        sched = SpannerSchedule(n=100, eps=0.01, kappa=4, rho=0.45)
        assert sched.gamma == 2.0

    def test_gamma_grows_with_kappa(self):
        sched = SpannerSchedule(n=10_000, eps=0.01, kappa=1 << 20, rho=0.4)
        assert sched.gamma == pytest.approx(math.log2(20), rel=0.01)

    def test_stage_degrees(self):
        sched = SpannerSchedule(n=1000, eps=0.01, kappa=8, rho=0.4)
        for i in range(sched.num_phases):
            if i <= sched.i0:
                expected = 1000 ** ((2 ** i - 1) / (sched.gamma * 8) + 1 / 8)
            elif i == sched.i0 + 1:
                expected = 1000 ** 0.2
            else:
                expected = 1000 ** 0.4
            assert sched.degree(i) == pytest.approx(expected)

    def test_ell_formula(self):
        sched = SpannerSchedule(n=1000, eps=0.01, kappa=8, rho=0.4)
        assert sched.ell == sched.i0 + max(1, math.ceil(1 / 0.4 - 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpannerSchedule(n=100, eps=0.01, kappa=4, rho=0.7)
        with pytest.raises(ValueError):
            SpannerSchedule(n=100, eps=0.01, kappa=4, rho=0.05)

    def test_beta_positive(self):
        sched = SpannerSchedule(n=100, eps=0.01, kappa=4, rho=0.45)
        assert sched.beta > 0
        assert sched.alpha > 1
        assert sched.max_edges == pytest.approx(100 ** 1.25)
