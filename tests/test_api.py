"""Tests for the unified build API: spec, registry, facade, result, sweeps."""

from __future__ import annotations

import pytest

from repro.api import (
    METHODS,
    PRODUCTS,
    BuildEvent,
    BuildResult,
    BuildResultAdapter,
    BuildSpec,
    GridSweep,
    available_builders,
    build,
    clear_build_hooks,
    format_sweep_table,
    get_builder,
    is_supported,
    on_build,
    register_builder,
    remove_build_hook,
    run_sweep,
)
from repro.graphs import generators
from repro.graphs.graph import Graph

#: Every (product, method) pair the stock registrations support.
EXPECTED_COMBOS = [
    ("emulator", "centralized"),
    ("emulator", "congest"),
    ("emulator", "fast"),
    ("hopset", "centralized"),
    ("hopset", "congest"),
    ("hopset", "fast"),
    ("spanner", "centralized"),
    ("spanner", "congest"),
    ("spanner", "fast"),
]


@pytest.fixture
def grid25():
    return generators.grid_graph(5, 5)


class TestBuildSpec:
    def test_defaults(self):
        spec = BuildSpec()
        assert spec.product == "emulator"
        assert spec.method == "centralized"
        assert spec.key == ("emulator", "centralized")

    @pytest.mark.parametrize("kwargs", [
        {"product": "oracle"},
        {"method": "quantum"},
        {"eps": 0.0},
        {"eps": -0.5},
        {"kappa": 1.5},
        {"rho": 0.6},
        {"rho": 0.0},
        {"beta": -1.0},
        {"seed": "zero"},
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            BuildSpec(**kwargs)

    def test_invalid_product_message_lists_products(self):
        with pytest.raises(ValueError, match="emulator, spanner, hopset"):
            BuildSpec(product="nope")

    def test_replace_and_describe(self):
        spec = BuildSpec(product="spanner", eps=0.05)
        other = spec.replace(method="congest", kappa=4.0)
        assert other.key == ("spanner", "congest")
        assert other.eps == 0.05
        assert spec.method == "centralized"  # original untouched
        assert "spanner/congest" in other.describe()
        assert "kappa=4" in other.describe()

    def test_specs_are_comparable(self):
        assert BuildSpec(eps=0.1) == BuildSpec(eps=0.1)
        assert BuildSpec(eps=0.1) != BuildSpec(eps=0.2)

    def test_specs_are_hashable_cache_keys(self):
        specs = {BuildSpec(), BuildSpec(eps=0.1), BuildSpec(),
                 BuildSpec(options={"ruling_set_mode": "greedy"})}
        assert len(specs) == 3
        assert hash(BuildSpec(product="hopset")) == hash(BuildSpec(product="hopset"))

    def test_options_snapshot_is_isolated_from_caller(self):
        options = {"ruling_set_mode": "greedy"}
        spec = BuildSpec(options=options)
        options["ruling_set_mode"] = "bitwise"
        assert spec.options["ruling_set_mode"] == "greedy"


class TestRegistry:
    def test_all_expected_combos_registered(self):
        assert available_builders() == EXPECTED_COMBOS

    def test_available_builders_filter_by_product(self):
        assert available_builders("spanner") == [
            ("spanner", "centralized"), ("spanner", "congest"), ("spanner", "fast"),
        ]

    def test_unknown_combo_raises_keyerror_listing_valid(self):
        with pytest.raises(KeyError) as excinfo:
            get_builder("spanner", "quantum")
        message = str(excinfo.value)
        for product, method in EXPECTED_COMBOS:
            assert f"{product}/{method}" in message

    def test_is_supported(self):
        assert is_supported("emulator", "fast")
        assert is_supported("spanner", "fast")
        assert not is_supported("spanner", "quantum")

    def test_register_rejects_unknown_vocabulary(self):
        with pytest.raises(ValueError):
            register_builder("oracle", "centralized")
        with pytest.raises(ValueError):
            register_builder("emulator", "quantum")

    def test_registration_and_override_roundtrip(self, grid25):
        original = get_builder("emulator", "centralized")

        @register_builder("emulator", "centralized", description="test double")
        def fake_builder(graph, spec):
            return original.fn(graph, spec)

        try:
            assert get_builder("emulator", "centralized").description == "test double"
            assert build(grid25, BuildSpec()).size > 0
        finally:
            register_builder(original.product, original.method,
                             description=original.description)(original.fn)


class TestFacade:
    @pytest.mark.parametrize("product,method", EXPECTED_COMBOS)
    def test_every_combo_builds_and_verifies(self, grid25, product, method):
        result = build(grid25, BuildSpec(product=product, method=method))
        assert isinstance(result, BuildResultAdapter)
        assert isinstance(result, BuildResult)  # runtime-checkable protocol
        assert result.product == product and result.method == method
        assert result.size > 0
        assert len(result.edges) == result.size
        assert result.alpha >= 1.0
        assert result.beta >= 0.0
        assert result.elapsed >= 0.0
        assert result.schedule is not None
        stats = result.stats
        assert stats["num_edges"] == result.size
        assert stats["product"] == product
        report = result.verify(grid25, sample_pairs=40)
        assert report.valid

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("product,method", available_builders())
    def test_default_spec_builds_tiny_graphs(self, product, method, n):
        graph = generators.path_graph(n) if n else Graph(0)
        result = build(graph, BuildSpec(product=product, method=method))
        assert result.size == len(result.edges) <= n * (n - 1) // 2
        assert result.verify(graph).valid

    def test_unknown_combo_raises_keyerror(self, grid25):
        # Every vocabulary combo is registered now, so deregister one to
        # exercise the facade's KeyError path.
        from repro.api import registry as registry_module

        removed = registry_module._REGISTRY.pop(("spanner", "fast"))
        try:
            with pytest.raises(KeyError, match="spanner"):
                build(grid25, BuildSpec(product="spanner", method="fast"))
        finally:
            registry_module._REGISTRY[("spanner", "fast")] = removed

    def test_fast_spanner_is_subgraph(self, grid25):
        result = build(grid25, BuildSpec(product="spanner", method="fast"))
        assert result.raw.is_subgraph_of(grid25)
        assert result.raw.superclustering_edges == 0
        assert result.raw.interconnection_edges == result.size

    def test_keyword_shorthand(self, grid25):
        result = build(grid25, product="spanner", eps=0.01, kappa=4.0)
        assert result.product == "spanner"
        assert result.spec.eps == 0.01

    def test_keywords_override_spec(self, grid25):
        base = BuildSpec(product="emulator", eps=0.1)
        result = build(grid25, base, eps=0.2)
        assert result.spec.eps == 0.2

    def test_spanner_edges_are_subgraph(self, grid25):
        result = build(grid25, BuildSpec(product="spanner"))
        for u, v, w in result.edges:
            assert w == 1.0
            assert grid25.has_edge(u, v)

    def test_beta_budget_enforced(self, grid25):
        with pytest.raises(ValueError, match="beta budget"):
            build(grid25, BuildSpec(product="emulator", eps=0.1, kappa=4.0, beta=1.0))

    def test_beta_budget_satisfied_passes(self, grid25):
        result = build(grid25, BuildSpec(product="emulator", eps=0.1, kappa=4.0, beta=1e6))
        assert result.beta <= 1e6

    def test_congest_stats_carry_rounds_and_messages(self, grid25):
        result = build(grid25, BuildSpec(product="emulator", method="congest"))
        assert result.stats["rounds"] > 0
        assert result.stats["messages"] > 0

    def test_hopset_uses_registered_emulator_builder(self, grid25):
        # A drop-in registered for (emulator, fast) must also serve the
        # derived hopset/fast builds.
        original = get_builder("emulator", "fast")
        calls = []

        @register_builder("emulator", "fast")
        def counting_builder(graph, spec):
            calls.append(spec)
            return original.fn(graph, spec)

        try:
            build(grid25, BuildSpec(product="hopset", method="fast"))
        finally:
            register_builder(original.product, original.method,
                             description=original.description)(original.fn)
        assert len(calls) == 1
        assert calls[0].product == "emulator"
        assert calls[0].kappa is not None  # hopset ultra-sparse default resolved

    def test_hopset_result_exposes_hopbound(self, grid25):
        result = build(grid25, BuildSpec(product="hopset"))
        assert result.stats["hopbound_estimate"] >= 1
        report = result.verify(grid25, sample_pairs=30)
        assert report.valid
        assert report.hopbound == result.raw.hopbound_estimate
        assert report.worst_excess <= 0  # guarantee holds => non-positive slack

    def test_hooks_fire_and_unregister(self, grid25):
        events = []
        hook = on_build(events.append)
        try:
            result = build(grid25, BuildSpec())
            assert len(events) == 1
            event = events[0]
            assert isinstance(event, BuildEvent)
            assert event.result is result
            assert event.elapsed == result.elapsed
        finally:
            remove_build_hook(hook)
        build(grid25, BuildSpec())
        assert len(events) == 1

    def test_clear_build_hooks(self, grid25):
        events = []
        on_build(events.append)
        clear_build_hooks()
        build(grid25, BuildSpec())
        assert events == []


class TestGridSweep:
    def test_full_grid_covers_supported_surface(self):
        sweep = GridSweep(products=PRODUCTS, methods=METHODS)
        keys = [spec.key for spec in sweep.specs()]
        assert sorted(keys) == EXPECTED_COMBOS
        assert len(sweep) == len(EXPECTED_COMBOS)

    def test_parameter_grid_expands(self):
        sweep = GridSweep(products=("emulator",), methods=("centralized",),
                          eps_values=(0.1, 0.05), kappas=(3.0, 4.0))
        specs = list(sweep.specs())
        assert len(specs) == 4
        assert {(s.eps, s.kappa) for s in specs} == {(0.1, 3.0), (0.1, 4.0),
                                                     (0.05, 3.0), (0.05, 4.0)}

    def test_run_sweep_builds_and_verifies(self, grid25):
        sweep = GridSweep(products=("emulator", "spanner"), methods=("centralized",))
        records = run_sweep({"grid": grid25}, sweep, verify_pairs=30)
        assert len(records) == 2
        assert all(record.verified for record in records)
        table = format_sweep_table(records)
        assert "emulator" in table and "spanner" in table

    def test_run_sweep_with_no_supported_combo_raises(self, grid25):
        # The full product x method vocabulary is registered, so an empty
        # grid is the remaining way to match nothing.
        sweep = GridSweep(products=(), methods=METHODS)
        with pytest.raises(KeyError, match="supported combinations"):
            run_sweep(grid25, sweep)

    def test_run_sweep_accepts_bare_graph(self, grid25):
        sweep = GridSweep(products=("hopset",), methods=("centralized",))
        records = run_sweep(grid25, sweep)
        assert len(records) == 1
        assert records[0].graph_name == "graph"
        assert records[0].verified is None
