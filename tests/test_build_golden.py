"""Golden build digests: every builder's output is pinned byte-for-byte.

For all eight registered product x method combinations on six seeded
graph families (n <= 256), ``tests/golden/builds.json`` pins the SHA-256
of the sorted output edges together with the size and the guaranteed
alpha and beta.  The pinned combinations are read from
``repro.api.available_builders()``, so the corpus follows the registry.

The three emulator builders also pin the internals the analysis reads:
H's edges in ``WeightedGraph.edges()`` order (which is the insertion
order per vertex), the charge ledger's ``(edge, weight, charged_to,
phase, kind)`` sequence and ``phase_stats``.  The centralized and fast
emulators pin the partitions ``P_i`` (center, sorted members, radius,
phase_created) and the ``U_i`` sets too; the CONGEST emulator's result
carries neither, so its entries pin only the first three.  Every
CONGEST entry (emulator, spanner and the hopset's underlying emulator)
also pins the simulator's ``rounds`` and ``messages`` counters.
The centralized emulator is additionally pinned at three non-default
``(eps, kappa)`` settings whose phases run at delta > 1, so partial
and whole-component explorations are both covered.  The Section 4
spanner is also pinned at the ultra-sparse ``kappa = ultra_sparse_kappa(n)``
together with an exact all-pairs audit: validity, the worst additive
error and the worst multiplicative stretch.

The comparison baselines (EP01, and EN17 and TZ06 at ``seed=0``) are
pinned on the same families: H's edges in ``WeightedGraph.edges()``
order, its size and the builder's edge counters.

A refactor of a builder must leave every digest unchanged.  After a
deliberate change of output, regenerate the file with::

    PYTHONPATH=src python tests/test_build_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import pickle
import sys
from pathlib import Path

import pytest

from repro.api import BuildSpec, available_builders, build
from repro.baselines import (
    build_elkin_neiman_emulator,
    build_elkin_peleg_emulator,
    build_thorup_zwick_emulator,
)
from repro.core.emulator import UltraSparseEmulatorBuilder
from repro.core.fast_centralized import FastCentralizedBuilder
from repro.core.parameters import ultra_sparse_kappa
from repro.core.spanner import NearAdditiveSpannerBuilder, SpannerResult
from repro.dist import canonical_record
from repro.graphs import generators
from repro.graphs.graph import Graph

GOLDEN_PATH = Path(__file__).parent / "golden" / "builds.json"

#: family -> seeded graph factory (all at n <= 256).
FAMILIES = {
    "erdos-renyi": lambda: generators.connected_erdos_renyi(128, 6 / 127, seed=1),
    "grid": lambda: generators.grid_graph(12, 12),
    "ring-of-cliques": lambda: generators.ring_of_cliques(12, 8),
    "preferential-attachment": lambda: generators.preferential_attachment(128, 2, seed=2),
    "path": lambda: generators.path_graph(96),
    "disconnected": lambda: generators.gnm_random_graph(160, 240, seed=3),
}

#: Extra (eps, kappa) settings for the centralized emulator.
EXTRA_SETTINGS = ((0.5, 8.0), (1.0, 8.0), (0.25, 16.0))

#: baseline name -> builder, seeded where the construction is randomized.
BASELINES = {
    "elkin-peleg": build_elkin_peleg_emulator,
    "elkin-neiman": functools.partial(build_elkin_neiman_emulator, seed=0),
    "thorup-zwick": functools.partial(build_thorup_zwick_emulator, seed=0),
}

#: The edge counters each baseline result reports.
BASELINE_COUNTERS = ("superclustering_edges", "interconnection_edges", "ground_forest_edges")


def _cases():
    for family, make in FAMILIES.items():
        for product, method in available_builders():
            yield f"{family}/{product}/{method}", family, BuildSpec(
                product=product, method=method)
        for eps, kappa in EXTRA_SETTINGS:
            yield f"{family}/emulator/centralized/eps={eps}/kappa={kappa}", family, BuildSpec(
                product="emulator", method="centralized", eps=eps, kappa=kappa)
        yield f"{family}/spanner/centralized/ultra-sparse", family, BuildSpec(
            product="spanner", method="centralized",
            kappa=ultra_sparse_kappa(make().num_vertices))
        for baseline in BASELINES:
            yield f"{family}/baseline/{baseline}", family, baseline


CASES = {name: (family, spec) for name, family, spec in _cases()}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _cluster_key(cluster):
    return (cluster.center, sorted(cluster.members), cluster.radius, cluster.phase_created)


def _snapshot(family, spec):
    """The pinned view of one build: plain values and digests."""
    graph = FAMILIES[family]()
    if isinstance(spec, str):
        return _baseline_snapshot(BASELINES[spec](graph))
    result = build(graph, spec)
    snapshot = _result_snapshot(result, spec)
    if spec.product == "spanner" and spec.kappa is not None:  # the ultra-sparse pins
        report = result.verify(graph, sample_pairs=None)
        snapshot.update(valid=report.valid, max_additive_error=report.max_additive_error,
                        max_multiplicative_stretch=report.max_multiplicative_stretch)
    return snapshot


def _baseline_snapshot(raw):
    snapshot = {"h_edges": _digest(list(raw.emulator.edges())), "size": raw.num_edges}
    snapshot.update(
        {name: getattr(raw, name) for name in BASELINE_COUNTERS if hasattr(raw, name)})
    return snapshot


def _result_snapshot(result, spec):
    snapshot = {
        "edges": _digest(sorted(result.edges)),
        "size": result.size,
        "alpha": result.alpha,
        "beta": result.beta,
    }
    if spec.product == "emulator":
        snapshot.update(_emulator_internals(result.raw))
    if spec.method == "congest":  # a hopset's counters are its emulator's
        counted = getattr(result.raw, "emulator_result", result.raw)
        snapshot.update(rounds=counted.rounds, messages=counted.messages)
    return snapshot


def _emulator_internals(raw):
    snapshot = {
        "h_edges": _digest(list(raw.emulator.edges())),
        "ledger": _digest([
            (c.edge, c.weight, c.charged_to, c.phase, c.kind.value) for c in raw.ledger.charges
        ]),
        "phase_stats": _digest([dataclasses.asdict(s) for s in raw.phase_stats]),
    }
    partitions = getattr(raw, "partitions", None)
    if partitions is not None:
        snapshot["partitions"] = _digest(
            [[_cluster_key(c) for c in p.clusters()] for p in partitions])
    unclustered = getattr(raw, "unclustered", None)
    if unclustered is not None:
        snapshot["unclustered"] = _digest(
            {phase: [_cluster_key(c) for c in clusters]
             for phase, clusters in sorted(unclustered.items())})
    return snapshot


@functools.lru_cache(maxsize=None)
def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_corpus_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_digests_are_pinned(name):
    family, spec = CASES[name]
    assert _snapshot(family, spec) == _golden()[name]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pickled_emulator_keeps_its_digests_and_no_clusters(family):
    spec = BuildSpec(product="emulator", method="centralized")
    result = build(FAMILIES[family](), spec)
    result.raw.unclustered  # built on read; nothing read may travel
    found = set()

    class Recording(pickle.Unpickler):
        def find_class(self, module, name):
            found.add(name)
            return super().find_class(module, name)

    restored = Recording(io.BytesIO(pickle.dumps(result))).load()
    assert "Partition" in found and "Cluster" not in found
    assert _result_snapshot(restored, spec) == _golden()[f"{family}/emulator/centralized"]


@pytest.mark.parametrize("product,method", available_builders())
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_builds_depend_on_the_edge_set_alone(family, product, method):
    # The same edge set as a pickle round trip and inserted in reverse
    # order: every build, and every build's own pickle round trip, gives
    # the pinned digest and one canonical record, edge order included.
    spec = BuildSpec(product=product, method=method)
    graph = FAMILIES[family]()
    variants = (graph, pickle.loads(pickle.dumps(graph)),
                Graph(graph.num_vertices, reversed(list(graph.edges()))))
    records = set()
    for variant in variants:
        result = build(variant, spec)
        assert _digest(sorted(result.edges)) == _golden()[f"{family}/{product}/{method}"]["edges"]
        records.add(canonical_record(result))
        records.add(canonical_record(pickle.loads(pickle.dumps(result))))
    assert len(records) == 1


def _raw_snapshot(raw):
    if isinstance(raw, SpannerResult):
        return {
            "edges": _digest(sorted(raw.spanner.edges())),
            "phase_stats": _digest([dataclasses.asdict(s) for s in raw.phase_stats]),
            "counts": (raw.superclustering_edges, raw.interconnection_edges),
        }
    return _emulator_internals(raw)


@pytest.mark.parametrize("builder_cls", [
    UltraSparseEmulatorBuilder, FastCentralizedBuilder, NearAdditiveSpannerBuilder])
def test_building_twice_repeats_the_first_build(builder_cls):
    builder = builder_cls(FAMILIES["erdos-renyi"]())
    first = builder.build()
    pinned = _raw_snapshot(first)
    second = builder.build()
    assert _raw_snapshot(second) == pinned
    assert _raw_snapshot(first) == pinned  # the first result was not touched
    for result in (first, second):
        ledger = getattr(result, "ledger", None)
        if ledger is not None:
            ledger.verify_interconnection_budget(
                {s.phase: s.degree_threshold for s in result.phase_stats})
            ledger.verify_superclustering_budget()
            ledger.verify_single_charging_phase()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_build_golden.py --regenerate")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    corpus = {name: _snapshot(family, spec) for name, (family, spec) in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} cases to {GOLDEN_PATH}")
