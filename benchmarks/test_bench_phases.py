"""Benchmarks for full phase-structured builds.

Times the emulator and spanner builders end to end (Algorithm 1 reads
each considered center's CSR row at ``delta_0 = 1`` and one
:func:`repro.graphs.kernels.bfs_row` per center in deeper phases; the
fast emulator and the spanner count neighboring centers up front), the
phases of one default Algorithm 1 build, the CSR compile of a built
emulator, and the seeded ``local`` query-stream generator, which reads
one :func:`repro.graphs.kernels.ball` per distinct source.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time

import numpy as np

from repro import obs
from repro.api import BuildSpec, build
from repro.graphs import generators
from repro.graphs.graph import Graph


def _build_graph(tier_n, seed=3):
    n = tier_n(1024)
    return generators.erdos_renyi(n, 10 / n, seed=seed)


def test_bench_emulator_full_build(benchmark, tier_n):
    """Algorithm 1 end to end (CSR-row balls, array-backed partitions)."""
    graph = _build_graph(tier_n)
    spec = BuildSpec(product="emulator", method="centralized", eps=0.1, kappa=3.0)

    result = benchmark.pedantic(lambda: build(graph, spec), iterations=1, rounds=3)
    assert result.size > 0


def test_bench_emulator_fast_full_build(benchmark, tier_n):
    """Section 3.3 ruling-set construction end to end."""
    graph = _build_graph(tier_n)
    spec = BuildSpec(product="emulator", method="fast", eps=0.01, kappa=3.0, rho=0.45)

    result = benchmark.pedantic(lambda: build(graph, spec), iterations=1, rounds=3)
    assert result.size > 0


def test_bench_spanner_full_build(benchmark, tier_n):
    """Section 4 spanner construction end to end."""
    graph = _build_graph(tier_n)
    spec = BuildSpec(product="spanner", method="centralized", eps=0.01, kappa=3.0,
                     rho=0.45)

    result = benchmark.pedantic(lambda: build(graph, spec), iterations=1, rounds=3)
    assert result.size > 0


def test_bench_spanner_within_5x_of_the_emulator(tier_n):
    """The centralized spanner next to the default emulator on one gnm graph.

    The spanner's deep phases decide popularity from per-component
    counts, so it should cost a small multiple of Algorithm 1.  The
    wall-clock check (spanner <= 5x the emulator, best of three builds
    each) runs only with ``REPRO_BENCH_WALL_CLOCK=1``, as in the CI
    benchmarks job, so the tier-1 run stays free of timing assertions.
    """
    n = tier_n(5000)
    graph = generators.gnm_random_graph(n, 4 * n, seed=0)
    graph.csr()
    times = {}
    for label, spec in (("emulator", BuildSpec()),
                        ("spanner", BuildSpec(product="spanner", method="centralized"))):
        rounds = []
        for _ in range(3):
            start = time.perf_counter()
            assert build(graph, spec).size > 0
            rounds.append(time.perf_counter() - start)
        times[label] = min(rounds) * 1e3
    ratio = times["spanner"] / times["emulator"]
    print(f"\ngnm n={n}: emulator/centralized {times['emulator']:.1f} ms, "
          f"spanner/centralized {times['spanner']:.1f} ms ({ratio:.2f}x)")
    if os.environ.get("REPRO_BENCH_WALL_CLOCK") == "1":
        assert ratio <= 5.0, times


def _numpy_gnm(n, m, seed):
    """A G(n, m) graph whose ``m`` distinct edges are drawn with numpy."""
    rng = np.random.default_rng(seed)
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        u, v = rng.integers(0, n, size=(2, 2 * m))
        keep = u != v
        lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
        keys = np.unique(np.concatenate((keys, lo * n + hi)))
    keys = rng.permutation(keys)[:m]
    return Graph(n, zip((keys // n).tolist(), (keys % n).tolist()))


def test_bench_emulator_phase_times(tier_n):
    """Each phase of a default Algorithm 1 build, on the ``build`` workload's shape.

    gnm with n = 5000 and m = 4n, the graph shape perfbench's ``build``
    workload times; phase 0 (``delta_0 = 1``, one CSR row per considered
    center) is most of a build.  Prints each phase's median time over
    seven builds, read from the ``emulator.phase`` spans; there is no
    wall-clock assertion.
    """
    n = tier_n(5000)
    graph = _numpy_gnm(n, 4 * n, seed=1)
    first = build(graph, BuildSpec())
    was_enabled = obs.set_enabled(True)
    try:
        with obs.capture_spans() as captured:
            for _ in range(7):
                assert build(graph, BuildSpec()).edges == first.edges
    finally:
        obs.set_enabled(was_enabled)
    phases = {}
    for record in captured.spans:
        if record.name == "emulator.phase":
            phases.setdefault(record.attrs["phase"], []).append(record.duration_s * 1e3)
    assert sorted(phases) == list(range(len(first.raw.phase_stats)))
    print(f"\ngnm n={n} m={4 * n}, default Algorithm 1: " + ", ".join(
        f"phase {phase} {statistics.median(times):.2f} ms"
        for phase, times in sorted(phases.items())))


def test_bench_emulator_csr_compile(benchmark, tier_n):
    """``H.csr()`` of a default Algorithm 1 build: one lexsort of H's edge columns.

    Each round compiles a pickled copy of ``H``, which carries the
    columns but no snapshot.
    """
    n = tier_n(5000)
    graph = generators.gnm_random_graph(n, 4 * n, seed=0)
    emulator = build(graph, BuildSpec()).raw.emulator
    state = pickle.dumps(emulator)

    csr = benchmark.pedantic(lambda h: h.csr(), setup=lambda: ((pickle.loads(state),), {}),
                             rounds=5)
    assert csr.num_edges == emulator.num_edges


def test_bench_local_workload_generation(benchmark, tier_n):
    """Seeded ``local`` stream generation (one lazy ball per distinct source)."""
    from repro.serve.workloads import generate_queries

    graph = _build_graph(tier_n, seed=4)
    num_queries = graph.num_vertices  # long stream: most sources are drawn

    stream = benchmark(lambda: generate_queries(graph, "local", num_queries, seed=2))
    assert len(stream) == num_queries
