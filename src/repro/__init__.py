"""Ultra-Sparse Near-Additive Emulators — reference implementation.

A reproduction of *"Ultra-Sparse Near-Additive Emulators"* (Michael Elkin and
Shaked Matar, PODC 2021).  The package provides:

* the paper's centralized construction of ``(1 + eps, beta)``-emulators with
  at most ``n^(1 + 1/kappa)`` edges (``method="centralized"``);
* the fast, ruling-set based centralized construction of Section 3.3
  (``method="fast"``);
* the distributed CONGEST construction of Section 3, executed on a
  synchronous network simulator (``method="congest"``);
* the near-additive *spanner* construction of Section 4
  (``product="spanner"``) and the emulator-derived hopset
  (``product="hopset"``);
* baselines (EP01, TZ06, EN17a, EM19, greedy multiplicative spanners),
  validators, metrics, and the experiment/benchmark harness.

All constructions are reachable through the unified facade::

    from repro import Graph, BuildSpec, build

    result = build(graph, BuildSpec(product="emulator", method="fast"))
    result.verify(graph, sample_pairs=500)

and every built product can be served as an approximate distance oracle
through the serving layer (:mod:`repro.serve`)::

    from repro import ServeSpec, serve

    engine = serve.load(graph, ServeSpec(product="emulator"))
    engine.query(0, 17)
"""

from repro.graphs import Graph, WeightedGraph, generators
from repro.core import (
    CentralizedSchedule,
    DistributedSchedule,
    SpannerSchedule,
    size_bound,
)
from repro.core.parameters import ultra_sparse_kappa
from repro.analysis import verify_emulator, verify_spanner
from repro.hopsets import verify_hopset
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
    get_builder,
    on_build,
    register_builder,
    run_sweep,
)
from repro import serve
from repro.serve import DistanceOracle, QueryEngine, ServeSpec

__version__ = "3.0.0"

__all__ = [
    "Graph",
    "WeightedGraph",
    "generators",
    "CentralizedSchedule",
    "DistributedSchedule",
    "SpannerSchedule",
    "size_bound",
    "ultra_sparse_kappa",
    # unified facade
    "PRODUCTS",
    "METHODS",
    "BuildSpec",
    "BuildResult",
    "BuildResultAdapter",
    "BuildEvent",
    "GridSweep",
    "build",
    "run_sweep",
    "register_builder",
    "get_builder",
    "available_builders",
    "on_build",
    # the query-serving layer
    "serve",
    "ServeSpec",
    "DistanceOracle",
    "QueryEngine",
    # validators
    "verify_emulator",
    "verify_spanner",
    "verify_hopset",
    "__version__",
]
