"""Unified build API: one facade, one spec, one result shape.

Every construction of the package — each product × method pair — is
reached through a single composable surface::

    from repro import Graph, BuildSpec, build

    result = build(graph, BuildSpec(product="emulator", method="fast", kappa=4))
    print(result.size, result.alpha, result.beta, result.elapsed)
    report = result.verify(graph, sample_pairs=500)

Pieces
------
:class:`BuildSpec`
    Frozen configuration value: ``product`` × ``method`` + paper parameters.
:func:`register_builder` / :func:`get_builder` / :func:`available_builders`
    The product/method builder registry all constructions plug into.
:class:`BuildResult` / :class:`BuildResultAdapter`
    The common result protocol (``edges``, ``size``, ``alpha``, ``beta``,
    ``schedule``, ``stats``, ``elapsed``, ``verify(graph)``) and its
    concrete wrapper; the legacy result object stays reachable as ``.raw``.
:func:`build` + :func:`on_build`
    The facade with timing and instrumentation hooks.
:class:`GridSweep` / :func:`run_sweep`
    Config-driven product × method × parameter sweeps over the facade,
    executed sharded (``workers=``), cached (``cache=``) and
    batch-verified (``verify=``) by :func:`execute_sweep`.
:class:`ResultCache`
    Content-addressed on-disk memoization of build results, keyed on
    ``(graph content hash, spec fingerprint, code version)``.
"""

from repro.api.spec import METHODS, PRODUCTS, BuildSpec
from repro.api.registry import (
    RegisteredBuilder,
    available_builders,
    get_builder,
    is_supported,
    register_builder,
)
from repro.api.result import BuildResult, BuildResultAdapter, HopsetVerification, adapt_result
from repro.api.facade import BuildEvent, build, clear_build_hooks, on_build, remove_build_hook
from repro.api.cache import DEFAULT_CACHE_DIR, ResultCache, resolve_cache, spec_fingerprint
from repro.api.executor import GraphBaseline, execute_sweep, verify_with_baseline
from repro.api import builders as _builders  # noqa: F401  (registers the stock builders)
from repro.api.pipeline import GridSweep, SweepRecord, format_sweep_table, run_sweep

__all__ = [
    "PRODUCTS",
    "METHODS",
    "BuildSpec",
    "RegisteredBuilder",
    "register_builder",
    "get_builder",
    "available_builders",
    "is_supported",
    "BuildResult",
    "BuildResultAdapter",
    "HopsetVerification",
    "adapt_result",
    "BuildEvent",
    "build",
    "on_build",
    "remove_build_hook",
    "clear_build_hooks",
    "GridSweep",
    "SweepRecord",
    "run_sweep",
    "format_sweep_table",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "resolve_cache",
    "spec_fingerprint",
    "GraphBaseline",
    "execute_sweep",
    "verify_with_baseline",
]
