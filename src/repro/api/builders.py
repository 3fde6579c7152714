"""Stock builder registrations: every paper construction, one registry key.

This module is imported for its side effects by :mod:`repro.api`; importing
it populates the registry with the package's constructions:

==========  =============  ==================================================
product     method         implementation
==========  =============  ==================================================
emulator    centralized    Algorithm 1 (:class:`UltraSparseEmulatorBuilder`)
emulator    fast           Section 3.3 ruling sets (:class:`FastCentralizedBuilder`)
emulator    congest        Section 3 on the CONGEST simulator
spanner     centralized    Section 4 (centralized simulation)
spanner     fast           EM19-style paths over the Section 3.3 emulator
spanner     congest        Section 4 on the CONGEST simulator
hopset      centralized    emulator edge set of Algorithm 1 ([EN20])
hopset      fast           emulator edge set of the Section 3.3 construction
hopset      congest        emulator edge set of the CONGEST construction
==========  =============  ==================================================

Each builder resolves the spec's ``None`` parameters to the construction's
historical defaults (see :func:`resolve_parameters`), so a bare
``BuildSpec(product=..., method=...)`` gets the working epsilon its
schedule assumes.
"""

from __future__ import annotations

from typing import Tuple

from repro.api.registry import get_builder, register_builder
from repro.api.spec import BuildSpec
from repro.core.emulator import EmulatorResult, UltraSparseEmulatorBuilder
from repro.core.fast_centralized import FastCentralizedBuilder
from repro.core.parameters import ultra_sparse_kappa
from repro.core.spanner import (
    NearAdditiveSpannerBuilder,
    SpannerResult,
    spanner_from_emulator,
)
from repro.distributed.emulator_congest import DistributedEmulatorBuilder
from repro.distributed.spanner_congest import DistributedSpannerBuilder
from repro.graphs.graph import Graph

__all__ = ["resolve_parameters"]

_DEFAULT_RHO = 0.45
_DEFAULT_KAPPA = 4.0


def resolve_parameters(graph: Graph, spec: BuildSpec) -> Tuple[float, float, float]:
    """Resolve a spec's ``None`` parameters to ``(eps, kappa, rho)`` defaults.

    ``eps = None`` means the historical default for the
    (product, method) pair: ``0.1`` for centralized emulators/hopsets,
    ``0.01`` for every spanner and for the fast/congest methods (whose
    schedules assume a small working epsilon).  ``kappa = None`` means the
    product default: ``4.0`` for emulators and spanners, the ultra-sparse
    ``omega(log n)`` choice of Corollary 2.15 for hopsets.
    """
    if spec.eps is not None:
        eps = spec.eps
    elif spec.product == "spanner" or spec.method != "centralized":
        eps = 0.01
    else:
        eps = 0.1
    if spec.kappa is not None:
        kappa = spec.kappa
    elif spec.product == "hopset":
        kappa = ultra_sparse_kappa(max(2, graph.num_vertices))
    else:
        kappa = _DEFAULT_KAPPA
    rho = spec.rho if spec.rho is not None else _DEFAULT_RHO
    return eps, kappa, rho


# ----------------------------------------------------------------------
# Emulators
# ----------------------------------------------------------------------
@register_builder("emulator", "centralized",
                  description="Algorithm 1 — sequential superclustering and interconnection")
def _emulator_centralized(graph: Graph, spec: BuildSpec) -> EmulatorResult:
    eps, kappa, _ = resolve_parameters(graph, spec)
    builder = UltraSparseEmulatorBuilder(graph, schedule=spec.schedule, eps=eps, kappa=kappa)
    return builder.build()


@register_builder("emulator", "fast",
                  description="Section 3.3 — ruling-set based centralized simulation")
def _emulator_fast(graph: Graph, spec: BuildSpec) -> EmulatorResult:
    eps, kappa, rho = resolve_parameters(graph, spec)
    builder = FastCentralizedBuilder(graph, schedule=spec.schedule, eps=eps, kappa=kappa, rho=rho)
    return builder.build()


@register_builder("emulator", "congest",
                  description="Section 3 — distributed construction on the CONGEST simulator")
def _emulator_congest(graph: Graph, spec: BuildSpec):
    eps, kappa, rho = resolve_parameters(graph, spec)
    builder = DistributedEmulatorBuilder(
        graph,
        schedule=spec.schedule,
        eps=eps,
        kappa=kappa,
        rho=rho,
        ruling_set_mode=spec.options.get("ruling_set_mode", "greedy"),
    )
    return builder.build()


# ----------------------------------------------------------------------
# Spanners
# ----------------------------------------------------------------------
@register_builder("spanner", "centralized",
                  description="Section 4 — near-additive subgraph spanner (centralized)")
def _spanner_centralized(graph: Graph, spec: BuildSpec) -> SpannerResult:
    eps, kappa, rho = resolve_parameters(graph, spec)
    builder = NearAdditiveSpannerBuilder(graph, schedule=spec.schedule, eps=eps, kappa=kappa,
                                         rho=rho)
    return builder.build()


@register_builder("spanner", "fast",
                  description="ruling-set based fast spanner — EM19-style shortest-path "
                              "realization of the Section 3.3 emulator")
def _spanner_fast(graph: Graph, spec: BuildSpec) -> SpannerResult:
    eps, kappa, rho = resolve_parameters(graph, spec)
    emulator = FastCentralizedBuilder(
        graph, schedule=spec.schedule, eps=eps, kappa=kappa, rho=rho
    ).build()
    return spanner_from_emulator(graph, emulator)


@register_builder("spanner", "congest",
                  description="Section 4 — near-additive spanner on the CONGEST simulator")
def _spanner_congest(graph: Graph, spec: BuildSpec):
    eps, kappa, rho = resolve_parameters(graph, spec)
    builder = DistributedSpannerBuilder(graph, schedule=spec.schedule, eps=eps, kappa=kappa,
                                        rho=rho)
    return builder.build()


# ----------------------------------------------------------------------
# Hopsets — the emulator edge set, by any emulator method ([EN20])
# ----------------------------------------------------------------------
def _emulator_result_for_hopset(graph: Graph, spec: BuildSpec):
    """Build the underlying emulator a hopset is derived from.

    Goes through the registry (rather than instantiating builders directly)
    so that a drop-in registered for ``("emulator", method)`` also serves
    the derived hopsets.  The hopset-specific kappa default (ultra-sparse)
    is resolved here before delegating.
    """
    eps, kappa, rho = resolve_parameters(graph, spec)
    emulator_spec = spec.replace(product="emulator", eps=eps, kappa=kappa, rho=rho)
    return get_builder("emulator", spec.method).fn(graph, emulator_spec)


def _hopset_from_emulator(emulator_result):
    from repro.hopsets.hopset import HopsetResult, _hopbound_estimate

    schedule = emulator_result.schedule
    return HopsetResult(
        hopset=emulator_result.emulator,
        alpha=getattr(emulator_result, "alpha", schedule.alpha),
        beta=getattr(emulator_result, "beta", schedule.beta),
        hopbound_estimate=_hopbound_estimate(schedule),
        emulator_result=emulator_result,
    )


@register_builder("hopset", "centralized",
                  description="near-exact hopset = Algorithm 1 emulator edge set")
def _hopset_centralized(graph: Graph, spec: BuildSpec):
    return _hopset_from_emulator(_emulator_result_for_hopset(graph, spec))


@register_builder("hopset", "fast",
                  description="near-exact hopset = Section 3.3 emulator edge set")
def _hopset_fast(graph: Graph, spec: BuildSpec):
    return _hopset_from_emulator(_emulator_result_for_hopset(graph, spec))


@register_builder("hopset", "congest",
                  description="near-exact hopset = CONGEST emulator edge set")
def _hopset_congest(graph: Graph, spec: BuildSpec):
    return _hopset_from_emulator(_emulator_result_for_hopset(graph, spec))
