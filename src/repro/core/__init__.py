"""Core of the reproduction: the paper's ultra-sparse near-additive emulators.

Public entry points:

* :class:`repro.core.emulator.UltraSparseEmulatorBuilder` — Algorithm 1 of
  the paper, the centralized construction of a ``(1 + eps, beta)``-emulator
  with at most ``n^(1 + 1/kappa)`` edges.
* :class:`repro.core.parameters.CentralizedSchedule`,
  :class:`repro.core.parameters.DistributedSchedule`,
  :class:`repro.core.parameters.SpannerSchedule` — the parameter sequences
  (``deg_i``, ``delta_i``, ``R_i``, ``ell``) and the stretch bounds
  (``alpha``, ``beta``) for each construction.
* :class:`repro.core.fast_centralized.FastCentralizedBuilder` — the
  Section 3.3 construction (ruling-set superclustering, ``O(|E| beta n^rho)``
  time flavour).
* :class:`repro.core.spanner.NearAdditiveSpannerBuilder` — the Section 4
  subgraph (spanner) variant.

Callers reach every construction through :func:`repro.build` with a
:class:`repro.BuildSpec`; the builders here are what it dispatches to.
"""

from repro.core.parameters import (
    CentralizedSchedule,
    DistributedSchedule,
    SpannerSchedule,
    size_bound,
)
from repro.core.clusters import Cluster, Partition
from repro.core.charging import ChargeLedger, EdgeCharge, EdgeKind
from repro.core.emulator import EmulatorResult, UltraSparseEmulatorBuilder
from repro.core.fast_centralized import FastCentralizedBuilder
from repro.core.spanner import SpannerResult

__all__ = [
    "CentralizedSchedule",
    "DistributedSchedule",
    "SpannerSchedule",
    "size_bound",
    "Cluster",
    "Partition",
    "ChargeLedger",
    "EdgeCharge",
    "EdgeKind",
    "EmulatorResult",
    "UltraSparseEmulatorBuilder",
    "FastCentralizedBuilder",
    "SpannerResult",
]
