"""Hopsets derived from near-additive emulators.

The paper's introduction highlights the tight connection between
near-additive emulators and *hopsets* discovered in [EN16a, EN17a, HP17]:
the edge set of a near-additive emulator, when added to the graph, lets
hop-limited shortest-path computations (the workhorse of parallel,
distributed and dynamic SSSP algorithms) reach near-exact distances using
only a small number of hops.

This package provides:

* :mod:`repro.hopsets.bounded_hop` — hop-limited distance computations on
  weighted graphs (the ``d^{(t)}`` semantics hopsets are defined with) and
  the graph ∪ hopset union helper.
* :mod:`repro.hopsets.hopset` — the hopset result object, verification, and
  measurement of the effective hopbound.  Hopsets are built through
  ``repro.build(graph, BuildSpec(product="hopset", method=...))``.
"""

from repro.hopsets.bounded_hop import (
    hop_limited_distances,
    hop_limited_distance,
    union_with_graph,
)
from repro.hopsets.hopset import (
    HopsetResult,
    measured_hopbound,
    verify_hopset,
)

__all__ = [
    "hop_limited_distances",
    "hop_limited_distance",
    "union_with_graph",
    "HopsetResult",
    "measured_hopbound",
    "verify_hopset",
]
