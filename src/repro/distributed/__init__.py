"""Distributed CONGEST-model constructions (Sections 3 and 4 of the paper).

* :class:`repro.distributed.emulator_congest.DistributedEmulatorBuilder` —
  the deterministic CONGEST construction of ultra-sparse near-additive
  emulators, including the hub-splitting superclustering scheme of Task 3.
* :class:`repro.distributed.spanner_congest.DistributedSpannerBuilder` —
  the Section 4 near-additive spanner construction.

Both run against :class:`repro.congest.network.SynchronousNetwork` and
report CONGEST rounds and message counts.
"""

from repro.distributed.emulator_congest import (
    DistributedEmulatorBuilder,
    DistributedEmulatorResult,
)
from repro.distributed.spanner_congest import (
    DistributedSpannerBuilder,
    DistributedSpannerResult,
)

__all__ = [
    "DistributedEmulatorBuilder",
    "DistributedEmulatorResult",
    "DistributedSpannerBuilder",
    "DistributedSpannerResult",
]
