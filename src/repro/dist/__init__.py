"""Fault-tolerant distributed sweep execution (coordinator / workers).

This package scales :func:`repro.api.executor.execute_sweep` past one
machine with a lease-based work queue over a tiny HTTP protocol, using
the content-addressed :class:`~repro.api.cache.ResultCache` as the
result transport — the ROADMAP's "remote executor backend behind the
same ``execute_sweep`` signature".

Not to be confused with :mod:`repro.distributed`, which simulates the
paper's CONGEST model *inside one build*; this package distributes
*many builds* across worker processes and machines.

Entry points:

* ``execute_sweep(..., workers="dist")`` / ``run_sweep(..., dist=...)``
  — embed a coordinator in the calling process and run local workers
  (worker processes stay warm across the sweeps of that process);
* ``repro dist-coordinator`` / ``repro dist-worker`` — the standalone
  CLI halves for multi-machine runs over a shared cache directory;
* :class:`DistCoordinator` / :class:`DistWorker` — the programmatic
  building blocks (chaos tests and experiment E19 drive these
  directly).

See README.md ("Distributed sweeps") for topology and the failure
matrix, and CONTRIBUTING.md for the wire protocol.
"""

from repro.dist.coordinator import DistCoordinator
from repro.dist.executor import DistConfig, parse_dist_workers, run_distributed
from repro.dist.journal import SweepJournal
from repro.dist.protocol import (
    canonical_record,
    parse_bind,
    spec_from_wire,
    spec_to_wire,
)
from repro.dist.worker import DistWorker

__all__ = [
    "DistConfig",
    "DistCoordinator",
    "DistWorker",
    "SweepJournal",
    "canonical_record",
    "parse_bind",
    "parse_dist_workers",
    "run_distributed",
    "spec_from_wire",
    "spec_to_wire",
]
