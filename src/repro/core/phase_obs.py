"""Span annotation shared by the phase-structured builders.

The three builders (centralized emulator, fast emulator, spanner) all
run the superclustering-and-interconnection loop of Algorithm 1; their
``build`` loops wrap each ``_run_phase`` call in a ``repro.obs`` span,
and :func:`annotate_phase_span` copies the phase's outcome — the
:class:`~repro.core.emulator.PhaseStats` counters and
``centers_explored`` (the centers whose ``delta_i`` ball the phase read)
— onto that span once the phase is done.

Only counts land on spans, never timings or timestamps: traces of the
same seeded build must be identical up to clock values (the trace
determinism test relies on it).
"""

from __future__ import annotations

from typing import Any

from repro.obs import current_span

__all__ = ["annotate_phase_span"]


def annotate_phase_span(stats: Any, *, centers_explored: int) -> None:
    """Copy the finished phase's counters onto the enclosing span.

    ``stats`` is the phase's :class:`~repro.core.emulator.PhaseStats`.  A
    no-op when telemetry is disabled or no span is open.
    """
    record = current_span()
    if record is None:
        return
    record.set(
        clusters=stats.num_clusters,
        popular_centers=stats.popular_centers,
        unpopular_centers=stats.unpopular_centers,
        superclusters=stats.superclusters_formed,
        buffered_centers=stats.buffered_centers,
        interconnection_edges=stats.interconnection_edges,
        superclustering_edges=stats.superclustering_edges,
        centers_explored=centers_explored,
    )

