"""Edge-charging ledger — the accounting behind the ``n^(1+1/kappa)`` bound.

The paper's main technical contribution is a charging argument: every edge
added to the emulator, in *any* phase, is charged to a single vertex, and no
vertex is overcharged.  Concretely (Section 2.2.1):

* **Interconnection edges** added when an *unpopular* center ``r_C`` is
  considered are charged to ``r_C``; since ``r_C`` is unpopular it is charged
  strictly fewer than ``deg_i`` edges in its phase.
* **Superclustering edges** are charged to the center of the cluster that
  *joined* a supercluster (one edge per joining cluster); the center the
  supercluster is built around is charged nothing.

Summing the per-phase bounds with ``deg_i = n^(2^i / kappa)`` telescopes to
exactly ``n^(1+1/kappa)``.  The ledger below records every charge so that
tests can verify the structural facts the proof relies on, not only the final
edge count.

The ledger exists only for that audit, so it is kept cheap to fill: it
stores plain ``(u, v, weight, charged_to, kind)`` rows, appended a phase at
a time (:meth:`ChargeLedger.record`) or one at a time
(:meth:`ChargeLedger.charge`).  Frozen :class:`EdgeCharge` records are built
only when a view reads them, and the ``verify_*`` checks walk the rows
directly.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

__all__ = ["EdgeKind", "EdgeCharge", "ChargeRow", "ChargeLedger"]


class EdgeKind(enum.Enum):
    """The two kinds of emulator edges distinguished by the charging argument."""

    INTERCONNECTION = "interconnection"
    SUPERCLUSTERING = "superclustering"


@dataclass(frozen=True)
class EdgeCharge:
    """A single charge: one emulator edge attributed to one vertex.

    Attributes
    ----------
    edge:
        The emulator edge ``(u, v)`` with ``u < v``.
    weight:
        The weight assigned to the edge (the graph distance between its
        endpoints).
    charged_to:
        The vertex that pays for this edge in the charging argument.
    phase:
        The phase in which the edge was added.
    kind:
        Interconnection or superclustering.
    """

    edge: Tuple[int, int]
    weight: float
    charged_to: int
    phase: int
    kind: EdgeKind


#: One ledger row as a builder inserts it: ``(u, v, weight, charged_to, kind)``.
ChargeRow = Tuple[int, int, float, int, EdgeKind]


class ChargeLedger:
    """Records every emulator edge together with the vertex it is charged to.

    The ledger stores the builders' plain ``(u, v, weight, charged_to,
    kind)`` rows in per-phase segments; :class:`EdgeCharge` records are
    built only when a view (:attr:`charges`, :meth:`charges_by_vertex`,
    :meth:`charges_by_phase`) is read.
    """

    def __init__(self) -> None:
        # (phase, rows) segments in insertion order; consecutive rows of
        # one phase share a segment.
        self._segments: List[Tuple[int, List[ChargeRow]]] = []

    def record(self, phase: int, rows: Iterable[ChargeRow]) -> None:
        """Record a batch of charges made in ``phase``, in order (the rows are copied)."""
        if self._segments and self._segments[-1][0] == phase:
            self._segments[-1][1].extend(rows)
        else:
            self._segments.append((phase, list(rows)))

    def charge(
        self, u: int, v: int, weight: float, charged_to: int, phase: int, kind: EdgeKind
    ) -> EdgeCharge:
        """Record a charge for emulator edge ``(u, v)`` and return it."""
        self.record(phase, ((u, v, weight, charged_to, kind),))
        return _record(phase, u, v, weight, charged_to, kind)

    def _rows(self) -> Iterator[Tuple[int, int, int, float, int, EdgeKind]]:
        """Every row as ``(phase, u, v, weight, charged_to, kind)``, in order."""
        for phase, rows in self._segments:
            for row in rows:
                yield (phase,) + row

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def charges(self) -> List[EdgeCharge]:
        """All recorded charges, in insertion order."""
        return [_record(*row) for row in self._rows()]

    @property
    def num_charges(self) -> int:
        """Total number of charges recorded (one per emulator-edge insertion)."""
        return sum(len(rows) for _, rows in self._segments)

    def charges_by_vertex(self) -> Dict[int, List[EdgeCharge]]:
        """Map ``vertex -> list of charges`` attributed to that vertex."""
        by_vertex: Dict[int, List[EdgeCharge]] = defaultdict(list)
        for charge in self.charges:
            by_vertex[charge.charged_to].append(charge)
        return dict(by_vertex)

    def charges_by_phase(self) -> Dict[int, List[EdgeCharge]]:
        """Map ``phase -> list of charges`` made during that phase."""
        by_phase: Dict[int, List[EdgeCharge]] = defaultdict(list)
        for charge in self.charges:
            by_phase[charge.phase].append(charge)
        return dict(by_phase)

    def edges_per_phase(self) -> Dict[int, int]:
        """Number of edges charged in each phase."""
        counts: Dict[int, int] = defaultdict(int)
        for phase, rows in self._segments:
            if rows:
                counts[phase] += len(rows)
        return dict(counts)

    def interconnection_count(self) -> int:
        """Total number of interconnection edges."""
        return sum(1 for row in self._rows() if row[5] is EdgeKind.INTERCONNECTION)

    def superclustering_count(self) -> int:
        """Total number of superclustering edges."""
        return sum(1 for row in self._rows() if row[5] is EdgeKind.SUPERCLUSTERING)

    # ------------------------------------------------------------------
    # Invariant checks (used by tests)
    # ------------------------------------------------------------------
    def verify_interconnection_budget(self, degree_by_phase: Dict[int, float]) -> None:
        """Check that each vertex's interconnection charges stay below ``deg_i``.

        A vertex charged with interconnection edges in phase ``i`` is the
        center of an *unpopular* cluster, so it is charged strictly fewer
        than ``deg_i`` such edges (Section 2.2.1).
        """
        per_vertex_phase: Dict[Tuple[int, int], int] = defaultdict(int)
        for phase, _, _, _, charged_to, kind in self._rows():
            if kind is EdgeKind.INTERCONNECTION:
                per_vertex_phase[(charged_to, phase)] += 1
        for (vertex, phase), count in per_vertex_phase.items():
            budget = degree_by_phase[phase]
            if count >= budget and count > 0:
                raise AssertionError(
                    f"vertex {vertex} charged {count} interconnection edges in phase "
                    f"{phase}, which is not below deg_{phase} = {budget}"
                )

    def verify_superclustering_budget(self) -> None:
        """Check that each vertex is charged at most one superclustering edge per phase."""
        per_vertex_phase: Dict[Tuple[int, int], int] = defaultdict(int)
        for phase, _, _, _, charged_to, kind in self._rows():
            if kind is EdgeKind.SUPERCLUSTERING:
                per_vertex_phase[(charged_to, phase)] += 1
        for (vertex, phase), count in per_vertex_phase.items():
            if count > 1:
                raise AssertionError(
                    f"vertex {vertex} charged {count} superclustering edges in phase {phase}"
                )

    def verify_single_charging_phase(self) -> None:
        """Check that interconnection charges of a vertex all fall in one phase.

        A cluster center joins ``U_i`` in exactly one phase, after which it is
        never a cluster center again, so all of its interconnection charges
        belong to a single phase.
        """
        phases_by_vertex: Dict[int, set] = defaultdict(set)
        for phase, _, _, _, charged_to, kind in self._rows():
            if kind is EdgeKind.INTERCONNECTION:
                phases_by_vertex[charged_to].add(phase)
        for vertex, phases in phases_by_vertex.items():
            if len(phases) > 1:
                raise AssertionError(
                    f"vertex {vertex} charged interconnection edges in phases {sorted(phases)}"
                )

    def __len__(self) -> int:
        return self.num_charges

    def __repr__(self) -> str:
        return (
            f"ChargeLedger(total={self.num_charges}, "
            f"interconnection={self.interconnection_count()}, "
            f"superclustering={self.superclustering_count()})"
        )


def _record(
    phase: int, u: int, v: int, weight: float, charged_to: int, kind: EdgeKind
) -> EdgeCharge:
    """The :class:`EdgeCharge` view of one ledger row."""
    edge = (u, v) if u < v else (v, u)
    return EdgeCharge(edge=edge, weight=weight, charged_to=charged_to, phase=phase, kind=kind)
