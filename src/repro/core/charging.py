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

The ledger exists only for that audit, so it is kept cheap to fill: a
builder appends each phase's edges to one :class:`EdgeColumns` (flat
``array`` columns ``u``, ``v``, ``weight``, ``charged_to`` and a kind
byte) and hands it over in one :meth:`ChargeLedger.record` call, and the
per-edge path (:meth:`ChargeLedger.charge`) appends one entry.  Tuples and
frozen :class:`EdgeCharge` records are built only when a view reads them;
the ``verify_*`` checks and the counts read the columns directly.
"""

from __future__ import annotations

import enum
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

__all__ = ["EdgeKind", "EdgeCharge", "EdgeColumns", "ChargeLedger"]


class EdgeKind(enum.Enum):
    """The two kinds of emulator edges distinguished by the charging argument."""

    INTERCONNECTION = "interconnection"
    SUPERCLUSTERING = "superclustering"


#: Each kind's byte in :attr:`EdgeColumns.kind` indexes this tuple.
_KINDS: Tuple[EdgeKind, ...] = (EdgeKind.INTERCONNECTION, EdgeKind.SUPERCLUSTERING)
_INTERCONNECTION, _SUPERCLUSTERING = 0, 1


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


class EdgeColumns:
    """Emulator edges as flat columns, in the order a builder adds them.

    Entry ``i`` is the edge ``(u[i], v[i])`` of weight ``weight[i]``,
    charged to ``charged_to[i]``, of the kind whose byte is ``kind[i]``.
    ``(u, v, weight)`` is also the input of
    :meth:`repro.graphs.weighted_graph.WeightedGraph.add_edges`.
    """

    __slots__ = ("u", "v", "weight", "charged_to", "kind")

    def __init__(self) -> None:
        self.u = array("l")
        self.v = array("l")
        self.weight = array("d")
        self.charged_to = array("l")
        self.kind = bytearray()

    def append(self, u: int, v: int, weight: float, charged_to: int, kind: EdgeKind) -> None:
        """Append one edge (the per-edge path of :meth:`ChargeLedger.charge`).

        The builders append a phase in bulk through :meth:`interconnect`
        and :meth:`supercluster`.
        """
        self.u.append(u)
        self.v.append(v)
        self.weight.append(weight)
        self.charged_to.append(charged_to)
        self.kind.append(_INTERCONNECTION if kind is EdgeKind.INTERCONNECTION
                         else _SUPERCLUSTERING)

    def interconnect(self, center: int, others: List[int], weights: List[float]) -> None:
        """Append the interconnection edges ``(center, others[i])``.

        Each is charged to ``center``, the unpopular center that adds them.
        """
        count = len(others)
        centers = [center] * count
        self.u.fromlist(centers)
        self.v.fromlist(others)
        self.weight.fromlist(weights)
        self.charged_to.fromlist(centers)
        self.kind.extend(bytes((_INTERCONNECTION,)) * count)

    def supercluster(self, hosts: List[int], members: List[int], weights: List[float]) -> None:
        """Append the superclustering edges ``(hosts[i], members[i])``.

        Each is charged to ``members[i]``, the center whose cluster joins
        the supercluster built around ``hosts[i]``.
        """
        self.u.fromlist(hosts)
        self.v.fromlist(members)
        self.weight.fromlist(weights)
        self.charged_to.fromlist(members)
        self.kind.extend(bytes((_SUPERCLUSTERING,)) * len(members))

    def extend(self, other: "EdgeColumns") -> None:
        """Append every edge of ``other``, in order."""
        for name in self.__slots__:
            getattr(self, name).extend(getattr(other, name))

    def rows(self) -> Iterator[Tuple[int, int, float, int, EdgeKind]]:
        """Every edge as a ``(u, v, weight, charged_to, kind)`` tuple, in order."""
        kinds = map(_KINDS.__getitem__, self.kind)
        return zip(self.u, self.v, self.weight, self.charged_to, kinds)

    def __len__(self) -> int:
        return len(self.u)


class ChargeLedger:
    """Records every emulator edge together with the vertex it is charged to.

    The ledger keeps one :class:`EdgeColumns` per phase segment;
    :class:`EdgeCharge` records are built only when a view
    (:attr:`charges`, :meth:`charges_by_vertex`, :meth:`charges_by_phase`)
    is read.
    """

    def __init__(self) -> None:
        # (phase, columns) segments in insertion order; consecutive charges
        # of one phase share a segment.
        self._segments: List[Tuple[int, EdgeColumns]] = []

    def _segment(self, phase: int) -> EdgeColumns:
        """The columns that charges of ``phase`` are appended to next."""
        if not self._segments or self._segments[-1][0] != phase:
            self._segments.append((phase, EdgeColumns()))
        return self._segments[-1][1]

    def record(self, phase: int, edges: EdgeColumns) -> None:
        """Record a batch of charges made in ``phase``, in order (the columns are copied)."""
        self._segment(phase).extend(edges)

    def charge(
        self, u: int, v: int, weight: float, charged_to: int, phase: int, kind: EdgeKind
    ) -> EdgeCharge:
        """Record a charge for emulator edge ``(u, v)`` and return it."""
        self._segment(phase).append(u, v, weight, charged_to, kind)
        return _record(phase, u, v, weight, charged_to, kind)

    def _rows(self) -> Iterator[Tuple[int, int, int, float, int, EdgeKind]]:
        """Every charge as ``(phase, u, v, weight, charged_to, kind)``, in order."""
        for phase, edges in self._segments:
            for row in edges.rows():
                yield (phase,) + row

    def _charged(self, code: int) -> Iterator[Tuple[int, int]]:
        """``(charged_to, phase)`` of every charge whose kind byte is ``code``, in order."""
        for phase, edges in self._segments:
            for charged_to, byte in zip(edges.charged_to, edges.kind):
                if byte == code:
                    yield charged_to, phase

    def __setstate__(self, state) -> None:
        # Ledgers pickled before the columns kept their segments as lists
        # of ``(u, v, weight, charged_to, kind)`` tuples.
        self._segments = []
        for phase, edges in state["_segments"]:
            if isinstance(edges, list):
                rows, edges = edges, EdgeColumns()
                for row in rows:
                    edges.append(*row)
            self._segments.append((phase, edges))

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
        return sum(len(edges) for _, edges in self._segments)

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
        for phase, edges in self._segments:
            if edges:
                counts[phase] += len(edges)
        return dict(counts)

    def interconnection_count(self) -> int:
        """Total number of interconnection edges."""
        return sum(edges.kind.count(_INTERCONNECTION) for _, edges in self._segments)

    def superclustering_count(self) -> int:
        """Total number of superclustering edges."""
        return sum(edges.kind.count(_SUPERCLUSTERING) for _, edges in self._segments)

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
        for key in self._charged(_INTERCONNECTION):
            per_vertex_phase[key] += 1
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
        for key in self._charged(_SUPERCLUSTERING):
            per_vertex_phase[key] += 1
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
        for charged_to, phase in self._charged(_INTERCONNECTION):
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
