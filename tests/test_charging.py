"""Unit tests for the edge-charging ledger."""

from __future__ import annotations

import pickle

import pytest

from repro.core.charging import ChargeLedger, EdgeColumns, EdgeKind


def _columns(rows):
    """``(u, v, weight, charged_to, kind)`` rows as one phase's columns."""
    edges = EdgeColumns()
    for row in rows:
        edges.append(*row)
    return edges


class TestChargeRecording:
    def test_charge_normalizes_edge_order(self):
        ledger = ChargeLedger()
        record = ledger.charge(5, 2, 3.0, charged_to=2, phase=0, kind=EdgeKind.INTERCONNECTION)
        assert record.edge == (2, 5)
        assert record.weight == 3.0

    def test_counts(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=0, phase=0, kind=EdgeKind.INTERCONNECTION)
        ledger.charge(1, 2, 1.0, charged_to=2, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        ledger.charge(2, 3, 1.0, charged_to=3, phase=1, kind=EdgeKind.SUPERCLUSTERING)
        assert ledger.num_charges == 3
        assert len(ledger) == 3
        assert ledger.interconnection_count() == 1
        assert ledger.superclustering_count() == 2

    def test_charges_by_vertex(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=0, phase=0, kind=EdgeKind.INTERCONNECTION)
        ledger.charge(0, 2, 1.0, charged_to=0, phase=0, kind=EdgeKind.INTERCONNECTION)
        by_vertex = ledger.charges_by_vertex()
        assert len(by_vertex[0]) == 2

    def test_charges_by_phase_and_edges_per_phase(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=0, phase=0, kind=EdgeKind.INTERCONNECTION)
        ledger.charge(1, 2, 1.0, charged_to=1, phase=2, kind=EdgeKind.INTERCONNECTION)
        assert set(ledger.charges_by_phase()) == {0, 2}
        assert ledger.edges_per_phase() == {0: 1, 2: 1}

    def test_repr(self):
        ledger = ChargeLedger()
        assert "total=0" in repr(ledger)


class TestRowRecording:
    ROWS = [
        (3, 1, 1.0, 3, EdgeKind.INTERCONNECTION),
        (3, 4, 2.0, 3, EdgeKind.INTERCONNECTION),
        (5, 6, 1.0, 6, EdgeKind.SUPERCLUSTERING),
    ]

    def _per_edge(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=1, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        for u, v, w, charged_to, kind in self.ROWS:
            ledger.charge(u, v, w, charged_to=charged_to, phase=0, kind=kind)
        ledger.charge(2, 0, 1.0, charged_to=2, phase=1, kind=EdgeKind.INTERCONNECTION)
        return ledger

    def _mixed(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=1, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        ledger.record(0, _columns(self.ROWS))
        ledger.record(1, EdgeColumns())
        ledger.charge(2, 0, 1.0, charged_to=2, phase=1, kind=EdgeKind.INTERCONNECTION)
        return ledger

    def test_mixed_calls_keep_insertion_order(self):
        charges = self._mixed().charges
        assert [c.edge for c in charges] == [(0, 1), (1, 3), (3, 4), (5, 6), (0, 2)]
        assert [c.phase for c in charges] == [0, 0, 0, 0, 1]

    def test_views_equal_the_per_edge_path(self):
        mixed, single = self._mixed(), self._per_edge()
        assert mixed.charges == single.charges
        assert mixed.charges_by_vertex() == single.charges_by_vertex()
        assert mixed.charges_by_phase() == single.charges_by_phase()
        assert mixed.edges_per_phase() == single.edges_per_phase() == {0: 4, 1: 1}
        assert mixed.num_charges == len(mixed) == 5
        assert mixed.interconnection_count() == single.interconnection_count() == 3
        assert mixed.superclustering_count() == single.superclustering_count() == 2
        assert repr(mixed) == repr(single)

    def test_record_copies_the_callers_rows(self):
        edges = _columns(self.ROWS)
        ledger = ChargeLedger()
        ledger.record(0, edges)
        ledger.charge(7, 8, 1.0, charged_to=7, phase=0, kind=EdgeKind.INTERCONNECTION)
        assert list(edges.rows()) == self.ROWS
        assert ledger.num_charges == 4

    def test_checks_fail_on_recorded_violations(self):
        ledger = ChargeLedger()
        ledger.record(0, _columns([(0, v, 1.0, 0, EdgeKind.INTERCONNECTION) for v in (1, 2, 3)]))
        with pytest.raises(AssertionError, match="vertex 0 charged 3 interconnection"):
            ledger.verify_interconnection_budget({0: 3.0})
        ledger.record(1, _columns([(0, 4, 1.0, 0, EdgeKind.INTERCONNECTION)]))
        with pytest.raises(AssertionError, match=r"phases \[0, 1\]"):
            ledger.verify_single_charging_phase()
        ledger.record(1, _columns([(5, 6, 1.0, 6, EdgeKind.SUPERCLUSTERING),
                                   (7, 6, 1.0, 6, EdgeKind.SUPERCLUSTERING)]))
        with pytest.raises(AssertionError, match="vertex 6 charged 2 superclustering"):
            ledger.verify_superclustering_budget()


class TestInvariantChecks:
    def test_interconnection_budget_ok(self):
        ledger = ChargeLedger()
        for v in (1, 2):
            ledger.charge(0, v, 1.0, charged_to=0, phase=0, kind=EdgeKind.INTERCONNECTION)
        ledger.verify_interconnection_budget({0: 3.0})

    def test_interconnection_budget_violation(self):
        ledger = ChargeLedger()
        for v in (1, 2, 3):
            ledger.charge(0, v, 1.0, charged_to=0, phase=0, kind=EdgeKind.INTERCONNECTION)
        with pytest.raises(AssertionError):
            ledger.verify_interconnection_budget({0: 3.0})

    def test_superclustering_budget_ok(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=1, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        ledger.charge(0, 2, 1.0, charged_to=2, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        ledger.verify_superclustering_budget()

    def test_superclustering_budget_violation(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=1, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        ledger.charge(2, 1, 1.0, charged_to=1, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        with pytest.raises(AssertionError):
            ledger.verify_superclustering_budget()

    def test_single_charging_phase_ok(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=0, phase=1, kind=EdgeKind.INTERCONNECTION)
        ledger.charge(0, 2, 1.0, charged_to=0, phase=1, kind=EdgeKind.INTERCONNECTION)
        ledger.verify_single_charging_phase()

    def test_single_charging_phase_violation(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=0, phase=0, kind=EdgeKind.INTERCONNECTION)
        ledger.charge(0, 2, 1.0, charged_to=0, phase=1, kind=EdgeKind.INTERCONNECTION)
        with pytest.raises(AssertionError):
            ledger.verify_single_charging_phase()

    def test_superclustering_charges_do_not_affect_phase_check(self):
        ledger = ChargeLedger()
        ledger.charge(0, 1, 1.0, charged_to=0, phase=0, kind=EdgeKind.SUPERCLUSTERING)
        ledger.charge(0, 2, 1.0, charged_to=0, phase=1, kind=EdgeKind.INTERCONNECTION)
        ledger.verify_single_charging_phase()


class TestEdgeColumns:
    def test_interconnection_and_superclustering_charges(self):
        edges = EdgeColumns()
        edges.interconnect(4, [1, 7], [1.0, 2.0])
        edges.supercluster([3, 3, 9], [5, 6, 2], [1.0, 1.0, 3.0])
        assert list(edges.rows()) == [
            (4, 1, 1.0, 4, EdgeKind.INTERCONNECTION),
            (4, 7, 2.0, 4, EdgeKind.INTERCONNECTION),
            (3, 5, 1.0, 5, EdgeKind.SUPERCLUSTERING),
            (3, 6, 1.0, 6, EdgeKind.SUPERCLUSTERING),
            (9, 2, 3.0, 2, EdgeKind.SUPERCLUSTERING),
        ]
        assert len(edges) == 5

    def test_ledger_pickles_its_columns(self):
        ledger = TestRowRecording()._mixed()
        restored = pickle.loads(pickle.dumps(ledger))
        assert restored.charges == ledger.charges
        assert repr(restored) == repr(ledger)

    def test_row_segment_state_loads(self):
        # Ledgers pickled as lists of row tuples per phase segment.
        ledger = ChargeLedger.__new__(ChargeLedger)
        ledger.__setstate__({"_segments": [(0, list(TestRowRecording.ROWS)), (1, [])]})
        expected = ChargeLedger()
        expected.record(0, _columns(TestRowRecording.ROWS))
        assert ledger.charges == expected.charges
        assert ledger.edges_per_phase() == {0: 3}
        ledger.verify_superclustering_budget()
