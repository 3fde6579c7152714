"""Tests for ``repro.obs``: metrics, spans, exporters, and the threading.

Covers the observability acceptance surface: trace-export determinism
(same seeded build -> same span names/attrs/tree shape), Prometheus
text-exposition conformance, disabled-mode no-ops, worker-span merge
parity (a parallel sweep's span multiset equals a serial sweep's), the
daemon's ``GET /metrics``, and the shared latency-percentile math.
"""

from __future__ import annotations

import json
import re
import urllib.request

import pytest

from repro import obs
from repro.api import BuildSpec, GridSweep, build, run_sweep
from repro.experiments.workloads import workload_by_name
from repro.obs import (
    LATENCY_BUCKETS_MS,
    Histogram,
    latency_summary,
    nearest_rank_percentile,
)
from repro.serve.daemon import OracleDaemon
from repro.serve.spec import ServeSpec


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts from an empty, enabled registry and restores after."""
    previous = obs.set_enabled(True)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(previous)


def _graph(n=64, seed=0):
    return workload_by_name("erdos-renyi", n, seed=seed).graph


def _span_shape(records):
    """The determinism-relevant view of a span buffer: names, attrs, tree.

    Parent links are translated to parent *names* (ids are allocation
    order, which replays identically anyway, but names make failures
    readable); timestamps and durations are deliberately excluded.
    """
    by_id = {record.span_id: record for record in records}
    shape = []
    for record in records:
        parent = by_id.get(record.parent_id)
        shape.append((record.name, dict(record.attrs),
                      parent.name if parent else None))
    return shape


# ----------------------------------------------------------------------
# Percentiles (the deduplicated serving-layer math)
# ----------------------------------------------------------------------
def test_nearest_rank_percentile_matches_convention():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert nearest_rank_percentile(values, 0.50) == 5.0
    assert nearest_rank_percentile(values, 0.95) == 10.0
    assert nearest_rank_percentile(values, 1.0) == 10.0
    assert nearest_rank_percentile([], 0.5) == 0.0
    with pytest.raises(ValueError):
        nearest_rank_percentile(values, 0.0)


def test_latency_summary_sorts_and_reduces():
    summary = latency_summary([3.0, 1.0, 2.0])
    assert summary.count == 3
    assert summary.mean == pytest.approx(2.0)
    assert summary.p50 == 2.0
    assert summary.p99 == 3.0
    empty = latency_summary([])
    assert (empty.count, empty.mean, empty.p50, empty.p95, empty.p99) == (0, 0.0, 0.0, 0.0, 0.0)


def test_harness_reexports_percentile():
    from repro.serve.harness import nearest_rank_percentile as reexported

    assert reexported is nearest_rank_percentile


# ----------------------------------------------------------------------
# Histogram (the daemon's /stats snapshot format, preserved)
# ----------------------------------------------------------------------
def test_histogram_snapshot_format():
    histogram = Histogram(LATENCY_BUCKETS_MS)
    histogram.observe(0.2)
    histogram.observe(3.0)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 2
    assert snapshot["total_ms"] == pytest.approx(3.2)
    assert snapshot["mean_ms"] == pytest.approx(1.6)
    assert len(snapshot["buckets"]) == len(LATENCY_BUCKETS_MS)
    assert snapshot["buckets"][-1]["le_ms"] == "inf"
    counted = {entry["le_ms"]: entry["count"] for entry in snapshot["buckets"]}
    assert counted[0.25] == 1  # 0.2 lands in (0.1, 0.25]
    assert counted[5.0] == 1  # 3.0 lands in (2.5, 5.0]
    assert json.loads(json.dumps(snapshot)) == snapshot  # JSON-round-trippable


# ----------------------------------------------------------------------
# Trace determinism
# ----------------------------------------------------------------------
def test_build_trace_is_deterministic():
    spec = BuildSpec(product="emulator", method="centralized", eps=0.1, kappa=4.0)
    shapes = []
    for _ in range(2):
        obs.reset()
        build(_graph(), spec)
        shapes.append(_span_shape(obs.snapshot_spans()))
    assert shapes[0] == shapes[1]
    names = [name for name, _, _ in shapes[0]]
    assert "build" in names
    # One span per superclustering phase, parented under the build span.
    phase_rows = [row for row in shapes[0] if row[0] == "emulator.phase"]
    assert phase_rows
    assert all(parent == "build" for _, _, parent in phase_rows)
    assert [attrs["phase"] for _, attrs, _ in phase_rows] == list(range(len(phase_rows)))
    # Phase spans carry the per-phase counters, never timing values.
    for _, attrs, _ in phase_rows:
        assert "clusters" in attrs
        assert not any("seconds" in key or "elapsed" in key for key in attrs)


def test_export_trace_loads_and_summarizes(tmp_path):
    build(_graph(), BuildSpec(product="spanner", method="centralized"))
    path = tmp_path / "trace.json"
    count = obs.export_trace(str(path))
    assert count == len(obs.snapshot_spans()) > 0
    events = obs.load_trace(str(path))
    assert len(events) == count
    assert all(event["ph"] == "X" and event["cat"] == "repro" for event in events)
    # Loadable-in-Perfetto shape: the file is an object with traceEvents.
    payload = json.loads(path.read_text())
    assert isinstance(payload["traceEvents"], list)
    rows = obs.summarize_trace(events)
    assert any(row["span"].startswith("spanner.phase[phase=") for row in rows)
    table = obs.format_trace_summary(rows)
    assert "span" in table and "total_ms" in table


# ----------------------------------------------------------------------
# Prometheus exposition conformance
# ----------------------------------------------------------------------
#: One sample line: name, optional {labels}, space, value.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*\})?"
    r" (\+Inf|-Inf|NaN|-?[0-9.eE+-]+)$"
)


def test_prometheus_text_conformance():
    obs.inc("repro_test_things_total", help="things")
    obs.inc("repro_test_things_total", 2, kind='we"ird\\label')
    obs.set_gauge("repro_test_level", 0.5)
    obs.observe("repro_test_latency_ms", 1.0)
    text = obs.prometheus_text()
    assert text.endswith("\n")
    for line in text.splitlines():
        if not line or line.startswith("#"):
            assert not line or re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*", line)
            continue
        assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"
    assert 'kind="we\\"ird\\\\label"' in text
    # Histogram exposition: cumulative buckets ending at +Inf, plus sum/count.
    assert 'repro_test_latency_ms_bucket{le="+Inf"} 1' in text
    assert "repro_test_latency_ms_sum 1" in text
    assert "repro_test_latency_ms_count 1" in text


def test_counters_and_gauges_readback():
    obs.inc("repro_test_total", product="emulator")
    obs.inc("repro_test_total", 2, product="emulator")
    obs.set_gauge("repro_test_gauge", 7.0)
    assert obs.get_metric("repro_test_total", product="emulator") == 3
    assert obs.get_metric("repro_test_gauge") == 7.0
    snapshot = obs.metrics_snapshot()
    assert "repro_test_total" in snapshot


# ----------------------------------------------------------------------
# Disabled mode
# ----------------------------------------------------------------------
def test_disabled_mode_records_nothing():
    obs.set_enabled(False)
    obs.inc("repro_test_total")
    obs.set_gauge("repro_test_gauge", 1.0)
    obs.observe("repro_test_hist", 1.0)
    with obs.span("outer", a=1) as record:
        record.set(b=2)
        assert obs.current_span() is None
    build(_graph(48), BuildSpec(product="emulator", method="centralized"))
    assert obs.snapshot_spans() == []
    assert obs.metrics_snapshot() == {}
    assert obs.prometheus_text() == ""
    assert obs.get_metric("repro_test_total") is None


def test_disabled_histogram_instance_still_works():
    # The daemon's /stats histogram must keep working with telemetry off.
    obs.set_enabled(False)
    histogram = Histogram(LATENCY_BUCKETS_MS)
    obs.register_histogram("repro_test_latency_ms", histogram)
    histogram.observe(1.0)
    assert histogram.snapshot()["count"] == 1
    assert obs.prometheus_text() == ""


def test_env_flag_parsing(monkeypatch):
    from repro.obs.telemetry import _env_enabled

    for value in ("0", "false", "no", "off", "FALSE"):
        monkeypatch.setenv("REPRO_OBS", value)
        assert _env_enabled() is False
    for value in ("1", "true", ""):
        monkeypatch.setenv("REPRO_OBS", value)
        assert _env_enabled() is True
    monkeypatch.delenv("REPRO_OBS")
    assert _env_enabled() is True


# ----------------------------------------------------------------------
# Worker-span merge parity
# ----------------------------------------------------------------------
def _sweep_span_multiset(workers):
    obs.reset()
    graph = _graph(40)
    sweep = GridSweep(products=("emulator",), methods=("centralized", "fast"),
                      eps_values=(0.1,), kappas=(4.0,), rhos=(0.45,))
    # No result cache: hits skip whole builds, so parity is only
    # well-defined without it.
    records = run_sweep({"g": graph}, sweep, workers=workers, cache=None)
    assert len(records) == 2
    spans = sorted(
        (record.name, tuple(sorted(record.attrs.items())))
        for record in obs.snapshot_spans()
    )
    return spans


def test_worker_span_merge_parity():
    serial = _sweep_span_multiset(workers=1)
    parallel = _sweep_span_multiset(workers=2)
    assert serial == parallel
    assert any(name == "emulator.phase" for name, _ in serial)
    assert any(name == "sweep.build" for name, _ in serial)


def test_merge_spans_reparents_under_current_span():
    with obs.capture_spans() as captured:
        with obs.span("shipped.root"):
            with obs.span("shipped.child"):
                pass
    frozen = obs.freeze_spans(captured.spans)
    obs.clear_spans()
    with obs.span("parent"):
        assert obs.merge_spans(frozen) == 2
    records = obs.snapshot_spans()
    by_name = {record.name: record for record in records}
    assert by_name["shipped.root"].parent_id == by_name["parent"].span_id
    assert by_name["shipped.child"].parent_id == by_name["shipped.root"].span_id


# ----------------------------------------------------------------------
# Daemon /metrics
# ----------------------------------------------------------------------
def test_daemon_metrics_endpoint_agrees_with_stats():
    graph = _graph(48)
    with OracleDaemon(port=0) as daemon:
        daemon.add_oracle("default", graph, ServeSpec())
        daemon.start()
        url = daemon.url
        for u, v in [(0, 5), (1, 7), (2, 9)]:
            body = json.dumps({"u": u, "v": v}).encode()
            request = urllib.request.Request(
                url + "/query", data=body,
                headers={"Content-Type": "application/json"},
            )
            urllib.request.urlopen(request).read()
        stats = json.loads(urllib.request.urlopen(url + "/stats").read())
        response = urllib.request.urlopen(url + "/metrics")
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode()
    for line in text.splitlines():
        if line and not line.startswith("#"):
            assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"
    assert 'repro_daemon_requests_total{endpoint="/query",oracle="default"} 3' in text
    assert stats["daemon"]["requests"] == 3  # snapshot predates its own request
    # The scrape-time collector mirrors engine counters into gauges.
    assert ('repro_engine_queries{oracle="default"} '
            f'{stats["oracles"]["default"]["queries"]}') in text
    # The /stats latency histogram is the same instance /metrics exposes.
    assert "repro_daemon_request_latency_ms_bucket" in text
    assert stats["daemon"]["latency_ms"]["count"] >= 3


def test_daemon_metrics_disabled_mode_keeps_stats():
    obs.set_enabled(False)
    graph = _graph(48)
    with OracleDaemon(port=0) as daemon:
        daemon.add_oracle("default", graph, ServeSpec())
        daemon.start()
        url = daemon.url
        body = json.dumps({"u": 0, "v": 5}).encode()
        request = urllib.request.Request(
            url + "/query", data=body, headers={"Content-Type": "application/json"}
        )
        urllib.request.urlopen(request).read()
        stats = json.loads(urllib.request.urlopen(url + "/stats").read())
        text = urllib.request.urlopen(url + "/metrics").read().decode()
    assert stats["daemon"]["requests"] == 1  # snapshot predates its own request
    assert stats["daemon"]["latency_ms"]["count"] >= 1  # histogram still live
    assert "repro_daemon_requests_total" not in text  # no obs counters


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_build_trace_and_report(tmp_path, capsys):
    from repro.cli import main

    trace = tmp_path / "build-trace.json"
    assert main(["build", "--family", "erdos-renyi", "--n", "48",
                 "--product", "emulator", "--trace", str(trace)]) == 0
    events = obs.load_trace(str(trace))
    assert any(event["name"] == "emulator.phase" for event in events)
    capsys.readouterr()
    assert main(["obs-report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "emulator.phase[phase=0]" in out


def test_cli_obs_report_rejects_garbage(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a trace"}')
    assert main(["obs-report", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
