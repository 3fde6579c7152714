"""Tests for the CLI sub-commands added alongside the application layer."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestHopsetCommand:
    def test_hopset_build_prints_summary(self, capsys):
        exit_code = main(["hopset", "--family", "grid", "--n", "36", "--eps", "0.1"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "hopset" in out
        assert "hopbound" in out

    def test_hopset_fast_method_clamps_eps(self, capsys):
        # Default --eps 0.1 must be clamped for fast/congest methods, same
        # as the build subcommand, so the reported guarantee is meaningful.
        exit_code = main(["hopset", "--family", "grid", "--n", "25", "--method", "fast",
                          "--sample-pairs", "20"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "alpha 101" not in out  # the unclamped eps=0.1 signature

    def test_hopset_with_explicit_kappa(self, capsys):
        exit_code = main(["hopset", "--family", "erdos-renyi", "--n", "48",
                          "--kappa", "4", "--sample-pairs", "50"])
        assert exit_code == 0
        assert "hopset" in capsys.readouterr().out


class TestQueryCommand:
    def test_query_answers_from_any_backend(self, capsys):
        exit_code = main(["query", "--family", "grid", "--n", "36",
                          "--backend", "exact", "--queries", "0:35", "0:6"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("d(") == 2
        assert "serving exact" in out
        assert "engine:" in out

    def test_eps_clamp_keys_on_the_backend_build(self, capsys):
        exit_code = main(["query", "--family", "grid", "--n", "25",
                          "--product", "emulator", "--backend", "spanner",
                          "--eps", "0.5", "--queries", "0:24"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "eps=0.01" in out  # the spanner build is what actually runs

    def test_query_defaults_backend_to_product(self, capsys):
        exit_code = main(["query", "--family", "grid", "--n", "25",
                          "--product", "spanner", "--queries", "0:24"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "serving spanner via spanner/centralized" in out

    def test_query_rejects_malformed_query(self):
        with pytest.raises(SystemExit):
            main(["query", "--family", "grid", "--n", "36", "--queries", "zero:one"])

    def test_query_rejects_out_of_range_vertex(self, capsys):
        exit_code = main(["query", "--family", "grid", "--n", "16",
                          "--queries", "0:9999"])
        assert exit_code == 2
        assert "out of range" in capsys.readouterr().err


class TestBenchServeCommand:
    def test_bench_serve_prints_json_report(self, capsys):
        exit_code = main(["bench-serve", "--family", "erdos-renyi", "--n", "48",
                          "--workload", "zipf", "--queries", "300",
                          "--stretch-sample", "40"])
        out = capsys.readouterr().out
        assert exit_code == 0
        import json

        report = json.loads(out)
        assert report["workload"] == "zipf"
        assert report["num_queries"] == 300
        assert report["throughput_qps"] > 0
        assert report["stretch_ok"] is True
        assert report["latency_p50_ms"] <= report["latency_p99_ms"]

    def test_bench_serve_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        exit_code = main(["bench-serve", "--family", "grid", "--n", "25",
                          "--backend", "exact", "--queries", "100",
                          "--output", str(target)])
        capsys.readouterr()
        assert exit_code == 0
        import json

        report = json.loads(target.read_text())
        assert report["backend"] == "exact"


class TestSweepCacheLimit:
    def test_sweep_accepts_cache_max_entries(self, tmp_path, capsys):
        exit_code = main(["sweep", "--family", "grid", "--n", "16",
                          "--products", "emulator", "--methods", "centralized",
                          "--eps-values", "0.1", "0.2", "0.3",
                          "--cache-dir", str(tmp_path / "cache"),
                          "--cache-max-entries", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "cache:" in out
        # The store never holds more than the bound.
        stored = list((tmp_path / "cache").glob("??/*.pkl"))
        assert len(stored) <= 2

    def test_cache_max_entries_without_a_cache_is_an_error(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        exit_code = main(["sweep", "--family", "grid", "--n", "16",
                          "--products", "emulator", "--methods", "centralized",
                          "--cache-max-entries", "2"])
        err = capsys.readouterr().err
        assert exit_code == 2
        assert "--cache-max-entries requires a cache" in err


class TestParser:
    def test_new_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        assert "hopset" in text
        assert "query" in text
        assert "bench-serve" in text


class TestDaemonCommands:
    """The --url halves of query / bench-serve, against an in-process daemon."""

    @pytest.fixture(scope="class")
    def daemon(self):
        from repro.experiments.workloads import workload_by_name
        from repro.serve import OracleDaemon, ServeSpec

        graph = workload_by_name("erdos-renyi", 48, seed=0).graph
        with OracleDaemon(port=0) as d:
            d.add_oracle("default", graph, ServeSpec(backend="exact"))
            d.start()
            yield d

    def test_query_url_answers_without_a_local_build(self, daemon, capsys):
        exit_code = main(["query", "--url", daemon.url, "--queries", "0:17", "3:3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert out.count("d(") == 2
        assert "d(3, 3) <= 0.0" in out
        assert "remote:" in out

    def test_query_url_unknown_oracle_is_a_clean_error(self, daemon, capsys):
        exit_code = main(["query", "--url", daemon.url, "--oracle-name", "nope",
                          "--queries", "0:1"])
        assert exit_code == 2
        assert "served oracles" in capsys.readouterr().err

    def test_query_dead_url_is_a_clean_error(self, capsys):
        from repro.serve import OracleDaemon

        probe = OracleDaemon(port=0)
        dead_url = probe.url
        probe.close()
        exit_code = main(["query", "--url", dead_url, "--queries", "0:1"])
        assert exit_code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_bench_serve_url_sweeps_concurrency(self, daemon, capsys):
        import json as json_module

        exit_code = main([
            "bench-serve", "--url", daemon.url, "--family", "erdos-renyi",
            "--n", "48", "--workload", "zipf", "--queries", "60",
            "--concurrency", "1", "2", "--stretch-sample", "20",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        report = json_module.loads(captured.out)
        assert [level["concurrency"] for level in report["levels"]] == [1, 2]
        assert report["stretch_ok"] is True
        assert "wire sweep" in captured.err

    def test_serve_daemon_flags_registered(self):
        parser = build_parser()
        args = parser.parse_args([
            "serve-daemon", "--family", "grid", "--n", "36", "--port", "0",
            "--name", "grid", "--warmup-sources", "4", "--verbose",
        ])
        assert args.command == "serve-daemon"
        assert args.port == 0
        assert args.name == "grid"
        assert args.warmup_sources == 4
        assert args.verbose is True
