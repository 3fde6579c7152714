"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import BuildSpec, build
from repro.cli import build_parser, main
from repro.graphs import generators, io


@pytest.fixture(autouse=True)
def _isolate_cache_env(monkeypatch):
    """Keep the developer's real $REPRO_CACHE_DIR out of CLI tests."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        args = build_parser().parse_args(["build"])
        assert (args.product, args.method) == ("emulator", "centralized")
        assert args.kappa == 4.0

    @pytest.mark.parametrize("argv", [
        ["oracle", "--family", "grid", "--n", "16", "--queries", "0:1"],
        ["build", "--family", "grid", "--n", "16", "--algorithm", "fast"],
    ])
    def test_removed_spellings_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_experiments_only_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "--only", "E42"])


class TestBuildCommand:
    def test_build_generated_workload(self, capsys):
        code = main(["build", "--family", "grid", "--n", "49", "--kappa", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "emulator:" in out

    def test_build_from_file_with_output(self, tmp_path, capsys):
        g = generators.connected_erdos_renyi(30, 0.1, seed=2)
        graph_path = tmp_path / "g.txt"
        io.write_edge_list(g, graph_path)
        out_path = tmp_path / "emulator.txt"
        code = main(["build", "--input", str(graph_path), "--kappa", "4",
                     "--output", str(out_path)])
        assert code == 0
        emulator = io.read_weighted_edge_list(out_path)
        assert emulator.num_edges > 0

    def test_build_fast(self, capsys):
        code = main(["build", "--family", "grid", "--n", "36", "--method", "fast"])
        assert code == 0
        assert "fast" in capsys.readouterr().out

    def test_build_congest(self, capsys):
        code = main(["build", "--family", "grid", "--n", "25", "--method", "congest"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rounds" in out

    def test_build_new_product_method_flags(self, capsys):
        code = main(["build", "--family", "grid", "--n", "25", "--product", "spanner",
                     "--method", "congest"])
        assert code == 0
        assert "spanner (CONGEST):" in capsys.readouterr().out

    def test_build_unsupported_combo_clean_error(self, capsys):
        code = main(["build", "--family", "grid", "--n", "16", "--product", "spanner",
                     "--method", "fast"])
        assert code == 2
        err = capsys.readouterr().err
        assert "supported combinations" in err
        assert "Traceback" not in err

    def test_build_invalid_kappa_clean_error(self, capsys):
        code = main(["build", "--family", "grid", "--n", "16", "--kappa", "1"])
        assert code == 2
        assert "kappa" in capsys.readouterr().err

    def test_sweep_of_no_supported_combo_clean_error(self, capsys):
        code = main(["sweep", "--family", "grid", "--n", "16", "--products", "spanner",
                     "--methods", "fast"])
        assert code == 2
        err = capsys.readouterr().err
        assert "sweep matches no supported (product, method) combination" in err
        assert "Traceback" not in err

    def test_sweep_command(self, capsys):
        code = main(["sweep", "--family", "grid", "--n", "16", "--products", "emulator",
                     "--methods", "centralized", "fast", "--verify-pairs", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "emulator" in out and "fast" in out and "True" in out

    def test_sweep_parallel_workers(self, capsys):
        code = main(["sweep", "--family", "grid", "--n", "16", "--products", "emulator",
                     "--methods", "centralized", "fast", "--workers", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total build time" in out
        assert "hit(s)" not in out  # no cache configured, no cache summary

    def test_sweep_cache_dir_second_run_hits(self, tmp_path, capsys):
        argv = ["sweep", "--family", "grid", "--n", "16", "--products", "emulator",
                "--methods", "centralized", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "0 hit(s), 1 miss(es)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_sweep_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        argv = ["sweep", "--family", "grid", "--n", "16", "--products", "emulator",
                "--methods", "centralized", "--cache-dir", str(tmp_path / "cache"),
                "--no-cache"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert not (tmp_path / "cache").exists()
        out = capsys.readouterr().out
        assert "total build time" in out
        assert "hit(s)" not in out  # cache disabled, no cache summary

    def test_sweep_cache_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        argv = ["sweep", "--family", "grid", "--n", "16", "--products", "emulator",
                "--methods", "centralized"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert (tmp_path / "env-cache").is_dir()
        assert "1 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_experiments_workers_flag(self, capsys):
        code = main(["experiments", "--only", "E14", "--workers", "2"])
        assert code == 0
        assert "unified facade sweep" in capsys.readouterr().out

    def test_build_spanner_with_output(self, tmp_path, capsys):
        out_path = tmp_path / "spanner.txt"
        code = main(["build", "--family", "grid", "--n", "36", "--product", "spanner",
                     "--output", str(out_path)])
        assert code == 0
        spanner = io.read_edge_list(out_path)
        assert spanner.num_edges > 0


class TestVerifyCommand:
    def test_verify_roundtrip(self, tmp_path, capsys):
        g = generators.connected_erdos_renyi(30, 0.1, seed=4)
        result = build(g, BuildSpec(product="emulator", eps=0.1, kappa=4)).raw
        graph_path = tmp_path / "g.txt"
        emulator_path = tmp_path / "h.txt"
        io.write_edge_list(g, graph_path)
        io.write_weighted_edge_list(result.emulator, emulator_path)
        code = main(["verify", "--graph", str(graph_path), "--emulator", str(emulator_path),
                     "--alpha", str(result.alpha), "--beta", str(result.beta)])
        assert code == 0
        assert "valid: True" in capsys.readouterr().out

    def test_verify_detects_invalid(self, tmp_path, capsys):
        g = generators.path_graph(10)
        graph_path = tmp_path / "g.txt"
        emulator_path = tmp_path / "h.txt"
        io.write_edge_list(g, graph_path)
        from repro.graphs.weighted_graph import WeightedGraph

        io.write_weighted_edge_list(WeightedGraph(10), emulator_path)  # empty emulator
        code = main(["verify", "--graph", str(graph_path), "--emulator", str(emulator_path),
                     "--alpha", "1.0", "--beta", "1.0"])
        assert code == 1


class TestExperimentsCommand:
    def test_single_experiment(self, capsys):
        code = main(["experiments", "--only", "E2"])
        assert code == 0
        assert "E2" in capsys.readouterr().out
