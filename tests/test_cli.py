"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig01", "fig13", "ablation-loss", "analysis-alpha"):
            assert exp_id in out


class TestParams:
    def test_paper_defaults(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "10000" in out  # no
        assert "1000" in out  # nmq

    def test_scaled(self, capsys):
        assert main(["params", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "100" in out


class TestRun:
    def test_single_experiment(self, capsys):
        assert main(["run", "fig12", "--scale", "0.01", "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "[fig12]" in out
        assert "radius-factor" in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err


class TestReport:
    def test_short_run_writes_the_whole_report(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--scale", "0.005", "--steps", "3", "--output", str(target)]) == 0
        assert "## analysis-lqt:" in target.read_text()

    def test_a_failed_report_leaves_the_previous_file(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import EXPERIMENTS

        def boom(**kwargs):
            raise ValueError("boom")

        monkeypatch.setitem(EXPERIMENTS, "fig02", boom)
        target = tmp_path / "EXPERIMENTS.md"
        target.write_text("the result of record\n")
        assert main(["report", "--scale", "0.005", "--steps", "4", "--output", str(target)]) == 2
        assert "repro report: error: boom" in capsys.readouterr().err
        assert target.read_text() == "the result of record\n"


class TestSimulate:
    def test_basic_simulation(self, capsys):
        code = main(
            ["simulate", "--objects", "100", "--queries", "10", "--steps", "6", "--accuracy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "messages/s" in out
        assert "mean LQT size" in out

    def test_lazy_flag(self, capsys):
        code = main(["simulate", "--objects", "100", "--steps", "4", "--lazy"])
        assert code == 0
        assert "lazy" in capsys.readouterr().out


class TestInvalidFlagCombinations:
    """Harness/config validation errors are one stderr line and exit 2,
    not a traceback out of ``main``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--crash"],
            ["chaos", "--rebalance", "--shards", "1"],
            ["serve", "--shards", "1"],
        ],
        ids=" ".join,
    )
    def test_exit_2_with_one_line_error(self, argv, capsys):
        assert main(argv) == 2
        # (Without numpy, chaos first says it skips the vectorized engine.)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith(f"repro {argv[0]}: error: ") and "shards >= 2" in last

    def test_bench_subcommand_is_gone(self, capsys):
        # The benchmark is bench/run.py, not a subcommand.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestServe:
    def test_bounded_schedule_soak(self, tmp_path, capsys):
        import json

        code = main([
            "serve", "--steps", "12", "--scale", "0.01", "--elastic", "schedule",
            "--tag", "cli", "--output", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "SOAK_cli.json").read_text())
        assert report["steps"] == 12
        assert report["twin"]["results_match"]
        assert report["twin"]["compared_steps"] == 12


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prog_name(self):
        assert build_parser().prog == "repro"
