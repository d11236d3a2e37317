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


class TestInvalidFlagCombinations:
    """Driver/config validation errors are one stderr line and exit 2,
    not a traceback out of ``main``."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(argv, named, id=" ".join(argv[1:]))
            for argv, named in (
                # --shards defaults to 1.
                (["drive", "--faults", "crash"], "shards >= 2"),
                (["drive", "--fleet", "rebalance"], "shards >= 2"),
                (["drive", "--fleet", "policy"], "shards >= 2"),
                # Inputs a run used to misread: a negative loss rate attached no
                # channel, a negative churn period churned every |N| steps, a
                # negative rate ingested nothing, a negative cadence rewrote the
                # artifact every step -- each while the report echoed the input.
                (["drive", "--uplink-loss", "-0.2"], "uplink_loss must be in [0, 1], got -0.2"),
                (["drive", "--downlink-loss", "1.5"], "downlink_loss must be in [0, 1], got 1.5"),
                (["drive", "--query-churn", "-4"], "query_churn must be non-negative"),
                (["drive", "--ingest-rate", "-1"], "ingest_rate must be non-negative"),
                (["drive", "--report-every", "-1"], "report_every must be non-negative"),
                # Inputs the plan ignored while the report echoed them: "both"
                # with the thermostat off ran the plain schedule, and a burst
                # with no loss rate attached no channel.
                (
                    ["drive", "--shards", "2", "--fleet", "both", "--rebalance-every", "0"],
                    "rebalance_every must be positive",
                ),
                (["drive", "--burst"], "burst shapes channel loss"),
            )
        ],
    )
    def test_exit_2_with_one_line_error(self, argv, named, capsys, tmp_path):
        assert main([*argv, "--output", str(tmp_path)]) == 2
        # (Without numpy, drive first says it skips the vectorized engine.)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.strip().splitlines()[-1]
        assert last.startswith(f"repro {argv[0]}: error: ") and named in last
        assert not list(tmp_path.iterdir())  # refused before the first step

    def test_bench_subcommand_is_gone(self, capsys):
        # The benchmark is bench/run.py, not a subcommand.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_simulate_subcommand_is_gone(self, capsys):
        # One run command: drive's report carries what simulate printed.
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestServe:
    def test_bounded_schedule_soak(self, tmp_path, capsys):
        import json

        code = main([
            "drive", "--steps", "12", "--scale", "0.01", "--fleet", "schedule",
            "--shards", "2", "--scenario", "skewed", "--seed", "11", "--dead-reckoning", "1",
            "--faults", "none", "--ingest-rate", "6", "--ingest-budget", "4",
            "--query-churn", "10", "--engine", "reference", "--tag", "cli",
            "--output", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "DRIVE_cli.json").read_text())
        assert report["grading"]["steps"] == 12
        assert report["grading"]["basis"] == "twin"
        assert report["grading"]["results_match"]


class TestPaperMetrics:
    def test_the_report_carries_the_paper_metrics(self, tmp_path, capsys):
        """The ``metrics`` section is the system's own per-step log with no
        warm-up, and its result error is the paper's missing fraction
        sampled after every step -- what a system tracking accuracy reads."""
        import json

        from repro.driver import scenario_params
        from repro.scenario import build_system

        assert main(["drive", "--steps", "8", "--scale", "0.01", "--faults", "none",
                     "--engine", "reference", "--output", str(tmp_path)]) == 0
        metrics = json.loads((tmp_path / "DRIVE_local.json").read_text())["metrics"]
        system = build_system(scenario_params("paper", 0.01), 7, track_accuracy=True)[0]
        system.run(8)
        log = system.metrics
        assert metrics == {
            "steps": 8,
            "step_seconds": log.step_seconds,
            "msgs_per_sim_s": log.messages_per_second(),
            "uplink_msgs_per_sim_s": log.uplink_messages_per_second(),
            "downlink_msgs_per_sim_s": log.downlink_messages_per_second(),
            "mean_lqt_size": log.mean_lqt_size(),
            "energy_mw_per_object": 1000.0 * log.mean_power_watts_per_object(),
            "result_error": log.mean_result_error(),
        }
        assert metrics["msgs_per_sim_s"] > 0 and metrics["mean_lqt_size"] > 0
        system.close()


class TestEngineCrossCheck:
    """``--engine both`` compares every non-clock value of the two reports."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.driver import run

        return run(engine="reference", steps=8, scale=0.01, shards=2)

    @pytest.mark.parametrize(
        "doctor, mismatch",
        [
            (lambda r: r["counters"]["reliability"].update(retransmits=10**6),
             "counters.reliability"),
            (lambda r: r["fleet"]["shard_loads"][0].update(ops=-1), "fleet.shard_loads"),
            (lambda r: r["clock"].update(wall_seconds=10**6), None),
        ],
        ids=["reliability", "shard ops", "clock only"],
    )
    def test_doctored_vectorized_report(self, report, doctor, mismatch, monkeypatch, tmp_path,
                                        capsys):
        pytest.importorskip("numpy")
        import copy

        import repro.driver

        def fake_run(engine, **_inputs):
            out = {**copy.deepcopy(report), "engine": engine}
            if engine == "vectorized":
                doctor(out)
            return out

        monkeypatch.setattr(repro.driver, "run", fake_run)
        code = main(["drive", "--shards", "2", "--output", str(tmp_path)])
        err = capsys.readouterr().err
        if mismatch is None:
            assert code == 0 and "ENGINE MISMATCH" not in err
        else:
            assert code == 1
            assert f"ENGINE MISMATCH on: {mismatch}" in err

    def test_an_unbounded_run_takes_one_engine(self, capsys):
        pytest.importorskip("numpy")
        assert main(["drive", "--steps", "0", "--faults", "none"]) == 2
        assert "--engine" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prog_name(self):
        assert build_parser().prog == "repro"
