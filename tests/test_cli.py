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


class TestBench:
    def test_parser_accepts_bench_flags(self):
        args = build_parser().parse_args(
            ["bench", "--smoke", "--tag", "ci", "--output", "out"]
        )
        assert args.smoke is True
        assert args.tag == "ci"
        assert args.output == "out"

    def test_dispatches_to_run_bench(self, monkeypatch, tmp_path):
        import repro.fastpath.bench as bench_mod

        calls = {}

        def fake_run_bench(
            tag=None,
            smoke=False,
            out_dir=None,
            log=print,
            shards=1,
            latency=0,
            jitter=0,
            scale="default",
            checkpoint_every=0,
            rebalance_every=0,
            rebalance_metric="seconds",
        ):
            calls.update(
                tag=tag, smoke=smoke, out_dir=out_dir, shards=shards,
                latency=latency, jitter=jitter, scale=scale,
                checkpoint_every=checkpoint_every,
                rebalance_every=rebalance_every, rebalance_metric=rebalance_metric,
            )
            return tmp_path / "BENCH_x.json"

        monkeypatch.setattr(bench_mod, "run_bench", fake_run_bench)
        assert main([
            "bench", "--smoke", "--tag", "x", "--shards", "4",
            "--latency", "2",
        ]) == 0
        assert calls == {
            "tag": "x", "smoke": True, "out_dir": None, "shards": 4,
            "latency": 2, "jitter": 0, "scale": "default",
            "checkpoint_every": 0,
            "rebalance_every": 0, "rebalance_metric": "seconds",
        }

    def test_regression_gate_exit_code(self, monkeypatch, tmp_path):
        import repro.fastpath.bench as bench_mod

        def failing_run_bench(**kwargs):
            raise bench_mod.BenchRegression("checkpoint roundtrip diverged: dense/reference")

        monkeypatch.setattr(bench_mod, "run_bench", failing_run_bench)
        assert main(["bench", "--smoke", "--checkpoint-every", "5"]) == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prog_name(self):
        assert build_parser().prog == "repro"
