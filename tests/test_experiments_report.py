"""Tests for the EXPERIMENTS.md report generator."""

import io

import pytest

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import write_report


class TestReportGeneration:
    def test_tiny_report_contains_every_section(self):
        buffer = io.StringIO()
        write_report(buffer, scale=0.005, steps=4, warmup=1)
        text = buffer.getvalue()
        assert text.startswith("# EXPERIMENTS")
        for exp_id in EXPERIMENTS:
            assert f"## {exp_id}:" in text, f"missing section for {exp_id}"
        assert "Measurement setup" in text
        assert "REPRO_SCALE" in text

    def test_report_embeds_measured_tables(self):
        buffer = io.StringIO()
        write_report(buffer, scale=0.005, steps=4, warmup=1)
        text = buffer.getvalue()
        # Each section carries a fenced code block with a rendered table.
        assert text.count("```") >= 2 * len(EXPERIMENTS)
        assert "radius-factor" in text  # fig12's table header

    def test_short_run_clamps_the_default_warmup(self):
        """`repro report --steps 3` keeps the default warm-up of 4; a run
        whose warm-up swallows it has no measured step to report."""
        buffer = io.StringIO()
        write_report(buffer, scale=0.005, steps=3)
        assert f"## {list(EXPERIMENTS)[-1]}:" in buffer.getvalue()

    def test_nothing_is_written_before_every_experiment_has_run(self, monkeypatch):
        def boom(**kwargs):
            raise ValueError("boom")

        monkeypatch.setitem(EXPERIMENTS, list(EXPERIMENTS)[-1], boom)
        buffer = io.StringIO()
        with pytest.raises(ValueError, match="boom"):
            write_report(buffer, scale=0.005, steps=4, warmup=1)
        assert buffer.getvalue() == ""


class TestEachDistinctSimulationRunsOnce:
    @pytest.fixture
    def executed(self, monkeypatch):
        """Every simulation the run table really executes, by arguments."""
        import functools
        import inspect

        from repro.experiments import runner

        calls = []
        for name in ("run_mobieyes", "run_centralized"):
            build = getattr(runner, name)

            def counting(*args, _build=build, **kwargs):
                call = inspect.signature(_build).bind(*args, **kwargs)
                calls.append((_build.__name__, *call.arguments.items()))
                return _build(*args, **kwargs)

            monkeypatch.setattr(runner, name, functools.wraps(build)(counting))
        return calls

    def test_a_report_executes_each_requested_key_once(self, executed):
        buffer = io.StringIO()
        write_report(buffer, scale=0.005, steps=4, warmup=1)
        assert len(executed) == len(set(executed))  # nothing ran twice
        # (At this scale the query-count sweeps collapse a point: 173 asks,
        # not the default scale's 176.)
        assert f"- run table: {len(executed)} distinct simulations for 173 requested" in (
            buffer.getvalue()
        )
        assert len(executed) <= 98

    def test_a_table_lives_for_one_call_unless_handed_in(self, executed):
        """No module-level run cache: two calls share nothing."""
        from repro.experiments import run_experiment

        run_experiment("fig12", scale=0.005, steps=4, warmup=1)
        assert len(executed) == 5
        run_experiment("fig12", scale=0.005, steps=4, warmup=1)
        assert len(executed) == 10

    def test_an_experiment_that_shares_a_sweep_executes_nothing(self, executed):
        from repro.experiments import run_experiment
        from repro.experiments.runner import RunTable

        runs = RunTable(steps=4, warmup=1)
        for first, followers in (
            ("fig04", ("fig10",)),
            ("fig05", ("fig06",)),
            ("fig03", ("analysis-alpha", "analysis-lqt")),
        ):
            run_experiment(first, scale=0.005, runs=runs)
            ran = len(executed)
            for follower in followers:
                run_experiment(follower, scale=0.005, runs=runs)
            assert len(executed) == ran == runs.executed, followers
        run_experiment("fig01", scale=0.005, runs=runs)
        run_experiment("fig07", scale=0.005, runs=runs)
        ran = len(executed)
        run_experiment("fig09", scale=0.005, runs=runs)
        assert len(executed) == ran == runs.executed
        assert runs.requested > runs.executed
