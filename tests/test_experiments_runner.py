"""Tests for the shared experiment runner helpers."""

import pytest

import repro.experiments.runner as runner_module
from repro.core import PropagationMode
from repro.experiments.runner import (
    RunTable,
    default_params,
    run_centralized,
    run_mobieyes,
    sweep_fractions,
    with_queries,
)
from repro.metrics.collectors import MetricsLog
from repro.workload import paper_defaults


class TestHelpers:
    def test_sweep_fractions_scales_with_population(self):
        params = paper_defaults().scaled(0.05)  # 500 objects
        assert sweep_fractions(params, (0.01, 0.10)) == [5, 50]

    def test_sweep_fractions_deduplicates(self):
        params = paper_defaults().scaled(0.002)  # 20 objects
        points = sweep_fractions(params, (0.01, 0.02, 0.04))
        assert points == sorted(set(points))

    def test_sweep_fractions_at_least_one(self):
        params = paper_defaults().scaled(0.001)
        assert all(p >= 1 for p in sweep_fractions(params, (0.0001,)))

    def test_with_queries_caps_at_population(self):
        params = paper_defaults().scaled(0.001)  # 10 objects
        assert with_queries(params, 500).num_queries == 10

    def test_default_params_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.03")
        assert default_params().num_objects == 300
        assert default_params(0.01).num_objects == 100  # explicit wins


class TestRunners:
    def test_same_seed_same_workload_across_engines(self):
        """MobiEyes and the centralized baseline see identical workloads, so
        their steady-state results coincide."""
        params = paper_defaults().scaled(0.008)
        mobieyes = run_mobieyes(params, steps=8, warmup=2)
        central = run_centralized(params, steps=8, warmup=2)
        assert mobieyes.results() == central.results()

    def test_seed_offset_changes_workload(self):
        params = paper_defaults().scaled(0.008)
        a = run_mobieyes(params, steps=4, warmup=1, seed_offset=0)
        b = run_mobieyes(params, steps=4, warmup=1, seed_offset=17)
        pos_a = [o.pos for o in a.motion.objects]
        pos_b = [o.pos for o in b.motion.objects]
        assert pos_a != pos_b

    def test_run_mobieyes_propagation_option(self):
        params = paper_defaults().scaled(0.008)
        lazy = run_mobieyes(params, steps=6, warmup=1, propagation=PropagationMode.LAZY)
        assert lazy.config.propagation is PropagationMode.LAZY

    def test_warmup_recorded_in_metrics(self):
        params = paper_defaults().scaled(0.008)
        system = run_mobieyes(params, steps=6, warmup=3)
        assert system.metrics.warmup_steps == 3
        assert len(system.metrics.steps) == 6

    def test_focal_skew_produces_groupable_queries(self):
        params = paper_defaults().scaled(0.02)
        system = run_mobieyes(params, steps=2, warmup=0, focal_skew=1.5)
        focals = [e.oid for e in system.server.sqt.entries()]
        assert len(set(focals)) < len(focals)


class TestRunTable:
    PARAMS = paper_defaults().scaled(0.008)

    def test_a_run_is_keyed_with_its_defaults_filled_in(self):
        runs = RunTable(steps=6, warmup=1)
        log = runs.mobieyes(self.PARAMS)
        # Spelling a default out -- alpha=None means the parameters' own --
        # asks for the same simulation; another value asks for another.
        assert runs.mobieyes(self.PARAMS, alpha=self.PARAMS.alpha, grouping=True) is log
        assert runs.mobieyes(self.PARAMS, propagation=PropagationMode.EAGER) is log
        assert (runs.requested, runs.executed) == (3, 1)
        assert runs.mobieyes(self.PARAMS, alpha=2 * self.PARAMS.alpha) is not log
        assert runs.centralized(self.PARAMS) is not log
        assert runs.centralized(with_queries(self.PARAMS, 3)) is not runs.centralized(self.PARAMS)
        assert (runs.requested, runs.executed) == (7, 4)

    def test_the_table_holds_metrics_logs_never_systems(self):
        runs = RunTable(steps=4, warmup=1)
        runs.mobieyes(self.PARAMS)
        runs.centralized(self.PARAMS)
        assert {type(log) for log in vars(runs)["_logs"].values()} == {MetricsLog}

    def test_the_warmup_is_clamped_where_a_run_is_keyed(self):
        """A warm-up that swallows the run would leave no measured step."""
        runs = RunTable(steps=3)  # default warm-up: 4
        assert (runs.steps, runs.warmup) == (3, 0)
        assert RunTable(steps=24, warmup=4).warmup == 4
        log = runs.mobieyes(self.PARAMS)
        assert log.warmup_steps == 0 and len(log.steps) == 3
        log.messages_per_second()  # has measured steps


class TestEngineFromThePlatform:
    """``run_mobieyes`` builds the vectorized engine where numpy imports and
    the reference engine otherwise; the figures' counts are the same table."""

    def test_engine_follows_numpy_availability(self, monkeypatch):
        from repro import fastpath

        params = paper_defaults().scaled(0.005)
        expected = "vectorized" if fastpath.numpy_available() else "reference"
        assert run_mobieyes(params, steps=2, warmup=0).config.engine == expected
        monkeypatch.setattr(fastpath, "numpy_available", lambda: False)
        assert run_mobieyes(params, steps=2, warmup=0).config.engine == "reference"

    @pytest.mark.parametrize(
        "exp_id, clock_columns",
        [("fig04", ()), ("fig13", ("proc-s(off)", "proc-s(on)"))],
    )
    def test_count_valued_columns_equal_under_both_engines(
        self, exp_id, clock_columns, monkeypatch
    ):
        pytest.importorskip("numpy")
        from repro import fastpath
        from repro.experiments import run_experiment

        engines = []
        real_build = runner_module.build_system

        def recording_build(*args, config, **kwargs):
            engines.append(config["engine"])
            return real_build(*args, config=config, **kwargs)

        monkeypatch.setattr(runner_module, "build_system", recording_build)
        window = dict(scale=0.02, steps=8, warmup=2)
        vectorized = run_experiment(exp_id, **window)
        monkeypatch.setattr(fastpath, "numpy_available", lambda: False)
        reference = run_experiment(exp_id, **window)
        assert set(engines[: len(engines) // 2]) == {"vectorized"}
        assert set(engines[len(engines) // 2 :]) == {"reference"}
        assert vectorized.headers == reference.headers
        for header in vectorized.headers:
            if header not in clock_columns:
                assert vectorized.column(header) == reference.column(header), header
        if exp_id == "fig13":
            assert sum(vectorized.column("skipped(on)")) > 0
