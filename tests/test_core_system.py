"""Integration tests: the full MobiEyes system against the oracle."""

import pytest

from repro.core import PropagationMode
from repro.geometry import Point, Rect, Vector
from repro.mobility import MovingObject
from repro.sim import SimulationRng
from repro.workload import generate_workload, paper_defaults

from tests.conftest import circle_query, make_object, make_system


def random_world(num_objects=80, num_queries=8, seed=3, **kwargs):
    params = paper_defaults().scaled(num_objects / 10_000)
    workload = generate_workload(params, SimulationRng(seed))
    system = make_system(
        list(workload.objects),
        uod=params.uod,
        alpha=params.alpha,
        bs_side=params.base_station_side,
        velocity_changes_per_step=params.velocity_changes_per_step,
        seed=seed + 1,
        **kwargs,
    )
    system.install_queries(workload.query_specs[:num_queries])
    return system


class TestExactnessUnderEQP:
    """With eager propagation and a zero dead-reckoning threshold, the
    distributed result must equal the omniscient oracle at every step."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_results_match_oracle_every_step(self, seed):
        system = random_world(seed=seed)
        for _ in range(15):
            system.step()
            assert system.results() == system.oracle_results(), (
                f"divergence at step {system.clock.step}"
            )

    def test_invariants_hold_every_step(self):
        system = random_world(seed=5)
        for _ in range(15):
            system.step()
            system.check_invariants()

    def test_error_metric_reports_zero(self):
        system = random_world(seed=7)
        system.run(10)
        assert system.metrics.mean_result_error() == 0.0


class TestLazyPropagationSystem:
    def test_error_is_bounded_and_heals(self):
        system = random_world(seed=9, propagation=PropagationMode.LAZY)
        system.run(20)
        error = system.metrics.mean_result_error()
        assert error is not None
        assert error < 0.5  # lazy loses some results but not most

    def test_fewer_uplinks_than_eager(self):
        eager = random_world(seed=11)
        lazy = random_world(seed=11, propagation=PropagationMode.LAZY)
        eager.run(15)
        lazy.run(15)
        assert (
            lazy.metrics.uplink_messages_per_second()
            < eager.metrics.uplink_messages_per_second()
        )


class TestDynamicQueries:
    def test_install_mid_run(self):
        system = random_world(seed=13, num_queries=4)
        system.run(5)
        workload_spec = circle_query(17, 3.0)
        qid = system.install_query(workload_spec)
        system.run(5)
        assert system.result(qid) == system.oracle_results()[qid]

    def test_remove_mid_run(self):
        system = random_world(seed=13)
        qid = next(iter(system.server.sqt.ids()))
        system.run(3)
        system.remove_query(qid)
        system.run(3)
        assert qid not in system.server.sqt
        for client in system.clients.values():
            assert qid not in client.lqt
        system.check_invariants()

    def test_multiple_queries_same_focal_mid_run(self):
        system = random_world(seed=15, num_queries=2)
        focal = next(iter(system.server.sqt.entries())).oid
        qids = [system.install_query(circle_query(focal, r)) for r in (1.0, 2.5, 6.0)]
        system.run(8)
        oracle = system.oracle_results()
        for qid in qids:
            assert system.result(qid) == oracle[qid]


class TestOptimizationsPreserveResults:
    @pytest.mark.parametrize("grouping", [False, True])
    @pytest.mark.parametrize("safe_period", [False, True])
    def test_all_optimization_combos_match_oracle(self, grouping, safe_period):
        system = random_world(seed=17, grouping=grouping, safe_period=safe_period)
        for _ in range(12):
            system.step()
        # Safe periods may defer *detecting an entry* only when the bound
        # says entry is impossible, so results still match the oracle.
        assert system.results() == system.oracle_results()


class TestMetricsPlumbing:
    def test_step_stats_recorded(self):
        system = random_world(seed=19)
        system.run(6)
        assert len(system.metrics.steps) == 6
        last = system.metrics.steps[-1]
        assert last.step == 6
        assert last.mean_lqt_size >= 0.0

    def test_messages_accounted(self):
        system = random_world(seed=19)
        system.run(6)
        metrics = system.metrics
        assert metrics.messages_per_second() >= 0.0
        assert metrics.uplink_messages_per_second() <= metrics.messages_per_second()

    def test_power_positive_when_talking(self):
        system = random_world(seed=19)
        system.run(6)
        assert system.metrics.mean_power_watts_per_object() > 0.0


class TestBoundaryBehaviour:
    def test_objects_bouncing_off_uod_stay_consistent(self):
        # Objects hugging the boundary at high speed: reflections change
        # velocity vectors without a "velocity change" event; dead
        # reckoning must catch the deviation and results stay exact.
        objects = [
            make_object(0, 1, 1, vx=-200.0, vy=-150.0, max_speed=250.0),
            make_object(1, 2, 2, vx=180.0, vy=-120.0, max_speed=250.0),
            make_object(2, 48, 48, vx=200.0, vy=200.0, max_speed=250.0),
            make_object(3, 25, 25),
        ]
        system = make_system(objects)
        qid = system.install_query(circle_query(0, 3.0))
        for _ in range(20):
            system.step()
            assert system.results()[qid] == system.oracle_results()[qid]

    def test_every_step_evaluates(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25, vx=30.0)]
        system = make_system(objects)
        system.install_query(circle_query(0, 2.0))
        system.run(6)
        # The paper's period: every object evaluates its LQT each step.
        evaluated_steps = [s.step for s in system.metrics.steps if s.evaluated_queries > 0]
        assert evaluated_steps == [1, 2, 3, 4, 5, 6]
