"""Tests for the centralized baselines (index engines + system)."""

import pytest

from repro.baselines import (
    BITS_POSITION_REPORT,
    BITS_STATE_REPORT,
    CentralOptimalReporting,
    CentralizedConfig,
    CentralizedSystem,
    IndexingMode,
    NaiveReporting,
    ObjectIndexEngine,
    QueryIndexEngine,
    ReportingMode,
)
from repro.core import MovingQuery, TrueFilter
from repro.geometry import Circle, Point, Rect, Vector
from repro.sim import SimulationRng
from repro.workload import generate_workload, paper_defaults

from tests.conftest import circle_query, make_object


def make_centralized(objects, reporting=ReportingMode.NAIVE, indexing=IndexingMode.OBJECTS,
                     velocity_changes_per_step=0, seed=7, **kwargs):
    config = CentralizedConfig(
        uod=Rect(0, 0, 50, 50), reporting=reporting, indexing=indexing, **kwargs
    )
    return CentralizedSystem(
        config,
        objects,
        SimulationRng(seed),
        velocity_changes_per_step=velocity_changes_per_step,
        track_accuracy=True,
    )


def query(qid, oid, r):
    return MovingQuery(qid=qid, oid=oid, region=Circle(0, 0, r), filter=TrueFilter())


class TestObjectIndexEngine:
    def test_insert_and_evaluate(self):
        engine = ObjectIndexEngine()
        objs = {i: make_object(i, i * 2.0, 0.0) for i in range(5)}
        positions = {i: o.pos for i, o in objs.items()}
        for i, pos in positions.items():
            engine.apply_position(i, pos)
        results = engine.evaluate({1: query(1, 0, 4.5)}, positions, objs)
        assert results[1] == {1, 2}  # at x=2 and x=4; focal excluded

    def test_position_update_moves_object(self):
        engine = ObjectIndexEngine()
        objs = {0: make_object(0, 0, 0), 1: make_object(1, 1, 0)}
        engine.apply_position(0, Point(0, 0))
        engine.apply_position(1, Point(1, 0))
        engine.apply_position(1, Point(40, 40))
        positions = {0: Point(0, 0), 1: Point(40, 40)}
        results = engine.evaluate({1: query(1, 0, 5.0)}, positions, objs)
        assert results[1] == set()

    def test_same_position_noop(self):
        engine = ObjectIndexEngine()
        engine.apply_position(0, Point(1, 1))
        engine.apply_position(0, Point(1, 1))
        assert len(engine) == 1

    def test_filter_applied(self):
        class OnlyEven:
            def matches(self, props):
                return props.get("n", 1) % 2 == 0

        engine = ObjectIndexEngine()
        objs = {
            i: make_object(i, i * 1.0, 0.0, props={"n": i}) for i in range(4)
        }
        for i, o in objs.items():
            engine.apply_position(i, o.pos)
        positions = {i: o.pos for i, o in objs.items()}
        q = MovingQuery(qid=1, oid=0, region=Circle(0, 0, 10), filter=OnlyEven())
        assert engine.evaluate({1: q}, positions, objs)[1] == {2}


class TestQueryIndexEngine:
    def test_probe_maintains_results_differentially(self):
        engine = QueryIndexEngine()
        focal = make_object(0, 10, 10)
        target = make_object(1, 11, 10)
        engine.add_query(query(1, 0, 2.0), focal.pos)
        engine.probe(1, target.pos, target)
        assert engine.evaluate({1: None}, {}, {})[1] == {1}
        engine.probe(1, Point(30, 30), target)
        assert engine.evaluate({1: None}, {}, {})[1] == set()

    def test_focal_update_moves_query_rect(self):
        engine = QueryIndexEngine()
        focal = make_object(0, 10, 10)
        target = make_object(1, 30, 30)
        engine.add_query(query(1, 0, 2.0), focal.pos)
        engine.update_focal(0, Point(29, 30))
        engine.probe(1, target.pos, target)
        assert engine.evaluate({1: None}, {}, {})[1] == {1}

    def test_remove_query_cleans_state(self):
        engine = QueryIndexEngine()
        focal = make_object(0, 10, 10)
        target = make_object(1, 11, 10)
        engine.add_query(query(1, 0, 2.0), focal.pos)
        engine.probe(1, target.pos, target)
        engine.remove_query(1)
        assert len(engine) == 0
        assert engine.evaluate({}, {}, {}) == {}

    def test_focal_never_its_own_target(self):
        engine = QueryIndexEngine()
        focal = make_object(0, 10, 10)
        engine.add_query(query(1, 0, 2.0), focal.pos)
        engine.probe(0, focal.pos, focal)
        assert engine.evaluate({1: None}, {}, {})[1] == set()

    def test_is_focal(self):
        engine = QueryIndexEngine()
        engine.add_query(query(1, 0, 2.0), Point(0, 0))
        assert engine.is_focal(0)
        assert not engine.is_focal(1)


class TestReportingPolicies:
    def test_naive_reports_on_movement_only(self):
        policy = NaiveReporting()
        obj = make_object(0, 5, 5)
        first = policy.report(obj, 0.0)
        assert first is not None
        assert first[1] == BITS_POSITION_REPORT
        assert policy.report(obj, 0.5) is None  # did not move
        obj.pos = Point(6, 5)
        assert policy.report(obj, 1.0) is not None

    def test_central_optimal_initial_report_then_silence(self):
        policy = CentralOptimalReporting(threshold=0.0)
        obj = make_object(0, 5, 5, vx=10.0)
        first = policy.report(obj, 0.0)
        assert first is not None
        assert first[1] == BITS_STATE_REPORT
        # Linear motion follows the prediction: no further reports.
        obj.pos = Point(10, 5)
        obj.recorded_at = 0.5
        assert policy.report(obj, 0.5) is None

    def test_central_optimal_at_zero_threshold_ignores_rounding(self):
        # A position advanced step by step drifts a few ulps from the one
        # extrapolated from the last report; at threshold 0 that rounding
        # is not a change, a new velocity vector is.
        policy = CentralOptimalReporting(threshold=0.0)
        obj = make_object(0, 1.1, 2.3, vx=123.456, vy=-7.89)
        step_hours = 30.0 / 3600.0
        policy.report(obj, 0.0)
        reports = []
        for k in range(1, 41):
            obj.pos = obj.pos + obj.vel * step_hours
            obj.recorded_at = k * step_hours
            if k == 20:
                obj.vel = Vector(-5.0, 60.0)
            reports.append(policy.report(obj, obj.recorded_at) is not None)
        assert [k for k, sent in enumerate(reports, 1) if sent] == [20]

    def test_central_optimal_reports_significant_change(self):
        policy = CentralOptimalReporting(threshold=0.1)
        obj = make_object(0, 5, 5, vx=10.0)
        policy.report(obj, 0.0)
        obj.pos = Point(5, 3)  # 2 miles off the prediction
        assert policy.report(obj, 0.0) is not None

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            CentralOptimalReporting(threshold=-1)


class TestCentralizedSystem:
    def build_world(self):
        return [
            make_object(0, 25, 25),
            make_object(1, 26, 25, vx=30.0),
            make_object(2, 25, 28, vy=-20.0),
            make_object(3, 45, 45),
        ]

    @pytest.mark.parametrize("indexing", [IndexingMode.OBJECTS, IndexingMode.QUERIES])
    @pytest.mark.parametrize(
        "reporting", [ReportingMode.NAIVE, ReportingMode.CENTRAL_OPTIMAL]
    )
    def test_results_match_oracle(self, indexing, reporting):
        system = make_centralized(self.build_world(), reporting=reporting, indexing=indexing)
        qid = system.install_query(circle_query(0, 3.0))
        for _ in range(10):
            system.step()
            assert system.result(qid) == system.oracle_results()[qid]

    def test_unknown_focal_rejected(self):
        system = make_centralized(self.build_world())
        with pytest.raises(KeyError):
            system.install_query(circle_query(99, 1.0))

    def test_remove_query(self):
        system = make_centralized(self.build_world(), indexing=IndexingMode.QUERIES)
        qid = system.install_query(circle_query(0, 3.0))
        system.run(2)
        system.remove_query(qid)
        system.run(2)
        assert qid not in system.results()

    def test_naive_messaging_rate(self):
        # Every moving object reports every step; stationary ones stay
        # silent after their first (initial-position) report.
        system = make_centralized(self.build_world(), reporting=ReportingMode.NAIVE)
        system.install_query(circle_query(0, 3.0))
        system.run(10)
        per_step = system.metrics.messages_per_second() * 30.0
        assert 2.0 <= per_step <= 4.0  # objects 1 and 2 move; 0 and 3 do not

    def test_central_optimal_quieter_than_naive(self):
        params = paper_defaults().scaled(0.01)
        workload = generate_workload(params, SimulationRng(5))

        def build(reporting):
            config = CentralizedConfig(uod=params.uod, reporting=reporting)
            objs = [
                make_object(o.oid, o.pos.x, o.pos.y, o.vel.x, o.vel.y, o.max_speed)
                for o in workload.objects
            ]
            system = CentralizedSystem(
                config,
                objs,
                SimulationRng(6),
                velocity_changes_per_step=params.velocity_changes_per_step,
            )
            system.install_queries(workload.query_specs)
            system.run(10)
            return system.metrics.messages_per_second()

        assert build(ReportingMode.CENTRAL_OPTIMAL) < build(ReportingMode.NAIVE)

    def test_only_uplink_traffic(self):
        system = make_centralized(self.build_world())
        system.install_query(circle_query(0, 3.0))
        system.run(5)
        assert system.metrics.downlink_messages_per_second() == 0.0

    def test_server_load_recorded(self):
        system = make_centralized(self.build_world())
        system.install_query(circle_query(0, 3.0))
        system.run(5)
        assert system.metrics.mean_server_seconds() > 0.0
        assert system.metrics.mean_server_ops() > 0.0

    def test_server_ops_tell_the_index_modes_apart_without_a_clock(self):
        """Changed positions + queries is the same number for both modes;
        the R*-tree nodes each one reads is what differs."""
        params = paper_defaults().scaled(0.01)

        def run(indexing):
            workload = generate_workload(params, SimulationRng(5))
            system = CentralizedSystem(
                CentralizedConfig(uod=params.uod, indexing=indexing),
                list(workload.objects),
                SimulationRng(6),
                velocity_changes_per_step=params.velocity_changes_per_step,
            )
            system.install_queries(workload.query_specs)
            system.run(6)
            return system

        objects, queries = run(IndexingMode.OBJECTS), run(IndexingMode.QUERIES)
        flat = params.num_objects + params.num_queries  # every object moves every step
        for system in (objects, queries):
            steps = system.metrics.steps
            assert all(step.server_ops > flat for step in steps)  # flat + nodes read
            # Lifetime totals and a mark: the samples add up, nothing is zeroed.
            assert sum(step.server_ops for step in steps) == system.server_ops
            # Seeding the index and installing queries is untimed set-up.
            assert system.server_ops - len(steps) * flat < system.index.node_visits
            assert sum(step.server_seconds for step in steps) == pytest.approx(
                system.server_seconds
            )
        assert objects.metrics.mean_server_ops() != queries.metrics.mean_server_ops()
        assert [s.server_ops for s in objects.metrics.steps] == [
            s.server_ops for s in run(IndexingMode.OBJECTS).metrics.steps
        ]
