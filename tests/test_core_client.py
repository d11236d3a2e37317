"""Unit tests for the moving-object client (LQT processing, reporting)."""

import pytest

from repro.core import PropagationMode
from repro.core.messages import MotionStateRequest, ResultChangeReport
from repro.geometry import Point, Vector
from repro.mobility.model import MotionState

from tests.conftest import circle_query, make_object, make_system


def uplinks_of_type(system, name):
    return system.ledger.counts_by_type.get(name, 0)


class TestEvaluation:
    def test_initial_targets_reported_after_first_step(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        small_world.step()
        # objects 1 (1 mi) and 4 (~1.41 mi) are inside radius 2; 2 and 3 not.
        assert small_world.result(qid) == frozenset({1, 4})

    def test_no_report_when_status_unchanged(self, small_world):
        small_world.install_query(circle_query(0, 2.0))
        small_world.step()
        before = uplinks_of_type(small_world, "ResultChangeReport")
        small_world.step()  # nothing moves (all velocities zero)
        after = uplinks_of_type(small_world, "ResultChangeReport")
        assert after == before

    def test_target_leaving_region_reports_false(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        small_world.step()
        client1 = small_world.client(1)
        client1.obj.pos = Point(29.0, 25.0)  # 4 miles away, same cell range
        small_world.step()
        assert 1 not in small_world.result(qid)

    def test_prediction_uses_focal_velocity(self, small_world):
        """Object-side evaluation dead-reckons the focal position: with a
        moving focal object, a stationary target enters the region without
        any new broadcast."""
        qid = small_world.install_query(circle_query(0, 2.0))
        small_world.step()
        assert 2 not in small_world.result(qid)  # 3 miles north
        # Focal starts moving north at 120 mph = 1 mile per 30 s step.
        client0 = small_world.client(0)
        client0.obj.vel = Vector(0.0, 120.0)
        small_world.step()  # velocity relayed (dead reckoning, delta=0)
        small_world.step()
        # After ~2 steps the focal is ~2 miles north; object 2 within range.
        assert 2 in small_world.result(qid)


class TestPredictionMemo:
    """The reference evaluation phase predicts each focal ``MotionState``
    once, however many objects hold a query bound to it."""

    @pytest.mark.parametrize("grouping", [True, False])
    def test_each_focal_state_is_predicted_once_a_phase(self, monkeypatch, grouping):
        holders = [make_object(oid, 20 + oid, 25) for oid in range(1, 9)]
        system = make_system([make_object(0, 25, 25), *holders], grouping=grouping)
        system.install_query(circle_query(0, 3.0))
        system.install_query(circle_query(0, 1.5))
        system.step()
        states = {
            id(entry.focal_state)
            for client in system.clients.values()
            for entry in client.lqt.entries()
        }
        assert len(states) == 1  # every holder's entries share the one state
        assert sum(len(client.lqt) for client in system.clients.values()) >= 16

        calls = []
        predict = MotionState.predict

        def counted(state, now):
            calls.append((id(state), now))
            return predict(state, now)

        monkeypatch.setattr(MotionState, "predict", counted)
        first = system.clock.now_hours
        system._evaluation_phase(system.clock)
        assert calls == [(*states, first)]
        monkeypatch.setattr(MotionState, "predict", predict)
        system.step()  # nothing moves, so the entries keep their state
        monkeypatch.setattr(MotionState, "predict", counted)
        second = system.clock.now_hours
        system._evaluation_phase(system.clock)
        assert second != first
        assert calls == [(*states, first), (*states, second)]


class TestGroupedEvaluation:
    def test_query_bitmap_single_report_for_group(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, grouping=True)
        q_small = system.install_query(circle_query(0, 1.5))
        q_large = system.install_query(circle_query(0, 3.0))
        before = uplinks_of_type(system, "ResultChangeReport")
        system.step()
        reports = uplinks_of_type(system, "ResultChangeReport") - before
        assert reports == 1  # one bitmap report covering both queries
        assert system.result(q_small) == frozenset({1})
        assert system.result(q_large) == frozenset({1})

    def test_ungrouped_sends_individual_reports(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, grouping=False)
        system.install_query(circle_query(0, 1.5))
        system.install_query(circle_query(0, 3.0))
        before = uplinks_of_type(system, "ResultChangeReport")
        system.step()
        assert uplinks_of_type(system, "ResultChangeReport") - before == 2

    def test_nested_radii_shortcircuit_counts(self):
        objects = [make_object(0, 25, 25), make_object(1, 35, 35)]
        system = make_system(objects, alpha=25.0, grouping=True)
        system.install_query(circle_query(0, 1.0))
        system.install_query(circle_query(0, 2.0))
        system.install_query(circle_query(0, 3.0))
        system.step()
        # Far outside the largest radius: one real evaluation, two implied
        # -- in the system's one lifetime counter object (every client
        # increments the same one) and in the step's sample of it.
        stats = system.client(1).stats
        assert stats is system.eval_counters is system.client(0).stats
        assert (stats.evaluated_queries, stats.skipped_by_grouping) == (1, 2)
        assert stats.skipped_by_safe_period == 0
        metrics = system.metrics.steps[-1]
        assert (metrics.evaluated_queries, metrics.skipped_by_grouping) == (1, 2)
        # The next step's sample is a difference, the totals keep growing.
        system.step()
        sample = system.metrics.steps[-1]
        assert stats.evaluated_queries == 1 + sample.evaluated_queries
        assert stats.skipped_by_grouping == 2 + sample.skipped_by_grouping
        assert stats.skipped_by_safe_period == sample.skipped_by_safe_period

    def test_grouping_results_match_ungrouped(self):
        objects = [
            make_object(0, 25, 25),
            make_object(1, 26, 25),
            make_object(2, 27, 25),
            make_object(3, 30, 25),
        ]
        grouped = make_system(objects, grouping=True)
        ungrouped = make_system(
            [make_object(o.oid, o.pos.x, o.pos.y) for o in objects], grouping=False
        )
        for system in (grouped, ungrouped):
            system.install_query(circle_query(0, 1.5))
            system.install_query(circle_query(0, 2.5))
            system.install_query(circle_query(0, 5.5))
            system.step()
        assert grouped.results() == ungrouped.results()


class TestSafePeriodClient:
    def test_far_object_skips_evaluations(self):
        objects = [make_object(0, 5, 5, max_speed=10.0),
                   make_object(1, 45, 45, max_speed=10.0)]
        system = make_system(objects, alpha=50.0, safe_period=True)
        system.install_query(circle_query(0, 1.0))
        system.step()  # first evaluation computes the safe period
        first = system.metrics.steps[-1].evaluated_queries
        system.step()
        second = system.metrics.steps[-1].skipped_by_safe_period
        assert first >= 1
        assert second >= 1  # ~56 miles apart at 20 mph closing: long sp

    def test_safe_period_never_misses_entry(self):
        """An object racing at max speed toward the focal object is picked
        up by the time it enters the region, despite skipped evaluations."""
        objects = [
            make_object(0, 10, 25, max_speed=50.0),
            make_object(1, 40, 25, vx=-200.0, vy=0.0, max_speed=200.0),
        ]
        with_sp = make_system(objects, alpha=50.0, safe_period=True)
        qid = with_sp.install_query(circle_query(0, 2.0))
        entered_steps = []
        for step in range(40):
            with_sp.step()
            if 1 in with_sp.result(qid):
                entered_steps.append(with_sp.clock.step)
                break
        assert entered_steps, "object never detected inside the region"
        # Cross-check against the exact oracle at the detection step.
        assert 1 in with_sp.oracle_results()[qid]


class TestDownlinkHandling:
    def test_motion_state_request_answered(self, small_world):
        before = uplinks_of_type(small_world, "MotionStateResponse")
        small_world.transport.send(3, MotionStateRequest(oid=3))
        assert uplinks_of_type(small_world, "MotionStateResponse") == before + 1

    def test_request_for_other_object_ignored(self, small_world):
        before = uplinks_of_type(small_world, "MotionStateResponse")
        # Deliver a request addressed to object 0 into object 3's radio.
        small_world.client(3).on_downlink(MotionStateRequest(oid=0))
        assert uplinks_of_type(small_world, "MotionStateResponse") == before

    def test_unknown_message_rejected(self, small_world):
        import pytest

        with pytest.raises(TypeError):
            small_world.client(0).on_downlink(object())


class TestLazyClient:
    def test_non_focal_silent_on_cell_change(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, propagation=PropagationMode.LAZY)
        system.install_query(circle_query(0, 2.0))
        before = uplinks_of_type(system, "CellChangeReport")
        client1 = system.client(1)
        client1.obj.pos = Point(41.0, 41.0)  # new cell
        client1.report_phase(system.clock)
        assert uplinks_of_type(system, "CellChangeReport") == before

    def test_focal_still_reports_cell_change_under_lazy(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, propagation=PropagationMode.LAZY)
        system.install_query(circle_query(0, 2.0))
        before = uplinks_of_type(system, "CellChangeReport")
        client0 = system.client(0)
        client0.obj.pos = Point(41.0, 41.0)
        client0.report_phase(system.clock)
        assert uplinks_of_type(system, "CellChangeReport") == before + 1

    def test_stale_queries_dropped_locally(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, propagation=PropagationMode.LAZY)
        qid = system.install_query(circle_query(0, 2.0))
        client1 = system.client(1)
        assert qid in client1.lqt
        client1.obj.pos = Point(48.0, 48.0)  # far outside the mon region
        client1.report_phase(system.clock)
        assert qid not in client1.lqt


class TestDeadReckoningClient:
    def test_no_velocity_report_under_linear_motion(self):
        objects = [make_object(0, 25, 25, vx=60.0), make_object(1, 26, 25)]
        system = make_system(objects, alpha=50.0)  # huge cells: no crossings
        system.install_query(circle_query(0, 2.0))
        before = uplinks_of_type(system, "VelocityChangeReport")
        system.run(4)
        assert uplinks_of_type(system, "VelocityChangeReport") == before

    def test_threshold_suppresses_small_deviations(self):
        objects = [make_object(0, 25, 25, vx=60.0), make_object(1, 26, 25)]
        system = make_system(objects, alpha=50.0, dead_reckoning_threshold=5.0)
        system.install_query(circle_query(0, 2.0))
        client0 = system.client(0)
        client0.obj.vel = Vector(61.0, 0.0)  # tiny change, deviation < 5 mi
        before = uplinks_of_type(system, "VelocityChangeReport")
        system.run(3)
        assert uplinks_of_type(system, "VelocityChangeReport") == before
