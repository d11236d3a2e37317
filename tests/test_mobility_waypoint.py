"""Tests for the random-waypoint mobility model."""

import pytest

from repro.geometry import Rect
from repro.mobility import RandomWaypointModel
from repro.sim import SimulationRng

from tests.conftest import circle_query, make_object, make_system


def build_model(n=10, seed=5, max_speed=60.0, **kwargs):
    rng = SimulationRng(seed)
    uod = Rect(0, 0, 50, 50)
    objects = [
        make_object(i, rng.uniform(0, 50), rng.uniform(0, 50), max_speed=max_speed)
        for i in range(n)
    ]
    return RandomWaypointModel(objects, uod, rng, **kwargs), objects, uod


class TestWaypointModel:
    def test_invalid_min_speed_fraction(self):
        with pytest.raises(ValueError):
            build_model(min_speed_fraction=0.0)

    def test_initial_legs_assigned(self):
        model, objects, uod = build_model()
        for obj in objects:
            waypoint = model.waypoint_of(obj.oid)
            assert uod.contains(waypoint)
            assert obj.speed > 0

    def test_objects_move_toward_waypoints(self):
        model, objects, _uod = build_model()
        before = {o.oid: o.pos.distance_to(model.waypoint_of(o.oid)) for o in objects}
        waypoints_before = {o.oid: model.waypoint_of(o.oid) for o in objects}
        model.advance(step_hours=0.05, now_hours=0.05)
        for obj in objects:
            if model.waypoint_of(obj.oid) == waypoints_before[obj.oid]:
                after = obj.pos.distance_to(model.waypoint_of(obj.oid))
                assert after < before[obj.oid]

    def test_objects_stay_in_uod(self):
        model, objects, uod = build_model(max_speed=250.0)
        for step in range(1, 80):
            model.advance(0.25, 0.25 * step)
            for obj in objects:
                assert uod.contains(obj.pos)

    def test_speed_bounds_respected(self):
        model, objects, _uod = build_model(max_speed=50.0, min_speed_fraction=0.2)
        for step in range(1, 30):
            model.advance(0.1, 0.1 * step)
            for obj in objects:
                assert obj.speed <= 50.0 + 1e-9

    def test_arrival_picks_new_leg(self):
        model, objects, _uod = build_model(n=1, max_speed=250.0)
        obj = objects[0]
        first_waypoint = model.waypoint_of(obj.oid)
        # March long enough to surely arrive at the first waypoint.
        for step in range(1, 60):
            model.advance(0.25, 0.25 * step)
            if model.waypoint_of(obj.oid) != first_waypoint:
                break
        assert model.waypoint_of(obj.oid) != first_waypoint
        assert obj.oid in model.changed_last_step or obj.speed > 0

    def test_zero_max_speed_object_stays(self):
        model, objects, _uod = build_model(n=1, max_speed=0.0)
        obj = objects[0]
        start = obj.pos
        model.advance(0.5, 0.5)
        assert obj.pos == start


class TestWaypointEndToEnd:
    def test_eqp_stays_exact_under_waypoint_mobility(self):
        rng = SimulationRng(9)
        uod = Rect(0, 0, 50, 50)
        objects = [
            make_object(i, rng.uniform(0, 50), rng.uniform(0, 50), max_speed=150.0)
            for i in range(30)
        ]
        motion = RandomWaypointModel(objects, uod, rng.fork(1))
        system = make_system(objects, motion=motion)
        qids = [system.install_query(circle_query(i, 3.0)) for i in (0, 1, 2)]
        for _ in range(15):
            system.step()
            oracle = system.oracle_results()
            for qid in qids:
                assert system.result(qid) == oracle[qid]

    def test_mismatched_population_rejected(self):
        rng = SimulationRng(9)
        uod = Rect(0, 0, 50, 50)
        objects = [make_object(0, 5, 5)]
        other = [make_object(1, 6, 6)]
        motion = RandomWaypointModel(other, uod, rng)
        with pytest.raises(ValueError):
            make_system(objects, motion=motion)

    def test_custom_motion_needs_the_reference_engine(self):
        """The vectorized engine moves objects itself (array kinematics over
        its own store); a caller-supplied model is rejected, not mirrored."""
        objects = [make_object(0, 5, 5)]
        motion = RandomWaypointModel(objects, Rect(0, 0, 50, 50), SimulationRng(9))
        with pytest.raises(ValueError, match="engine='reference'"):
            make_system(objects, motion=motion, engine="vectorized")
