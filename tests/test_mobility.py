"""Tests for the mobility substrate: objects, motion, dead reckoning."""

import math

import pytest

from repro.geometry import Point, Rect, Vector
from repro.mobility import DeadReckoner, MotionModel, MotionState, MovingObject, reflect_into
from repro.sim import SimulationRng


def make_object(oid=0, x=5.0, y=5.0, vx=0.0, vy=0.0, max_speed=60.0):
    return MovingObject(
        oid=oid, pos=Point(x, y), vel=Vector(vx, vy), max_speed=max_speed
    )


class TestMovingObject:
    def test_speed(self):
        assert make_object(vx=3.0, vy=4.0).speed == 5.0

    def test_negative_max_speed_rejected(self):
        with pytest.raises(ValueError):
            make_object(max_speed=-1)

    def test_snapshot_is_immutable_copy(self):
        obj = make_object(vx=1.0)
        snap = obj.snapshot()
        obj.pos = Point(99, 99)
        assert snap.pos == Point(5, 5)

    def test_motion_state_predict(self):
        state = MotionState(pos=Point(0, 0), vel=Vector(10, -20), recorded_at=1.0)
        predicted = state.predict(1.5)
        assert predicted == Point(5.0, -10.0)

    def test_motion_state_predict_at_record_time(self):
        state = MotionState(pos=Point(3, 4), vel=Vector(10, 10), recorded_at=2.0)
        assert state.predict(2.0) == Point(3, 4)


class TestReflection:
    UOD = Rect(0, 0, 10, 10)

    def test_inside_unchanged(self):
        pos, vel = reflect_into(self.UOD, Point(5, 5), Vector(1, 1))
        assert pos == Point(5, 5)
        assert vel == Vector(1, 1)

    def test_single_bounce_high(self):
        pos, vel = reflect_into(self.UOD, Point(12, 5), Vector(3, 0))
        assert pos == Point(8, 5)
        assert vel == Vector(-3, 0)

    def test_single_bounce_low(self):
        pos, vel = reflect_into(self.UOD, Point(5, -2), Vector(0, -3))
        assert pos == Point(5, 2)
        assert vel == Vector(0, 3)

    def test_double_bounce_preserves_direction(self):
        # 10 + 12 = 22 -> fold 22 into [0,10]: 22 mod 20 = 2, ascending.
        pos, vel = reflect_into(self.UOD, Point(22, 5), Vector(3, 0))
        assert pos == Point(2, 5)
        assert vel == Vector(3, 0)

    def test_boundary_exact(self):
        pos, vel = reflect_into(self.UOD, Point(10, 0), Vector(1, -1))
        assert pos == Point(10, 0)
        assert vel == Vector(1, -1)

    def test_both_axes(self):
        pos, vel = reflect_into(self.UOD, Point(11, -1), Vector(2, -2))
        assert pos == Point(9, 1)
        assert vel == Vector(-2, 2)

    def test_result_always_inside(self):
        rng = SimulationRng(5)
        for _ in range(500):
            p = Point(rng.uniform(-50, 60), rng.uniform(-50, 60))
            pos, _vel = reflect_into(self.UOD, p, Vector(1, 1))
            assert self.UOD.contains(pos)


class TestMotionModel:
    def test_objects_move_along_velocity(self):
        obj = make_object(vx=12.0, vy=0.0)  # 12 mph
        model = MotionModel([obj], Rect(0, 0, 100, 100), SimulationRng(1))
        model.advance(step_hours=0.5, now_hours=0.5)
        assert obj.pos == Point(11.0, 5.0)
        assert obj.recorded_at == 0.5

    # (uod, position, velocity, where a one-hour step lands): edges, one ulp
    # beyond them, a zero velocity on one axis, both axes out, and a
    # zero-width axis (whose fold flips a velocity too small to move).
    BOUNDARY = Rect(2, 2, 8, 8)
    ULP_BELOW_2 = math.nextafter(2.0, -math.inf)
    ULP_ABOVE_10 = math.nextafter(10.0, math.inf)
    LANDINGS = {
        "on_lx": (BOUNDARY, (2.5, 5.0), (-0.5, 0.25), (2.0, 5.25)),
        "on_ux": (BOUNDARY, (9.5, 5.0), (0.5, 0.25), (10.0, 5.25)),
        "corner": (BOUNDARY, (9.5, 2.5), (0.5, -0.5), (10.0, 2.0)),
        "ulp_below_lx": (
            BOUNDARY, (2.0 + 2**-51, 5.0), (-(2**-51 + 2**-52), 0.25), (ULP_BELOW_2, 5.25)
        ),
        "ulp_beyond_ux": (
            BOUNDARY, (math.nextafter(9.0, math.inf), 5.0), (1.0, 0.25), (ULP_ABOVE_10, 5.25)
        ),
        "ulp_beyond_uy": (
            BOUNDARY, (5.0, math.nextafter(9.0, math.inf)), (0.25, 1.0), (5.25, ULP_ABOVE_10)
        ),
        "zero_vx_on_ux": (BOUNDARY, (10.0, 6.0), (0.0, 0.5), (10.0, 6.5)),
        "zero_vy_x_out": (
            BOUNDARY, (math.nextafter(9.0, math.inf), 4.0), (1.0, 0.0), (ULP_ABOVE_10, 4.0)
        ),
        "both_out": (BOUNDARY, (9.5, 2.5), (1.0, -1.0), (10.5, 1.5)),
        "zero_width_x": (Rect(2.0, 2.0, 0.0, 8.0), (2.0, 5.0), (5e-324, 0.5), (2.0, 5.5)),
    }

    @pytest.mark.parametrize("case", sorted(LANDINGS))
    def test_a_step_lands_where_reflect_into_puts_it(self, case):
        uod, (x, y), (vx, vy), landing = self.LANDINGS[case]
        obj = make_object(x=x, y=y, vx=vx, vy=vy)
        raw = Point(x + vx, y + vy)
        assert raw == Point(*landing)  # the step lands exactly on the case
        want_pos, want_vel = reflect_into(uod, raw, obj.vel)
        MotionModel([obj], uod, SimulationRng(1)).advance(1.0, 7.0)
        bits = lambda v: (v.x.hex(), v.y.hex())  # noqa: E731  (signed zeros too)
        assert bits(obj.pos) == bits(want_pos)
        assert bits(obj.vel) == bits(want_vel)
        assert obj.recorded_at == 7.0

    def test_stationary_objects_do_not_move(self):
        obj = make_object(vx=0.0, vy=0.0)
        model = MotionModel([obj], Rect(0, 0, 100, 100), SimulationRng(1))
        model.advance(0.5, 0.5)
        assert obj.pos == Point(5, 5)

    def test_objects_stay_in_uod(self):
        rng = SimulationRng(2)
        uod = Rect(0, 0, 20, 20)
        objs = [
            MovingObject(
                oid=i,
                pos=Point(rng.uniform(0, 20), rng.uniform(0, 20)),
                vel=Vector.from_polar(rng.direction(), 100.0),
                max_speed=100.0,
            )
            for i in range(20)
        ]
        model = MotionModel(objs, uod, rng, velocity_changes_per_step=5)
        for step in range(1, 50):
            model.advance(0.25, 0.25 * step)
            for obj in objs:
                assert uod.contains(obj.pos)

    def test_velocity_changes_per_step_count(self):
        rng = SimulationRng(3)
        objs = [make_object(oid=i) for i in range(10)]
        model = MotionModel(objs, Rect(0, 0, 100, 100), rng, velocity_changes_per_step=4)
        model.advance(0.1, 0.1)
        assert len(model.changed_last_step) == 4

    def test_randomized_velocity_respects_max_speed(self):
        rng = SimulationRng(3)
        objs = [make_object(oid=i, max_speed=50.0) for i in range(10)]
        model = MotionModel(objs, Rect(0, 0, 100, 100), rng, velocity_changes_per_step=10)
        for step in range(1, 20):
            model.advance(0.1, 0.1 * step)
            for obj in objs:
                assert obj.speed <= 50.0 + 1e-9

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            MotionModel(
                [make_object(oid=1), make_object(oid=1)], Rect(0, 0, 10, 10), SimulationRng(1)
            )

    def test_lookup(self):
        obj = make_object(oid=42)
        model = MotionModel([obj], Rect(0, 0, 10, 10), SimulationRng(1))
        assert model.get(42) is obj
        assert list(model.ids()) == [42]
        assert len(model) == 1


class TestDeadReckoner:
    def test_no_relay_under_linear_motion(self):
        state = MotionState(pos=Point(0, 0), vel=Vector(10, 0), recorded_at=0.0)
        reckoner = DeadReckoner(relayed=state, threshold=0.1)
        # True position follows the prediction exactly.
        assert not reckoner.needs_relay(Point(5.0, 0.0), now_hours=0.5)

    def test_relay_when_deviation_exceeds_threshold(self):
        state = MotionState(pos=Point(0, 0), vel=Vector(10, 0), recorded_at=0.0)
        reckoner = DeadReckoner(relayed=state, threshold=0.1)
        assert reckoner.needs_relay(Point(5.0, 0.2), now_hours=0.5)

    def test_zero_threshold_relays_any_deviation(self):
        state = MotionState(pos=Point(0, 0), vel=Vector(0, 0), recorded_at=0.0)
        reckoner = DeadReckoner(relayed=state, threshold=0.0)
        assert reckoner.needs_relay(Point(1e-9, 0), now_hours=1.0)
        assert not reckoner.needs_relay(Point(0, 0), now_hours=1.0)

    def test_deviation_value(self):
        state = MotionState(pos=Point(0, 0), vel=Vector(10, 0), recorded_at=0.0)
        reckoner = DeadReckoner(relayed=state)
        assert math.isclose(reckoner.deviation(Point(5, 3), 0.5), 3.0)

    def test_relay_updates_basis(self):
        state = MotionState(pos=Point(0, 0), vel=Vector(10, 0), recorded_at=0.0)
        reckoner = DeadReckoner(relayed=state, threshold=0.1)
        new_state = MotionState(pos=Point(5, 1), vel=Vector(0, 0), recorded_at=0.5)
        reckoner.relay(new_state)
        assert not reckoner.needs_relay(Point(5, 1), now_hours=2.0)
