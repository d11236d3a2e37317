"""The vectorized engine's store is the one owner of object kinematics.

``ObjectStateStore`` holds every object's position, velocity and
``recorded_at``; the objects the system hands out are ``ObjectRow`` views
over its rows.  The property test drives the same population, seed and
operations through both engines and requires each object's ``pos``,
``vel`` and ``recorded_at`` to be bit-identical after every step and every
external update -- random velocity changes, zero-velocity objects, boundary
reflections and out-of-bounds reports included.  Skipped without numpy."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import QuerySpec
from repro.fastpath import numpy_available
from repro.geometry import Circle, Point, Vector
from repro.mobility.model import MotionState, MovingObject
from tests.conftest import make_object, make_system

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

UOD_SIDE = 50.0  # make_system's default universe of discourse is 50 x 50
MAX_SPEED = 900.0  # 7.5 miles a 30 s step: enough to cross the boundary

coords = st.floats(0.0, UOD_SIDE)
# Zero components are drawn often: a zero vector is masked out of a step.
speeds = st.one_of(st.just(0.0), st.floats(-MAX_SPEED, MAX_SPEED))
# External reports may land well outside the UoD (folded back in by
# reflection, several bounces deep at the extremes).
reported = st.floats(-3 * UOD_SIDE, 4 * UOD_SIDE)
populations = st.lists(st.tuples(coords, coords, speeds, speeds), min_size=1, max_size=12)


def twins(population, changes):
    systems = []
    for engine in ("reference", "vectorized"):
        objects = [
            make_object(oid, x, y, vx, vy, max_speed=MAX_SPEED)
            for oid, (x, y, vx, vy) in enumerate(population)
        ]
        system = make_system(objects, engine=engine, velocity_changes_per_step=changes)
        # One moving query, so the focal's relays read the views too.
        system.install_query(QuerySpec(oid=0, region=Circle(0, 0, 6.0)))
        systems.append(system)
    return systems


def kinematics(system):
    """Every object's state as exact bit patterns (``-0.0 != 0.0``)."""
    return [
        (o.oid, *(v.hex() for v in (o.pos.x, o.pos.y, o.vel.x, o.vel.y, o.recorded_at)))
        for o in system.motion.objects
    ]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    population=populations,
    changes=st.integers(0, 3),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("step")),
            st.tuples(st.just("update"), st.integers(0, 11), reported, reported, speeds, speeds),
        ),
        max_size=14,
    ),
)
def test_both_engines_hold_bit_identical_kinematics(population, changes, ops):
    reference, vectorized = twins(population, changes)
    assert kinematics(reference) == kinematics(vectorized)
    for op in ops:
        for system in (reference, vectorized):
            if op[0] == "step":
                system.step()
            else:
                _, oid, x, y, vx, vy = op
                system.apply_external_update(oid % len(population), Point(x, y), Vector(vx, vy))
        assert kinematics(reference) == kinematics(vectorized), op
        assert reference.motion.changed_last_step == vectorized.motion.changed_last_step


def test_a_deterministic_run_reflects_rests_and_folds_a_report():
    """The cases the property test draws, pinned: one object bounces off the
    east edge, one rests, one report lands far outside the UoD."""
    population = [(49.0, 25.0, 600.0, 0.0), (10.0, 10.0, 0.0, 0.0), (25.0, 25.0, 30.0, -30.0)]
    reference, vectorized = twins(population, changes=0)
    for system in (reference, vectorized):
        system.step()
    bouncer, rester, _ = vectorized.motion.objects
    assert bouncer.vel == Vector(-600.0, 0.0)  # reflected
    assert rester.recorded_at == 0.0  # a zero vector is not re-recorded
    assert kinematics(reference) == kinematics(vectorized)
    for system in (reference, vectorized):
        system.apply_external_update(2, Point(-130.0, 260.0), Vector(5.0, 5.0))
    assert vectorized.motion.objects[2].pos == Point(30.0, 40.0)
    assert kinematics(reference) == kinematics(vectorized)


def test_the_objects_are_row_views_over_the_store():
    caller = [make_object(0, 1.0, 2.0, 3.0, 4.0, max_speed=9.0, props={"k": 1})]
    system = make_system(caller, engine="vectorized")
    store = system.motion.store
    (view,) = system.motion.objects
    assert store.objects == [view] and system.clients[0].obj is view
    assert (view.oid, view.max_speed, view.props) == (0, 9.0, {"k": 1})
    assert all(type(v) is float for v in (*view.pos, *view.vel, view.recorded_at))
    assert view.speed == 5.0
    # A read shares one object until the row is written, like a field.
    assert view.pos is view.pos is caller[0].pos and view.vel is caller[0].vel
    assert view.snapshot() == MotionState(Point(1.0, 2.0), Vector(3.0, 4.0), 0.0)
    view.pos = Point(7.0, 8.0)
    view.vel = Vector(-1.0, 0.5)
    view.recorded_at = 2.5
    row = store.row_of[0]
    assert (store.x[row], store.y[row], store.vx[row], store.vy[row]) == (7.0, 8.0, -1.0, 0.5)
    assert store.recorded_at[row] == 2.5
    assert view.detached() == MovingObject(0, Point(7.0, 8.0), Vector(-1.0, 0.5), 9.0, {"k": 1}, 2.5)
    # The caller's instance seeded the store and is not moved afterwards.
    held = view.pos
    system.step()
    assert caller[0].pos == Point(1.0, 2.0)
    step_hours = 30.0 / 3600.0
    assert view.pos == Point(7.0 + -1.0 * step_hours, 8.0 + 0.5 * step_hours) != held
