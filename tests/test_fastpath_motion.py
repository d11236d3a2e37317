"""Property test for the vectorized velocity re-randomization.

``MotionModel.advance`` draws the sample and one ``(speed, heading)`` pair
per picked object; the reference assigns ``Vector.from_polar`` object by
object, ``VectorizedMotionModel`` writes the picked rows' columns at once.
Stepped side by side from the same population and seed, the two must
agree after every step on every object's position, velocity (the columns
and the ``Vector`` a row view rebuilds) and ``recorded_at``, on
``changed_last_step``, and on the random stream's state -- draw for draw
-- with as many changes as objects or more.  Skipped without numpy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fastpath import numpy_available
from repro.geometry import Rect
from repro.mobility.motion import MotionModel
from repro.sim import SimulationRng
from tests.conftest import make_object

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

UOD = Rect(0.0, 0.0, 40.0, 30.0)

objects = st.lists(
    st.tuples(
        st.floats(0.0, 40.0),
        st.floats(0.0, 30.0),
        st.floats(-90.0, 90.0),
        st.floats(-90.0, 90.0),
        st.sampled_from([0.0, 1.0, 30.0, 100.0]),
    ),
    min_size=1,
    max_size=25,
)


def population(spec):
    return [
        make_object(oid, x, y, vx if speed else 0.0, vy if speed else 0.0, max_speed=speed)
        for oid, (x, y, vx, vy, speed) in enumerate(spec)
    ]


def kinematics(model):
    return [
        (o.oid, o.pos.x, o.pos.y, o.vel.x, o.vel.y, o.recorded_at) for o in model.objects
    ]


@settings(deadline=None)
@given(
    spec=objects,
    extra=st.integers(-25, 3),
    seed=st.integers(0, 2**31 - 1),
    steps=st.integers(1, 4),
    read_first=st.booleans(),
)
def test_vectorized_velocity_changes_match_the_reference(spec, extra, seed, steps, read_first):
    from repro.fastpath.motion import VectorizedMotionModel

    count = max(0, len(spec) + extra)  # up to three past the population
    reference = MotionModel(population(spec), UOD, SimulationRng(seed), count)
    vectorized = VectorizedMotionModel(population(spec), UOD, SimulationRng(seed), count)
    store = vectorized.store
    for step in range(1, steps + 1):
        if read_first:  # cache every row's Vector before it is rewritten
            for obj in vectorized.objects:
                obj.vel
        reference.advance(0.01, step * 0.01)
        vectorized.advance(0.01, step * 0.01)
        assert vectorized.changed_last_step == reference.changed_last_step
        assert len(reference.changed_last_step) == min(count, len(spec))
        assert vectorized.rng._random.getstate() == reference.rng._random.getstate()
        assert kinematics(vectorized) == kinematics(reference)
        assert store.vx.tolist() == [o.vel.x for o in reference.objects]
        assert store.vy.tolist() == [o.vel.y for o in reference.objects]
        assert store.recorded_at.tolist() == [o.recorded_at for o in reference.objects]
