"""The reference engine's skips, stepped in lockstep with the loops they replaced.

The reference engine moves, reports and evaluates only the objects that can
act: ``MotionModel._move`` folds back only the objects that leave the UoD,
the reporting loop hands ``report_runs`` only the candidates (focal, or
crossed a cell; ``core/reporting.py``, "Who reports"), and the evaluation
loop skips empty tables.  The all-objects, all-clients loops they replaced
are written out below; a twin runs them in place of its own.  Hypothesis
draws the world's configuration and a script of steps, installs, removes
and external updates; after every step both systems must agree on
``step_hash`` and everything else ``observe`` reads, their objects'
kinematics must be bit-identical, and both must pass ``check_invariants()``.
A failure here would also break the vectorized engine's reporting
pre-filter, which rests on the same argument.
"""

from __future__ import annotations

from types import MethodType

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PropagationMode, QuerySpec, TrueFilter
from repro.core.reporting import report_runs
from repro.core.server import STATIC_BEACON_STEPS
from repro.geometry import Circle, Point, Vector
from repro.mobility import reflect_into

from tests.conftest import observe
from tests.test_snapshot_stateful import SIDE, world

oids = st.integers(0, 39)  # the 0.004-scale Table-1 world has 40 objects
# Edges and out-of-bounds coordinates fold back through ``reflect_into``;
# zero velocities stop an object (or one axis of it).
coordinate = st.one_of(st.sampled_from([0.0, SIDE]), st.floats(-2.0, SIDE + 2.0, width=32))
speed = st.one_of(st.just(0.0), st.floats(-400.0, 400.0, width=32))
script = st.lists(
    st.one_of(
        st.tuples(st.just("step"), st.integers(1, 3)),
        st.tuples(st.just("step"), st.integers(1, 3)),
        st.tuples(st.just("install"), oids, st.floats(0.5, 4.0)),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.just("update"), oids, coordinate, coordinate, speed, speed),
    ),
    min_size=1,
    max_size=12,
)


# ------------------------------------------------------- the replaced loops


def move_every_object(motion, step_hours: float, now_hours: float) -> None:
    """``MotionModel._move`` reflecting every moving object."""
    for obj in motion.objects:
        if obj.vel.x == 0.0 and obj.vel.y == 0.0:
            continue
        raw = Point(obj.pos.x + obj.vel.x * step_hours, obj.pos.y + obj.vel.y * step_hours)
        obj.pos, vel = reflect_into(motion.uod, raw, obj.vel)
        if vel != obj.vel:
            obj.vel = vel
        obj.recorded_at = now_hours


def every_client_loops(system) -> None:
    """Swap ``system``'s movement, reporting and evaluation loops for the
    ones over every object and every client."""
    system.motion._move = MethodType(move_every_object, system.motion)
    clients = system.clients

    def reporting(clock) -> None:
        window = system.transport.report_window
        for run in report_runs(clients[oid] for oid in system._client_order):
            with window:
                for client in run:
                    client.report_phase(clock)
        if system.config.propagation.is_lazy and clock.step % STATIC_BEACON_STEPS == 0:
            system.server.beacon_static_queries()

    def evaluation(clock) -> None:
        with system.transport.report_window:
            for oid in system._client_order:
                clients[oid].evaluation_phase(clock)

    phases = system.engine._phases
    for name, own, replaced in (
        ("reporting", system._reporting_phase, reporting),
        ("evaluation", system._evaluation_phase, evaluation),
    ):
        phases[name][phases[name].index(own)] = replaced


# ------------------------------------------------------------- the property


def kinematics(system) -> list[tuple[str, ...]]:
    """Every object's position, velocity and record time, bit for bit."""
    return [
        tuple(map(float.hex, (o.pos.x, o.pos.y, o.vel.x, o.vel.y, o.recorded_at)))
        for o in system.motion.objects
    ]


def agree(system, twin) -> None:
    assert observe(system) == observe(twin)
    assert kinematics(system) == kinematics(twin)
    system.check_invariants()
    twin.check_invariants()


def apply(system, op) -> object:
    """One script operation (a step op is one step); a lost install round
    trip answers KeyError."""
    kind = op[0]
    if kind == "step":
        return system.step()
    if kind == "install":
        spec = QuerySpec(op[1], Circle(0.0, 0.0, op[2]), TrueFilter())
        try:
            return system.install_query(spec)
        except KeyError:
            return KeyError
    if kind == "remove":
        qids = sorted(system.server.sqt.ids())
        if qids:
            system.remove_query(qids[op[1] % len(qids)])
        return None
    _, oid, x, y, vx, vy = op
    return system.apply_external_update(oid, Point(x, y), Vector(vx, vy))


@settings(
    max_examples=max(1, settings().max_examples // 2),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    grouping=st.booleans(),
    safe_period=st.booleans(),
    lazy=st.booleans(),
    batch=st.booleans(),
    delta=st.sampled_from([0.0, 0.5, 1.0]),
    shards=st.sampled_from([1, 2]),
    latency=st.sampled_from([0, 1]),
    loss=st.sampled_from(["none", "injector", "injector+channels"]),
    seed=st.integers(0, 7),
    ops=script,
)
def test_the_skips_step_like_the_every_client_loops(
    grouping, safe_period, lazy, batch, delta, shards, latency, loss, seed, ops
):
    config = dict(
        shards=shards,
        latency=latency,
        loss=loss,
        seed=seed,
        grouping=grouping,
        safe_period=safe_period,
        propagation=PropagationMode.LAZY if lazy else PropagationMode.EAGER,
        dead_reckoning_threshold=delta,
        batch_reports=batch,
    )
    system, twin = world(**config), world(**config)
    every_client_loops(twin)
    agree(system, twin)
    for op in ops:
        for _ in range(op[1] if op[0] == "step" else 1):
            assert apply(system, op) == apply(twin, op)
            agree(system, twin)
