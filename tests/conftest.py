"""Shared fixtures and world-building helpers for the test suite."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import settings

from repro import scenario
from repro.core import MobiEyesConfig, MobiEyesSystem, PropagationMode, QuerySpec, TrueFilter
from repro.core.snapshot import step_hash
from repro.geometry import Circle, Point, Rect, Vector
from repro.mobility import MovingObject
from repro.sim import SimulationRng
from repro.workload import paper_defaults

# Volume of the generated tests, chosen with hypothesis's own
# ``--hypothesis-profile``.  "short" is what tier-1 runs: hypothesis's
# defaults with a dozen rules per state-machine example.  "long" is the CI
# step over the checkpoint tests (tests/test_snapshot*.py scale their
# example counts from the profile's ``max_examples``).
settings.register_profile("short", stateful_step_count=12)
settings.register_profile("long", max_examples=2000, stateful_step_count=50)
settings.load_profile("short")

#: The service-soak inputs of ``repro.driver.run`` (the CI soak row's): the
#: flash-crowd workload, dead reckoning on, no fault schedule.
SOAK_INPUTS = dict(seed=11, scenario="skewed", dead_reckoning=1.0, faults="none")


def make_object(oid, x, y, vx=0.0, vy=0.0, max_speed=100.0, props=None):
    return MovingObject(
        oid=oid,
        pos=Point(float(x), float(y)),
        vel=Vector(float(vx), float(vy)),
        max_speed=max_speed,
        props=props or {},
    )


def make_system(
    objects,
    uod=Rect(0, 0, 50, 50),
    alpha=5.0,
    bs_side=10.0,
    propagation=PropagationMode.EAGER,
    velocity_changes_per_step=0,
    seed=7,
    loss=None,
    motion=None,
    **config_kwargs,
):
    config = MobiEyesConfig(
        uod=uod,
        alpha=alpha,
        base_station_side=bs_side,
        propagation=propagation,
        **config_kwargs,
    )
    return MobiEyesSystem(
        config,
        objects,
        SimulationRng(seed),
        velocity_changes_per_step=velocity_changes_per_step,
        track_accuracy=True,
        loss=loss,
        motion=motion,
    )


def paper_system(
    engine="reference",
    shards=2,
    scale=0.012,
    seed=42,
    hotspot=0.0,
    latency=0,
    loss=None,
    latency_model=None,
    track_accuracy=False,
    params=None,
    focal_skew=None,
    trace=None,
    **config,
):
    """A scaled Table-1 world through ``scenario.build_system``, queries
    installed; ``config`` holds further :class:`MobiEyesConfig` fields
    (``latency`` is the config's per-hop delay, ``latency_model`` an
    explicit model handed to the system instead).  ``params`` replaces the
    scaled Table-1 parameters (and ``scale`` / ``seed`` / ``hotspot``) with
    ready-made ones, e.g. the dense or skewed preset; ``focal_skew`` draws
    the focal objects from a zipf of that exponent; ``trace`` is the
    system's event log, message events on."""
    if params is None:
        params = dataclasses.replace(
            paper_defaults(), seed=seed, hotspot_fraction=hotspot
        ).scaled(scale)
    system, _, _ = scenario.build_system(
        params,
        config=dict(
            engine=engine,
            shards=shards,
            uplink_latency_steps=latency,
            downlink_latency_steps=latency,
            latency_seed=params.seed,
            **config,
        ),
        focal_skew=focal_skew,
        loss=loss,
        latency=latency_model,
        track_accuracy=track_accuracy,
        trace=trace,
    )
    return system


def observe(system, ops=True):
    """What two systems stepped in lockstep must agree on: ``step_hash``
    (clock, results, ledger totals, in-flight hops), every ``counters()``
    key but the wall-clock ``*seconds`` totals, the ledger's per-type books,
    and the per-step stats without their clock fields.  ``ops=False`` drops
    the server's op count, which cross-shard focal handoffs raise: for
    twins of different shard counts."""
    counters = {k: v for k, v in system.counters().items() if not k.endswith("seconds")}
    clockless = dict(server_seconds=0.0, object_processing_seconds=0.0)
    if not ops:
        del counters["server.ops"]
        clockless["server_ops"] = 0
    ledger = system.ledger
    return (
        step_hash(system),
        counters,
        dict(ledger.counts_by_type),
        dict(ledger.bits_by_type),
        [dataclasses.replace(stats, **clockless) for stats in system.metrics.steps],
    )


def circle_query(oid, radius, query_filter=None):
    return QuerySpec(
        oid=oid, region=Circle(0, 0, radius), filter=query_filter or TrueFilter()
    )


@pytest.fixture
def small_world():
    """A deterministic five-object world: a focal object in the middle and
    targets at known distances."""
    objects = [
        make_object(0, 25, 25),          # focal candidate
        make_object(1, 26, 25),          # 1 mile east (inside r=2)
        make_object(2, 25, 28),          # 3 miles north (outside r=2)
        make_object(3, 45, 45),          # far away
        make_object(4, 24, 24),          # sqrt(2) away (inside r=2)
    ]
    return make_system(objects)
