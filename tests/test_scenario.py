"""The shared harness core: one builder, one result digest, one
twin-divergence count."""

from __future__ import annotations

import pytest

from repro.core import MobiEyesConfig, MobiEyesSystem
from repro.core.snapshot import step_hash
from repro.fastpath import numpy_available
from repro.scenario import build_system, result_digest, twin_divergence
from repro.sim.rng import SimulationRng
from repro.workload import generate_workload, paper_defaults

ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])


def hand_built(params, seed, engine, shards):
    """The construction every harness used to inline."""
    rng = SimulationRng(seed)
    workload = generate_workload(params, rng.fork(1))
    config = MobiEyesConfig(
        uod=params.uod,
        alpha=params.alpha,
        step_seconds=params.time_step_seconds,
        base_station_side=params.base_station_side,
        engine=engine,
        shards=shards,
        dead_reckoning_threshold=1.0,
    )
    system = MobiEyesSystem(
        config,
        list(workload.objects),
        rng.fork(2),
        velocity_changes_per_step=params.velocity_changes_per_step,
        track_accuracy=True,
    )
    system.install_queries(workload.query_specs)
    return system


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_builder_equals_hand_inlined_construction(engine, shards):
    params = paper_defaults().scaled(0.012)
    built, workload, rng = build_system(
        params,
        7,
        config=dict(engine=engine, shards=shards, dead_reckoning_threshold=1.0),
        track_accuracy=True,
    )
    by_hand = hand_built(params, 7, engine, shards)
    assert rng.seed == 7 and len(workload.objects) == params.num_objects
    for _ in range(3):
        built.run(4)
        by_hand.run(4)
        assert step_hash(built) == step_hash(by_hand)
    assert result_digest(built) == result_digest(by_hand)
    assert built.metrics.mean_result_error() == by_hand.metrics.mean_result_error()


def test_builder_defaults_to_the_params_seed_and_overrides_geometry():
    params = paper_defaults().scaled(0.01)
    system, _, rng = build_system(params, config=dict(alpha=params.alpha * 2))
    assert rng.seed == params.seed
    assert system.config.alpha == params.alpha * 2
    assert system.config.uod == params.uod


def test_digest_and_divergence_follow_the_results():
    params = paper_defaults().scaled(0.012)
    a, _, _ = build_system(params)
    b, _, _ = build_system(params)
    a.run(3)
    b.run(3)
    assert result_digest(a) == result_digest(b)
    assert twin_divergence(a.results(), b.results()) == 0
    b.run(5)
    drift = twin_divergence(a.results(), b.results())
    assert drift > 0 and result_digest(a) != result_digest(b)
    # Symmetric, and a query only one side knows counts in full.
    assert twin_divergence(b.results(), a.results()) == drift
    assert twin_divergence({1: frozenset({4, 5})}, {}) == 2
    assert twin_divergence({1: frozenset({4, 5})}, {1: frozenset({5, 6}), 2: frozenset()}) == 2
