"""Differential test: the vectorized engine equals the reference engine
*exactly* -- per-step query results, uplink/downlink message counts, and
ledger bits -- on the Table 1 workload across the optimization matrix
(grouping, safe period, lazy propagation, message loss, dead reckoning).

The two engines share the client/transport protocol path, so any drift in
the vectorized kernels (movement, coverage bucketing, batched evaluation)
surfaces as a mismatch here.  Skipped without numpy (the reference engine
never imports it)."""

from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import PropagationMode, QuerySpec
from repro.core.snapshot import step_hash
from repro.fastpath import numpy_available
from repro.fastpath.bench import dense_params, skewed_params
from repro.geometry import Circle, Rect
from repro.network.loss import LossModel
from repro.scenario import build_system
from repro.sim.rng import SimulationRng
from repro.workload import paper_defaults
from tests.conftest import paper_system

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

PRESETS = {
    "paper": lambda scale: paper_defaults().scaled(scale),
    "dense": dense_params,
    "skewed": skewed_params,
}


def build(
    engine,
    scale=0.012,
    grouping=True,
    safe_period=False,
    lazy=False,
    loss_p=0.0,
    thresh=0.0,
    seed=42,
    compact_threshold=None,
    shards=1,
    extra_specs=(),
    preset="paper",
    latency=0,
):
    params = dataclasses.replace(PRESETS[preset](scale), seed=seed)
    loss = (
        LossModel(
            rng=SimulationRng(seed).fork(77), uplink_loss_rate=loss_p, downlink_loss_rate=loss_p
        )
        if loss_p
        else None
    )
    system = paper_system(
        engine=engine,
        shards=shards,
        latency=latency,
        loss=loss,
        track_accuracy=True,
        params=params,
        grouping=grouping,
        safe_period=safe_period,
        propagation=PropagationMode.LAZY if lazy else PropagationMode.EAGER,
        dead_reckoning_threshold=thresh,
    )
    if compact_threshold is not None and engine == "vectorized":
        system._fastpath.evaluator.compact_threshold = compact_threshold
    system.install_queries(extra_specs)
    return system


def step_snapshot(system):
    ledger = system.ledger.snapshot()
    return (
        sorted((qid, tuple(sorted(oids))) for qid, oids in system.results().items()),
        ledger.uplink_count,
        ledger.downlink_count,
        ledger.uplink_bits,
        ledger.downlink_bits,
        step_hash(system),
    )


def metrics_snapshot(system):
    rows = []
    for stats in system.metrics.steps:
        row = dataclasses.asdict(stats)
        # Wall-clock fields legitimately differ between engines.
        row.pop("server_seconds", None)
        row.pop("object_processing_seconds", None)
        rows.append(row)
    return rows


def assert_engines_agree(steps=18, **kwargs):
    ref = build("reference", **kwargs)
    vec = build("vectorized", **kwargs)
    for step in range(steps):
        ref.step()
        vec.step()
        assert step_snapshot(ref) == step_snapshot(vec), (
            f"engines diverged at step {step + 1} with {kwargs}"
        )
        if step % 6 == 0:
            ref.check_invariants()
            vec.check_invariants()
    assert metrics_snapshot(ref) == metrics_snapshot(vec), kwargs
    return vec


MATRIX = [
    dict(),
    dict(grouping=False),
    dict(safe_period=True),
    dict(lazy=True),
    dict(loss_p=0.3),
    dict(thresh=1.0),
    dict(grouping=False, safe_period=True, lazy=True, loss_p=0.15, thresh=0.5),
    dict(shards=2),
    dict(shards=4, thresh=1.0, loss_p=0.15),
]


@pytest.mark.parametrize("kwargs", MATRIX, ids=lambda kw: "-".join(kw) or "defaults")
def test_engines_bit_identical(kwargs):
    assert_engines_agree(**kwargs)


@pytest.mark.parametrize(
    "knobs", [dict(), dict(shards=4), dict(latency=2)], ids=["1-shard", "4-shards", "latency-2"]
)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_engines_bit_identical_on_benchmark_presets(preset, knobs):
    # The benchmark's three worlds at smoke scale, dead reckoning on, the
    # 3-step warm-up plus 30 steps the deleted CI bench steps ran.
    assert_engines_agree(steps=33, scale=0.02, thresh=1.0, preset=preset, **knobs)


def test_vectorized_not_slower_than_reference_on_small_dense_world():
    """A regression trip wire, not a benchmark (that is ``bench/run.py``):
    at paper scale the dense ratio is >3x; at this scale the margin is
    still wide enough that >= 1.0 cannot flake on a loaded CI box."""
    seconds = {}
    for engine in ("reference", "vectorized"):
        system, _, _ = build_system(
            dense_params(0.02),
            config=dict(engine=engine, dead_reckoning_threshold=1.0),
            warmup_steps=3,
        )
        system.run(3)
        started = time.perf_counter()
        system.run(20)
        seconds[engine] = time.perf_counter() - started
    assert seconds["vectorized"] <= seconds["reference"], seconds


def test_engines_agree_across_arena_compaction():
    # A tiny threshold forces the arena to compact repeatedly, exercising
    # the tombstone-squeeze path that full-scale runs only hit after
    # thousands of re-appends.
    assert_engines_agree(steps=24, thresh=1.0, compact_threshold=4)


# What the 0.012-scale Table 1 workload (one query per focal object, all
# circles) never produces: a focal object carrying four queries -- two of
# equal radius, a rectangle -- whose monitoring regions differ, so receivers
# hold and shed members of the group independently; plus a static query.
MULTI_QUERY_SPECS = (
    QuerySpec(oid=0, region=Circle(0, 0, 6.0)),
    QuerySpec(oid=0, region=Circle(0, 0, 6.0)),
    QuerySpec(oid=0, region=Circle(0, 0, 1.0)),
    QuerySpec(oid=0, region=Rect(-3, -1, 6, 2)),
    QuerySpec.static(Rect(10, 10, 12, 12)),
)


@pytest.mark.parametrize("safe_period", [False, True], ids=["no-sp", "sp"])
@pytest.mark.parametrize("grouping", [True, False], ids=["grouping", "no-grouping"])
def test_engines_agree_on_multi_query_focal_groups(grouping, safe_period):
    vec = assert_engines_agree(
        steps=24,
        grouping=grouping,
        safe_period=safe_period,
        compact_threshold=4,
        extra_specs=MULTI_QUERY_SPECS,
    )
    # The scenario does what it says: some receivers hold the whole group,
    # others only part of it, and static entries are out there too.
    held = {
        sum(1 for e in client.lqt.entries() if e.oid == 0)
        for client in vec.clients.values()
    }
    assert 4 in held and held & {1, 2, 3}
    assert any(e.is_static for c in vec.clients.values() for e in c.lqt.entries())


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    grouping=st.booleans(),
    safe_period=st.booleans(),
    lazy=st.booleans(),
    loss_p=st.sampled_from([0.0, 0.2]),
    thresh=st.sampled_from([0.0, 0.5]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_engines_bit_identical_random_configs(
    grouping, safe_period, lazy, loss_p, thresh, seed
):
    assert_engines_agree(
        steps=12,
        scale=0.008,
        grouping=grouping,
        safe_period=safe_period,
        lazy=lazy,
        loss_p=loss_p,
        thresh=thresh,
        seed=seed,
    )
