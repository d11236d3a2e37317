"""Differential test: the vectorized engine equals the reference engine
*exactly* -- per-step query results, message counts, ledger bits and books,
counters and per-step stats.

The optimization matrix (grouping, safe period, lazy propagation, message
loss, dead reckoning, shards) is drawn in every combination by the
reference-twin machine in tests/test_snapshot_stateful.py; its rows stay
here as pinned draws of that machine, so every tier-1 run covers each one.
The benchmark's three worlds, which the machine's 40-object world does not
build, run here in lockstep.  Skipped without numpy (the reference engine
never imports it)."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.core import QuerySpec
from repro.fastpath import numpy_available
from repro.fastpath.bench import dense_params, skewed_params
from repro.geometry import Circle, Rect
from repro.scenario import build_system
from repro.workload import paper_defaults
from tests.conftest import observe, paper_system
from tests.test_snapshot_stateful import pinned

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

PRESETS = {
    "paper": lambda scale: paper_defaults().scaled(scale),
    "dense": dense_params,
    "skewed": skewed_params,
}

# The hand-picked optimization matrix: each row is 18 steps of one draw with
# a vectorized subject (the id names the axes the row moves; ``loss_p`` is
# packet loss: an injector with Bernoulli channels on both links).
MATRIX = {
    "defaults": dict(),
    "grouping": dict(grouping=False),
    "safe_period": dict(safe_period=True),
    "lazy": dict(lazy=True),
    "loss_p": dict(loss="injector+channels", rate=0.3),
    "thresh": dict(delta=1.0),
    "grouping-safe_period-lazy-loss_p-thresh": dict(
        grouping=False, safe_period=True, lazy=True, loss="injector+channels", rate=0.15, delta=0.5
    ),
    "shards": dict(shards=2),
    "shards-thresh-loss_p": dict(shards=4, delta=1.0, loss="injector+channels", rate=0.15),
}


@pytest.mark.parametrize("draw", MATRIX.values(), ids=list(MATRIX))
def test_engines_bit_identical(draw):
    pinned(*[3] * 6, engine="vectorized", **draw)


@pytest.mark.parametrize(
    "knobs",
    [dict(shards=1), dict(shards=4), dict(shards=1, latency=2)],
    ids=["1-shard", "4-shards", "latency-2"],
)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_engines_bit_identical_on_benchmark_presets(preset, knobs):
    # The benchmark's three worlds at smoke scale, dead reckoning on, the
    # 3-step warm-up plus 30 steps the deleted CI bench steps ran.
    params = dataclasses.replace(PRESETS[preset](0.02), seed=42)
    ref, vec = (
        paper_system(
            engine,
            params=params,
            track_accuracy=True,
            dead_reckoning_threshold=1.0,
            **knobs,
        )
        for engine in ("reference", "vectorized")
    )
    for step in range(33):
        ref.step()
        vec.step()
        assert observe(ref) == observe(vec), f"engines diverged at step {step + 1}"
        if step % 6 == 0:
            ref.check_invariants()
            vec.check_invariants()


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


# What the Table 1 workload (one circle query per focal object) never
# produces: a focal object carrying four queries -- two of equal radius, a
# rectangle -- whose monitoring regions differ, so receivers hold and shed
# members of the group independently; plus a static query.
MULTI_QUERY_SPECS = (
    QuerySpec(oid=0, region=Circle(0, 0, 3.0)),
    QuerySpec(oid=0, region=Circle(0, 0, 3.0)),
    QuerySpec(oid=0, region=Circle(0, 0, 0.5)),
    QuerySpec(oid=0, region=Rect(-1.5, -0.5, 3, 1)),
    QuerySpec.static(Rect(5, 5, 1, 1)),
)


@pytest.mark.parametrize("safe_period", [False, True], ids=["no-sp", "sp"])
@pytest.mark.parametrize("grouping", [True, False], ids=["grouping", "no-grouping"])
def test_engines_agree_on_multi_query_focal_groups(grouping, safe_period):
    machine = pinned(
        lambda machine: machine.both(lambda system: system.install_queries(MULTI_QUERY_SPECS)),
        *[3] * 8,
        engine="vectorized",
        grouping=grouping,
        safe_period=safe_period,
    )
    # The scenario does what it says: some receivers hold the whole group,
    # others only part of it, and static entries are out there too.
    clients = machine.system.clients.values()
    held = {sum(1 for e in client.lqt.entries() if e.oid == 0) for client in clients}
    assert 4 in held and held & {1, 2, 3}
    assert any(e.is_static for client in clients for e in client.lqt.entries())
