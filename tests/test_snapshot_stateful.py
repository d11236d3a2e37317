"""Generated interleavings around checkpoint / restore (ROADMAP item A's seed).

One state machine drives a small world -- a few dozen objects, static and
moving queries, either engine, 1 or 2 shards, hop latency 0 or 1 -- with
the rules step / install / remove / external update / ``checkpoint ->
to_bytes -> from_bytes -> restore`` (the restored system replaces the
running one), beside a twin that takes the same calls and is never
checkpointed.  After every rule both systems pass ``check_invariants()``
and hash identically.

The profile sets the volume (``--hypothesis-profile long`` in CI; see
tests/conftest.py).  A failure hypothesis shrinks here is committed as an
explicit regression test below before it is fixed.  Crash / recover /
transfer / split / merge / service rules belong to item A and are not
here yet.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.query import PropertyEqualsFilter, QuerySpec, TrueFilter
from repro.core.snapshot import checkpoint, from_bytes, restore, step_hash
from repro.fastpath import numpy_available
from repro.geometry import Circle, Point, Rect, Vector

from tests.conftest import paper_system

ENGINES = ("reference", "vectorized") if numpy_available() else ("reference",)
SIDE = 20.0  # the universe of discourse of a 0.004-scale Table-1 world

coordinate = st.floats(0.0, SIDE, allow_nan=False, width=32)
filters = st.sampled_from([TrueFilter(), PropertyEqualsFilter("class", 1)])


class CheckpointMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.system = self.twin = None

    @initialize(
        engine=st.sampled_from(ENGINES),
        shards=st.sampled_from([1, 2]),
        latency=st.sampled_from([0, 1]),
        seed=st.integers(0, 7),
    )
    def build(self, engine, shards, latency, seed):
        self.system, self.twin = (
            paper_system(engine, shards=shards, latency=latency, scale=0.004, seed=seed)
            for _ in range(2)
        )
        self.oids = sorted(self.system.clients)
        self.qids = list(self.system.server.sqt.ids())

    def both(self, call):
        got, want = call(self.system), call(self.twin)
        assert got == want
        return got

    @rule(steps=st.integers(1, 3))
    def step(self, steps):
        self.both(lambda system: system.run(steps))

    @rule(data=st.data(), radius=st.floats(0.5, 4.0), flt=filters)
    def install_moving(self, data, radius, flt):
        spec = QuerySpec(data.draw(st.sampled_from(self.oids)), Circle(0, 0, radius), flt)
        self.qids.append(self.both(lambda system: system.install_query(spec)))

    @rule(x=coordinate, y=coordinate, w=st.floats(0.5, 8.0), h=st.floats(0.5, 8.0), flt=filters)
    def install_static(self, x, y, w, h, flt):
        spec = QuerySpec.static(Rect(x, y, min(SIDE, x + w), min(SIDE, y + h)), flt)
        self.qids.append(self.both(lambda system: system.install_query(spec)))

    @precondition(lambda self: self.qids)
    @rule(data=st.data())
    def remove(self, data):
        qid = data.draw(st.sampled_from(self.qids))
        self.qids.remove(qid)
        self.both(lambda system: system.remove_query(qid))

    @rule(data=st.data(), x=coordinate, y=coordinate, vx=st.floats(-30, 30), vy=st.floats(-30, 30))
    def external_update(self, data, x, y, vx, vy):
        oid = data.draw(st.sampled_from(self.oids))
        self.both(
            lambda system: system.apply_external_update(oid, Point(x, y), Vector(vx, vy))
        )

    @rule()
    def roundtrip(self):
        restored = restore(from_bytes(checkpoint(self.system).to_bytes()))
        self.system.close()
        self.system = restored

    @invariant()
    def twins_agree(self):
        if self.system is None:
            return
        self.system.check_invariants()
        self.twin.check_invariants()
        assert step_hash(self.system) == step_hash(self.twin)
        assert self.system.results() == self.twin.results()

    def teardown(self):
        if self.system is not None:
            self.system.close()
            self.twin.close()


TestCheckpointMachine = CheckpointMachine.TestCase
# One example is a dozen rules over two systems: a tenth of the profile's
# example count (10 in tier-1, 200 under the long profile).
TestCheckpointMachine.settings = settings(
    max_examples=max(1, settings().max_examples // 10), deadline=None
)


# ----------------------------------------------- shrunk failures, kept explicit


@pytest.mark.parametrize("engine", ENGINES)
def test_restore_between_an_external_update_and_the_next_step(engine):
    """Shrunk from ``CheckpointMachine`` (PR 21): external_update(oid 1 ->
    (0, 0)), roundtrip, remove(qid 1).  The live coverage index still holds
    the object's pre-update position until the next movement phase; the
    restored system had rebuilt its index from the new one, so the removal
    broadcast reached different receivers (``LQT holds a removed query``,
    diverging ledgers)."""
    system, twin = (paper_system(engine, shards=1, scale=0.004, seed=1) for _ in range(2))
    for each in (system, twin):
        each.apply_external_update(1, Point(0.0, 0.0), Vector(0.0, 0.0))
    system = restore(from_bytes(checkpoint(system).to_bytes()))
    for each in (system, twin):
        each.remove_query(1)
        each.check_invariants()
    assert step_hash(system) == step_hash(twin)
    for each in (system, twin):
        each.run(3)
    assert step_hash(system) == step_hash(twin)
