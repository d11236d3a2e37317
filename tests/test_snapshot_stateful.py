"""Generated interleavings around checkpoint / restore (ROADMAP item A).

One state machine drives a small world -- a few dozen objects on an 8 x 8
grid, static and moving queries, either engine, 1 / 2 / 4 shards, hop
latency 0 or 1, the placement policy armed or not, a service attached or
not, a fault injector (with a recovery-basis cadence) attached or not --
with the rules step / install / remove / external update / transfer /
split / merge / crash / recover (all five through ``apply_op``) / service
submit (an update, an install, a removal by an earlier install's ticket or
by a live qid) + tick / ``checkpoint -> to_bytes -> from_bytes -> restore``
(the restored system replaces the running one, also while a shard is
dead), beside a twin that takes the same calls and is never checkpointed.
After every rule both systems pass ``check_invariants()`` (which includes
the single-owner rule, envelope conservation and dead-shard emptiness),
hash identically, agree on ``rebalance_log``, ``crash_log``, per-shard ops,
every deterministic key of ``counters()`` and every install ticket's fate,
conserve ingest operations, satisfy the ledger identities, and hold a
well-formed partition map whose retired slots are the ones its stripe
order leaves out.

The profile sets the volume (``--hypothesis-profile long`` in CI; see
tests/conftest.py).  A failure hypothesis shrinks here is committed as an
explicit regression test below before it is fixed.  Disconnect / outage
windows, channel loss, the cross-engine lockstep twin and oracle equality
when drained belong to item A and are not here yet.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core import MobiEyesService
from repro.core.query import PropertyEqualsFilter, QuerySpec, TrueFilter
from repro.core.rebalance import MIN_SHARDS
from repro.core.snapshot import checkpoint, from_bytes, restore, step_hash
from repro.fastpath import numpy_available
from repro.faults import FaultInjector, ReliabilityPolicy
from repro.geometry import Circle, Point, Rect, Vector
from repro.sim import SimulationRng

from tests.conftest import paper_system

ENGINES = ("reference", "vectorized") if numpy_available() else ("reference",)
SIDE = 20.0  # the universe of discourse of a 0.004-scale Table-1 world

coordinate = st.floats(0.0, SIDE, allow_nan=False, width=32)
filters = st.sampled_from([TrueFilter(), PropertyEqualsFilter("class", 1)])
velocity = st.floats(-30, 30)


def world(engine="reference", shards=2, seed=0, faults=True, **config):
    """The machine's world: 40 objects on 8 x 8 cells (four shards start two
    columns wide).  ``faults`` attaches a fault injector -- leases,
    heartbeats, the reliability layer; no channel loss -- and a
    recovery-basis cadence: what the crash / recover ops need."""
    policy = ReliabilityPolicy(heartbeat_steps=2, lease_steps=4)
    return paper_system(
        engine,
        shards=shards,
        scale=0.004,
        seed=seed,
        alpha=2.5,
        ingest_budget_per_step=2,
        checkpoint_every_steps=2 if faults else 0,
        loss=FaultInjector(SimulationRng(seed), policy=policy) if faults else None,
        **config,
    )


class CheckpointMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.system = self.twin = None
        self.service = self.twin_service = None
        # (ticket, twin's ticket) of every submitted install, in order.
        self.installs = []
        self.epoch = 0

    @initialize(
        engine=st.sampled_from(ENGINES),
        shards=st.sampled_from([1, 2, 4]),
        latency=st.sampled_from([0, 1]),
        seed=st.integers(0, 7),
        # (rebalance_every_steps, elastic_max_shards): off, a transfer-only
        # thermostat, the thermostat with splits and merges.
        policy=st.sampled_from([(0, 0), (3, 0), (3, 4)]),
        service=st.booleans(),
        faults=st.booleans(),  # see world(): arms the crash / recover rules
    )
    def build(self, engine, shards, latency, seed, policy, service, faults):
        every, ceiling = policy if shards > 1 else (0, 0)
        self.faults = faults and shards > 1
        self.system, self.twin = (
            world(
                engine,
                shards=shards,
                latency=latency,
                seed=seed,
                rebalance_every_steps=every,
                elastic_max_shards=ceiling,
                faults=self.faults,
            )
            for _ in range(2)
        )
        self.oids = sorted(self.system.clients)
        if service:
            self.service = MobiEyesService(self.system)
            self.twin_service = MobiEyesService(self.twin)

    def both(self, call):
        got, want = call(self.system), call(self.twin)
        assert got == want
        return got

    # ------------------------------------------------------ the live system

    @rule(steps=st.integers(1, 3))
    def step(self, steps):
        self.both(lambda system: system.run(steps))

    @rule(data=st.data(), radius=st.floats(0.5, 4.0), flt=filters)
    def install_moving(self, data, radius, flt):
        spec = QuerySpec(data.draw(st.sampled_from(self.oids)), Circle(0, 0, radius), flt)

        def install(system):
            try:
                return system.install_query(spec)
            except KeyError:
                # A new focal standing on a dead stripe: its answer to the
                # install round trip routes to the dead shard and is lost.
                assert system.server.dead_shards
                return None

        self.both(install)

    @rule(x=coordinate, y=coordinate, w=st.floats(0.5, 8.0), h=st.floats(0.5, 8.0), flt=filters)
    def install_static(self, x, y, w, h, flt):
        spec = QuerySpec.static(Rect(x, y, min(SIDE, x + w), min(SIDE, y + h)), flt)
        self.both(lambda system: system.install_query(spec))

    @precondition(lambda self: self.system is not None and len(self.system.server.sqt))
    @rule(data=st.data())
    def remove(self, data):
        qid = data.draw(st.sampled_from(sorted(self.system.server.sqt.ids())))
        self.both(lambda system: system.remove_query(qid))

    @rule(data=st.data(), x=coordinate, y=coordinate, vx=velocity, vy=velocity)
    def external_update(self, data, x, y, vx, vy):
        oid = data.draw(st.sampled_from(self.oids))
        self.both(
            lambda system: system.apply_external_update(oid, Point(x, y), Vector(vx, vy))
        )

    # ------------------------------------------------------------ placement

    def partition(self):
        """The live partition map (None before ``build`` and on a monolith)."""
        return getattr(getattr(self.system, "server", None), "partitioner", None)

    def place(self, op):
        self.both(
            lambda system: system.apply_op(op, "machine", system.clock.step)
        )

    def dead(self):
        """The coordinator's dead set (empty before ``build`` and on a monolith)."""
        return getattr(getattr(self.system, "server", None), "dead_shards", ())

    def up(self):
        """Stripe order without the dead shards.  The placement rules hand
        nothing to and take nothing from a shard that is down (see "Shard
        crash and recovery" in docs/ROBUSTNESS.md)."""
        part, dead = self.partition(), self.dead()
        return [] if part is None else [sid for sid in part.order if sid not in dead]

    def wide(self):
        """Shard ids that are up and whose stripe can give a column away
        and keep one."""
        part = self.partition()
        return [sid for sid in self.up() if part.width_of(sid) >= 2]

    def up_pairs(self):
        """Stripe-adjacent ``(left, right)`` pairs with both shards up."""
        part, dead = self.partition(), self.dead()
        order = () if part is None else part.order
        return [pair for pair in zip(order, order[1:]) if not set(pair) & set(dead)]

    @precondition(lambda self: any(set(pair) & set(self.wide()) for pair in self.up_pairs()))
    @rule(data=st.data())
    def transfer(self, data):
        part, wide = self.partition(), self.wide()
        moves = [
            move for pair in self.up_pairs() for move in (pair, pair[::-1]) if move[0] in wide
        ]
        src, dst = data.draw(st.sampled_from(moves))
        cols = data.draw(st.integers(1, part.width_of(src) - 1))  # the donor keeps a column
        self.place(("transfer", src, dst, cols))

    @precondition(lambda self: self.wide())
    @rule(data=st.data())
    def split(self, data):
        self.place(("split", data.draw(st.sampled_from(self.wide()))))

    @precondition(
        lambda self: self.partition() is not None
        and len(self.partition().order) > MIN_SHARDS
        and self.up_pairs()
    )
    @rule(data=st.data(), leftwards=st.booleans())
    def merge(self, data, leftwards):
        left, right = data.draw(st.sampled_from(self.up_pairs()))
        self.place(("merge", right, left) if leftwards else ("merge", left, right))

    # ------------------------------------------------------ crash / recover

    @precondition(
        lambda self: self.system is not None
        and self.faults
        and self.system.recovery_basis is not None
        and not self.dead()  # at most one dead shard ...
        and len(self.partition().order) > 1  # ... and never the last live one
    )
    @rule(data=st.data())
    def crash(self, data):
        self.place(("crash", data.draw(st.sampled_from(self.partition().order))))

    @precondition(lambda self: self.dead())
    @rule()
    def recover(self):
        (sid,) = self.dead()
        self.place(("recover", sid))

    # -------------------------------------------------------------- service

    def both_services(self, call):
        call(self.service), call(self.twin_service)

    @precondition(lambda self: self.service is not None)
    @rule(data=st.data(), x=coordinate, y=coordinate, vx=velocity, vy=velocity)
    def submit_update(self, data, x, y, vx, vy):
        oid = data.draw(st.sampled_from(self.oids))
        self.both_services(lambda svc: svc.submit_update(oid, Point(x, y), Vector(vx, vy)))

    @precondition(lambda self: self.service is not None)
    @rule(data=st.data(), radius=st.floats(0.5, 4.0))
    def submit_install(self, data, radius):
        spec = QuerySpec(data.draw(st.sampled_from(self.oids)), Circle(0, 0, radius))
        pair = self.service.install_query(spec), self.twin_service.install_query(spec)
        self.installs.append(pair)

    @precondition(
        lambda self: self.service is not None and (self.installs or len(self.system.server.sqt))
    )
    @rule(data=st.data())
    def submit_remove(self, data):
        """By an earlier install's ticket -- applied, still queued or
        rejected -- or by a live qid."""
        live = [(qid, qid) for qid in self.system.server.sqt.ids()]
        pools = [st.sampled_from(pool) for pool in (self.installs, live) if pool]
        mine, theirs = data.draw(st.one_of(pools))
        self.service.remove_query(mine)
        self.twin_service.remove_query(theirs)

    @precondition(lambda self: self.service is not None)
    @rule()
    def tick(self):
        assert self.service.tick() == self.twin_service.tick()

    # ----------------------------------------------------------- round trip

    @rule()
    def roundtrip(self):
        restored = restore(from_bytes(checkpoint(self.system).to_bytes()))
        self.system.close()
        self.system = restored
        if self.service is not None:
            # Adopts the checkpointed ingest queue and counters.  A queued
            # install's ticket is now the restored queue's copy of it.
            queued = list(self.service._queue)
            self.service = MobiEyesService(restored)
            copy = dict(zip(map(id, queued), self.service._queue))
            self.installs = [(copy.get(id(mine), mine), theirs) for mine, theirs in self.installs]

    # ----------------------------------------------------------- invariants

    @invariant()
    def twins_agree(self):
        if self.system is None:
            return
        system, twin = self.system, self.twin
        system.check_invariants()
        twin.check_invariants()
        assert step_hash(system) == step_hash(twin)
        assert system.results() == twin.results()
        assert system.rebalance_log == twin.rebalance_log
        assert system.crash_log == twin.crash_log
        got, want = system.counters(), twin.counters()
        assert got.keys() == want.keys()
        # Wall-clock totals are the only counters allowed to differ.
        assert {k: v for k, v in got.items() if not k.endswith("seconds")} == {
            k: v for k, v in want.items() if not k.endswith("seconds")
        }
        if self.service is not None:
            self.service.check_accounting()
            self.twin_service.check_accounting()
            for mine, theirs in self.installs:
                assert (mine.status, mine.qid) == (theirs.status, theirs.qid)
        if self.faults:
            # The ledger half of message conservation: every lost hop has
            # exactly one cause, only a hop the ledger charged can be lost,
            # and the acks the reliability layer sent are the acks charged.
            lost = got["injector.by_cause"]
            uplinks_lost = sum(n for cause, n in lost.items() if cause.startswith("uplink-"))
            assert uplinks_lost == got["injector.dropped_uplinks"] <= got["ledger.uplink_count"]
            assert sum(lost.values()) - uplinks_lost == got["injector.dropped_deliveries"]
            assert got["reliability.acks_sent"] == system.ledger.counts_by_type["Ack"]
            assert got["reliability.ack_drops"] <= got["reliability.acks_sent"]
        part = self.partition()
        if part is None:
            return
        rows, twin_rows = system.server.shard_loads(), twin.server.shard_loads()
        for row in rows + twin_rows:
            del row["seconds"]
        assert rows == twin_rows
        # The map is well formed: the stripes tile the columns left to
        # right, every slot is a live stripe or retired (never both), and
        # the epoch never goes back.
        bounds, order = part.bounds, part.order
        assert bounds[0] == 0 and bounds[-1] == system.grid.n_cols
        assert list(bounds) == sorted(bounds) and len(bounds) == len(order) + 1
        retired = system.server.retired_shards
        assert sorted(order + retired) == list(range(len(system.server.shards)))
        assert part.epoch >= self.epoch
        self.epoch = part.epoch

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


# Shrunk from the crash / recover rules (PR 24; docs/ROBUSTNESS.md "Shard
# crash and recovery" tells each story).


def crash(system, sid):
    system.apply_op(("crash", sid), "test", system.clock.step)


def recover(system, sid):
    system.apply_op(("recover", sid), "test", system.clock.step)


def test_a_static_install_on_a_dead_stripe_lands_on_a_shard_that_is_up():
    """build(shards=2, seed=0, faults), step(2), crash(0), install_static at
    (0, 0): the install-time owner is the shard of the region's lower-left
    cell, so the dead shard owned a query (``dead shard 0 still owns
    queries``)."""
    with world() as system:
        system.run(2)
        crash(system, 0)
        qid = system.install_query(QuerySpec.static(Rect(0.0, 0.0, 1.0, 1.0)))
        assert system.server.owner(qid) == 1
        system.check_invariants()
        system.run(2)
        recover(system, 0)
        system.check_invariants()
        assert qid in system.server.sqt


def test_the_policy_holds_while_a_shard_is_dead():
    """build(shards=2, seed=0, policy=(3, 0), faults), step(2), crash(0),
    step(1): a dead shard's ``ops`` stop growing, the thermostat read it as
    the cold stripe and handed it a column -- RQI buckets and focals
    included."""
    with world(rebalance_every_steps=3) as system:
        system.run(2)
        crash(system, 0)
        system.run(4)  # past the policy ticks at steps 3 and 6
        assert [op["step"] for op in system.rebalance_log] == []
        system.check_invariants()
        recover(system, 0)
        system.run(3)  # the tick at step 9 is the policy's again
        system.check_invariants()


def test_recovery_does_not_resurrect_a_query_removed_since_the_basis():
    """... remove(qid 1), install_moving(oid 21), ..., recover(): the basis
    still held the removed query, "live nowhere" read as "died with the
    shard", and it came back beside its focal's new query on another shard
    (``query 1's focal object 21 missing from FOT``)."""
    with world() as system:
        system.run(3)
        qid = next(iter(system.server.shards[1].registry.ids()))
        crash(system, 0)
        system.remove_query(qid)
        system.run(1)
        recover(system, 0)
        assert qid not in system.server.sqt
        system.check_invariants()


def test_a_recovered_query_joins_its_focal_where_the_focal_lives_now():
    """A focal whose queries died with shard 1 walks onto shard 0's stripe
    during the window and is given a new query there; recovery then put the
    old one back on shard 1, so one focal's queries had two homes."""
    from tests.conftest import circle_query, make_object, make_system

    objects = [
        make_object(0, 26.9, 25, vx=-60.0, max_speed=60.0),  # crosses x = 25 at step 4
        make_object(1, 26, 25),
        make_object(2, 23, 25),
    ]
    injector = FaultInjector(SimulationRng(3), policy=ReliabilityPolicy(heartbeat_steps=2))
    with make_system(objects, shards=2, checkpoint_every_steps=2, loss=injector) as system:
        old = system.install_query(circle_query(0, 3.0))
        system.run(2)
        assert system.server.owner(old) == 1
        crash(system, 1)
        system.run(3)
        new = system.install_query(circle_query(0, 1.0))
        recover(system, 1)
        assert system.server.owner(old) == system.server.owner(new) == 0
        system.check_invariants()
        system.run(4)
        assert system.results() == system.oracle_results()


def test_a_queued_install_whose_focal_cannot_answer_is_rejected_not_raised():
    """build(service, faults), tick, tick, crash(0), submit_install(oid 0),
    tick: the focal stands on the dead stripe, its answer to the install
    round trip is lost, and the ``KeyError`` left ``tick()`` with the ticket
    already off the queue (an offline focal did the same at the parent)."""
    with world() as system:
        service = MobiEyesService(system)
        service.tick()
        service.tick()
        crash(system, 0)
        ticket = service.install_query(QuerySpec(0, Circle(0, 0, 1.0)))
        service.tick()
        assert ticket.status == "rejected" and ticket.qid is None
        service.check_accounting()
        system.check_invariants()
