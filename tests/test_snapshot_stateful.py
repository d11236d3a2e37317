"""Generated interleavings graded against the reference implementation
(ROADMAP item A).

One state machine drives a small world -- 40 objects on an 8 x 8 grid,
static queries and moving circle or rectangle queries -- as a *subject*
beside a *twin* that takes the same calls and is never checkpointed.  The
twin is the reference implementation: the reference engine with
per-message reports (``batch_reports=False``).  The subject runs either
engine with report batching on; a vectorized subject's evaluator
arena reuses every removed entry's slot, so draws cross slot reuse.

``build`` draws the axes the paper's optimizations and the deployment
turn: grouping, safe period, eager / lazy propagation, the dead-reckoning
threshold, 1 / 2 / 4 shards, hop latency 0 / 1 / 2 with jitter 0 / 1, the
loss seam (none, a fault injector, an injector with Bernoulli channels),
the placement policy and a service.  The rules are
step / install / remove / external update / transfer / split / merge /
crash / recover (the last five through ``apply_op``) / service submit (an
update, an install, a removal by an earlier install's ticket or by a live
qid) + tick / ``checkpoint -> to_bytes -> from_bytes -> restore`` (the
restored subject replaces the running one, also while a shard is dead).

After every rule both systems pass ``check_invariants()`` (the single-owner
rule, envelope conservation, dead-shard emptiness, the arena) and agree on
``tests/conftest.py::observe`` (``step_hash``, every deterministic counter,
the ledger's per-type books, the per-step stats), ``rebalance_log``,
``crash_log``, per-shard ops and every install ticket's fate; ingest
operations are conserved, the ledger identities hold and the partition map
is well formed.  After every step both oracles agree, and on an exact draw
(eager, zero threshold, no channel loss, zero latency) with a drained
pipeline, no dead shard and no resync owed, the results are the oracle's.

The profile sets the volume (``--hypothesis-profile long`` in CI, where
``--hypothesis-show-statistics`` lists one event per drawn axis and the
oracle-checked steps).  ``pinned`` replays one explicit draw: the engine and
batching rows of tests/test_fastpath_differential.py and
tests/test_report_batching.py are such draws.  A failure hypothesis shrinks
here is committed as an explicit regression test below before it is fixed.
Disconnect and outage windows are not drawn yet (item A(4)).
"""

from __future__ import annotations

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.control import currently_in_test_context
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core import MobiEyesService, PropagationMode
from repro.core.query import PropertyEqualsFilter, QuerySpec, TrueFilter
from repro.core.rebalance import MIN_SHARDS
from repro.core.snapshot import checkpoint, from_bytes, restore, step_hash
from repro.fastpath import numpy_available
from repro.faults import BernoulliChannel, FaultInjector, ReliabilityPolicy
from repro.geometry import Circle, Point, Rect, Vector
from repro.sim import SimulationRng

from tests.conftest import observe, paper_system

ENGINES = ("reference", "vectorized") if numpy_available() else ("reference",)
SIDE = 20.0  # the universe of discourse of a 0.004-scale Table-1 world
LOSS = ("none", "injector", "injector+channels")

coordinate = st.floats(0.0, SIDE, allow_nan=False, width=32)
filters = st.sampled_from([TrueFilter(), PropertyEqualsFilter("class", 1)])
velocity = st.floats(-30, 30)
# A moving query's region, relative to its focal object.
regions = st.one_of(
    st.builds(Circle, st.just(0.0), st.just(0.0), st.floats(0.5, 4.0)),
    st.builds(
        Rect, st.floats(-4.0, 0.0), st.floats(-4.0, 0.0), st.floats(0.5, 8.0), st.floats(0.5, 8.0)
    ),
)


def loss_seam(kind, seed, rate):
    """The drawn loss seam.  An injector arms leases, heartbeats and the
    reliability layer; "+channels" adds Bernoulli loss on both links."""
    rng = SimulationRng(seed)
    if kind == "none":
        return None
    channels = {}
    if kind == "injector+channels":
        channels = dict(
            uplink_channel=BernoulliChannel(rng, rate=rate),
            downlink_channel=BernoulliChannel(rng, rate=rate),
        )
    return FaultInjector(policy=ReliabilityPolicy(heartbeat_steps=2, lease_steps=4), **channels)


def world(engine="reference", shards=2, seed=0, loss="injector", rate=0.15, **config):
    """The machine's world: 40 objects on 8 x 8 cells (four shards start two
    columns wide).  Sharded under an injector it retakes its recovery basis
    every two steps: what the crash / recover rules need."""
    return paper_system(
        engine,
        shards=shards,
        scale=0.004,
        seed=seed,
        alpha=2.5,
        ingest_budget_per_step=2,
        checkpoint_every_steps=2 if shards > 1 and loss.startswith("injector") else 0,
        loss=loss_seam(loss, seed, rate),
        **config,
    )


def note(axis, value=""):
    """One line of ``--hypothesis-show-statistics`` (none in a pinned replay)."""
    if currently_in_test_context():
        event(axis, value)


class CheckpointMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.system = self.twin = None
        self.service = self.twin_service = None
        # (ticket, twin's ticket) of every submitted install, in order.
        self.installs = []
        self.epoch = 0
        self.stepped = False  # a step ran since the last oracle check

    @initialize(
        engine=st.sampled_from(ENGINES),
        shards=st.sampled_from([1, 2, 4]),
        latency=st.sampled_from([0, 1, 2]),
        jitter=st.sampled_from([0, 1]),
        loss=st.sampled_from(LOSS),
        rate=st.sampled_from([0.15, 0.3]),
        grouping=st.booleans(),
        safe_period=st.booleans(),
        lazy=st.booleans(),
        delta=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 7),
        # (rebalance_every_steps, elastic_max_shards): off, a transfer-only
        # thermostat, the thermostat with splits and merges.
        policy=st.sampled_from([(0, 0), (3, 0), (3, 4)]),
        service=st.booleans(),
        # Half the draws are exact -- eager, zero threshold, no channel loss,
        # zero latency -- so the oracle grades their steps.
        exact=st.booleans(),
    )
    def build(
        self, engine, shards, latency, jitter, loss, rate, grouping, safe_period, lazy, delta,
        seed, policy, service, exact,
    ):
        if exact:
            lazy, delta, latency, jitter = False, 0.0, 0, 0
            loss = "injector" if loss.startswith("injector") else "none"
        every, ceiling = policy if shards > 1 else (0, 0)
        self.faults = shards > 1 and loss.startswith("injector")  # arms crash / recover
        self.channel_loss = loss == "injector+channels"
        self.exact_draw = not (lazy or delta or self.channel_loss or latency or jitter)
        common = dict(
            shards=shards,
            latency=latency,
            latency_jitter_steps=jitter,
            loss=loss,
            rate=rate,
            seed=seed,
            grouping=grouping,
            safe_period=safe_period,
            propagation=PropagationMode.LAZY if lazy else PropagationMode.EAGER,
            dead_reckoning_threshold=delta,
            rebalance_every_steps=every,
            elastic_max_shards=ceiling,
        )
        self.system = world(engine, batch_reports=True, **common)
        self.twin = world("reference", batch_reports=False, **common)
        self.oids = sorted(self.system.clients)
        if service:
            self.service = MobiEyesService(self.system)
            self.twin_service = MobiEyesService(self.twin)
        for axis, value in (
            ("subject", f"{engine} vs reference"),
            ("shards", shards),
            ("latency, jitter", (latency, jitter)),
            ("loss", loss),
            ("grouping", grouping),
            ("safe period", safe_period),
            ("propagation", "lazy" if lazy else "eager"),
            ("dead-reckoning threshold", delta),
        ):
            note(axis, value)

    def both(self, call):
        got, want = call(self.system), call(self.twin)
        assert got == want
        return got

    # ------------------------------------------------------ the live system

    @rule(steps=st.integers(1, 3))
    def step(self, steps):
        self.both(lambda system: system.run(steps))
        self.stepped = True

    @rule(data=st.data(), region=regions, flt=filters)
    def install_moving(self, data, region, flt):
        spec = QuerySpec(data.draw(st.sampled_from(self.oids)), region, flt)

        def install(system):
            try:
                return system.install_query(spec)
            except KeyError:
                # The focal's answer to the install round trip was lost: it
                # stands on a dead stripe, or the channel dropped it (``both``
                # checks that the twin lost it too).
                assert system.server.dead_shards or self.channel_loss
                return None

        self.both(install)

    @rule(x=coordinate, y=coordinate, w=st.floats(0.5, 8.0), h=st.floats(0.5, 8.0), flt=filters)
    def install_static(self, x, y, w, h, flt):
        spec = QuerySpec.static(Rect(x, y, min(w, SIDE - x), min(h, SIDE - y)), flt)
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
        self.stepped = True

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

    def exact(self):
        """An exact draw with a drained pipeline, no dead shard and no
        resync owed: the protocol's results are the oracle's."""
        system = self.system
        return (
            self.exact_draw
            and system.transport.pending_count() == 0
            and not self.dead()
            and not any(client._needs_resync for client in system.clients.values())
        )

    @invariant()
    def twins_agree(self):
        if self.system is None:
            return
        system, twin = self.system, self.twin
        system.check_invariants()
        twin.check_invariants()
        assert system.results() == twin.results()
        assert observe(system) == observe(twin)
        assert system.rebalance_log == twin.rebalance_log
        assert system.crash_log == twin.crash_log
        if self.stepped:
            self.stepped = False
            oracle = system.oracle_results()
            assert oracle == twin.oracle_results()
            if self.exact():
                note("oracle-checked step")
                assert system.results() == oracle
        if self.service is not None:
            self.service.check_accounting()
            self.twin_service.check_accounting()
            for mine, theirs in self.installs:
                assert (mine.status, mine.qid) == (theirs.status, theirs.qid)
        got = system.counters()
        if "injector.by_cause" in got:
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

#: The value of every axis a pinned draw leaves unnamed.
QUIET = dict(
    engine="reference", shards=1, latency=0, jitter=0, loss="none", rate=0.15, grouping=True,
    safe_period=False, lazy=False, delta=0.0, seed=0, policy=(0, 0), service=False, exact=False,
)


def pinned(*script, **draw):
    """Replay one explicit example of the machine: ``build(**draw)`` (the
    other axes quiet), then ``script`` -- an int steps both systems that many
    times, a tuple is an ``apply_op`` operation, a callable gets the
    machine -- with ``twins_agree`` after every entry."""
    machine = CheckpointMachine()
    machine.build(**{**QUIET, **draw})
    machine.twins_agree()
    for entry in script:
        if isinstance(entry, int):
            machine.step(entry)
        elif isinstance(entry, tuple):
            machine.place(entry)
        else:
            entry(machine)
        machine.twins_agree()
    machine.teardown()
    return machine


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


@pytest.mark.parametrize("engine", ENGINES)
def test_an_external_update_voids_the_moved_objects_safe_periods(engine):
    """Shrunk from ``CheckpointMachine``: build(safe_period, seed=5, exact),
    step(5), external_update(oid 22 -> (2, 12), at rest), step(1).  The
    teleported object kept the safe periods it had set at its old position,
    skipped query 4 although it now stood inside it, and the exact draw's
    results missed the enter (both engines, so the twins agreed)."""
    move = lambda machine: machine.both(  # noqa: E731
        lambda system: system.apply_external_update(22, Point(2.0, 12.0), Vector(0.0, 0.0))
    )
    pinned(5, move, 1, engine=engine, safe_period=True, seed=5, exact=True)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_cell_change_of_a_suspended_focal_refreshes_none_of_its_queries(engine):
    """Shrunk from ``CheckpointMachine``: build(latency 2, jitter 1, an
    injector with Bernoulli channels, seed 6, grouping off), three static
    installs around step(2), then step(1) x4.  Focal 39's lease ran out
    and its queries were suspended; at step 6 a cell-change record of its
    without motion state still refreshed their monitoring regions and
    broadcast their descriptors, which read the FOT entry the suspension
    had removed (``KeyError`` in ``FocalTracker.get``)."""

    def static(x, y, w, h):
        return lambda machine: machine.install_static(x, y, w, h, TrueFilter())

    pinned(
        static(0.0, 14.455988883972168, 4.1883296199022055, 4.078468421104134),
        static(0.0, 10.83736515045166, 0.5, 3.2747929912643214),
        2,
        static(0.0, 0.0, 7.504824929092363, 4.986762413883112),
        1, 1, 1, 1,
        engine=engine, latency=2, jitter=1, loss="injector+channels", seed=6, grouping=False,
    )


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
    injector = FaultInjector(policy=ReliabilityPolicy(heartbeat_steps=2))
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


@pytest.mark.parametrize("batch", [True, False], ids=["batched", "per-message"])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_lost_removal_broadcast_is_not_an_invariant_violation(engine, batch):
    """Drawn by the loss seams (PR 29, on the plain loss model since deleted):
    remove a query under downlink loss.  The ``QueryRemoveBroadcast`` missed
    a receiver, whose LQT keeps the query until its next cell change or
    resync, and ``check_invariants()`` raised ``LQT holds a removed query``.
    While a downlink can be lost, the client-coupling half holds only
    eventually."""
    rng = SimulationRng(0)
    loss = FaultInjector()
    with paper_system(
        engine, shards=1, scale=0.004, seed=0, alpha=2.5, batch_reports=batch, loss=loss
    ) as system:
        loss.downlink_channel = BernoulliChannel(rng, rate=0.5)
        qid = sorted(system.server.sqt.ids())[0]
        system.remove_query(qid)
        assert any(qid in client.lqt for client in system.clients.values())
        system.check_invariants()


def test_a_stale_lqt_entry_still_fails_a_loss_free_system():
    with paper_system(shards=1, scale=0.004, seed=0, alpha=2.5) as system:
        qid = sorted(system.server.sqt.ids())[3]
        holder = next(client for client in system.clients.values() if qid in client.lqt)
        entry = holder.lqt.get(qid)
        system.remove_query(qid)
        holder.lqt.install(entry)
        with pytest.raises(AssertionError, match="LQT holds a removed query"):
            system.check_invariants()
