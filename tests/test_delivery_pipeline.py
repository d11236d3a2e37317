"""The deferred message pipeline: latency model, envelope ordering, the
delivery phase, and the zero-latency bit-identity invariant.

The tentpole invariant: attaching an all-zero :class:`LatencyModel` (or
none at all) must be *bit-identical* to the historical call-at-send
transport -- same results, same ledger, same metrics -- on both engines
and any shard count.  With nonzero latency the shard counts must still
agree exactly, and the chaos harness must still converge (graded against
a fault-free twin).  The two engines under latency, jitter and loss are
graded per rule by the reference-twin machine
(tests/test_snapshot_stateful.py)."""

from __future__ import annotations

import dataclasses
from itertools import count, groupby

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MobiEyesConfig
from repro.core.partition import PartitionMap
from repro.core.transport import SERVER_SENDER, SimulatedTransport
from repro.fastpath import numpy_available
from repro.faults.policy import ReliabilityPolicy
from repro.geometry import Point, Rect
from repro.grid import Grid
from repro.metrics.collectors import MetricsLog, StepStats
from repro.network import BaseStationLayout, LatencyModel, MessageLedger
from repro.sim import TraceLog
from tests.conftest import observe, paper_system


@pytest.fixture
def grid():
    return Grid(Rect(0, 0, 50, 50), alpha=5.0)


@pytest.fixture
def layout(grid):
    return BaseStationLayout(grid, side_length=10.0)


class FakeServer:
    def __init__(self):
        self.received = []

    def on_uplink(self, message):
        self.received.append(message)


class FakeClient:
    def __init__(self):
        self.received = []

    def on_downlink(self, message):
        self.received.append(message)


class SizedMessage:
    def __init__(self, oid=None, bits=100):
        self.oid = oid
        self.bits = bits


def make_transport(layout, grid, latency=None):
    trace = TraceLog()
    ledger = MessageLedger(trace=trace)
    transport = SimulatedTransport(layout, grid, ledger)
    if latency is not None:
        transport.set_latency(latency)
    server = FakeServer()
    transport.attach_server(server)
    return transport, ledger, server, trace


# ------------------------------------------------------- latency model


class TestLatencyModel:
    def test_zero_by_default(self):
        model = LatencyModel()
        assert model.is_zero
        assert model.uplink_delay() == 0
        assert model.downlink_delay() == 0
        assert model.worst_case_rtt_steps == 0

    def test_fixed_delays(self):
        model = LatencyModel(uplink_steps=2, downlink_steps=3)
        assert not model.is_zero
        assert model.uplink_delay() == 2
        assert model.downlink_delay() == 3
        assert model.worst_case_rtt_steps == 5

    def test_jitter_is_bounded_and_seeded(self):
        a = LatencyModel(uplink_steps=1, jitter_steps=2, seed=9)
        b = LatencyModel(uplink_steps=1, jitter_steps=2, seed=9)
        draws_a = [a.uplink_delay() for _ in range(50)]
        draws_b = [b.uplink_delay() for _ in range(50)]
        assert draws_a == draws_b  # same seed, same stream
        assert all(1 <= d <= 3 for d in draws_a)
        assert len(set(draws_a)) > 1  # jitter actually varies
        assert a.worst_case_rtt_steps == 1 + 0 + 2 * 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LatencyModel(uplink_steps=-1)

    def test_from_config(self):
        quiet = MobiEyesConfig(uod=Rect(0, 0, 50, 50), alpha=5.0)
        assert LatencyModel.from_config(quiet) is None
        loud = dataclasses.replace(quiet, uplink_latency_steps=2, latency_seed=5)
        model = LatencyModel.from_config(loud)
        assert model is not None and model.uplink_steps == 2

    def test_config_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            MobiEyesConfig(uod=Rect(0, 0, 50, 50), alpha=5.0, downlink_latency_steps=-1)


# ---------------------------------------- zero-latency inline identity


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("uplink"), st.integers(0, 3)),
        st.tuples(st.just("send"), st.integers(0, 3)),
        st.tuples(st.just("step"), st.integers(0, 0)),
    ),
    min_size=1,
    max_size=30,
)


class TestZeroLatencyIdentity:
    """Any interleaving of sends under an all-zero latency model replays
    the inline transport's trace exactly (satellite 3's property test)."""

    def run_ops(self, layout, grid, ops, latency):
        transport, ledger, server, trace = make_transport(layout, grid, latency)
        clients = {oid: FakeClient() for oid in range(4)}
        for oid, client in clients.items():
            transport.attach_client(oid, client)
        positions = [(oid, Point(5.0 + 10 * oid, 5.0)) for oid in clients]
        transport.begin_step(1, positions)
        step = 1
        for op, oid in ops:
            if op == "uplink":
                transport.uplink(SizedMessage(oid=oid, bits=64 + oid))
            elif op == "send":
                transport.send(oid, SizedMessage(bits=32 + oid))
            else:
                step += 1
                transport.begin_step(step, positions)
                transport.delivery_phase(step)
        return (
            [(m.oid, m.bits) for m in server.received],
            {oid: [m.bits for m in c.received] for oid, c in clients.items()},
            (ledger.uplink_count, ledger.downlink_count, ledger.uplink_bits, ledger.downlink_bits),
            list(trace.events),
        )

    @settings(
        max_examples=settings().max_examples * 3 // 5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=OPS)
    def test_all_interleavings_match_inline(self, ops):
        grid = Grid(Rect(0, 0, 50, 50), alpha=5.0)
        layout = BaseStationLayout(grid, side_length=10.0)
        inline = self.run_ops(layout, grid, ops, latency=None)
        queued = self.run_ops(layout, grid, ops, latency=LatencyModel())
        assert inline == queued

    def test_zero_model_is_not_active(self, layout, grid):
        transport, *_ = make_transport(layout, grid, LatencyModel())
        assert not transport.latency_active
        assert transport.pending_count() == 0


# ------------------------------------------------- deferred ordering


class TestDeferredOrdering:
    def test_same_step_envelopes_drain_in_sender_seq_order(self, layout, grid):
        """Two messages due the same step open in (sender, seq) order, not
        send order: the server's traffic first, then objects ascending."""
        transport, _, server, _ = make_transport(
            layout, grid, LatencyModel(uplink_steps=1, downlink_steps=1)
        )
        client = FakeClient()
        transport.attach_client(2, client)
        transport.begin_step(1, [(2, Point(5, 5)), (3, Point(15, 5)), (7, Point(25, 5))])
        opened = []
        original = transport._open_envelope

        def record(envelope, step):
            opened.append((envelope.sender, envelope.kind))
            original(envelope, step)

        transport._open_envelope = record
        transport.uplink(SizedMessage(oid=7, bits=64))  # sent first...
        transport.uplink(SizedMessage(oid=3, bits=64))  # ...but lower oid
        transport.send(2, SizedMessage(bits=32))  # server sorts before objects
        assert transport.pending_count() == 3
        assert server.received == [] and client.received == []

        transport.begin_step(2, [])
        transport.delivery_phase(2)
        assert opened == [(SERVER_SENDER, "downlink"), (3, "uplink"), (7, "uplink")]
        assert [m.oid for m in server.received] == [3, 7]
        assert len(client.received) == 1
        assert transport.pending_count() == 0

    def test_same_sender_preserves_send_order(self, layout, grid):
        transport, _, server, _ = make_transport(layout, grid, LatencyModel(uplink_steps=2))
        transport.begin_step(1, [(5, Point(5, 5))])
        transport.uplink(SizedMessage(oid=5, bits=1))
        transport.uplink(SizedMessage(oid=5, bits=2))
        transport.begin_step(2, [])
        transport.delivery_phase(2)
        assert server.received == []  # not due yet
        transport.begin_step(3, [])
        transport.delivery_phase(3)
        assert [m.bits for m in server.received] == [1, 2]

    def test_delivery_stats_are_lifetime_counters(self, layout, grid):
        transport, _, server, _ = make_transport(layout, grid, LatencyModel(uplink_steps=2))
        transport.begin_step(1, [(5, Point(5, 5))])
        transport.uplink(SizedMessage(oid=5, bits=1))
        transport.begin_step(3, [])
        transport.delivery_phase(3)
        assert (transport.delivered_deferred, transport.delivered_delay_sum) == (1, 2)
        # Reading takes nothing; the next delivery adds to the totals.
        transport.uplink(SizedMessage(oid=5, bits=1))
        transport.begin_step(5, [])
        transport.delivery_phase(5)
        assert (transport.delivered_deferred, transport.delivered_delay_sum) == (2, 4)
        # Every envelope is delivered, discarded-and-counted, or queued.
        transport.uplink(SizedMessage(oid=5, bits=1))
        transport.uplink(SizedMessage(oid=5, bits=2))
        assert transport.discard_queued(lambda env: env.message.bits == 2) == 1
        assert transport.discarded_envelopes == 1
        assert transport._envelope_seq == 4 == (
            transport.delivered_deferred
            + transport.discarded_envelopes
            + transport.pending_count()
        )

    def test_synchronous_forces_inline(self, layout, grid):
        transport, _, server, _ = make_transport(layout, grid, LatencyModel(uplink_steps=3))
        transport.begin_step(1, [(5, Point(5, 5))])
        with transport.synchronous():
            assert not transport.latency_active
            transport.uplink(SizedMessage(oid=5, bits=1))
        assert [m.bits for m in server.received] == [1]
        assert transport.latency_active
        assert transport.pending_count() == 0


# ----------------------------------------- one envelope per broadcast run


class _StubFanout:
    """A fan-out that declines at send (as under latency), accepts every
    opened run and records what it applies."""

    def __init__(self):
        self.applied = []

    def try_broadcast(self, station_ids, region, message):
        return False

    def accepts(self, message):
        return True

    def apply(self, message, receivers):
        self.applied.append((message, set(receivers)))


BROADCAST_CELLS = [(i, j) for i in range(2) for j in range(2)]


def attach_broadcast_audience(transport, n, step=1, unattached=()):
    """``n`` objects inside BROADCAST_CELLS, ids 0 .. n-1, nobody else; all
    but ``unattached`` have a radio."""
    clients = {oid: FakeClient() for oid in range(n)}
    for oid, client in clients.items():
        if oid not in unattached:
            transport.attach_client(oid, client)
    positions = [(oid, Point(0.5 + 0.7 * oid, 9.5 - 0.7 * oid)) for oid in clients]
    transport.begin_step(step, positions)
    return clients


def queued_envelopes(transport):
    return [env for batch in transport._queue.values() for env in batch]


def drain(transport, first, last):
    for step in range(first, last + 1):
        transport.begin_step(step, [])
        transport.delivery_phase(step)


def assert_hops_conserved(transport):
    assert transport._envelope_seq == (
        transport.delivered_deferred + transport.discarded_envelopes + transport.pending_count()
    )


class TestBroadcastRuns:
    """A deferred broadcast parks one envelope per drawn delay, carrying
    its receivers as an ascending id run (their downlink sequence numbers
    beside it only when the stream is numbered); every counter keeps
    counting hops."""

    def test_one_envelope_per_broadcast(self, layout, grid):
        transport, ledger, *_ = make_transport(layout, grid, LatencyModel(downlink_steps=1))
        clients = attach_broadcast_audience(transport, 9)
        assert transport.broadcast(BROADCAST_CELLS, SizedMessage(bits=32)) > 0
        (envelope,) = queued_envelopes(transport)
        assert envelope.kind == "downlink" and envelope.sender == SERVER_SENDER
        assert envelope.run == list(range(9)) and envelope.seqs is None
        assert envelope.seq == 1 and transport._envelope_seq == 9
        assert transport.pending_count() == 9 == envelope.hops
        assert ledger.downlink_count > 0  # charged at send
        assert_hops_conserved(transport)
        drain(transport, 2, 2)
        assert all(len(client.received) == 1 for client in clients.values())
        assert (transport.delivered_deferred, transport.delivered_delay_sum) == (9, 9)
        assert transport.pending_count() == 0
        assert_hops_conserved(transport)

    @pytest.mark.parametrize("jitter", [1, 2, 3])
    def test_jitter_parks_at_most_one_run_per_delay(self, layout, grid, jitter):
        model = LatencyModel(downlink_steps=1, jitter_steps=jitter, seed=jitter)
        transport, *_ = make_transport(layout, grid, model)
        clients = attach_broadcast_audience(transport, 12)
        transport.broadcast(BROADCAST_CELLS, SizedMessage(bits=32))
        envelopes = queued_envelopes(transport)
        assert len(envelopes) <= jitter + 1
        assert transport.pending_count() == 12 == sum(env.hops for env in envelopes)
        for env in envelopes:  # each run ascending, at its first member's seq
            assert env.run == sorted(env.run) and env.seq == 1 + env.run[0]
            assert env.seqs is None
        drain(transport, 2, 2 + jitter)
        assert all(len(client.received) == 1 for client in clients.values())
        assert transport.pending_count() == 0
        assert_hops_conserved(transport)

    def test_zero_drawn_hop_is_inline_and_closes_the_runs(self, layout, grid):
        # downlink 0 + jitter: a hop drawn 0 is handed over at send; the
        # members around it never share an envelope across it.
        model = LatencyModel(jitter_steps=1, seed=3)
        transport, *_ = make_transport(layout, grid, model)
        clients = attach_broadcast_audience(transport, 12)
        transport.broadcast(BROADCAST_CELLS, SizedMessage(bits=32))
        inline = {oid for oid, client in clients.items() if client.received}
        assert inline and len(inline) < 12
        for env in queued_envelopes(transport):
            assert not any(env.run[0] < oid < env.run[-1] for oid in inline)
        assert transport.pending_count() == 12 - len(inline)
        drain(transport, 2, 2)
        assert all(len(client.received) == 1 for client in clients.values())
        assert_hops_conserved(transport)

    def test_unattached_radio_skipped_at_send(self, layout, grid):
        transport, *_ = make_transport(layout, grid, LatencyModel(downlink_steps=1))
        # Object 2 is covered but has no radio: no hop at all.
        clients = attach_broadcast_audience(transport, 6, unattached=(2,))
        transport.broadcast(BROADCAST_CELLS, SizedMessage(bits=32))
        (envelope,) = queued_envelopes(transport)
        assert envelope.run == [0, 1, 3, 4, 5] and envelope.seq == 1
        assert transport._envelope_seq == 5
        assert transport.pending_count() == 5
        drain(transport, 2, 2)
        got = sorted(oid for oid, client in clients.items() if client.received)
        assert got == [0, 1, 3, 4, 5]
        assert transport.delivered_deferred == 5
        assert_hops_conserved(transport)

    def test_fanout_takes_the_run_at_open(self, layout, grid):
        transport, *_ = make_transport(layout, grid, LatencyModel(downlink_steps=1))
        clients = attach_broadcast_audience(transport, 5)
        transport.fanout = fanout = _StubFanout()
        message = SizedMessage(bits=32)
        transport.broadcast(BROADCAST_CELLS, message)
        drain(transport, 2, 2)
        assert fanout.applied == [(message, {0, 1, 2, 3, 4})]
        assert not any(client.received for client in clients.values())
        assert transport.delivered_deferred == 5

    def test_sequenced_run_observes_in_order_then_goes_to_the_fanout(self, layout, grid):
        # Under the reliability layer every hop carries its sequence
        # number: each radio of the run observes its own, ascending, and
        # then the fan-out applies the run as one id set.
        transport, _ = make_reliable_transport(
            layout, grid, _DropPlan(), LatencyModel(downlink_steps=1)
        )
        clients = attach_broadcast_audience(transport, 4)
        events = []
        for oid, client in clients.items():
            client.observe_downlink_seq = lambda seq, _oid=oid: events.append((_oid, seq))
        transport.fanout = fanout = _StubFanout()
        fanout.apply = lambda message, receivers: events.append(set(receivers))
        transport.send(1, SizedMessage(bits=8))  # oid 1's stream: seq 1
        transport.broadcast(BROADCAST_CELLS, SizedMessage(bits=32))
        runs = sorted((env.seq, env.run, env.seqs) for env in queued_envelopes(transport))
        assert runs == [(1, [1], [1]), (2, [0, 1, 2, 3], [1, 2, 1, 1])]
        drain(transport, 2, 2)
        assert events == [(1, 1), {1}, (0, 1), (1, 2), (2, 1), (3, 1), {0, 1, 2, 3}]
        assert not any(client.received for client in clients.values())


class _Tagged:
    """A downlink message known by its tag."""

    def __init__(self, tag):
        self.tag = tag
        self.bits = 16


class _HashDrops:
    """A loss seam whose delivery roll is a fixed function of the message
    and the receiver (so any visiting order rolls alike); ``rate`` 0 drops
    nothing but still numbers the stream."""

    def __init__(self, rate):
        self.policy = ReliabilityPolicy()
        self.rate = rate

    def begin_step(self, step):
        pass

    def drop_uplink(self, message):
        return False

    def drop_delivery(self, message, receiver=None):
        return (message.tag * 7 + receiver * 13) % 10 < self.rate


#: Tags from here on are reactions, which provoke nothing further.
REACTION = 10_000


def reaction_to(tag, oid, attached):
    """What delivering ``tag`` to ``oid`` provokes: every other delivery
    of an original message, a message to the attached ids above ``oid``
    (a handover that enqueues hops is what closes a run)."""
    if tag >= REACTION or (tag + oid) % 2:
        return None
    return REACTION + 16 * tag + oid, [other for other in attached if other > oid]


class _StampingClient:
    """Records each delivery as ``(message tag, seq, delivery step)`` and
    sends the reaction it provokes."""

    def __init__(self, transport, oid, attached):
        self.transport = transport
        self.oid = oid
        self.attached = attached
        self.got = []
        self._seq = None

    def observe_downlink_seq(self, seq):
        self._seq = seq

    def on_downlink(self, message):
        self.got.append((message.tag, self._seq, self.transport.step))
        self._seq = None
        reaction = reaction_to(message.tag, self.oid, self.attached)
        if reaction is not None:
            self.transport._deliver(reaction[1], _Tagged(reaction[0]))


class _OrderedFanout(_StubFanout):
    """Applies an opened run to each receiver in ascending order."""

    def __init__(self, clients):
        super().__init__()
        self.clients = clients

    def apply(self, message, receivers):
        assert isinstance(receivers, set)
        for oid in sorted(receivers):
            self.clients[oid].on_downlink(message)


def per_hop_reference(sends, attached, latency, drops, sequenced, last_step, fanout):
    """The pipeline hop by hop: each step drains the due hops by ``(due,
    stamp)``, then sends, parking one stamped hop per surviving receiver;
    a delivery sends its reaction at once.  A hop is delivered after its
    receiver observes its sequence number -- except that a fan-out takes a
    numbered run whole: every member observes, ascending, before the
    first delivery.  A run is the hops one send parks between two inline
    deliveries (which close the runs) that fall due in the same step."""
    got = {oid: [] for oid in attached}
    observed = dict.fromkeys(attached)  # a _StampingClient's last observed seq
    seqs = dict.fromkeys(attached, 0)
    parked = []
    stamp = 0
    runs = count()

    def deliver(oid, tag, step):
        got[oid].append((tag, observed[oid], step))
        observed[oid] = None
        reaction = reaction_to(tag, oid, sorted(attached))
        if reaction is not None:
            send(step, *reaction)

    def send(step, tag, receivers):
        nonlocal stamp
        message = _Tagged(tag)
        delay = 0 if latency.jitter_steps else latency.downlink_delay()
        run = next(runs)
        for oid in sorted(receivers):
            if oid not in attached:
                continue
            dropped = drops is not None and drops.drop_delivery(message, receiver=oid)
            seq = None
            if sequenced:
                seqs[oid] += 1
                seq = seqs[oid]
            if dropped:
                continue
            if latency.jitter_steps:
                delay = latency.downlink_delay()
            if delay <= 0:
                observed[oid] = seq
                deliver(oid, tag, step)
                run = next(runs)
            else:
                stamp += 1
                parked.append((step + delay, stamp, run, oid, tag, seq))

    for step in range(1, last_step + 1):
        due = sorted(hop for hop in parked if hop[0] <= step)
        for hop in due:
            parked.remove(hop)
        for _, hops in groupby(due, key=lambda hop: hop[2]):
            hops = list(hops)
            if fanout and sequenced:
                for *_, oid, tag, seq in hops:
                    observed[oid] = seq
                for *_, oid, tag, seq in hops:
                    deliver(oid, tag, step)
            else:
                for *_, oid, tag, seq in hops:
                    observed[oid] = seq
                    deliver(oid, tag, step)
        for _, tag, receivers in (send for send in sends if send[0] == step):
            send(step, tag, receivers)
    assert not parked
    return got


@given(
    sends=st.lists(
        st.tuples(st.integers(1, 3), st.sets(st.integers(0, 9), max_size=10)),
        min_size=1, max_size=6,
    ),
    unattached=st.sets(st.integers(0, 9), max_size=3),
    downlink=st.integers(0, 2),
    jitter=st.integers(0, 2),
    seed=st.integers(0, 99),
    seam=st.sampled_from(["none", "numbered", "lossy"]),
    fanout=st.booleans(),
)
@settings(
    max_examples=settings().max_examples * 3 // 5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_run_parking_equals_the_per_hop_pipeline(
    layout, grid, sends, unattached, downlink, jitter, seed, seam, fanout
):
    """Fixed or jittered delays, no loss seam or one (which numbers the
    stream), with or without a fan-out taking the opened runs, and
    deliveries that send messages of their own: every receiver gets the
    same ``(message, seq, delivery step)`` sequence as a hop-by-hop
    pipeline, and every stamped hop is delivered, discarded or still
    queued after each step."""
    model = dict(downlink_steps=downlink, jitter_steps=jitter, seed=seed)
    drops = None if seam == "none" else _HashDrops(0 if seam == "numbered" else 3)
    transport = SimulatedTransport(layout, grid, MessageLedger(), loss=drops)
    transport.set_latency(LatencyModel(**model))
    transport.attach_server(FakeServer())
    attached = sorted(set(range(10)) - unattached)
    clients = {oid: _StampingClient(transport, oid, attached) for oid in attached}
    for oid, client in clients.items():
        transport.attach_client(oid, client)
    if fanout:
        transport.fanout = _OrderedFanout(clients)
    sends = [(step, tag, receivers) for tag, (step, receivers) in enumerate(sorted(sends))]
    last_step = 3 + 2 * (downlink + jitter)  # a reaction sent at 3 lands by then
    for step in range(1, last_step + 1):
        transport.begin_step(step, [])
        transport.delivery_phase(step)
        for sent_at, tag, receivers in sends:
            if sent_at == step:
                transport._deliver(sorted(receivers), _Tagged(tag))
        assert_hops_conserved(transport)
    assert transport.pending_count() == 0
    want = per_hop_reference(
        sends, set(attached), LatencyModel(**model), drops, drops is not None, last_step, fanout
    )
    assert {oid: client.got for oid, client in clients.items()} == want


# -------------------------------------------- deferred reliability


class _DropPlan:
    """Minimal FaultInjector stand-in: scripted per-attempt drops."""

    def __init__(self, drop_uplinks=0, drop_acks=0, max_attempts=4):
        self.policy = ReliabilityPolicy(max_attempts=max_attempts)
        self.remaining_uplink_drops = drop_uplinks
        self.remaining_ack_drops = drop_acks

    def begin_step(self, step):
        pass

    def drop_uplink(self, message):
        if type(message).__name__ == "Ack":
            return False
        if self.remaining_uplink_drops > 0:
            self.remaining_uplink_drops -= 1
            return True
        return False

    def drop_delivery(self, message, receiver=None):
        if type(message).__name__ == "Ack" and self.remaining_ack_drops > 0:
            self.remaining_ack_drops -= 1
            return True
        return False


class _ReliablePing:
    reliable = True

    def __init__(self, oid):
        self.oid = oid
        self.bits = 40


class _AckAwareClient(FakeClient):
    def __init__(self):
        super().__init__()
        self.outcomes = []

    def _note_uplink_outcome(self, acked):
        self.outcomes.append(acked)


class _ScriptedDrops:
    """FaultInjector stand-in whose every roll -- data copies and acks, both
    directions -- pops the next decision off one script (exhausted: keep)."""

    def __init__(self, script, max_attempts):
        self.policy = ReliabilityPolicy(max_attempts=max_attempts)
        self.script = list(script)

    def begin_step(self, step):
        pass

    def drop_uplink(self, message):
        return self.script.pop(0) if self.script else False

    def drop_delivery(self, message, receiver=None):
        return self.script.pop(0) if self.script else False


class _ShardedFakeServer(FakeServer):
    """A FakeServer that advertises a live partition epoch."""

    def __init__(self, partitioner):
        super().__init__()
        self.partitioner = partitioner

    @property
    def partition_epoch(self):
        return self.partitioner.epoch


def make_reliable_transport(layout, grid, injector, latency):
    ledger = MessageLedger()
    transport = SimulatedTransport(layout, grid, ledger, loss=injector)
    transport.set_latency(latency)
    server = FakeServer()
    transport.attach_server(server)
    return transport, server


class TestDeferredReliability:
    def test_ack_round_trip_completes_after_rtt(self, layout, grid):
        transport, server = make_reliable_transport(
            layout, grid, _DropPlan(), LatencyModel(uplink_steps=1, downlink_steps=1)
        )
        client = _AckAwareClient()
        transport.attach_client(5, client)
        transport.begin_step(1, [(5, Point(5, 5))])
        assert transport.uplink(_ReliablePing(5)) is None  # outcome pending
        transport.begin_step(2, [])
        transport.delivery_phase(2)
        assert [m.oid for m in server.received] == [5]  # arrived
        assert client.outcomes == []  # ack still in flight
        transport.begin_step(3, [])
        transport.delivery_phase(3)
        assert client.outcomes == [True]
        assert transport.reliability.counters()["pending"] == 0
        assert transport.reliability.retransmissions == 0

    def test_lost_attempt_is_retransmitted_by_timer(self, layout, grid):
        transport, server = make_reliable_transport(
            layout, grid, _DropPlan(drop_uplinks=1), LatencyModel(uplink_steps=1, downlink_steps=1)
        )
        client = _AckAwareClient()
        transport.attach_client(5, client)
        transport.begin_step(1, [(5, Point(5, 5))])
        transport.uplink(_ReliablePing(5))
        # Attempt 1 was dropped; the timer fires at step 1 + RTT(2) = 3.
        for step in (2, 3, 4, 5):
            transport.begin_step(step, [])
            transport.delivery_phase(step)
        assert transport.reliability.retransmissions == 1
        assert [m.oid for m in server.received] == [5]
        assert client.outcomes == [True]

    def test_retry_budget_exhaustion_notifies_failure(self, layout, grid):
        transport, server = make_reliable_transport(
            layout, grid, _DropPlan(drop_uplinks=99, max_attempts=2),
            LatencyModel(uplink_steps=1, downlink_steps=1),
        )
        client = _AckAwareClient()
        transport.attach_client(5, client)
        transport.begin_step(1, [(5, Point(5, 5))])
        transport.uplink(_ReliablePing(5))
        for step in range(2, 10):
            transport.begin_step(step, [])
            transport.delivery_phase(step)
        assert server.received == []
        assert client.outcomes == [False]
        assert transport.reliability.failures == 1
        assert transport.reliability.counters()["pending"] == 0

    def test_duplicate_from_lost_ack_is_suppressed(self, layout, grid):
        transport, server = make_reliable_transport(
            layout, grid, _DropPlan(drop_acks=1), LatencyModel(uplink_steps=1, downlink_steps=1)
        )
        client = _AckAwareClient()
        transport.attach_client(5, client)
        transport.begin_step(1, [(5, Point(5, 5))])
        transport.uplink(_ReliablePing(5))
        for step in range(2, 10):
            transport.begin_step(step, [])
            transport.delivery_phase(step)
        assert [m.oid for m in server.received] == [5]  # applied once
        assert transport.reliability.duplicates_suppressed == 1
        assert client.outcomes == [True]


    def test_stale_reliable_uplink_counts_as_reroute(self, layout, grid):
        """A rel-uplink parked before a boundary move and opened after it
        is re-resolved by on_uplink exactly like a plain uplink, so it is
        counted like one (the parent counted only kind == "uplink")."""
        transport, _ = make_reliable_transport(
            layout, grid, _DropPlan(), LatencyModel(uplink_steps=1, downlink_steps=1)
        )
        server = _ShardedFakeServer(PartitionMap(grid, 2))
        transport.attach_server(server)
        transport.attach_client(5, _AckAwareClient())
        transport.begin_step(1, [(5, Point(5, 5))])
        transport.uplink(_ReliablePing(5))  # parks a rel-uplink, epoch 0
        transport.uplink(SizedMessage(oid=5))  # parks a plain uplink, epoch 0
        assert server.partitioner.transfer(0, 1, 1) == 1
        transport.begin_step(2, [])
        transport.delivery_phase(2)
        assert len(server.received) == 2  # rerouted, not dropped
        assert transport.stale_epoch_reroutes == 2
        # Parked under the live epoch: not stale.
        transport.uplink(_ReliablePing(5))
        transport.begin_step(3, [])
        transport.delivery_phase(3)
        assert len(server.received) == 3
        assert transport.stale_epoch_reroutes == 2


def _drive_exchanges(layout, grid, latency, directions, script, max_attempts):
    """Run reliable exchanges one after another (each to completion, so
    every clock consumes the shared drop script in the same order) and
    return everything the two clocks must agree on."""
    injector = _ScriptedDrops(script, max_attempts)
    transport, server = make_reliable_transport(layout, grid, injector, latency)
    client = _AckAwareClient()
    transport.attach_client(5, client)
    step = 1
    transport.begin_step(step, [(5, Point(5, 5))])
    returned = []
    for up in directions:
        message = _ReliablePing(5)
        returned.append(transport.uplink(message) if up else transport.send(5, message))
        while transport.reliability.counters()["pending"]:
            step += 1
            assert step < 200, "exchange never completed"
            transport.begin_step(step, [])
            transport.delivery_phase(step)
    assert transport.pending_count() == 0
    ledger = transport.ledger
    totals = (
        len(server.received),
        len(client.received),
        client.outcomes,
        transport.reliability.counters(),
        dict(ledger.counts_by_type),
        dict(ledger.bits_by_type),
        (ledger.uplink_count, ledger.downlink_count, ledger.uplink_bits, ledger.downlink_bits),
        dict(ledger.energy_by_object),
        len(injector.script),
    )
    return totals, returned, step


class TestOneExchangeMachineOnBothClocks:
    """The property the single state machine rests on: whether a hop is
    deferred changes *when* things happen, never *what* happens."""

    @settings(
        max_examples=settings().max_examples * 3 // 2,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        directions=st.lists(st.booleans(), min_size=1, max_size=4),
        script=st.lists(st.booleans(), max_size=24),
        max_attempts=st.integers(min_value=1, max_value=4),
    )
    def test_same_drop_script_same_outcome_inline_and_deferred(
        self, layout, grid, directions, script, max_attempts
    ):
        inline, returned, last_step = _drive_exchanges(
            layout, grid, None, directions, script, max_attempts
        )
        assert last_step == 1  # all within the sending step
        deferred, pending, _ = _drive_exchanges(
            layout, grid, LatencyModel(uplink_steps=1, downlink_steps=1),
            directions, script, max_attempts,
        )
        assert deferred == inline
        assert pending == [None] * len(directions)
        # Inline, the return value is the outcome the sender was told.
        assert [r for r, up in zip(returned, directions) if up] == inline[2]
        delivered = inline[0] + inline[1]
        counters = inline[3]
        assert counters["failures"] == returned.count(False)
        assert delivered <= len(directions)  # first copy only
        assert counters["pending"] == 0


# ------------------------------------------- full-system differentials


class TestZeroLatencySystemIdentity:
    """An explicitly attached all-zero LatencyModel is bit-identical to no
    model at all: results, ledger, counters and metrics, per step."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_reference_engine(self, shards):
        self.assert_identical("reference", shards)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_vectorized_engine(self, shards):
        self.assert_identical("vectorized", shards)

    @staticmethod
    def assert_identical(engine, shards):
        plain = paper_system(engine, shards=shards, track_accuracy=True)
        queued = paper_system(engine, shards=shards, latency_model=LatencyModel(), track_accuracy=True)
        for step in range(14):
            plain.step()
            queued.step()
            assert observe(plain) == observe(queued), f"step {step + 1}"


class TestLatencySystemDifferential:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_shard_counts_agree_under_latency(self, shards):
        mono = paper_system("reference", shards=1, latency=2)
        sharded = paper_system("reference", shards=shards, latency=2)
        for step in range(14):
            mono.step()
            sharded.step()
            assert observe(mono, ops=False) == observe(sharded, ops=False), f"step {step + 1}"

    def test_latency_metrics_are_populated(self):
        system = paper_system("reference", shards=1, latency=2)
        system.run(12)
        log = system.metrics
        assert log.max_inflight_messages() > 0
        assert any(s.delivered_messages > 0 for s in log.steps)
        assert log.mean_delivery_delay_steps() == pytest.approx(2.0)
        assert system.transport.latency_active

    def test_zero_latency_metrics_stay_zero(self):
        system = paper_system("reference", shards=1)
        system.run(6)
        log = system.metrics
        assert log.max_inflight_messages() == 0
        assert log.mean_delivery_delay_steps() is None

    def test_invariants_relaxed_while_in_flight(self):
        system = paper_system("reference", shards=1, latency=2)
        for _ in range(8):
            system.step()
            system.check_invariants()  # must tolerate in-flight installs


# ----------------------------------------------- accuracy provenance


class TestAccuracyProvenance:
    """A sample is taken in the step it reports."""

    def test_mean_result_error_without_provenance(self):
        log = MetricsLog(step_seconds=30.0, population=10)
        log.append(StepStats(step=1, result_error=0.25))
        log.append(StepStats(step=2, result_error=0.75))
        assert log.mean_result_error() == pytest.approx(0.5)

    def test_system_samples_every_step(self):
        system = paper_system("reference", shards=1, latency=3, track_accuracy=True)
        system.run(10)
        samples = [s.result_error for s in system.metrics.steps]
        assert None not in samples
        assert system.metrics.mean_result_error() == pytest.approx(sum(samples) / len(samples))


# ------------------------------------------------- chaos under latency


class TestChaosUnderLatency:
    def test_chaos_converges_with_latency(self):
        from repro.driver import run

        report = run(engine="reference", steps=30, scale=0.015, seed=7, latency=1)
        assert report["grading"]["basis"] == "twin"
        assert report["grading"]["converged"], report["grading"]["reconvergence"]
        assert report["inputs"]["latency"]["uplink_steps"] == 1
        assert report["counters"]["twin_service"] is not None

    def test_chaos_zero_latency_keeps_oracle_basis(self):
        from repro.driver import run

        report = run(engine="reference", steps=12, scale=0.015, seed=7)
        assert report["grading"]["basis"] == "oracle"
        assert report["counters"]["twin_service"] is None
