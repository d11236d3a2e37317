"""Properties of the buffered report pipeline.

Five layers of guarantees:

- *Wire-size identity* (unit level): a buffered record's ledger size
  equals the size of the dataclass message it replaces -- buffering never
  changes what the ledger charges, only how many Python objects exist.
- *Handler identity* (unit level): a buffered row and the dataclass the
  per-message path would send for it reach the server's record-level handlers with equal arguments,
  and a sharded server's same shard.
- *Window protocol* (unit level): ``with transport.report_window:`` closes
  the window before it flushes, flushes nothing after a raise, and is a
  no-op without batching.
- *Window rule* (system level): the reporting phase flushes once per run
  of consecutive non-focal crossings, and a run stops at a focal client
  (the boundary case, graded against the per-message twin).
- *Accounting identity* (system level): a simulation run with
  ``batch_reports`` on produces the same per-type message counts, the
  same total bits, the same query results, ``step_hash``, in-flight count
  and stale-epoch reroute count as the per-message path, across grouping
  on/off, 1/2/4 shards, zero/nonzero latency, and with transfers moving
  stripes under the in-flight reports.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MobiEyesConfig
from repro.core.client import MobiEyesClient
from repro.core.messages import (
    REC_CELL,
    REC_RESULT,
    CellChangeReport,
    ResultChangeReport,
    VelocityChangeReport,
)
from repro.core.reporting import ReportBuffer
from repro.core.server import MobiEyesServer
from repro.core.transport import SimulatedTransport
from repro.faults.injector import FaultInjector
from repro.geometry import Point, Rect, Vector
from repro.grid import Grid
from repro.mobility.model import MotionState
from repro.network import BaseStationLayout, LatencyModel, MessageLedger
from tests.conftest import circle_query, make_object, make_system, observe, paper_system
from tests.test_delivery_pipeline import assert_hops_conserved, queued_envelopes
from tests.test_snapshot_stateful import ENGINES, pinned


def _state(x: float, y: float) -> MotionState:
    return MotionState(pos=Point(x, y), vel=Vector(0.5, -0.25), recorded_at=0.125)


def _records(max_cell: int = 30):
    """Lists of (kind, payload) tuples driving the buffer appends below."""
    record = st.one_of(
        st.tuples(
            st.just("result"),
            st.dictionaries(
                st.integers(min_value=0, max_value=50),
                st.booleans(),
                min_size=1,
                max_size=8,
            ),
        ),
        st.tuples(
            st.just("cell"),
            st.tuples(
                st.integers(min_value=0, max_value=max_cell),
                st.integers(min_value=0, max_value=max_cell),
                st.booleans(),  # carries a motion state (focal sender)?
            ),
        ),
        st.tuples(st.just("velocity"), st.none()),
    )
    return st.lists(record, min_size=1, max_size=40)


def _fill(buf: ReportBuffer, records, oids=range(40)) -> None:
    for i, (kind, payload) in enumerate(records):
        oid = oids[i]
        if kind == "result":
            buf.add_result(oid=oid, changes=payload, epoch=i % 3)
        elif kind == "cell":
            ci, cj, focal = payload
            buf.add_cell(
                oid=oid,
                prev_cell=(ci, cj),
                new_cell=(ci + 1, cj),
                state=_state(float(ci), float(cj)) if focal else None,
            )
        else:
            buf.add_velocity(oid=oid, state=_state(float(i), 0.0))


def as_message(buf: ReportBuffer, i: int):
    """Record ``i`` as the dataclass the per-message path sends for it."""
    kind, row = buf.kind[i], buf.rows[i]
    if kind == REC_RESULT:
        return ResultChangeReport(oid=row[0], changes=dict(row[3]), epoch=row[2])
    if kind == REC_CELL:
        return CellChangeReport(oid=row[0], prev_cell=row[2], new_cell=row[3], state=row[1])
    return VelocityChangeReport(oid=row[0], state=row[1])


@given(_records())
@settings(max_examples=max(1, settings().max_examples // 2), deadline=None)
def test_buffered_record_bits_equal_dataclass_bits(records):
    """bits_of(i) and kind_name_of(i) are the dataclass message's, for
    every record kind and shape."""
    buf = ReportBuffer()
    _fill(buf, records)
    assert buf.count == len(records)
    for i in range(buf.count):
        message = as_message(buf, i)
        assert (buf.bits_of(i), buf.kind_name_of(i)) == (message.bits, type(message).__name__)


GRID = Grid(Rect(0, 0, 160, 160), alpha=5.0)  # 32 x 32 cells: holds _records()
CONFIG = MobiEyesConfig(uod=GRID.uod, alpha=GRID.alpha, base_station_side=10.0)

RECORD_HANDLERS = (
    "_touch_lease_rec",
    "_apply_result_record",
    "_on_cell_change_rec",
    "_on_velocity_change_rec",
)


def _transport() -> SimulatedTransport:
    return SimulatedTransport(BaseStationLayout(GRID, side_length=10.0), GRID, MessageLedger())


@given(_records())
@settings(max_examples=max(1, settings().max_examples // 2), deadline=None)
def test_row_and_dataclass_reach_the_record_handlers_alike(records):
    """apply_report_record(buf, i) == on_uplink(as_message(buf, i)), observed
    at the four record-level handlers (leases on, so the touch fires)."""
    server = MobiEyesServer(GRID, _transport(), CONFIG)
    server.enable_leases(3)
    calls = []
    for name in RECORD_HANDLERS:
        # Flag pairs arrive as a tuple on one path, dict items on the other.
        def handler(*args, _name=name):
            calls.append((_name, *(tuple(a) if hasattr(a, "__iter__") else a for a in args)))

        setattr(server, name, handler)
    buf = ReportBuffer()
    _fill(buf, records)
    for i in range(buf.count):
        server.apply_report_record(buf, i)
        by_row = calls[:]
        calls.clear()
        server.on_uplink(as_message(buf, i))
        assert by_row == calls and len(calls) == 2  # the touch, then the kind's handler
        calls.clear()


@pytest.fixture(scope="module")
def sharded():
    """A stepped 2-shard world: focal homes registered, sender cells known."""
    system = paper_system(shards=2)
    system.step()
    return system


@given(_records(max_cell=5))  # the 0.012-scale grid is 7 x 7 cells
@settings(max_examples=max(1, settings().max_examples // 2), deadline=None)
def test_row_and_dataclass_resolve_to_the_same_shard(sharded, records):
    coordinator = sharded.server
    landed = []
    for sid, shard in enumerate(coordinator.shards):
        shard.apply_report_record = lambda cols, i, _sid=sid: landed.append(_sid)
        shard.on_uplink = lambda message, _sid=sid: landed.append(_sid)
    buf = ReportBuffer()
    _fill(buf, records, oids=sorted(sharded.clients)[::3])  # focal and plain senders
    for i in range(buf.count):
        message = as_message(buf, i)
        coordinator.apply_report_record(buf, i)
        coordinator.on_uplink(message)
        assert landed == [coordinator.shard_for_uplink(message)] * 2
        landed.clear()


class _RecordingServer:
    """An uplink sink with record ingestion, recording what it is fed."""

    def __init__(self, reaction=None):
        self.messages = []
        self.records = []
        self.reaction = reaction  # a server reaction to the first record

    def on_uplink(self, message):
        self.messages.append(message)

    def apply_report_record(self, cols, i):
        self.records.append(as_message(cols, i))
        if self.reaction is not None:
            reaction, self.reaction = self.reaction, None
            reaction()


def _window_world(batching: bool):
    transport = _transport()
    if batching:
        transport.enable_report_batching()
    server = _RecordingServer()
    transport.attach_server(server)
    client = MobiEyesClient(make_object(7, 12, 12), GRID, transport, CONFIG)
    return transport, server, client


def test_report_provoked_mid_flush_goes_inline():
    """The window is closed (``depth`` 0) before its flush starts, and the
    flush goes through ``transport.flush_reports`` as it reads at exit."""
    transport, server, client = _window_world(batching=True)
    buf = transport.report_buffer
    server.reaction = lambda: client._relay_motion_state(0.0)
    flushes = []
    flush = transport.flush_reports
    transport.flush_reports = lambda b: (flushes.append(b.depth), flush(b))
    with transport.report_window:
        client._relay_motion_state(0.0)
        assert buf.depth == 1 and buf.count == 1 and not server.records
    assert flushes == [0]
    assert [type(r).__name__ for r in server.records] == ["VelocityChangeReport"]
    assert [type(m).__name__ for m in server.messages] == ["VelocityChangeReport"]
    assert buf.depth == 0 and buf.count == 0


def test_raising_block_closes_the_window_and_flushes_nothing():
    transport, server, client = _window_world(batching=True)
    buf = transport.report_buffer
    with pytest.raises(RuntimeError, match="mid-phase"):
        with transport.report_window:
            client._relay_motion_state(0.0)
            raise RuntimeError("mid-phase")
    assert buf.depth == 0 and buf.count == 1
    assert not server.records and not server.messages


def test_window_is_a_no_op_without_batching():
    transport, server, client = _window_world(batching=False)
    assert transport.report_buffer is None
    with transport.report_window:
        client._relay_motion_state(0.0)
        assert len(server.messages) == 1  # sent inline, inside the block
    assert len(server.messages) == 1 and not server.records
    assert paper_system(batch_reports=False).transport.report_buffer is None


def test_latency_flush_enqueues_one_uplink_envelope_per_record():
    """Under modeled latency a flushed window parks N ``report`` envelopes,
    one per record, each holding its row, drained in ``(sender, seq)``
    order through the server's row handler."""
    transport = _transport()
    transport.set_latency(LatencyModel(uplink_steps=2))
    server = _RecordingServer()
    transport.attach_server(server)
    transport.begin_step(1, [])
    buf = ReportBuffer()
    senders = [7, 3, 5]
    for oid in senders:
        buf.add_velocity(oid=oid, state=_state(float(oid), 0.0))
        buf.add_result(oid=oid, changes={3: True}, epoch=0)
    transport.flush_reports(buf)
    assert buf.count == 0
    queued = [env for batch in transport._queue.values() for env in batch]
    assert [env.kind for env in queued] == ["report"] * (2 * len(senders))
    assert [(env.sender, env.context) for env in queued] == [
        (oid, i) for i, oid in enumerate(oid for oid in senders for _ in "vr")
    ]
    assert transport.ledger.uplink_count == 2 * len(senders)  # charged at send
    assert transport.pending_count() == 2 * len(senders)
    assert not server.messages and not server.records  # nothing applied yet

    opened = []
    original = transport._open_envelope

    def record(envelope, step):
        opened.append((envelope.sender, envelope.seq))
        original(envelope, step)

    transport._open_envelope = record
    transport.begin_step(3, [])
    transport.delivery_phase(3)
    assert opened == sorted(opened) and len(opened) == 2 * len(senders)
    assert [type(m).__name__ for m in server.records] == [
        "VelocityChangeReport",
        "ResultChangeReport",
    ] * len(senders)
    assert [m.oid for m in server.records] == [3, 3, 5, 5, 7, 7]
    assert not server.messages and transport.pending_count() == 0


@given(_records(), st.integers(min_value=0, max_value=2), st.integers(0, 2**16))
@settings(max_examples=max(1, settings().max_examples // 2), deadline=None)
def test_a_parked_record_once_opened_equals_applying_it_inline(records, jitter, seed):
    """A latency-only flush charges what the inline flush charges, and each
    record it parks reaches the four record-level handlers, when opened,
    with the arguments ``apply_report_record`` gives them inline."""
    calls = {}
    for mode in ("inline", "parked"):
        transport = _transport()
        server = MobiEyesServer(GRID, transport, CONFIG)
        server.enable_leases(3)
        seen = calls[mode] = []
        for name in RECORD_HANDLERS:
            def handler(*args, _name=name):
                seen.append((_name, *(tuple(a) if hasattr(a, "__iter__") else a for a in args)))

            setattr(server, name, handler)
        buf = ReportBuffer()
        _fill(buf, records)
        if mode == "inline":
            charged = Counter(buf.kind_name_of(i) for i in range(buf.count))
            bits = sum(buf.bits_of(i) for i in range(buf.count))
            for i in range(buf.count):
                server.apply_report_record(buf, i)
            continue
        transport.set_latency(LatencyModel(uplink_steps=1, jitter_steps=jitter, seed=seed))
        transport.flush_reports(buf)
        assert buf.count == 0
        assert (transport.ledger.counts_by_type, transport.ledger.uplink_bits) == (charged, bits)
        for step in range(1, 2 + jitter):
            transport.delivery_phase(step)
        assert transport.pending_count() == 0
    # Records open by drawn delay, then in (sender, seq) order; each
    # sender has one record here, so compare the calls sender by sender.
    by_sender = {mode: sorted(seen, key=lambda call: call[1]) for mode, seen in calls.items()}
    assert by_sender["parked"] == by_sender["inline"]


def test_a_crash_discards_the_parked_rows_addressed_to_the_dead_shard():
    """A parked report row dies with the shard its row routes to, as a
    parked uplink would, and is counted as a discarded hop."""
    with paper_system(shards=2, latency=1, scale=0.006) as system:
        system.run(3)
        transport, coordinator = system.transport, system.server
        reports = [env for env in queued_envelopes(transport) if env.kind == "report"]
        routed = {
            id(env): coordinator._route_row(
                env.message.kind[env.context], env.message.rows[env.context]
            )
            for env in reports
        }
        assert set(routed.values()) == {0, 1}
        before = transport.discarded_envelopes
        system.apply_op(("crash", 1), "test", 3)
        kept = [env for env in queued_envelopes(transport) if env.kind == "report"]
        assert kept == [env for env in reports if routed[id(env)] == 0]
        assert transport.discarded_envelopes - before >= len(reports) - len(kept)
        assert_hops_conserved(transport)


# --------------------------------------------------------------- system level
#
# Batched against per-message reports: each test is one pinned draw of the
# reference-twin machine (tests/test_snapshot_stateful.py) with a reference
# subject, so the twins differ only in batching.  The machine compares
# results, step_hash, every counter (in-flight hops, stale-epoch reroutes),
# the ledger's per-type books and the per-step stats after every rule.

STEPS = (3, 3, 3, 3)


@pytest.mark.parametrize("grouping", [True, False])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_batching_preserves_accounting(grouping, shards):
    pinned(*STEPS, shards=shards, grouping=grouping, delta=0.5)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_batching_preserves_accounting_under_latency(shards):
    """Same identity on the deferred path (records drawn late park as rows)."""
    pinned(*STEPS, shards=shards, latency=2, delta=0.5)


@pytest.mark.parametrize("latency", [0, 1])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_batching_preserves_accounting_under_loss(engine, shards, latency):
    """Lossy channels on both links rolling one shared stream, beside the
    per-message twin: a flushed record rolls its drop, then draws its
    delay, where the dataclass would.  Sharded, shard 1 is down for three
    steps and the flushes drop the rows routed to it as ``uplink-crash``."""
    at_flush = []

    def watch(machine):
        transport = machine.system.transport
        flush = transport.flush_reports

        def counted(buf):
            crashed = transport.loss.drops_by_cause["uplink-crash"]
            flush(buf)
            at_flush.append(transport.loss.drops_by_cause["uplink-crash"] - crashed)

        transport.flush_reports = counted

    window = (("crash", 1), 3, ("recover", 1)) if shards > 1 else ()
    machine = pinned(
        watch, 3, 3, *window, 3,
        engine=engine, shards=shards, latency=latency, loss="injector+channels", rate=0.3,
        delta=0.5,
    )
    by_cause = machine.system.transport.loss.drops_by_cause
    assert by_cause["uplink-channel"] > 0 and by_cause["downlink-channel"] > 0
    assert (sum(at_flush) > 0) == (shards > 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_focal_crossing_closes_the_report_window_before_a_watcher_crosses(engine):
    """The run boundary.  F (oid 0) carries a radius-4.5 circle whose
    monitoring region spans columns 4-6 while F is in column 5 and 5-7 once
    it is in column 6; B (oid 1, no queries) stands in column 6 inside the
    circle.  In step 2 both cross east: F into column 6, B from column 6
    (in the old and the new region) into column 7 (only in the new one).

    Client by client, F's ``QueryUpdateBroadcast`` refreshes B's entry
    before B reports, so B keeps q as a target and sends nothing.  A window
    spanning F would let B drop q on a hull miss (a leave report), F's
    broadcast reinstall it, and the evaluation re-enter it: two extra
    uplinks against the per-message twin."""
    systems = []
    for batch in (True, False):
        objects = [
            make_object(0, 28.9, 27.5, vx=120.0, max_speed=300.0),  # F: 1 mile a step
            make_object(1, 31.7, 27.5, vx=216.0, max_speed=300.0),  # B: 1.8 miles a step
        ]
        system = make_system(objects, engine=engine, batch_reports=batch)
        system.install_query(circle_query(0, 4.5))
        systems.append(system)
    batched, twin = systems
    (qid,) = batched.server.sqt.ids()
    for step, cells in ((1, [(5, 5), (6, 5)]), (2, [(6, 5), (7, 5)])):
        for system in systems:
            system.step()
            assert [system.client(oid).last_cell for oid in (0, 1)] == cells
            assert system.result(qid) == {1}
            assert system.client(1).lqt.get(qid).is_target
        assert observe(batched) == observe(twin), f"step {step}"
    assert batched.ledger.counts_by_type["ResultChangeReport"] == 1  # B's one entry


@pytest.mark.parametrize("engine", ENGINES)
def test_reporting_flushes_once_per_run_of_non_focal_crossings(engine):
    """Six objects cross east in step 1, oid 3 the focal of a query: the
    reporting phase flushes the cell records of 0-2, of 3 alone, then of
    4 and 5 -- one flush per run, not one per crossing client."""
    objects = [make_object(oid, 24.9, 2.5 + 5 * oid, vx=60.0) for oid in range(6)]
    system = make_system(objects, engine=engine)
    system.install_query(circle_query(3, 1.0))
    transport = system.transport
    flush = transport.flush_reports
    runs = []

    def watch(buf):
        runs.append([row[0] for kind, row in zip(buf.kind, buf.rows) if kind == REC_CELL])
        flush(buf)

    transport.flush_reports = watch
    system.step()
    assert [run for run in runs if run] == [[0, 1, 2], [3], [4, 5]]
    assert all(client.last_cell[0] == 5 for client in system.clients.values())


@pytest.mark.parametrize("shards", [1, 2])
def test_a_crossing_flushed_under_an_injector_refreshes_its_senders_lease(shards):
    """One reason a flush stages no crossing under an injector: the stage
    (``apply_crossings``) touches no lease, the row handler does --
    ``_touch_lease_rec`` on a shard, ``_touch_home`` on the coordinator.
    A non-focal cell-change record flushed from a report window refreshes
    its sender's ``last_heard`` to the current step."""
    objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
    with make_system(objects, shards=shards, loss=FaultInjector()) as system:
        system.install_query(circle_query(0, 3.0))
        system.run(3)
        transport, server = system.transport, system.server
        cell = system.client(1).last_cell
        assert 1 not in system.focal_flags
        row = (1, None, cell, cell)
        unit = server.shards[server.shard_for_uplink((REC_CELL, row))] if shards > 1 else server
        unit.tracker.last_heard.pop(1, None)
        with transport.report_window:
            transport.report_buffer.add_cell(1, cell, cell, None)
        assert unit.tracker.last_heard[1] == transport.step == 3


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_batched_crossing_runs_match_the_reference(engine, shards):
    """An exact, crossing-dense draw: the reporting phase flushes runs of
    three and more non-focal crossings whose install lists are not empty,
    and the subject stays in lockstep with the per-message reference."""
    runs = []  # per flush of >= 3 non-focal crossings: install lists sent

    def watch(machine):
        transport = machine.system.transport
        books = machine.system.ledger.counts_by_type
        flush = transport.flush_reports

        def counted(buf):
            run = sum(kind == REC_CELL and row[1] is None for kind, row in zip(buf.kind, buf.rows))
            sent = books["QueryInstallList"]
            flush(buf)
            if run >= 3:
                runs.append(books["QueryInstallList"] - sent)

        transport.flush_reports = counted

    pinned(watch, 4, 4, engine=engine, shards=shards, exact=True, seed=3)
    assert runs and max(runs) > 0


@pytest.mark.parametrize("latency", [0, 2])
@pytest.mark.parametrize("shards", [2, 4])
def test_batching_preserves_accounting_under_rebalance(shards, latency):
    """Stripes move while reports are in flight: every stale uplink is
    counted once per message, whichever way it was flushed."""
    machine = pinned(
        2, ("transfer", 0, 1, 1), 3, ("transfer", 1, 0, 1), 3, ("transfer", 0, 1, 1), 4,
        shards=shards, latency=latency, delta=0.5,
    )
    if latency:
        # The moves did catch reports in flight.
        assert machine.system.transport.stale_epoch_reroutes > 0
