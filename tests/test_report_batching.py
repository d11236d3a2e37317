"""Properties of the columnar report pipeline.

Two layers of guarantees:

- *Wire-size identity* (unit level): a buffered record's ledger size
  equals the size of the dataclass message it replaces -- buffering never
  changes what the ledger charges, only how many Python objects exist.
- *Accounting identity* (system level): a simulation run with
  ``batch_reports`` on produces the same per-type message counts, the
  same total bits, the same query results, ``step_hash``, in-flight count
  and stale-epoch reroute count as the per-message path, across grouping
  on/off, 1/2/4 shards, zero/nonzero latency, and with a rebalance
  schedule moving stripes under the in-flight reports.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reporting import ReportBuffer
from repro.core.snapshot import step_hash
from repro.core.transport import SimulatedTransport
from repro.geometry import Point, Rect, Vector
from repro.grid import Grid
from repro.mobility.model import MotionState
from repro.network import BaseStationLayout, LatencyModel, MessageLedger
from tests.conftest import paper_system


def _state(x: float, y: float) -> MotionState:
    return MotionState(pos=Point(x, y), vel=Vector(0.5, -0.25), recorded_at=0.125)


_record = st.one_of(
    # (kind, payload) tuples drive the buffer appends below.
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
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
            st.booleans(),  # carries a motion state (focal sender)?
        ),
    ),
    st.tuples(st.just("velocity"), st.none()),
)


def _fill(buf: ReportBuffer, records) -> None:
    for i, (kind, payload) in enumerate(records):
        if kind == "result":
            buf.add_result(oid=i, changes=payload, epoch=i % 3)
        elif kind == "cell":
            ci, cj, focal = payload
            buf.add_cell(
                oid=i,
                prev_cell=(ci, cj),
                new_cell=(ci + 1, cj),
                state=_state(float(ci), float(cj)) if focal else None,
            )
        else:
            buf.add_velocity(oid=i, state=_state(float(i), 0.0))


@given(st.lists(_record, min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_buffered_record_bits_equal_dataclass_bits(records):
    """bits_of(i) == rehydrate(i).bits for every record kind and shape."""
    buf = ReportBuffer()
    _fill(buf, records)
    assert buf.count == len(records)
    for i in range(buf.count):
        assert buf.bits_of(i) == buf.rehydrate(i).bits


class _ColumnarServer:
    """An uplink sink with columnar ingestion, recording what it is fed."""

    def __init__(self):
        self.messages = []
        self.records = []

    def on_uplink(self, message):
        self.messages.append(message)

    def apply_report_record(self, cols, i):
        self.records.append(cols.rehydrate(i))


def test_latency_flush_enqueues_one_uplink_envelope_per_record():
    """Under modeled latency a flushed window is N ordinary ``uplink``
    envelopes, one per record, drained in ``(sender, seq)`` order."""
    grid = Grid(Rect(0, 0, 50, 50), alpha=5.0)
    transport = SimulatedTransport(
        BaseStationLayout(grid, side_length=10.0), grid, MessageLedger()
    )
    transport.set_latency(LatencyModel(uplink_steps=2))
    server = _ColumnarServer()
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
    assert [env.kind for env in queued] == ["uplink"] * (2 * len(senders))
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
    assert [type(m).__name__ for m in server.messages] == [
        "VelocityChangeReport",
        "ResultChangeReport",
    ] * len(senders)
    assert [m.oid for m in server.messages] == [3, 3, 5, 5, 7, 7]
    assert not server.records and transport.pending_count() == 0


# --------------------------------------------------------------- system level

SCHEDULE = ((3, 0, 1, 1), (6, 1, 0, 1), (9, 0, 1, 1))


def _run(batch: bool, grouping: bool, shards: int, latency: int, steps: int = 12, **config):
    system = paper_system(
        seed=99,
        shards=shards,
        latency=latency,
        grouping=grouping,
        dead_reckoning_threshold=0.5,
        batch_reports=batch,
        **config,
    )
    system.run(steps)
    ledger = system.ledger
    return (
        sorted((qid, tuple(sorted(oids))) for qid, oids in system.results().items()),
        dict(ledger.counts_by_type),
        dict(ledger.bits_by_type),
        ledger.uplink_count,
        ledger.uplink_bits,
        ledger.downlink_count,
        ledger.downlink_bits,
        system.transport.stale_epoch_reroutes,
        system.transport.pending_count(),
        step_hash(system),
    )


@pytest.mark.parametrize("grouping", [True, False])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_batching_preserves_accounting(grouping, shards):
    """Batched == per-message: results, per-type counts, and bit totals."""
    assert _run(True, grouping, shards, latency=0) == _run(
        False, grouping, shards, latency=0
    )


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_batching_preserves_accounting_under_latency(shards):
    """Same identity on the deferred path (the flush replays per message)."""
    assert _run(True, True, shards, latency=2) == _run(False, True, shards, latency=2)


@pytest.mark.parametrize("latency", [0, 2])
@pytest.mark.parametrize("shards", [2, 4])
def test_batching_preserves_accounting_under_rebalance(shards, latency):
    """Stripes move while reports are in flight: every stale uplink is
    counted once per message, whichever way it was flushed."""
    batched = _run(True, True, shards, latency, rebalance_schedule=SCHEDULE)
    assert batched == _run(False, True, shards, latency, rebalance_schedule=SCHEDULE)
    *_, reroutes, _pending, _hash = batched
    if latency:
        assert reroutes > 0  # the schedule did catch reports in flight
