"""Columnar client-side buffering for the high-volume uplink reports.

The three report kinds objects emit every step (result changes, cell
changes, velocity changes) dominate uplink traffic; allocating one frozen
dataclass per report is the reference path's hot spot.
The :class:`ReportBuffer` is the columnar alternative: inside a *window*
(``depth > 0``) clients append report records to parallel columns instead
of sending dataclasses, and the transport flushes the whole buffer when
the window closes (:meth:`repro.core.transport.SimulatedTransport.flush_reports`).

Semantics are preserved exactly:

- Records flush in append order, which is the order the per-message path
  would have sent them, so server reactions, loss rolls, jitter draws,
  and sequence numbers interleave identically.
- The ledger is charged per record with the same type names and the same
  per-record bit sizes (:meth:`bits_of`) as the dataclass messages.
- When a loss model or the fault-injection reliability layer is active,
  or hops are deferred by modeled latency, the flush *rehydrates* each
  record into its dataclass and replays it through the ordinary uplink
  path, so drop/ack/retransmit semantics, delay draws and envelopes stay
  per logical message.

Windows never span a point where a client's buffered send could influence
its own later decisions within the window; the phase loops in
:mod:`repro.core.system` and :mod:`repro.fastpath.runtime` open one window
per reporting client (flushing before the next client reports) and one
window around the evaluation dispatch.
"""

from __future__ import annotations

from repro.core.messages import (
    REC_CELL,
    REC_KIND_NAMES,
    REC_RESULT,
    REC_VELOCITY,
    CellChangeReport,
    ResultChangeReport,
    VelocityChangeReport,
    cell_change_bits,
    result_change_bits,
    velocity_change_bits,
)
from repro.core.query import QueryId
from repro.grid import CellIndex
from repro.mobility.model import MotionState, ObjectId


class ReportBuffer:
    """Struct-of-arrays accumulator for buffered report records.

    ``depth`` is the window nesting level; clients buffer only while it is
    positive.  The transport sets it back to zero *before* flushing, so
    any report a server reaction provokes mid-flush takes the ordinary
    inline path -- exactly where it would have been sent without batching.

    Result-change flags are flattened: record ``i`` owns the slice
    ``qid_flat[qid_lo[i]:qid_hi[i]]`` / ``flag_flat[...]``.
    """

    __slots__ = (
        "depth",
        "kind",
        "oid",
        "epoch",
        "prev_i",
        "prev_j",
        "new_i",
        "new_j",
        "state",
        "qid_lo",
        "qid_hi",
        "qid_flat",
        "flag_flat",
    )

    def __init__(self) -> None:
        self.depth = 0
        self.kind: list[int] = []
        self.oid: list[ObjectId] = []
        self.epoch: list[int] = []
        self.prev_i: list[int] = []
        self.prev_j: list[int] = []
        self.new_i: list[int] = []
        self.new_j: list[int] = []
        self.state: list[MotionState | None] = []
        self.qid_lo: list[int] = []
        self.qid_hi: list[int] = []
        self.qid_flat: list[QueryId] = []
        self.flag_flat: list[bool] = []

    @property
    def count(self) -> int:
        """Number of buffered report records."""
        return len(self.kind)

    # ------------------------------------------------------------ appends

    def add_result(self, oid: ObjectId, changes: dict[QueryId, bool], epoch: int) -> None:
        """Buffer one result-change report (qid -> membership flags)."""
        self.kind.append(REC_RESULT)
        self.oid.append(oid)
        self.epoch.append(epoch)
        self.prev_i.append(0)
        self.prev_j.append(0)
        self.new_i.append(0)
        self.new_j.append(0)
        self.state.append(None)
        qid_flat = self.qid_flat
        flag_flat = self.flag_flat
        self.qid_lo.append(len(qid_flat))
        for qid, flag in changes.items():
            qid_flat.append(qid)
            flag_flat.append(flag)
        self.qid_hi.append(len(qid_flat))

    def add_cell(
        self,
        oid: ObjectId,
        prev_cell: CellIndex,
        new_cell: CellIndex,
        state: MotionState | None,
    ) -> None:
        """Buffer one cell-change report (state only for focal senders)."""
        self.kind.append(REC_CELL)
        self.oid.append(oid)
        self.epoch.append(0)
        self.prev_i.append(prev_cell[0])
        self.prev_j.append(prev_cell[1])
        self.new_i.append(new_cell[0])
        self.new_j.append(new_cell[1])
        self.state.append(state)
        self.qid_lo.append(len(self.qid_flat))
        self.qid_hi.append(len(self.qid_flat))

    def add_velocity(self, oid: ObjectId, state: MotionState) -> None:
        """Buffer one velocity-change report."""
        self.kind.append(REC_VELOCITY)
        self.oid.append(oid)
        self.epoch.append(0)
        self.prev_i.append(0)
        self.prev_j.append(0)
        self.new_i.append(0)
        self.new_j.append(0)
        self.state.append(state)
        self.qid_lo.append(len(self.qid_flat))
        self.qid_hi.append(len(self.qid_flat))

    # ------------------------------------------------------------ per-record views

    def bits_of(self, i: int) -> int:
        """Wire size of record ``i``, identical to the dataclass message's."""
        kind = self.kind[i]
        if kind == REC_RESULT:
            return result_change_bits(self.qid_hi[i] - self.qid_lo[i])
        if kind == REC_CELL:
            return cell_change_bits(self.state[i] is not None)
        return velocity_change_bits()

    def kind_name_of(self, i: int) -> str:
        """Ledger type name of record ``i``."""
        return REC_KIND_NAMES[self.kind[i]]

    def rehydrate(self, i: int) -> ResultChangeReport | CellChangeReport | VelocityChangeReport:
        """Rebuild record ``i`` as its per-message dataclass (the replay
        flush path)."""
        kind = self.kind[i]
        if kind == REC_RESULT:
            lo, hi = self.qid_lo[i], self.qid_hi[i]
            changes = dict(zip(self.qid_flat[lo:hi], self.flag_flat[lo:hi]))
            return ResultChangeReport(oid=self.oid[i], changes=changes, epoch=self.epoch[i])
        if kind == REC_CELL:
            return CellChangeReport(
                oid=self.oid[i],
                prev_cell=(self.prev_i[i], self.prev_j[i]),
                new_cell=(self.new_i[i], self.new_j[i]),
                state=self.state[i],
            )
        state = self.state[i]
        assert state is not None
        return VelocityChangeReport(oid=self.oid[i], state=state)

    def clear(self) -> None:
        """Drop all buffered records (the window stays as it is)."""
        self.kind.clear()
        self.oid.clear()
        self.epoch.clear()
        self.prev_i.clear()
        self.prev_j.clear()
        self.new_i.clear()
        self.new_j.clear()
        self.state.clear()
        self.qid_lo.clear()
        self.qid_hi.clear()
        self.qid_flat.clear()
        self.flag_flat.clear()
