"""Client-side buffering for the high-volume uplink reports.

Result, cell and velocity changes dominate uplink traffic, and one frozen
dataclass per report is the reference path's hot spot.  Inside a *window*
(``with transport.report_window:``) clients append one row tuple per
report to the :class:`ReportBuffer` instead; closing the window flushes
the rows (:meth:`repro.core.transport.SimulatedTransport.flush_reports`).
The flush charges the ledger per record, in append order -- the order the
per-message path would have sent them -- under the dataclass messages' type
names and bit sizes (:meth:`ReportBuffer.bits_of`), and rolls each record's
loss and draws its delay as the per-message path would, so drops, delay
draws and envelopes stay per logical message: a record drawn late is
parked on its row, never rebuilt as a dataclass.

A window never spans a point where one client's buffered send could
influence a later client's decisions in the same window: the reporting
loops open one per :func:`report_runs` run -- each maximal run of
consecutive non-focal clients, and each focal client alone -- and one
around the evaluation dispatch.  Inside a non-focal run no reaction moves
the reverse query index or a focal state, and a cell change's install
list touches only its sender's own table, so the flush may apply the
run's result records first and hand its cell records to the server as
one stage (docs/PROTOCOL.md "Report windows").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.core.messages import (
    REC_CELL,
    REC_KIND_NAMES,
    REC_RESULT,
    REC_VELOCITY,
    cell_change_bits,
    result_change_bits,
    velocity_change_bits,
)
from repro.core.query import QueryId
from repro.grid import CellIndex
from repro.mobility.model import MotionState, ObjectId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import MobiEyesClient


# Who reports.  Both engines' reporting loops hand ``report_runs`` only
# the *candidates*, and this is the one argument for why skipping the rest
# is unobservable.  ``MobiEyesClient.report_phase`` acts on two conditions
# only: the object's cell differs from its ``last_cell`` (a crossing), or
# it is focal (``has_mq``) and its dead-reckoning deviation exceeds the
# threshold.  A client that has not crossed and is not focal does nothing.
#
# - The reference loop asks at each client's turn: in ``focal_flags`` (the
#   registry ``_set_has_mq`` keeps equal to ``has_mq``), or
#   ``coverage.cell_of(oid) != last_cell``.  The coverage index was
#   rebuilt from the positions the movement phase just produced, and
#   nothing moves an object during reporting, so ``cell_of`` is the cell
#   ``report_phase`` would compute.
# - The vectorized loop fixes its candidates at phase start with array
#   expressions -- crossed, or focal with a deviation above the threshold
#   -- so a non-candidate must stay a no-op until its turn.  It does:
#   positions stay put and ``last_cell`` changes only in its own client's
#   crossing handler, so it cannot cross; no message that makes a client
#   focal (``FocalRoleNotification`` from an install, a ``ResyncResponse``)
#   arrives during the phase -- installs run between steps, resyncs are
#   requested in the fault phase, and deferred hops land in the delivery
#   phase -- so it cannot turn focal; and a focal client's
#   relayed state changes mid-phase only through ``_set_relayed`` (a
#   resync, a motion-state request, its own crossing), which installs a
#   snapshot of the current position, deviation zero.
#
# The property test ``tests/test_reference_skips.py`` steps the reference
# loop beside one over every client; the vectorized loop is graded against
# the reference engine by the differential suites.


def report_runs(clients: Iterable["MobiEyesClient"]) -> Iterator[list["MobiEyesClient"]]:
    """The report windows of one reporting phase over ``clients`` (the
    candidates, in ascending object id; see "Who reports" above): each
    maximal run of consecutive non-focal clients (``has_mq`` False), and
    each focal client alone.

    A focal crossing moves the reverse query index and broadcasts to
    receivers by their ``last_cell``, which a later client's own crossing
    reads, so a run stops there.  Lazily generated: a client's ``has_mq``
    is read after every earlier window has flushed.
    """
    run: list["MobiEyesClient"] = []
    for client in clients:
        if client.has_mq:
            if run:
                yield run
                run = []
            yield [client]
        else:
            run.append(client)
    if run:
        yield run


class ReportBuffer:
    """The buffered report records of one window, one row tuple each.

    ``kind[i]`` names the layout of ``rows[i]``; fields are stored as the
    server's record handlers take them, sender first, motion state second:

    - ``REC_CELL``: ``(oid, state, prev_cell, new_cell)``
    - ``REC_VELOCITY``: ``(oid, state)``
    - ``REC_RESULT``: ``(oid, None, epoch, ((qid, flag), ...))``

    ``depth`` is the window nesting level; clients buffer only while it is
    positive.  The window sets it back to zero *before* flushing, so any
    report a server reaction provokes mid-flush takes the ordinary inline
    path -- exactly where it would have been sent without batching.
    """

    __slots__ = ("depth", "kind", "rows")

    def __init__(self) -> None:
        self.depth = 0
        self.kind: list[int] = []
        self.rows: list[tuple] = []

    @property
    def count(self) -> int:
        """Number of buffered report records."""
        return len(self.kind)

    def add_result(self, oid: ObjectId, changes: dict[QueryId, bool], epoch: int) -> None:
        """Buffer one result-change report (qid -> membership flags)."""
        self.kind.append(REC_RESULT)
        self.rows.append((oid, None, epoch, tuple(changes.items())))

    def add_cell(
        self, oid: ObjectId, prev_cell: CellIndex, new_cell: CellIndex, state: MotionState | None
    ) -> None:
        """Buffer one cell-change report (state only for focal senders)."""
        self.kind.append(REC_CELL)
        self.rows.append((oid, state, prev_cell, new_cell))

    def add_velocity(self, oid: ObjectId, state: MotionState) -> None:
        """Buffer one velocity-change report."""
        self.kind.append(REC_VELOCITY)
        self.rows.append((oid, state))

    def bits_of(self, i: int) -> int:
        """Wire size of record ``i``, identical to the dataclass message's."""
        kind = self.kind[i]
        if kind == REC_RESULT:
            return result_change_bits(len(self.rows[i][3]))
        if kind == REC_CELL:
            return cell_change_bits(self.rows[i][1] is not None)
        return velocity_change_bits()

    def kind_name_of(self, i: int) -> str:
        """Ledger type name of record ``i``."""
        return REC_KIND_NAMES[self.kind[i]]

    def clear(self) -> None:
        """Drop all buffered records (the window stays as it is)."""
        self.kind.clear()
        self.rows.clear()
