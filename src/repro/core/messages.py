"""Protocol messages between moving objects and the MobiEyes server.

Every message knows its size in bits so the power-consumption experiments
(paper Fig. 9) can account message *sizes* rather than counts.  Field widths
are plain engineering choices (32-bit ids, 32-bit fixed-point coordinates,
compact cell indices); the paper does not publish its exact encoding, and
only the *relative* sizes matter for the reproduced trends.

Uplink messages (object -> server):
    :class:`VelocityChangeReport`, :class:`CellChangeReport`,
    :class:`ResultChangeReport`, :class:`MotionStateResponse`,
    :class:`Heartbeat`, :class:`ResyncRequest`.

Downlink messages (server -> objects, broadcast or one-to-one):
    :class:`QueryInstallBroadcast`, :class:`QueryUpdateBroadcast`,
    :class:`QueryRemoveBroadcast`, :class:`VelocityChangeBroadcast`,
    :class:`FocalRoleNotification`, :class:`QueryInstallList`,
    :class:`MotionStateRequest`, :class:`ResyncResponse`,
    :class:`ResyncDirective`.

:class:`Ack` flows both ways (the receiver of a reliable message
acknowledges it to the sender).

Every message class declares a ``reliable`` flag.  Reliable messages are
the control-plane exchanges that must not silently half-complete (query
installation round trips, role notifications, and the recovery protocol);
the fault-injection stack (:mod:`repro.faults`), the one loss seam,
delivers them through a real ack/retransmit loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.geometry import Shape
from repro.grid import CellIndex, CellRange
from repro.mobility.model import MotionState, ObjectId
from repro.core.query import QueryFilter, QueryId

# Field widths in bits.
BITS_HEADER = 64
BITS_OID = 32
BITS_QID = 32
BITS_COORD = 32
BITS_TIME = 32
BITS_CELL = 32  # packed (i, j)
BITS_RADIUS = 32
BITS_FILTER = 32
BITS_BOOL = 8  # byte-aligned flag
BITS_SEQ = 32  # per-receiver message sequence number
BITS_MOTION_STATE = 4 * BITS_COORD + BITS_TIME  # pos + vel + timestamp
BITS_CELL_RANGE = 2 * BITS_CELL  # (lo_i, lo_j) .. (hi_i, hi_j)


# Per-record wire sizes of the three high-volume report kinds.  The
# buffered path (``ReportBuffer``) charges the ledger record by record
# with these, so buffering never changes a byte of the size accounting.


def velocity_change_bits() -> int:
    """Wire size of one velocity-change record in bits."""
    return BITS_HEADER + BITS_OID + BITS_MOTION_STATE


def cell_change_bits(has_state: bool) -> int:
    """Wire size of one cell-change record in bits."""
    bits = BITS_HEADER + BITS_OID + 2 * BITS_CELL
    if has_state:
        bits += BITS_MOTION_STATE
    return bits


def result_change_bits(n_changes: int) -> int:
    """Wire size of one result-change record carrying ``n_changes`` flags."""
    n = max(1, n_changes)
    bitmap_bits = ((n + 7) // 8) * 8
    return BITS_HEADER + BITS_OID + BITS_QID + bitmap_bits


# Record kinds of the buffered report pipeline (``ReportBuffer.kind``).
REC_RESULT = 0
REC_CELL = 1
REC_VELOCITY = 2

# Ledger type names per record kind: a buffered record is charged under the
# same name the equivalent dataclass message would have been.
REC_KIND_NAMES = ("ResultChangeReport", "CellChangeReport", "VelocityChangeReport")


@dataclass(frozen=True, slots=True)
class QueryDescriptor:
    """The per-query payload shipped inside install/update broadcasts.

    For *static* queries (fixed region, no focal object) ``oid`` and
    ``focal_state`` are ``None`` and the focal fields are not shipped.
    """

    qid: QueryId
    oid: ObjectId | None
    region: Shape
    filter: QueryFilter
    focal_state: MotionState | None
    focal_max_speed: float
    mon_region: CellRange

    @property
    def is_static(self) -> bool:
        """Whether this is a static (fixed-region) query."""
        return self.oid is None

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        bits = BITS_QID + BITS_RADIUS + BITS_FILTER + BITS_CELL_RANGE
        if not self.is_static:
            bits += BITS_OID + BITS_MOTION_STATE + BITS_COORD  # + focal max speed
        else:
            bits += 2 * BITS_COORD  # absolute region anchor
        return bits


# ------------------------------------------------------------------ uplink


@dataclass(frozen=True, slots=True)
class VelocityChangeReport:
    """Focal object -> server: significant velocity-vector change."""

    reliable: ClassVar[bool] = False

    oid: ObjectId
    state: MotionState

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return velocity_change_bits()


@dataclass(frozen=True, slots=True)
class CellChangeReport:
    """Object -> server: it crossed into a new grid cell.

    Focal objects include their motion state so the server can refresh the
    FOT without a round trip.
    """

    reliable: ClassVar[bool] = False

    oid: ObjectId
    prev_cell: CellIndex
    new_cell: CellIndex
    state: MotionState | None = None

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return cell_change_bits(self.state is not None)


@dataclass(frozen=True, slots=True)
class ResultChangeReport:
    """Object -> server: differential query-result update.

    ``changes`` maps query id -> whether the sender is now a target.  With
    query grouping enabled a single report carries the whole *query bitmap*
    of a group sharing one focal object; without grouping each report holds
    a single query's flag.

    ``epoch`` is the sender's report generation: the server bumps it when
    it purges the object during a resync, so a report that was still in
    flight when the purge happened (possible only under modeled delivery
    latency) arrives with a stale epoch and is discarded instead of
    resurrecting a purged membership.  It occupies the per-message
    sequence slot already budgeted inside ``BITS_HEADER``.
    """

    reliable: ClassVar[bool] = False

    oid: ObjectId
    changes: dict[QueryId, bool] = field(default_factory=dict)
    epoch: int = 0

    @property
    def bits(self) -> int:
        # One qid identifies the group (or the query); the remaining
        # queries of a group cost one bitmap bit each, rounded up to bytes.
        """Wire size of this message in bits."""
        return result_change_bits(len(self.changes))


@dataclass(frozen=True, slots=True)
class MotionStateResponse:
    """Object -> server: reply to a :class:`MotionStateRequest`."""

    reliable: ClassVar[bool] = True

    oid: ObjectId
    state: MotionState
    max_speed: float

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID + BITS_MOTION_STATE + BITS_COORD


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Object -> server: liveness probe and soft-state lease renewal.

    Sent (reliably) by every object after ``heartbeat_steps`` steps without
    an acknowledged uplink; a failed heartbeat is how an object learns it is
    partitioned from the server.
    """

    reliable: ClassVar[bool] = True

    oid: ObjectId

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID


@dataclass(frozen=True, slots=True)
class ResyncRequest:
    """Object -> server: I may have missed downlink traffic; resync me.

    Carries the object's current cell and motion state so the server can
    refresh (or reinstate) its focal-object record without a second round
    trip.
    """

    reliable: ClassVar[bool] = True

    oid: ObjectId
    cell: CellIndex
    state: MotionState
    max_speed: float

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID + BITS_CELL + BITS_MOTION_STATE + BITS_COORD


# ---------------------------------------------------------------- downlink


@dataclass(frozen=True, slots=True)
class QueryInstallBroadcast:
    """Server -> monitoring region: install these queries.

    Carries one or more query descriptors (more than one when server-side
    grouping bundles queries sharing a focal object and monitoring region).
    """

    reliable: ClassVar[bool] = False

    queries: tuple[QueryDescriptor, ...]

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + sum(q.bits for q in self.queries)


@dataclass(frozen=True, slots=True)
class QueryUpdateBroadcast:
    """Server -> old+new monitoring region: a focal object changed cells.

    Receivers inside the new monitoring region (re)install / refresh the
    queries; receivers outside drop them.
    """

    reliable: ClassVar[bool] = False

    queries: tuple[QueryDescriptor, ...]

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + sum(q.bits for q in self.queries)


@dataclass(frozen=True, slots=True)
class QueryRemoveBroadcast:
    """Server -> monitoring region: these queries were uninstalled."""

    reliable: ClassVar[bool] = False

    qids: tuple[QueryId, ...]

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_QID * len(self.qids)


@dataclass(frozen=True, slots=True)
class VelocityChangeBroadcast:
    """Server -> monitoring region: fresh focal motion state.

    Under *eager* propagation only ``(qids, oid, state)`` are needed --
    receivers already hold the query descriptors.  Under *lazy* propagation
    the broadcast is expanded with the full descriptors so objects that
    entered the monitoring region since the last broadcast can install the
    queries they missed.
    """

    reliable: ClassVar[bool] = False

    oid: ObjectId
    state: MotionState
    qids: tuple[QueryId, ...]
    descriptors: tuple[QueryDescriptor, ...] = ()

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        bits = BITS_HEADER + BITS_OID + BITS_MOTION_STATE + BITS_QID * len(self.qids)
        bits += sum(d.bits for d in self.descriptors)
        return bits


@dataclass(frozen=True, slots=True)
class FocalRoleNotification:
    """Server -> one object: you are (no longer) a focal object (hasMQ)."""

    reliable: ClassVar[bool] = True

    oid: ObjectId
    has_mq: bool

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID + BITS_BOOL


@dataclass(frozen=True, slots=True)
class QueryInstallList:
    """Server -> one object: queries to install after its cell change (EQP)."""

    reliable: ClassVar[bool] = False

    oid: ObjectId
    queries: tuple[QueryDescriptor, ...]

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID + sum(q.bits for q in self.queries)


@dataclass(frozen=True, slots=True)
class MotionStateRequest:
    """Server -> one object: send me your position and velocity."""

    reliable: ClassVar[bool] = True

    oid: ObjectId

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID


@dataclass(frozen=True, slots=True)
class ResyncResponse:
    """Server -> one object: full recovery state after a :class:`ResyncRequest`.

    Carries the descriptors of every query whose monitoring region covers
    the object's reported cell, plus the authoritative focal-role flag; the
    object rebuilds its LQT from scratch from this message.
    """

    reliable: ClassVar[bool] = True

    oid: ObjectId
    queries: tuple[QueryDescriptor, ...]
    has_mq: bool
    # The object's new report epoch (see ResultChangeReport.epoch); rides
    # the header's sequence slot, so it adds no wire bits.
    epoch: int = 0

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID + BITS_BOOL + sum(q.bits for q in self.queries)


@dataclass(frozen=True, slots=True)
class ResyncDirective:
    """Server -> monitoring region: state may have been lost; resync now.

    Broadcast after a crashed server shard is rebuilt from its checkpoint:
    any soft state the shard accumulated since that checkpoint (and every
    uplink in flight to it) is gone, and the affected objects cannot sense
    a *server*-side failure through carrier sensing.  Receivers simply set
    their resync flag and run the ordinary :class:`ResyncRequest` /
    :class:`ResyncResponse` recovery round trip.

    The directive is deliberately unreliable -- it is a hint, not state.
    An object that misses it recovers through the existing seq-gap and
    heartbeat paths.
    """

    reliable: ClassVar[bool] = False

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER


@dataclass(frozen=True, slots=True)
class RebalanceDirective:
    """Server -> whole grid: the partition map changed; re-resolve routes.

    Broadcast after the coordinator moves a column span between shards
    (:meth:`~repro.core.coordinator.Coordinator.apply_rebalance`).  Clients
    record the advertised partition epoch; any uplink already in flight
    that was routed under an older epoch is re-resolved by the server-side
    transport at delivery time (stale-epoch reroute), so nothing is
    dropped and the directive stays a hint rather than state.

    Like :class:`ResyncDirective` the directive is unreliable, and a
    client that misses it loses nothing: routing never reads the client's
    recorded epoch (envelopes carry the *server's* epoch at enqueue).
    """

    reliable: ClassVar[bool] = False

    # The partition epoch after the repartition.  Rides the header's
    # sequence slot budget-wise, plus one explicit epoch field.
    epoch: int = 0

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_SEQ


# --------------------------------------------------------------- both ways


@dataclass(frozen=True, slots=True)
class Ack:
    """Acknowledgement of a reliable message, echoing its sequence number.

    Travels opposite to the message it acknowledges (uplink acks flow down,
    downlink acks flow up).  Acks themselves are *not* reliable: a lost ack
    simply triggers a retransmission of the original message.
    """

    reliable: ClassVar[bool] = False

    oid: ObjectId
    seq: int

    @property
    def bits(self) -> int:
        """Wire size of this message in bits."""
        return BITS_HEADER + BITS_OID + BITS_SEQ


UplinkMessage = (
    VelocityChangeReport
    | CellChangeReport
    | ResultChangeReport
    | MotionStateResponse
    | Heartbeat
    | ResyncRequest
    | Ack
)
DownlinkMessage = (
    QueryInstallBroadcast
    | QueryUpdateBroadcast
    | QueryRemoveBroadcast
    | VelocityChangeBroadcast
    | FocalRoleNotification
    | QueryInstallList
    | MotionStateRequest
    | ResyncResponse
    | ResyncDirective
    | RebalanceDirective
    | Ack
)
