"""Simulated wireless transport between the server and moving objects.

The transport realizes the paper's asymmetric communication model: objects
uplink to the server through their covering base station; the server reaches
objects either through a one-to-one downlink message or by broadcasting
through the minimal set of base stations covering a grid-cell region.  Every
object inside a broadcasting station's coverage circle *hears* the broadcast
(and pays receive energy) whether or not the content is relevant -- the
over-hearing the paper identifies as MobiEyes' main energy overhead.

Delivery is staged through a deferred message pipeline: every hop is
stamped with a per-link delay by an optional
:class:`~repro.network.latency.LatencyModel` and queued in a timestamped
:class:`Envelope` (the receivers of one downlink message that drew the
same delay share one, as a run); the engine's *delivery phase* drains
the envelopes whose delay elapsed in deterministic
``(deliver_step, sender, seq)`` order.  A zero-delay hop (the default --
no latency model attached, or a model with all-zero delays) completes
*inline at send time*, which is exactly the paper's assumption that
protocol exchanges complete within the 30-second step; the inline path is
bit-identical to the historical call-at-send transport.

One modeling note: the server's *minimal station cover* of a monitoring
region picks stations whose coverage circles intersect every region cell,
which does not guarantee every *point* of every cell is inside a chosen
circle.  We treat broadcasts as reliably delivered to every object located
in the target region's cells (the intended recipients) while objects inside
the chosen stations' circles additionally over-hear the message; both
groups pay receive energy.  This keeps the paper's message counts (one per
chosen station) without introducing delivery gaps the paper does not model.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol

from repro.core.messages import REC_CELL
from repro.core.reporting import ReportBuffer
from repro.geometry import Point
from repro.grid import CellIndex, CellRange, CellRangeUnion, Grid
from repro.mobility.model import ObjectId
from repro.network.basestation import BaseStationId, BaseStationLayout
from repro.network.latency import LatencyModel
from repro.network.messaging import MessageLedger

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

# Envelope sender key for server-originated traffic.  Object ids are
# non-negative, so the server's messages sort first within a step.
SERVER_SENDER = -1


@dataclass(slots=True)
class Envelope:
    """Deferred hops of one logical message in the delivery pipeline.

    An uplink or reliability envelope is one hop.  A report record that a
    window flush under latency parks (kind ``"report"``) is one hop too: its
    ``message`` is the flush's parked :class:`ReportBuffer` and its
    ``context`` the record's row index.  A downlink envelope is the *run*
    of one message's receivers that drew the same delay: ``run`` holds
    their ascending ids, one hop each (a unicast is a run of one), and
    ``seqs`` their downlink sequence numbers beside them, only when the
    reliability layer numbers the stream.

    Ordering within a delivery step is total and deterministic: envelopes
    drain sorted by ``(sender, seq)``, where ``seq`` is a transport-global
    monotonic stamp allocated per hop at enqueue time -- so two messages
    from the same sender can never reorder, and ties across senders break
    by the sender key (:data:`SERVER_SENDER` before any object id).  A run
    holds the ``seq`` its first member took; its later members took the
    next consecutive stamps, so opening the run in place of its hops
    keeps the per-hop drain order.
    """

    deliver_step: int
    sender: int
    seq: int
    kind: str  # "uplink" | "report" | "downlink" | a reliability exchange kind
    message: object
    sent_step: int
    run: list[ObjectId] | None = None  # a downlink's receivers
    seqs: list[int] | None = None  # their sequence numbers, when numbered
    context: object = None  # reliability exchange state, or a parked row's index
    # Partition epoch at enqueue time: the routing generation this hop was
    # planned under.  If the map was repartitioned while the hop was in
    # flight, delivery re-resolves the destination against the live map
    # (uplinks are routed by ``shard_for_uplink`` at open time, never by a
    # shard id frozen at enqueue) and the mismatch is counted as a
    # stale-epoch reroute rather than a drop.
    epoch: int = 0

    @property
    def hops(self) -> int:
        """How many hops this envelope carries (a downlink's run length)."""
        return 1 if self.run is None else len(self.run)


class DownlinkReceiver(Protocol):
    """A moving object's radio: receives downlink messages."""

    def on_downlink(self, message: object) -> None: ...


class UplinkReceiver(Protocol):
    """The server's radio: receives uplink messages, and report records
    as rows of a :class:`ReportBuffer`."""

    def on_uplink(self, message: object) -> None: ...

    def apply_report_record(self, cols: ReportBuffer, i: int) -> None: ...


class CoverageIndex:
    """Fast lookup of the objects covered by stations or grid-cell regions.

    ``rebuild`` makes one pass a step: it buckets every object by grid
    cell (``Pmap``, :meth:`Grid.cell_index`'s arithmetic inline) and keeps
    each object's cell -- for a sharded server routing uplinks by sender
    cell -- and position.  Region delivery is a union of cell buckets.  A
    station's circle is tested only against the objects in the cells whose
    ``Bmap`` names the station: those are the cells the circle touches, so
    every point it contains lies in one of them.  A station's cell list is
    resolved on its first lookup and kept (the lattice and the Bmap are
    fixed), so an index that is never asked costs nothing to set up.
    """

    def __init__(self, layout: BaseStationLayout, grid: Grid) -> None:
        self.layout = layout
        self.grid = grid
        self._cell_buckets: dict[CellIndex, list[ObjectId]] = {}
        self._cell_of: dict[ObjectId, CellIndex] = {}
        self._pos_of: dict[ObjectId, Point] = {}
        self._station_cells: dict[BaseStationId, list[CellIndex]] = {}

    def rebuild(self, positions: Iterable[tuple[ObjectId, Point]]) -> None:
        """Re-bucket the object positions for the new step.

        Raises:
            ValueError: if a position is outside the universe of discourse.
        """
        buckets, cell_map, pos_map = self._cell_buckets, self._cell_of, self._pos_of
        buckets.clear()
        cell_map.clear()
        pos_map.clear()
        grid = self.grid
        uod = grid.uod
        lx, ly, ux, uy = uod.lx, uod.ly, uod.ux, uod.uy
        alpha = grid.alpha
        last_i = grid.n_cols - 1
        last_j = grid.n_rows - 1
        for oid, pos in positions:
            x = pos.x
            y = pos.y
            if not (lx <= x <= ux and ly <= y <= uy):
                raise ValueError(f"position {pos} outside universe of discourse {uod}")
            i = int((x - lx) / alpha)
            if i > last_i:
                i = last_i
            j = int((y - ly) / alpha)
            if j > last_j:
                j = last_j
            cell = (i, j)
            bucket = buckets.get(cell)
            if bucket is None:
                buckets[cell] = [oid]
            else:
                bucket.append(oid)
            cell_map[oid] = cell
            pos_map[oid] = pos

    def cell_of(self, oid: ObjectId) -> CellIndex:
        """The grid cell an object was in at the last rebuild."""
        return self._cell_of[oid]

    def _cells_of_station(self, bsid: BaseStationId) -> list[CellIndex]:
        """The cells whose ``Bmap`` names station ``bsid``, resolved once."""
        cells = self._station_cells.get(bsid)
        if cells is None:
            layout = self.layout
            near = self.grid.cells_intersecting(layout.get(bsid).coverage.bounding_rect())
            cells = [cell for cell in near if bsid in layout.bmap(cell)]
            self._station_cells[bsid] = cells
        return cells

    def covered_by_stations(self, station_ids: Iterable[BaseStationId]) -> set[ObjectId]:
        """Objects inside any of the stations' coverage circles."""
        out: set[ObjectId] = set()
        buckets, pos_of = self._cell_buckets, self._pos_of
        for bsid in station_ids:
            contains = self.layout.get(bsid).coverage.contains
            for cell in self._cells_of_station(bsid):
                bucket = buckets.get(cell)
                if bucket:
                    for oid in bucket:
                        if contains(pos_of[oid]):
                            out.add(oid)
        return out

    def in_cells(self, cells: Iterable[CellIndex]) -> set[ObjectId]:
        """Objects currently located in the given grid cells."""
        out: set[ObjectId] = set()
        for cell in cells:
            bucket = self._cell_buckets.get(cell)
            if bucket:
                out.update(bucket)
        return out


class _ReportWindow:
    """The one report-window protocol, reusable and allocation-free:
    ``with transport.report_window:`` buffers the block's high-volume
    reports, then closes the window (``depth`` back to 0, always) and --
    unless the block raised -- flushes what it buffered.  The flush goes
    through ``transport.flush_reports`` looked up at exit: the benchmark's
    tracer wraps that instance attribute by name.
    """

    __slots__ = ("transport", "buffer")

    def __init__(self, transport: "SimulatedTransport", buffer: ReportBuffer) -> None:
        self.transport = transport
        self.buffer = buffer

    def __enter__(self) -> None:
        self.buffer.depth = 1

    def __exit__(self, exc_type, exc, tb) -> None:
        buf = self.buffer
        buf.depth = 0
        if exc_type is None and buf.kind:
            self.transport.flush_reports(buf)


class SimulatedTransport:
    """Routes protocol messages, accounting them in a message ledger.

    The loss seam is a :class:`~repro.faults.injector.FaultInjector` or
    None.  An injector activates the reliability machinery with it:
    messages whose class declares ``reliable = True`` go through the
    ack/retransmit layer, and every downlink delivered to (or dropped
    for) a registered client bumps that client's sequence number so
    receivers can detect the traffic they missed.
    """

    #: Lifetime counters (core/load.py): hops opened by the delivery phase
    #: and their summed delay in steps, queued hops that died with a
    #: crashed shard, and uplinks opened under a newer partition epoch
    #: than they were enqueued with.
    COUNTERS = (
        "delivered_deferred", "delivered_delay_sum", "discarded_envelopes",
        "stale_epoch_reroutes",
    )
    #: The attributes a checkpoint carries (exported and re-imported by
    #: name in core/snapshot.py; everything else is wiring or derived).
    CHECKPOINT_FIELDS = ("_downlink_seq", "_queue", "_envelope_seq", *COUNTERS)

    def __init__(
        self,
        layout: BaseStationLayout,
        grid: Grid,
        ledger: MessageLedger,
        loss: FaultInjector | None = None,
    ) -> None:
        self.layout = layout
        self.ledger = ledger
        self.loss = loss
        self.reliability = None
        if loss is not None:
            from repro.faults.reliability import ReliabilityLayer

            self.reliability = ReliabilityLayer(self, loss)
        self.coverage = CoverageIndex(layout, grid)
        self._clients: dict[ObjectId, DownlinkReceiver] = {}
        self._server: UplinkReceiver | None = None
        self._downlink_seq: dict[ObjectId, int] = {}
        # Deferred-delivery pipeline: per-link delays from the latency
        # model, envelopes parked until their deliver_step, and a forced-
        # inline depth for exchanges that must complete within a call
        # (install-time round trips).
        self.latency: LatencyModel | None = None
        self._queue: dict[int, list[Envelope]] = {}
        self._envelope_seq = 0
        self._force_inline = 0
        # Every hop is delivered, discarded or still queued:
        # _envelope_seq == delivered_deferred + discarded_envelopes +
        # pending_count() (MobiEyesSystem.check_invariants); all four count
        # hops, not envelopes.
        self.delivered_deferred = 0
        self.delivered_delay_sum = 0
        self.discarded_envelopes = 0
        self.stale_epoch_reroutes = 0
        # Report buffering, off until `enable_report_batching`: clients
        # append to the buffer while the window is open (``depth > 0``)
        # instead of sending per-report dataclasses.
        self.report_buffer: ReportBuffer | None = None
        self.report_window: AbstractContextManager[None] = nullcontext()
        # Vectorized broadcast fan-out (wired by the fastpath runtime).
        # When set, an eligible region broadcast is applied to all its
        # receivers in bulk -- inline at send, or when its deferred run
        # opens -- instead of one handover each; it declines whenever
        # per-receiver semantics are required.
        self.fanout = None

    # ------------------------------------------------------------- wiring

    @property
    def step(self) -> int:
        """The simulation step the transport is in (the ledger keeps it)."""
        return self.ledger.step

    def attach_server(self, server: UplinkReceiver) -> None:
        """Register the server as the uplink sink."""
        self._server = server

    def attach_client(self, oid: ObjectId, client: DownlinkReceiver) -> None:
        """Register an object's radio for downlink delivery."""
        self._clients[oid] = client

    def enable_report_batching(self) -> None:
        """Buffer the high-volume reports sent inside a report window."""
        self.report_buffer = ReportBuffer()
        self.report_window = _ReportWindow(self, self.report_buffer)

    def uplink_endpoint(self, message: object) -> int:
        """The server-side endpoint an uplink lands on: the shard id under
        a sharded server, always ``0`` for the monolith.  The reliability
        layer keys its per-sender sequence streams by endpoint so each
        shard sees a gap-free stream."""
        route = getattr(self._server, "shard_for_uplink", None)
        if route is None:
            return 0
        return route(message)

    def begin_step(self, step: int, positions: Iterable[tuple[ObjectId, Point]]) -> None:
        """Refresh the coverage index for the new step's object positions."""
        self.ledger.step = step
        if self.loss is not None:
            self.loss.begin_step(step)
        self.coverage.rebuild(positions)

    def next_downlink_seq(self, oid: ObjectId) -> int:
        """Allocate the next slot in one receiver's downlink sequence."""
        seq = self._downlink_seq.get(oid, 0) + 1
        self._downlink_seq[oid] = seq
        return seq

    # ----------------------------------------------------------- pipeline

    def set_latency(self, model: LatencyModel | None) -> None:
        """Attach (or clear) the per-link latency model."""
        self.latency = model

    @property
    def latency_active(self) -> bool:
        """Whether hops are currently being deferred (a nonzero latency
        model is attached and no forced-inline section is open)."""
        return (
            self.latency is not None and not self._force_inline and not self.latency.is_zero
        )

    @contextmanager
    def synchronous(self) -> Iterator[None]:
        """Force every hop inline for the duration of the block.

        Used for exchanges that must complete within a single call -- the
        install-time motion-state round trip predates the simulation run,
        so there is no delivery phase to drain a deferred response.
        """
        self._force_inline += 1
        try:
            yield
        finally:
            self._force_inline -= 1

    def _uplink_delay(self) -> int:
        if not self.latency_active:
            return 0
        return self.latency.uplink_delay()

    def _downlink_delay(self) -> int:
        if not self.latency_active:
            return 0
        return self.latency.downlink_delay()

    def _enqueue(
        self,
        kind: str,
        message: object,
        sender: int,
        delay: int,
        *,
        run: list[ObjectId] | None = None,
        seqs: list[int] | None = None,
        context: object = None,
    ) -> Envelope:
        """Park hops in the pipeline until their delay elapses: one, or a
        downlink's run, whose members each take the next ``seq`` stamp."""
        seq = self._envelope_seq + 1
        self._envelope_seq += 1 if run is None else len(run)
        envelope = Envelope(
            deliver_step=self.ledger.step + delay,
            sender=sender,
            seq=seq,
            kind=kind,
            message=message,
            sent_step=self.ledger.step,
            run=run,
            seqs=seqs,
            context=context,
            epoch=getattr(self._server, "partition_epoch", 0),
        )
        self._queue.setdefault(envelope.deliver_step, []).append(envelope)
        return envelope

    def delivery_phase(self, step: int) -> None:
        """Drain every due envelope, then run the retransmit timers.

        Envelopes due the same step drain in ``(sender, seq)`` order;
        opening an envelope may enqueue follow-up hops (acks, reactions),
        but those always land on a strictly later step, so one pass over
        the due keys is complete.
        """
        queue = self._queue
        if queue:
            for due in sorted(key for key in queue if key <= step):
                batch = queue.pop(due)
                batch.sort(key=lambda env: (env.sender, env.seq))
                for envelope in batch:
                    self._open_envelope(envelope, step)
        if self.reliability is not None:
            self.reliability.advance(step)

    def _open_envelope(self, envelope: Envelope, step: int) -> None:
        """Hand one due envelope to its receiver(s).

        A parked report row goes through the inline flush's row handler.
        A downlink run goes to the vectorized engine's fan-out as its id
        set when it accepts the message, once each member has observed
        its sequence number, if numbered, in ascending order (that only
        marks a gap for resync; nothing is rolled at open); otherwise each
        member is handed over in ascending order.
        """
        hops = envelope.hops
        self.delivered_deferred += hops
        self.delivered_delay_sum += hops * (step - envelope.sent_step)
        kind = envelope.kind
        if kind in ("uplink", "report", "rel-uplink") and envelope.epoch != getattr(
            self._server, "partition_epoch", 0
        ):
            # The map moved while this hop was in flight; the server
            # resolves the destination shard against the live map, so the
            # uplink (plain, parked row or reliable) is rerouted rather
            # than dropped.
            self.stale_epoch_reroutes += 1
        if kind == "report":
            self._server.apply_report_record(envelope.message, envelope.context)
        elif kind == "uplink":
            self._server.on_uplink(envelope.message)
        elif kind == "downlink":
            message = envelope.message
            fanout = self.fanout
            clients = self._clients
            run, seqs = envelope.run, envelope.seqs
            if fanout is not None and fanout.accepts(message):
                if seqs is not None:
                    for oid, seq in zip(run, seqs):
                        clients[oid].observe_downlink_seq(seq)
                fanout.apply(message, set(run))
                return
            for oid, seq in zip(run, seqs or repeat(None)):
                self._hand_over(clients[oid], message, seq)
        else:
            self.reliability.open_envelope(envelope)

    @staticmethod
    def _hand_over(client: DownlinkReceiver, message: object, seq: int | None) -> None:
        """Give one downlink to a receiver's radio, sequence number first
        (the stream is numbered only under fault injection)."""
        if seq is not None:
            observe = getattr(client, "observe_downlink_seq", None)
            if observe is not None:
                observe(seq)
        client.on_downlink(message)

    def discard_queued(self, predicate: Callable[[Envelope], bool]) -> int:
        """Drop queued, not-yet-delivered envelopes matching ``predicate``.

        Shard crash support: in-flight uplinks addressed to a shard die
        with it.  Returns the number of hops removed, which
        ``discarded_envelopes`` accumulates.  Reliable exchanges whose
        envelope is discarded stay pending -- their retransmit timers keep
        running, so the hop is retried (and re-routed) or fails through
        the normal retry budget.
        """
        removed = 0
        for due in list(self._queue):
            kept = []
            for env in self._queue[due]:
                if predicate(env):
                    removed += env.hops
                else:
                    kept.append(env)
            if kept:
                self._queue[due] = kept
            else:
                del self._queue[due]
        self.discarded_envelopes += removed
        return removed

    def pending_count(self) -> int:
        """Hops currently in flight (enqueued, not yet delivered)."""
        return sum(env.hops for batch in self._queue.values() for env in batch)

    # ------------------------------------------------------------ traffic

    def uplink(self, message: object) -> bool | None:
        """Object -> server message through the covering base station.

        Returns whether the message reached the server (and, for reliable
        messages under fault injection, was acknowledged back).  Under
        modeled latency a deferred hop returns ``True`` when it is on the
        wire (loss is rolled at send time), and a deferred reliable
        exchange returns ``None`` -- the outcome is reported to the sender
        when the ack arrives or the retry budget drains.
        """
        if self._server is None:
            raise RuntimeError("no server attached to transport")
        if self.reliability is not None and getattr(message, "reliable", False):
            return self.reliability.reliable_uplink(message)
        bits = message.bits  # type: ignore[attr-defined]
        sender = getattr(message, "oid", None)
        self.ledger.record_uplink(type(message).__name__, bits, sender=sender)
        if self.loss is not None and self.loss.drop_uplink(message):
            return False  # sent (and accounted) but lost in transit
        # With no latency model configured the hop is always inline: hand
        # the message straight to the server without computing a delay or
        # touching the envelope pipeline.
        delay = 0 if self.latency is None else self._uplink_delay()
        if delay <= 0:
            self._server.on_uplink(message)
            return True
        self._enqueue(
            "uplink", message, sender if sender is not None else SERVER_SENDER, delay
        )
        return True

    def flush_reports(self, buf: ReportBuffer) -> None:
        """Flush a closed client-side report window.

        Must be called with the window closed (``buf.depth == 0``): any
        report a server reaction provokes mid-flush then takes the
        ordinary inline path, exactly where the per-message pipeline would
        have sent it.  Each record meets what :meth:`uplink` would, in
        append order and with no dataclass: it is charged to the ledger,
        rolls its loss on its ``(kind, row)`` pair (under a fault
        injector), draws its delay (under modeled latency), and is parked
        as a ``"report"`` envelope on its row or applied to the server
        (``apply_report_record``).  With neither seam the non-focal cell
        changes (no motion state) go to the server afterwards as one stage
        (``apply_crossings``): a window holds those only for a run of
        non-focal clients, whose result records and cell reactions commute
        (core/reporting.py).  Not under an injector: a stage would reorder
        the install lists' downlink drops against later uplink drops on the
        shared channel stream, and skip the row handler's lease touch
        (``_touch_lease_rec``; the coordinator's ``_touch_home``).
        """
        n = len(buf.kind)
        if n == 0:
            return
        server = self._server
        if server is None:
            raise RuntimeError("no server attached to transport")
        apply_record = server.apply_report_record
        loss = self.loss
        draw = self.latency.uplink_delay if self.latency_active else None
        if draw is not None:
            # The parked envelopes keep the rows; the window gets new lists.
            parked = ReportBuffer()
            parked.kind, buf.kind = buf.kind, parked.kind
            parked.rows, buf.rows = buf.rows, parked.rows
            buf = parked
        # A record of this kind and no motion state is staged (never one
        # under an injector: no record kind is -1).
        staged = REC_CELL if loss is None else -1
        ledger = self.ledger
        kinds = buf.kind
        rows = buf.rows
        crossings = []
        for i in range(n):
            name = buf.kind_name_of(i)
            row = rows[i]
            oid = row[0]
            ledger.record_uplink(name, buf.bits_of(i), sender=oid)
            if loss is not None and loss.drop_uplink((kinds[i], row)):
                continue  # sent (and accounted) but lost in transit
            if draw is not None:
                delay = draw()
                if delay > 0:
                    self._enqueue("report", buf, oid, delay, context=i)
                    continue
            elif kinds[i] == staged and row[1] is None:
                crossings.append(row)
                continue
            apply_record(buf, i)
        if crossings:
            server.apply_crossings(crossings)
        if draw is None:
            buf.clear()

    def send(self, oid: ObjectId, message: object) -> bool | None:
        """Server -> one object (counted as a single downlink message).

        Returns whether the receiver got the message (acknowledged, for
        reliable messages under fault injection; ``None`` while a deferred
        reliable exchange is still in flight).
        """
        if self.reliability is not None and getattr(message, "reliable", False):
            return self.reliability.reliable_send(oid, message)
        bits = message.bits  # type: ignore[attr-defined]
        self.ledger.record_downlink(type(message).__name__, bits, receivers=(oid,), broadcasts=1)
        return self._deliver((oid,), message)

    def send_each(self, sends: list[tuple[ObjectId, object]]) -> None:
        """Server -> several objects, one message each, in list order.

        Each message is charged as its own :meth:`send` would charge it.
        A message the vectorized fan-out takes inline (under its broadcast
        decline rules) is applied to its addressee by the fan-out's
        appliers; any other goes through the ordinary :meth:`send`.
        """
        fanout = self.fanout
        for oid, message in sends:
            if fanout is not None and fanout.takes_inline(message):
                self.ledger.record_downlink(
                    type(message).__name__, message.bits, receivers=(oid,), broadcasts=1
                )
                fanout.apply(message, {oid})
            else:
                self.send(oid, message)

    def broadcast(self, region: Iterable[CellIndex], message: object) -> int:
        """Server -> the objects of a grid-cell region.

        One wireless message per station of the minimal cover; every object
        located in the region's cells receives the message, and objects
        inside the chosen stations' circles over-hear it (receive energy
        only).  Returns the number of broadcast messages sent.
        """
        if not isinstance(region, (CellRange, CellRangeUnion)):
            region = list(region)
        station_ids = self.layout.minimal_cover(region)
        if not station_ids:
            return 0
        if self.fanout is not None and self.fanout.try_broadcast(station_ids, region, message):
            return len(station_ids)
        receivers = self.coverage.covered_by_stations(station_ids)
        receivers |= self.coverage.in_cells(region)
        bits = message.bits  # type: ignore[attr-defined]
        self.ledger.record_downlink(
            type(message).__name__, bits, receivers=receivers, broadcasts=len(station_ids)
        )
        self._deliver(sorted(receivers), message)
        return len(station_ids)

    def _deliver(self, receivers: Iterable[ObjectId], message: object) -> bool:
        """The downlink hops of one message, in ``receivers`` order
        (ascending ids); returns whether any hop survived send time.

        Per receiver, in this order: a receiver without an attached radio
        is skipped (no radio can miss the message, so no drop is counted
        and no randomness is consumed), then loss is rolled, the sequence
        number allocated and the delay drawn -- one draw per message when
        the model has no jitter.  A zero-delay hop is handed over now; the
        others join the run parked for their delay.  A handover may
        enqueue hops of its own, so it closes every open run, keeping the
        per-hop ``(sender, seq)`` drain order.  When no hop rolls, numbers
        or draws and the one delay is positive, every attached receiver
        joins the one run: one envelope for the whole message.
        """
        clients = self._clients
        loss = self.loss
        sequenced = self.reliability is not None
        latency = self.latency
        delay = 0
        draw = None
        if latency is not None and self.latency_active:
            if latency.jitter_steps:
                draw = latency.downlink_delay
            else:
                delay = latency.downlink_delay()
        runs: dict[int, Envelope] = {}
        sent = False
        for oid in receivers:
            client = clients.get(oid)
            if client is None:
                continue
            dropped = loss is not None and loss.drop_delivery(message, receiver=oid)
            seq = self.next_downlink_seq(oid) if sequenced else None
            if dropped:
                continue
            sent = True
            if draw is not None:
                delay = draw()
            if delay <= 0:
                self._hand_over(client, message, seq)
                runs.clear()
                continue
            envelope = runs.get(delay)
            if envelope is None:
                seqs = [] if sequenced else None
                envelope = runs[delay] = self._enqueue(
                    "downlink", message, SERVER_SENDER, delay, run=[], seqs=seqs
                )
            self._envelope_seq += 1  # the hop's own stamp
            envelope.run.append(oid)
            if sequenced:
                envelope.seqs.append(seq)
        return sent
