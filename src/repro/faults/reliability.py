"""Ack/retransmit delivery for reliable messages.

The fault injector drops control-plane messages like any other, so
reliability has to be earned: a reliable message is (re)transmitted up to ``policy.max_attempts`` times,
the receiver acknowledges each copy it hears with an
:class:`~repro.core.messages.Ack`, and the exchange succeeds only when
the *sender* sees an ack.  Every transmission attempt and every ack is
charged to the :class:`~repro.network.messaging.MessageLedger`, so under
faults the message/energy figures include the price of reliability --
nothing is free.

Sequencing and dedup: each reliable uplink gets a per-sender sequence
number and each reliable downlink occupies one slot in the receiver's
downlink sequence stream (the same stream unreliable deliveries bump, so
a reliable message that exhausts its retries leaves a detectable gap).
The receiver processes only the first copy that arrives -- duplicates
caused by a lost ack are suppressed, which is what the echoed sequence
number buys in a real stack.

One state machine, one clock question per hop.  Every exchange -- either
direction -- is an :class:`_Exchange` whose data copies and acks all
travel through :meth:`ReliabilityLayer._hop`: charge the ledger, roll the
injector, ask the transport for this hop's delay, then either arrive now
or park a ``rel-*`` envelope for the delivery phase.  The layer has no
timing mode of its own; the transport's latency state only decides who
runs the retry step (:meth:`ReliabilityLayer._retry`: retransmit, or
give up once the budget is spent):

- while no hop can be deferred (no modeled latency, or inside a
  forced-inline section) an attempt's fate is known when ``_hop``
  returns, so the opener retries in back-to-back rounds of the same
  step (see :mod:`repro.faults.policy`) and returns the outcome;
- otherwise the opener returns ``None`` and a retransmit timer -- armed
  to the latency model's worst-case round trip -- retries from
  :meth:`ReliabilityLayer.advance` during the delivery phase until the
  ack lands or the budget drains.

On both clocks the sending client learns an uplink's fate through the
same call, ``_note_uplink_outcome``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.load import read_counters
from repro.core.messages import Ack
from repro.core.transport import SERVER_SENDER
from repro.faults.injector import FaultInjector
from repro.mobility.model import ObjectId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.transport import Envelope, SimulatedTransport

_ACK = "rel-ack"


@dataclass(slots=True)
class _Exchange:
    """State of one in-flight reliable exchange."""

    token: int
    up: bool  # True: object -> server; False: server -> object
    message: object
    oid: ObjectId  # uplink: the sender; downlink: the receiver
    seq: int
    ack: Ack = field(init=False)
    attempts: int = 0
    delivered: bool = False
    acked: bool = False
    deadline: int = 0

    def __post_init__(self) -> None:
        self.ack = Ack(oid=self.oid, seq=self.seq)


class ReliabilityLayer:
    """Bounded-retry delivery of reliable messages over a fault injector."""

    #: Lifetime counters (core/load.py), in :meth:`counters` order.
    COUNTERS = (
        "retransmissions", "acks_sent", "ack_drops", "failures", "duplicates_suppressed",
    )
    #: The attributes a checkpoint carries (see core/snapshot.py).  Queued
    #: rel-* envelopes reference the ``_pending`` exchanges by identity.
    CHECKPOINT_FIELDS = ("_uplink_seq", "_pending", "_next_token", *COUNTERS)

    def __init__(self, transport: "SimulatedTransport", injector: FaultInjector) -> None:
        self.transport = transport
        self.injector = injector
        self.policy = injector.policy
        self.retransmissions = 0
        self.acks_sent = 0
        self.ack_drops = 0
        self.failures = 0
        self.duplicates_suppressed = 0
        # Keyed by (sender, server endpoint): under a sharded server each
        # shard is its own ack endpoint, so every (object, shard) pair gets
        # a private gap-free sequence stream.  The monolith's endpoint is
        # always 0, collapsing this to the old per-sender stream.
        self._uplink_seq: dict[tuple[ObjectId, int], int] = {}
        # Exchanges awaiting an ack, keyed by a monotonic token (sorted
        # iteration keeps the retransmit timers deterministic).
        self._pending: dict[int, _Exchange] = {}
        self._next_token = 0

    def _rto_steps(self) -> int:
        """Retransmit timeout: the latency model's worst-case round trip."""
        latency = self.transport.latency
        if latency is None:
            return 1
        return max(1, latency.worst_case_rtt_steps)

    # -------------------------------------------------------- entry points

    def reliable_uplink(self, message: object) -> bool | None:
        """Deliver an object -> server message with retries.

        Returns whether the exchange was acked, or ``None`` while hops
        are being deferred (outcome pending); either way the sending
        client is told through ``_note_uplink_outcome`` once it is known.
        """
        sender = getattr(message, "oid", None)
        stream = (sender, self.transport.uplink_endpoint(message))
        seq = self._uplink_seq.get(stream, 0) + 1
        self._uplink_seq[stream] = seq
        return self._run(True, message, sender, seq)

    def reliable_send(self, oid: ObjectId, message: object) -> bool | None:
        """Deliver a server -> object message with retries.

        Returns whether the exchange was acked, or ``None`` while the
        exchange is in flight on deferred hops.
        """
        transport = self.transport
        if oid not in transport._clients:
            # No radio attached: transmit once (the sender cannot know) and
            # give up -- nothing on the far side will ever ack.
            bits = message.bits  # type: ignore[attr-defined]
            transport.ledger.record_downlink(
                type(message).__name__, bits, receivers=(oid,), broadcasts=1
            )
            self.failures += 1
            return False
        return self._run(False, message, oid, transport.next_downlink_seq(oid))

    def _run(self, up: bool, message: object, oid: ObjectId, seq: int) -> bool | None:
        """Open an exchange and put its first attempt on the wire; with no
        deferred hops, also run the retry step to completion here and now."""
        deferred = self.transport.latency_active
        self._next_token += 1
        exchange = _Exchange(token=self._next_token, up=up, message=message, oid=oid, seq=seq)
        self._pending[exchange.token] = exchange
        self._transmit(exchange)
        if deferred:
            return None  # advance() owns the retries
        while exchange.token in self._pending:
            self._retry(exchange)
        return exchange.acked

    # ------------------------------------------------------- state machine

    def _retry(self, exchange: _Exchange) -> None:
        """The last attempt went unacked: send another, or give up."""
        if exchange.attempts >= self.policy.max_attempts:
            self.failures += 1
            self._finish(exchange)
        else:
            self.retransmissions += 1
            self._transmit(exchange)

    def _transmit(self, exchange: _Exchange) -> None:
        """One attempt: arm the retransmit timer and send the data copy."""
        exchange.attempts += 1
        exchange.deadline = self.transport.step + self._rto_steps()
        self._hop(exchange, exchange.message, "rel-uplink" if exchange.up else "rel-downlink")

    def _hop(self, exchange: _Exchange, message: object, kind: str) -> None:
        """Put one copy on the wire: charge it, roll loss, stamp the delay,
        then arrive now or park a ``kind`` envelope.  A lost copy just
        returns -- the retry budget covers it."""
        transport = self.transport
        oid = exchange.oid
        is_ack = kind == _ACK
        up = exchange.up != is_ack  # an ack travels against its exchange
        name = type(message).__name__
        bits = message.bits  # type: ignore[attr-defined]
        if up:
            transport.ledger.record_uplink(name, bits, sender=oid)
        else:
            transport.ledger.record_downlink(name, bits, receivers=(oid,), broadcasts=1)
        if is_ack:
            self.acks_sent += 1
        if up:
            dropped = self.injector.drop_uplink(message)
        else:
            dropped = self.injector.drop_delivery(message, receiver=oid)
        if dropped:
            if is_ack:
                self.ack_drops += 1
            return
        delay = transport._uplink_delay() if up else transport._downlink_delay()
        if delay <= 0:
            self._arrive(exchange, kind)
        else:
            transport._enqueue(
                kind, message, oid if up else SERVER_SENDER, delay, context=exchange
            )

    def open_envelope(self, envelope: "Envelope") -> None:
        """A parked hop came due in the delivery phase."""
        self._arrive(envelope.context, envelope.kind)

    def _arrive(self, exchange: _Exchange, kind: str) -> None:
        """One copy reaches the far side.  An ack completes the exchange;
        a data copy is delivered (first one only) and acked back."""
        transport = self.transport
        if kind == _ACK:
            if not exchange.acked:
                exchange.acked = True
                self._finish(exchange)
            return
        if exchange.delivered:
            self.duplicates_suppressed += 1
        else:
            exchange.delivered = True
            if exchange.up:
                transport._server.on_uplink(exchange.message)
            else:
                # reliable_send opened the exchange only to an attached radio.
                client = transport._clients[exchange.oid]
                transport._hand_over(client, exchange.message, exchange.seq)
        self._hop(exchange, exchange.ack, _ACK)

    def _finish(self, exchange: _Exchange) -> None:
        """Close the exchange and tell an uplink's sender how it went."""
        self._pending.pop(exchange.token, None)
        if exchange.up:
            client = self.transport._clients.get(exchange.oid)
            note = getattr(client, "_note_uplink_outcome", None)
            if note is not None:
                note(exchange.acked)

    def advance(self, step: int) -> None:
        """Fire due retransmit timers (called from the delivery phase,
        after the step's envelopes have drained)."""
        for token in sorted(self._pending):
            exchange = self._pending.get(token)
            if exchange is not None and step >= exchange.deadline:
                self._retry(exchange)

    # ---------------------------------------------------------- inspection

    def counters(self) -> dict:
        """A JSON-friendly snapshot of the reliability accounting."""
        return {**read_counters(self), "pending": len(self._pending)}
