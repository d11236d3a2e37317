"""Long-running service runtime over :class:`MobiEyesSystem`.

Everything below this module runs as a finite stepped simulation; the
service turns it into an *open-ended* deployment.  A
:class:`MobiEyesService` wraps a system behind a queue-driven ingest API
-- :meth:`submit_update`, :meth:`install_query`, :meth:`remove_query` --
whose operations are accepted at any time and applied *between* steps, at
the next tick's admission slot.  The ticker (:meth:`tick`, or :meth:`run`
for a count of ticks) advances one step per tick.  Nothing the system does
on its own leaves the process: ``checkpoint_every_steps`` only refreshes
the in-memory recovery basis (the server tables a crashed shard is rebuilt
from).
Durability is the caller's ``checkpoint(system).to_bytes()``
(:mod:`repro.core.snapshot`), which carries the ingest queue itself so a
restored service resumes with the same pending work.

Admission control and backpressure:

- the ingest queue is *bounded* by the admission budget times the
  latency pipeline's depth (unbounded without a budget).  A submission
  that would overflow is **rejected**: its ticket comes back
  ``"rejected"`` and ``backpressure_rejects`` counts it -- never a silent
  drop;
- an operation that cannot be applied when it is admitted -- its target
  does not exist (an update or install for an unknown object, an install
  whose focal object does not answer the round trip, a removal of a
  query that is not installed, or of an install that was rejected) or
  it carries a non-finite number (a NaN/inf position or velocity
  component, a region with a non-finite or negative extent) -- is
  **rejected** the same way, counted in ``invalid_rejects``, and
  admission moves on to the next operation;
- each tick admits at most ``ingest_budget_per_step`` operations (0 =
  everything queued); the rest stay queued for later ticks (a *deferral*,
  also counted).

Determinism contract (the correctness bar the tests grade): a service
run whose ingest script is replayed at fixed steps is **bit-identical**
to a plain simulation that makes the same ``apply_external_update`` /
``install_query`` / ``remove_query`` calls between the same steps --
the service adds scheduling, never behavior.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.load import read_counters
from repro.core.query import QueryId, QuerySpec
from repro.core.snapshot import import_state
from repro.geometry import Point, Vector
from repro.mobility.model import ObjectId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import MobiEyesSystem

#: Ingest operation kinds.
OP_UPDATE = "update"
OP_INSTALL = "install"
OP_REMOVE = "remove"


def _finite(*values: float) -> bool:
    return all(map(math.isfinite, values))


class IngestTicket:
    """The caller's handle on one submitted operation.

    ``status`` moves ``"queued" -> "applied"`` (or is ``"rejected"``:
    at submission when the queue is full, at admission when the op's
    target does not exist or its numbers are not finite); for installs,
    ``qid`` resolves to the server-assigned query id at apply time.
    """

    __slots__ = ("kind", "status", "qid", "payload")

    def __init__(self, kind: str, payload: tuple) -> None:
        self.kind = kind
        self.payload = payload
        self.status = "queued"
        self.qid: Optional[QueryId] = None

    @property
    def applied(self) -> bool:
        return self.status == "applied"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IngestTicket({self.kind!r}, {self.status!r}, qid={self.qid})"


class MobiEyesService:
    """Queue-driven, indefinitely running front end of a MobiEyes system."""

    #: Lifetime counters (core/load.py), in :meth:`counters` order.
    COUNTERS = (
        "submitted", "applied", "backpressure_rejects", "invalid_rejects",
        "deferred_ops", "ticks",
    )
    #: What a checkpoint carries (see core/snapshot.py): the queue -- its
    #: tickets as they are, so a queued removal still references its queued
    #: install's ticket after the round trip -- and the counters.
    CHECKPOINT_FIELDS = ("_queue", *COUNTERS)

    def __init__(self, system: "MobiEyesSystem") -> None:
        self.system = system
        config = system.config
        self.budget = config.ingest_budget_per_step
        # What the pipeline can absorb: one admission budget per step the
        # latency model keeps a message in flight, plus the current step.
        depth = 1 + (
            config.uplink_latency_steps
            + config.downlink_latency_steps
            + config.latency_jitter_steps
        )
        #: Queue bound; 0 means unbounded (no budget to derive from).
        self.queue_limit = self.budget * depth
        self._queue: deque[IngestTicket] = deque()
        # Lifetime accounting.  Invariant (tested):
        #   submitted == applied + rejected + len(queue).
        self.submitted = 0
        self.applied = 0
        self.backpressure_rejects = 0
        self.invalid_rejects = 0
        self.deferred_ops = 0
        self.ticks = 0
        # A checkpoint taken mid-service carries the queue; a system
        # restored from one parks it here for the next service attach.
        pending = system._pending_service_state
        if pending is not None:
            import_state(self, pending)
            system._pending_service_state = None
        system._service = self

    # ------------------------------------------------------------- ingest

    def _enqueue(self, ticket: IngestTicket) -> IngestTicket:
        self.submitted += 1
        if self.queue_limit and len(self._queue) >= self.queue_limit:
            ticket.status = "rejected"
            self.backpressure_rejects += 1
            return ticket
        self._queue.append(ticket)
        return ticket

    def submit_update(self, oid: ObjectId, pos: Point, vel: Vector) -> IngestTicket:
        """Queue an externally reported position/velocity for one object."""
        return self._enqueue(IngestTicket(OP_UPDATE, (oid, pos, vel)))

    def install_query(self, spec: QuerySpec) -> IngestTicket:
        """Queue a runtime query install; the ticket's ``qid`` resolves
        when the install is admitted."""
        return self._enqueue(IngestTicket(OP_INSTALL, (spec,)))

    def remove_query(self, ref: "QueryId | IngestTicket") -> IngestTicket:
        """Queue a runtime query removal.

        ``ref`` is either a concrete query id or the install's own
        ticket (FIFO admission guarantees the install lands first; if it
        was rejected, so is the removal: there is nothing to remove).
        """
        return self._enqueue(IngestTicket(OP_REMOVE, (ref,)))

    @property
    def queue_depth(self) -> int:
        """Operations currently waiting for admission."""
        return len(self._queue)

    # ------------------------------------------------------------- ticker

    def _admissible(self, ticket: IngestTicket) -> bool:
        """Whether the operation can be applied now: the object or query
        it names exists, every coordinate it carries is finite (a NaN
        position passes ``reflect_into`` untouched and crashes the next
        step's cell lookup), and a reported position lies inside the
        universe (``reflect_into`` would mirror a finite outside point to
        a different inside one; containment also fails on NaN and inf)."""
        system = self.system
        if ticket.kind == OP_UPDATE:
            oid, pos, vel = ticket.payload
            return (
                oid in system.clients
                and _finite(vel.x, vel.y)
                and system.config.uod.contains(pos)
            )
        if ticket.kind == OP_INSTALL:
            spec = ticket.payload[0]
            box = spec.region.bounding_rect()
            return (
                (spec.is_static or spec.oid in system.clients)
                and _finite(box.lx, box.ly, box.ux, box.uy)
                and box.lx <= box.ux
                and box.ly <= box.uy
            )
        ref = ticket.payload[0]
        qid = ref.qid if isinstance(ref, IngestTicket) else ref
        # An install ticket that never resolved (qid None) was rejected:
        # there is nothing to remove.
        return qid is not None and qid in system.server.sqt

    def _apply(self, ticket: IngestTicket) -> bool:
        """Apply an admissible operation; False if its target turned out
        not to exist after all."""
        system = self.system
        if ticket.kind == OP_UPDATE:
            oid, pos, vel = ticket.payload
            system.apply_external_update(oid, pos, vel)
        elif ticket.kind == OP_INSTALL:
            (spec,) = ticket.payload
            try:
                ticket.qid = system.install_query(spec)
            except KeyError:
                # The focal did not answer the install round trip: it is
                # offline, or stands on a crashed shard's stripe.
                return False
        else:
            (ref,) = ticket.payload
            qid = ref.qid if isinstance(ref, IngestTicket) else ref
            system.remove_query(qid)
            ticket.qid = qid
        ticket.status = "applied"
        self.applied += 1
        return True

    def admit(self) -> int:
        """Pump one admission slot: apply queued operations up to the
        budget (FIFO).  Returns how many operations were applied."""
        admitted = 0
        while self._queue and (self.budget == 0 or admitted < self.budget):
            ticket = self._queue.popleft()
            if not (self._admissible(ticket) and self._apply(ticket)):
                ticket.status = "rejected"
                self.invalid_rejects += 1
                continue
            admitted += 1
        if self._queue:
            self.deferred_ops += len(self._queue)
        return admitted

    def tick(self) -> int:
        """One service heartbeat: admit queued ingest, then advance one
        simulation step.  Returns the step index reached."""
        self.admit()
        self.ticks += 1
        return self.system.step()

    def run(self, steps: int) -> int:
        """Drive the ticker for ``steps`` ticks.  Returns the final step
        index."""
        last = self.system.clock.step
        for _ in range(steps):
            last = self.tick()
        return last

    # ------------------------------------------------------------ reports

    def counters(self) -> dict:
        """Accounting snapshot: every submission is applied, rejected, or
        still queued -- nothing is silently dropped."""
        return {**read_counters(self), "queued": len(self._queue)}

    def check_accounting(self) -> None:
        """The no-silent-drop invariant."""
        rejects = self.backpressure_rejects + self.invalid_rejects
        assert self.submitted == self.applied + rejects + len(self._queue), (
            f"ingest accounting leak: submitted={self.submitted} != "
            f"applied={self.applied} + rejects={rejects} + "
            f"queued={len(self._queue)}"
        )

    # ----------------------------------------------------------- teardown

    def close(self) -> None:
        """Close the wrapped system (idempotent)."""
        self.system.close()

    def __enter__(self) -> "MobiEyesService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
