"""Vectorized broadcast fan-out (vectorized engine).

Profiling the dense workload shows the reporting phase dominated not by
the reports themselves but by their *reactions*: every server broadcast
is delivered receiver by receiver through
``MobiEyesClient.on_downlink``, ~100 scalar handler invocations per
broadcast.  For the high-volume broadcast types those handlers perform a
per-receiver table poke that can be applied in bulk:

- ``VelocityChangeBroadcast``: rewrite ``focal_state`` / ``ptm`` on each
  receiver's LQT entry for the broadcast's queries.
- ``QueryInstallBroadcast`` / ``QueryUpdateBroadcast``: refresh or drop
  the entry of each holding receiver, install on covered non-holders.
- ``QueryRemoveBroadcast``: drop the entry of each holding receiver.
- ``QueryInstallList``, the unicast a cell change earns: the install /
  refresh of the query broadcasts, for a receiver set of one.

:class:`BroadcastFanout` reads the query-id -> holders index the batch
evaluator maintains inside its ``lqt_changed`` table hook, so a broadcast
touches exactly the entries it affects.  It writes them through each
receiver's :class:`~repro.core.tables.LocalQueryTable` (``install``,
``remove``, ``refresh``, ``set_focal_state``), whose watcher keeps the
arena current, so it knows no arena slot.  It takes the receivers as the
one id set :meth:`VectorizedCoverageIndex.receiver_mask` reads off the
per-step index (a few dozen ids; the ledger and the appliers consume the
set as it is).

One :meth:`BroadcastFanout.apply` serves both clocks.  Inline,
:meth:`~BroadcastFanout.try_broadcast` charges the ledger and applies
the broadcast to its covered set at send time, and the transport's
``send_each`` does the same for each install list of a stage and its
addressee.  Under modeled latency
the transport parks each broadcast's receivers as one run of ids per
drawn delay (loss already rolled at send; one run for the whole message
when nothing is rolled, numbered or jittered), and when a run opens in
the delivery phase the transport hands ``set(run)`` to ``apply`` -- after
each member observed its downlink sequence number, in ascending order,
when the reliability layer numbers the stream.

Equivalence to the per-receiver loop:

- The per-receiver handlers are mutually independent (each touches only
  its own client's LQT), so applying them grouped by query instead of
  ordered by receiver id is unobservable -- except for the *leave*
  reports an update broadcast provokes, which are collected per receiver
  in descriptor order and emitted in ascending receiver order, exactly
  the reference interleaving of uplinks.
- Message and energy accounting uses the same ledger call with the same
  receiver membership (at send time; opening a run charges nothing), so
  an event log gets the same ``downlink`` event (the ledger writes it).
- The fan-out declines (falls back to the scalar loop) whenever per-
  receiver semantics matter.  At send: loss rolls, reliability
  sequencing and deferred delivery (the transport rolls and parks the
  runs).  On both clocks: a lazy-propagation velocity broadcast carrying
  descriptors.  Nothing is declined at open: loss was rolled at send, and
  a member observing its sequence number only marks its own client for
  resync.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.messages import (
    QueryInstallBroadcast,
    QueryInstallList,
    QueryRemoveBroadcast,
    QueryUpdateBroadcast,
    VelocityChangeBroadcast,
)
from repro.core.tables import LqtEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.query import QueryId
    from repro.fastpath.runtime import FastpathRuntime
    from repro.mobility.model import ObjectId


class BroadcastFanout:
    """Bulk application of region broadcasts for one vectorized system."""

    def __init__(self, runtime: "FastpathRuntime") -> None:
        system = runtime.system
        self.transport = system.transport
        self.store = runtime.store
        self.coverage = runtime.coverage
        self.clients = system.clients
        self.evaluator = runtime.evaluator
        # qid -> {holder oid -> that holder's LqtEntry}.
        self.holders = self.evaluator.holders
        self._appliers = {
            VelocityChangeBroadcast: self._apply_velocity,
            QueryInstallBroadcast: self._apply_query,
            QueryUpdateBroadcast: self._apply_query,
            QueryRemoveBroadcast: self._apply_remove,
            # A unicast: its receiver set is its one addressee.
            QueryInstallList: self._apply_query,
        }

    # ------------------------------------------------------------ dispatch

    def try_broadcast(self, station_ids, region, message) -> bool:
        """Send one region broadcast and apply it inline, in bulk; False
        declines to the transport's per-receiver path (which, under
        deferred delivery, parks the runs :meth:`apply` takes later)."""
        if not self.takes_inline(message):
            return False
        # Looked up through the instance at call time: the index's three
        # reads are the seams an outside tracer wraps by name.
        receivers = self.coverage.receiver_mask(station_ids, region)
        self.transport.ledger.record_downlink(
            type(message).__name__,
            message.bits,
            receivers=receivers,
            broadcasts=len(station_ids),
        )
        self.apply(message, receivers)
        return True

    def takes_inline(self, message) -> bool:
        """Whether ``message`` can be applied in bulk at send time: it
        :meth:`accepts` it, and no loss roll or reliability sequencing (a
        fault injector) or deferred delivery needs the per-receiver path."""
        transport = self.transport
        return transport.loss is None and not transport.latency_active and self.accepts(message)

    def accepts(self, message) -> bool:
        """Whether ``message`` can be applied in bulk: a type with an
        applier (the region broadcasts, and the install list a cell change
        earns), and no lazy-propagation descriptors (a receiver may install
        from those; the scalar handler keeps that path)."""
        if type(message) not in self._appliers:
            return False
        return not (type(message) is VelocityChangeBroadcast and message.descriptors)

    def apply(self, message, receivers: set) -> None:
        """Every receiver's handler effects for an accepted ``message``:
        the inline send's covered set, or a deferred run when it opens."""
        self._appliers[type(message)](message, receivers)

    # ------------------------------------------------------------ appliers

    def _apply_velocity(self, message: VelocityChangeBroadcast, recv: set) -> None:
        """Fresh focal motion state for each holding receiver's entries."""
        state = message.state
        clients = self.clients
        for qid in message.qids:
            bucket = self.holders.get(qid)
            if not bucket:
                continue
            for oid, entry in bucket.items():
                if oid in recv:
                    clients[oid].lqt.set_focal_state(entry, state)

    def _apply_remove(self, message: QueryRemoveBroadcast, recv: set) -> None:
        """Drop each removed query from its holding receivers (no leave
        reports: the reference remove handler sends none)."""
        clients = self.clients
        for qid in message.qids:
            bucket = self.holders.get(qid)
            if not bucket:
                continue
            hit = [oid for oid in bucket if oid in recv]
            for oid in hit:  # removal mutates the bucket via the table hook
                clients[oid].lqt.remove(qid)

    def _apply_query(self, message, recv: set) -> None:
        """Install / refresh / drop per the broadcast descriptors."""
        clients = self.clients
        # Leave reports accumulate per receiver in descriptor order and are
        # sent last, ascending by receiver -- the exact uplink sequence of
        # the sorted per-receiver loop (only these reports are externally
        # visible; every other effect is receiver-local).
        leaves: dict["ObjectId", dict["QueryId", bool]] = {}
        for desc in message.queries:
            qid = desc.qid
            region = desc.mon_region
            focal = desc.oid
            lo_i, hi_i, lo_j, hi_j = region.lo_i, region.hi_i, region.lo_j, region.hi_j
            # Read live while the loop edits it through the table hook:
            # each receiver is visited once, so its own answer is never stale.
            bucket = self.holders.get(qid, {})
            for oid in recv:
                if oid == focal:
                    continue
                client = clients[oid]
                # `last_cell` is the receiver's cell at every broadcast
                # moment (the reporting scan updates it before the handler
                # that provokes the broadcast runs).
                ci, cj = client.last_cell
                covered = lo_i <= ci <= hi_i and lo_j <= cj <= hi_j
                entry = bucket.get(oid)
                if entry is None:
                    if covered and desc.filter.matches(client.obj.props):
                        client.lqt.install(LqtEntry.from_descriptor(desc))
                elif covered:
                    client.lqt.refresh(entry, desc)
                else:
                    removed = client.lqt.remove(qid)
                    if removed is not None and removed.is_target:
                        leaves.setdefault(oid, {})[qid] = False
        for oid in sorted(leaves):
            clients[oid]._send_result_changes(leaves[oid])
