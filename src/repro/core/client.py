"""The moving-object side of MobiEyes (paper Sections 3.5, 3.6, 4).

Each moving object runs a :class:`MobiEyesClient` that:

- detects its own grid-cell crossings and reports them (always under eager
  propagation; only when it is a focal object under lazy propagation);
- when it is a focal object, runs dead reckoning each step and relays its
  motion state to the server when the deviation exceeds ``delta``;
- keeps a local query table (LQT) of the queries whose monitoring region
  covers its cell, installed from server broadcasts;
- periodically evaluates every LQT query by predicting the focal object's
  position, and differentially reports target-set changes (with the query
  bitmap when grouping is enabled);
- applies the safe-period optimization: after finding itself outside a
  query region it computes the worst-case earliest time it could possibly
  enter and skips evaluations until then.

Under fault injection (a :class:`~repro.faults.injector.FaultInjector`
on the transport) the client additionally runs the recovery protocol:
it heartbeats after ``heartbeat_steps`` steps without an acknowledged
uplink, marks itself *suspect* when a reliable uplink exhausts its
retries, watches the per-object downlink sequence stream for gaps, and
resyncs -- a full LQT rebuild from a server snapshot -- once it regains
contact after either signal.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.core.config import MobiEyesConfig
from repro.geometry import Circle, Vector
from repro.core.messages import (
    CellChangeReport,
    FocalRoleNotification,
    Heartbeat,
    MotionStateRequest,
    MotionStateResponse,
    QueryDescriptor,
    QueryInstallBroadcast,
    QueryInstallList,
    QueryRemoveBroadcast,
    QueryUpdateBroadcast,
    ResultChangeReport,
    RebalanceDirective,
    ResyncDirective,
    ResyncRequest,
    ResyncResponse,
    VelocityChangeBroadcast,
    VelocityChangeReport,
)
from repro.core.query import QueryId
from repro.core.safe_period import safe_period_hours
from repro.core.tables import LocalQueryTable, LqtEntry
from repro.core.transport import SimulatedTransport
from repro.grid import Grid
from repro.mobility.model import MovingObject, ObjectId
from repro.sim.clock import SimulationClock


@dataclass(slots=True)
class EvalCounters:
    """Lifetime LQT-evaluation counters.  A system owns one, which every
    client and the batch evaluator increment; a client built on its own
    gets a private one."""

    evaluated_queries: int = 0  # containment checks actually performed
    skipped_by_safe_period: int = 0
    skipped_by_grouping: int = 0
    processing_seconds: float = 0.0

    COUNTERS = (
        "evaluated_queries", "skipped_by_safe_period", "skipped_by_grouping",
        "processing_seconds",
    )
    CHECKPOINT_FIELDS = COUNTERS


class MobiEyesClient:
    """Object-side protocol state machine for one moving object."""

    #: The plain attributes a checkpoint carries (see core/snapshot.py,
    #: which restores the LQT, ``has_mq`` and the relayed state through
    #: their watcher-firing setters instead).
    CHECKPOINT_FIELDS = (
        "last_cell", "_steps_since_ack", "_last_downlink_seq",
        "_needs_resync", "_suspect", "_report_epoch", "partition_epoch",
    )

    def __init__(
        self,
        obj: MovingObject,
        grid: Grid,
        transport: SimulatedTransport,
        config: MobiEyesConfig,
        stats: EvalCounters | None = None,
    ) -> None:
        self.obj = obj
        self.grid = grid
        self.transport = transport
        self.config = config
        self.lqt = LocalQueryTable()
        self.has_mq = False
        self.last_cell = grid.cell_index(obj.pos)
        # The motion state other parties believe this object to have; only
        # meaningful while the object is focal.  The vectorized runtime may
        # register a watcher to mirror it into its dead-reckoning columns.
        self._relayed_watcher = None
        self._relayed_state = obj.snapshot()
        self.stats = stats if stats is not None else EvalCounters()
        # Fault-handling state; the system wires `focal_registry` (the
        # shared client-side view of who is focal) and `fault_policy`
        # (non-None only when a FaultInjector is attached).
        self.focal_registry: set[ObjectId] | None = None
        self.fault_policy = None
        self._steps_since_ack = 0
        self._last_downlink_seq: int | None = None
        self._needs_resync = False
        self._suspect = False
        # The newest partition epoch this client has heard of (via
        # RebalanceDirective).  Recorded and checkpointed, never read for
        # routing: ``Envelope.epoch`` is the *server's* epoch at enqueue.
        self.partition_epoch = 0
        # Report generation: bumped (by the server, via ResyncResponse)
        # every time a resync purges this object from the query results, so
        # reports that were in flight across the purge can be told apart.
        self._report_epoch = 0
        transport.attach_client(obj.oid, self)

    @property
    def oid(self) -> ObjectId:
        """This client's object identifier."""
        return self.obj.oid

    # ------------------------------------------------------ report phase

    def report_phase(self, clock: SimulationClock) -> None:
        """Detect and report cell changes and significant velocity changes."""
        now = clock.now_hours
        current_cell = self.grid.cell_index(self.obj.pos)
        if current_cell != self.last_cell:
            self._handle_own_cell_change(current_cell, now)
        if self.has_mq:
            deviation = self.obj.pos.distance_to(self._relayed_state.predict(now))
            if deviation > self.config.dead_reckoning_threshold:
                self._relay_motion_state(now)

    def _handle_own_cell_change(self, new_cell: tuple[int, int], now: float) -> None:
        prev_cell = self.last_cell
        self.last_cell = new_cell
        # Drop queries whose monitoring region no longer covers this cell;
        # leaving a monitoring region while being a target is reported so
        # the server-side result stays clean.
        leave_changes = self.lqt.drop_uncovered(new_cell)
        if leave_changes:
            self._send_result_changes(leave_changes)
        # Under lazy propagation only focal objects report cell changes.
        if self.config.propagation.is_lazy and not self.has_mq:
            return
        state = self.obj.snapshot() if self.has_mq else None
        if state is not None:
            self._set_relayed(state)
        buf = self.transport.report_buffer
        if buf is not None and buf.depth:
            buf.add_cell(self.oid, prev_cell, new_cell, state)
            return
        self.transport.uplink(
            CellChangeReport(oid=self.oid, prev_cell=prev_cell, new_cell=new_cell, state=state)
        )

    def _relay_motion_state(self, now: float) -> None:
        state = self.obj.snapshot()
        self._set_relayed(state)
        buf = self.transport.report_buffer
        if buf is not None and buf.depth:
            buf.add_velocity(self.oid, state)
            return
        self.transport.uplink(VelocityChangeReport(oid=self.oid, state=state))

    def _set_relayed(self, state) -> None:
        """Update the relayed motion state, mirroring it to any watcher."""
        self._relayed_state = state
        watcher = self._relayed_watcher
        if watcher is not None:
            watcher(self.oid, state)

    # -------------------------------------------------- evaluation phase

    def evaluation_phase(self, clock: SimulationClock, memo: dict | None = None) -> None:
        """Process the LQT (paper Section 3.6, with Section 4 optimizations).

        ``memo`` maps a focal ``MotionState``'s ``id`` to the state and its
        predicted position at ``clock.now_hours``.  The system shares one
        across a whole evaluation phase, so each focal state is predicted
        once however many objects hold a query of it; a client evaluated
        on its own makes its own.  Keying by identity is exact within a
        phase: a state is immutable, and the memo holds it, so its ``id``
        names no other object while the memo lives.
        """
        started = time.perf_counter()
        now = clock.now_hours
        if memo is None:
            memo = {}
        changes_by_focal: dict[ObjectId, dict[QueryId, bool]] = {}
        if self.config.grouping:
            if len(self.lqt) == 1:
                (entry,) = self.lqt.entries()
                groups = ((entry.oid, [entry]),)
            else:
                groups = self.lqt.by_focal().items()
            for focal_oid, group in groups:
                changed = self._process_group(group, now, memo)
                if changed:
                    changes_by_focal[focal_oid] = changed
        else:
            for entry in self.lqt.entries():
                changed = self._process_group([entry], now, memo)
                if changed:
                    changes_by_focal.setdefault(entry.oid, {}).update(changed)
        self.stats.processing_seconds += time.perf_counter() - started

        if self.config.grouping:
            for changed in changes_by_focal.values():
                self._send_result_changes(changed)
        else:
            for changed in changes_by_focal.values():
                for qid, flag in changed.items():
                    self._send_result_changes({qid: flag})

    def _process_group(self, group: list[LqtEntry], now: float, memo: dict) -> dict[QueryId, bool]:
        """Evaluate one focal group (reach-descending); returns changes.

        The focal position is read from the phase's ``memo``, predicted on
        a miss.  With grouping, once the object's distance to the focal
        object exceeds a query's *reach* (the region's maximal extent from
        the binding point; the radius for circles) every remaining smaller
        query in the group is implied outside without a containment check
        -- the paper's "consider queries with smaller radiuses only if
        inside the larger".
        """
        if group and group[0].is_static:
            return self._process_static_entries(group, now)
        changes: dict[QueryId, bool] = {}
        predicted = None
        dist_sq = 0.0
        outside_reach = False
        eval_period = self.config.eval_period_hours
        for entry in group:
            if self.config.safe_period and entry.ptm > now:
                self.stats.skipped_by_safe_period += 1
                continue
            if predicted is None:
                state = entry.focal_state
                known = memo.get(id(state))
                if known is None:
                    predicted = state.predict(now)
                    memo[id(state)] = (state, predicted)
                else:
                    predicted = known[1]
                dist_sq = self.obj.pos.distance_squared_to(predicted)
            reach = entry.reach
            if outside_reach:
                # Implied by a larger region's miss; no containment check.
                inside = False
                self.stats.skipped_by_grouping += 1
            else:
                # Squared-space compare, identical arithmetic to the circle
                # containment check, so boundary cases agree with the oracle.
                beyond_reach = dist_sq > reach * reach
                inside = (not beyond_reach) and self._contains(entry, predicted)
                self.stats.evaluated_queries += 1
                if self.config.grouping and beyond_reach:
                    # Entries are sorted by reach descending: all smaller
                    # regions are outside too.
                    outside_reach = True
            if not inside and self.config.safe_period:
                sp = safe_period_hours(
                    math.sqrt(dist_sq), reach, self.obj.max_speed, entry.focal_max_speed
                )
                if sp > eval_period:
                    entry.ptm = now + sp
            if inside != entry.is_target:
                entry.is_target = inside
                changes[entry.qid] = inside
        return changes

    def _process_static_entries(self, group: list[LqtEntry], now: float) -> dict[QueryId, bool]:
        """Evaluate static (fixed-region) queries.

        No focal prediction and no reach short-circuit (the regions share
        no focal object); the safe period uses the distance to the region's
        bounding rectangle -- a lower bound on the distance to the region --
        and only this object's own maximum speed (the region cannot move).
        """
        changes: dict[QueryId, bool] = {}
        eval_period = self.config.eval_period_hours
        for entry in group:
            if self.config.safe_period and entry.ptm > now:
                self.stats.skipped_by_safe_period += 1
                continue
            inside = entry.region.contains(self.obj.pos)
            self.stats.evaluated_queries += 1
            if not inside and self.config.safe_period:
                gap = entry.region.bounding_rect().distance_to_point(self.obj.pos)
                if self.obj.max_speed > 0:
                    sp = gap / self.obj.max_speed
                elif gap > 0:
                    sp = math.inf
                else:
                    sp = 0.0
                if sp > eval_period:
                    entry.ptm = now + sp
            if inside != entry.is_target:
                entry.is_target = inside
                changes[entry.qid] = inside
        return changes

    def _contains(self, entry: LqtEntry, predicted_focal) -> bool:
        """Exact containment of this object in the query region centered at
        the predicted focal position (cheap radius test for circles)."""
        region = entry.region
        if isinstance(region, Circle):
            dx = self.obj.pos.x - predicted_focal.x
            dy = self.obj.pos.y - predicted_focal.y
            return dx * dx + dy * dy <= region.r * region.r
        moved = region.translated(Vector(predicted_focal.x, predicted_focal.y))
        return moved.contains(self.obj.pos)

    def _send_result_changes(self, changes: dict[QueryId, bool]) -> None:
        buf = self.transport.report_buffer
        if buf is not None and buf.depth:
            # Open report window: append to the report buffer (flushed by
            # the transport when the window closes) instead of allocating a
            # dataclass.  The buffer copies the flags out immediately.
            buf.add_result(self.oid, changes, self._report_epoch)
            return
        self.transport.uplink(
            ResultChangeReport(
                oid=self.oid, changes=dict(changes), epoch=self._report_epoch
            )
        )

    def _note_uplink_outcome(self, acked: bool) -> None:
        """Digest one reliable uplink's fate, reported by the reliability
        layer when the ack lands or the retry budget drains (within the
        sending call on inline hops, steps later on deferred ones).

        A reliable uplink doubles as a connectivity probe: its ack (or
        the lack of one after the retry budget) is how the object learns
        whether it can still reach the server.
        """
        if acked:
            self._steps_since_ack = 0
            if self._suspect:
                # Contact regained after a suspected partition: whatever
                # was broadcast in between is gone; schedule a resync.
                self._suspect = False
                self._needs_resync = True
        else:
            self._suspect = True

    # -------------------------------------------------------- fault phase

    def fault_phase(self, clock: SimulationClock) -> None:
        """Heartbeat / resync housekeeping (runs only under fault injection).

        Runs after the reporting phase and before evaluation, so a resync
        triggered this step already feeds the step's own evaluation.
        """
        if self.fault_policy is None:
            return
        # Carrier sensing: a device can tell locally when it has no signal
        # (disconnection or a dead serving station).  Anything it sent in
        # the blackout may be gone, so it must resync once back online.
        loss = self.transport.loss
        if loss is not None and loss.carrier_lost(self.oid):
            self._suspect = True
        if self._needs_resync:
            self._send_resync()
            return
        self._steps_since_ack += 1
        if self._steps_since_ack >= self.fault_policy.heartbeat_steps:
            self._steps_since_ack = 0
            self.transport.uplink(Heartbeat(oid=self.oid))

    def _send_resync(self) -> None:
        """Ask the server for a full state snapshot (reliable round trip).

        The response arrives through :meth:`on_downlink` -- within the
        same step on a zero-latency link, after the modeled round trip
        otherwise; ``_needs_resync`` is cleared only by
        :meth:`_apply_resync`, so a lost (or still in-flight) response
        retries next step.
        """
        self._suspect = False
        state = self.obj.snapshot()
        self._set_relayed(state)
        self.transport.uplink(
            ResyncRequest(
                oid=self.oid, cell=self.last_cell, state=state, max_speed=self.obj.max_speed
            )
        )

    def observe_downlink_seq(self, seq: int) -> None:
        """Track the per-object downlink sequence; a gap means missed traffic."""
        last = self._last_downlink_seq
        self._last_downlink_seq = seq
        if (
            last is not None
            and seq > last + 1
            and self.fault_policy is not None
            and self.fault_policy.resync_on_gap
        ):
            self._needs_resync = True

    def _set_has_mq(self, flag: bool) -> None:
        self.has_mq = flag
        registry = self.focal_registry
        if registry is not None:
            if flag:
                registry.add(self.oid)
            else:
                registry.discard(self.oid)

    def _apply_resync(self, message: ResyncResponse) -> None:
        """Rebuild the LQT from the server's snapshot.

        Every entry is dropped and reinstalled fresh (``is_target`` False);
        the server purged this object from all query results when it
        answered the resync, so both sides restart from a blank membership
        and the next evaluation re-reports the true one.
        """
        for qid in self.lqt.ids():
            self.lqt.remove(qid)
        for desc in message.queries:
            if desc.oid is not None and desc.oid == self.oid:
                continue
            if desc.mon_region.contains(self.last_cell) and desc.filter.matches(self.obj.props):
                self.lqt.install(LqtEntry.from_descriptor(desc))
        self._set_has_mq(message.has_mq)
        self._report_epoch = message.epoch
        self._needs_resync = False

    # ----------------------------------------------------------- downlink

    def on_downlink(self, message: object) -> None:
        """Handle a server broadcast or one-to-one message."""
        if isinstance(message, (QueryInstallBroadcast, QueryUpdateBroadcast)):
            self._on_query_broadcast(message.queries)
        elif isinstance(message, VelocityChangeBroadcast):
            self._on_velocity_broadcast(message)
        elif isinstance(message, QueryRemoveBroadcast):
            for qid in message.qids:
                self.lqt.remove(qid)
        elif isinstance(message, QueryInstallList):
            if message.oid == self.oid:
                self._on_query_broadcast(message.queries)
        elif isinstance(message, FocalRoleNotification):
            if message.oid == self.oid:
                self._set_has_mq(message.has_mq)
        elif isinstance(message, MotionStateRequest):
            if message.oid == self.oid:
                state = self.obj.snapshot()
                self._set_relayed(state)
                self.transport.uplink(
                    MotionStateResponse(oid=self.oid, state=state, max_speed=self.obj.max_speed)
                )
        elif isinstance(message, ResyncResponse):
            if message.oid == self.oid:
                self._apply_resync(message)
        elif isinstance(message, ResyncDirective):
            # Server-side state was lost (a shard crashed and was rebuilt
            # from a checkpoint); run the ordinary resync round trip.
            self._needs_resync = True
        elif isinstance(message, RebalanceDirective):
            # The partition map moved under us: record the advertised
            # epoch.  No state to resync -- the transport stamps envelopes
            # with the server's epoch and reroutes the stale ones itself.
            if message.epoch > self.partition_epoch:
                self.partition_epoch = message.epoch
        else:
            raise TypeError(f"unexpected downlink message {type(message).__name__}")

    def _on_query_broadcast(self, descriptors: tuple[QueryDescriptor, ...]) -> None:
        """Install / refresh / drop queries per the broadcast descriptors."""
        leave_changes: dict[QueryId, bool] = {}
        for desc in descriptors:
            if desc.oid is not None and desc.oid == self.oid:
                continue  # an object is never a target of its own query
            covered = desc.mon_region.contains(self.last_cell)
            if not covered:
                removed = self.lqt.remove(desc.qid)
                if removed is not None and removed.is_target:
                    leave_changes[desc.qid] = False
                continue
            existing = self.lqt.find(desc.qid)
            if existing is not None:
                self.lqt.refresh(existing, desc)
            elif desc.filter.matches(self.obj.props):
                self.lqt.install(LqtEntry.from_descriptor(desc))
        if leave_changes:
            self._send_result_changes(leave_changes)

    def _on_velocity_broadcast(self, message: VelocityChangeBroadcast) -> None:
        for qid in message.qids:
            entry = self.lqt.find(qid)
            if entry is not None:
                self.lqt.set_focal_state(entry, message.state)
        # Lazy propagation: the expanded broadcast lets objects that changed
        # cells install the queries they missed.
        if message.descriptors:
            self._on_query_broadcast(message.descriptors)
