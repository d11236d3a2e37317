"""The MobiEyes server: a mediator between moving objects (paper Section 3).

The server never evaluates queries itself.  It composes two table owners
-- a :class:`~repro.core.registry.QueryRegistry` (the SQT, the RQI and
result subscriptions) and a :class:`~repro.core.focal.FocalTracker` (the
FOT and soft-state leases) -- over the transport, and orchestrates the
protocol across them: installing queries and relaying significant
focal-object changes (velocity-vector changes and grid-cell crossings) to
the objects inside the affected monitoring regions using the minimal
number of base-station broadcasts.  Which queries ride together in one
broadcast (the paper's Section 4.1 grouping) is :meth:`MobiEyesServer._groups`.

Reports reach the handlers two ways: ``on_uplink`` takes a message
dataclass apart, ``apply_report_record`` unpacks one row of a flushed
report window; both call the same record-level handlers.  A flushed
window's non-focal cell changes arrive together at ``apply_crossings``,
the stage the record-level cell handler calls with a run of one.

Server load is measured by a :class:`~repro.core.load.LoadAccount`: the
wall-clock time spent inside the server's handlers (the same "time spent
executing the server side logic per time step" measure the paper uses),
plus a deterministic operation counter for hardware-independent
comparisons.

Every cross-table access that a grid-partitioned shard would need to
resolve through its coordinator goes through a ``_``-prefixed hook
(``_queries_at``, ``_entry_of``, ``_focal_entry``, ``_rqi_add`` /
``_rqi_remove`` / ``_rqi_move``, ``_purge_object``, ``_result_entry``,
``_acquire_focal``, ``_allocate_qid``).  Here every hook resolves against
the server's own tables; :class:`~repro.core.shard.ServerShard` overrides
them to reach across the partition.  ``transport.broadcast`` and the
hooks are looked up at call time, never cached as bound methods: the
benchmark's tracer wraps those instance attributes by name.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

ResultCallback = Callable[["QueryId", "ObjectId", bool], None]

from repro.core.config import MobiEyesConfig
from repro.core.focal import FocalTracker
from repro.core.load import LoadAccount
from repro.core.messages import (
    REC_CELL,
    REC_RESULT,
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
    ResyncRequest,
    ResyncResponse,
    VelocityChangeBroadcast,
    VelocityChangeReport,
)
from repro.core.query import MovingQuery, QueryId, QuerySpec
from repro.core.registry import QueryRegistry
from repro.core.reporting import ReportBuffer
from repro.core.tables import FotEntry, SqtEntry
from repro.core.transport import SimulatedTransport
from repro.grid import CellIndex, CellRange, CellRangeUnion, Grid, monitoring_region
from repro.mobility.model import MotionState, ObjectId

#: Under *lazy* propagation static queries have no focal-object broadcasts
#: to heal a missed install, so the system calls
#: :meth:`MobiEyesServer.beacon_static_queries` every this many steps.
STATIC_BEACON_STEPS = 10


class MobiEyesServer:
    """Server-side half of the MobiEyes protocol."""

    #: Crashed shard ids (the coordinator's is live: a monolith has none).
    dead_shards: tuple[int, ...] = ()

    def __init__(
        self,
        grid: Grid,
        transport: SimulatedTransport,
        config: MobiEyesConfig,
        *,
        registry: QueryRegistry | None = None,
        attach: bool = True,
    ) -> None:
        self.grid = grid
        self.transport = transport
        self.config = config
        self.registry = registry if registry is not None else QueryRegistry()
        self.tracker = FocalTracker()
        self.load = LoadAccount()
        self._next_qid: QueryId = 1
        # Per-object report generations (see ResultChangeReport.epoch);
        # absent means epoch 0.  A shard rebinds this to its coordinator's
        # map so an object's epoch survives cell handoffs.
        self._report_epochs: dict[ObjectId, int] = {}
        if attach:
            transport.attach_server(self)

    # ------------------------------------------------------- table aliases

    @property
    def fot(self) -> FocalTracker:
        """The focal object table: a read alias of the focal tracker."""
        return self.tracker

    @property
    def sqt(self) -> QueryRegistry:
        """The server query table: a read alias of the query registry."""
        return self.registry

    @property
    def rqi(self):
        """The reverse query index (owned by the query registry)."""
        return self.registry.rqi

    # ------------------------------------------------------------- timing

    def load_totals(self) -> tuple[float, int]:
        """Lifetime (seconds, ops) charged to this server."""
        return self.load.seconds, self.load.ops

    # -------------------------------------------------- cross-shard hooks
    #
    # Every access that may leave a shard's own partition funnels through
    # these; the monolithic server resolves them locally.

    def _allocate_qid(self) -> QueryId:
        """Claim the next globally unique query id."""
        qid = self._next_qid
        self._next_qid += 1
        return qid

    def _focal_entry(self, oid: ObjectId) -> FotEntry:
        """The FOT entry backing a query descriptor (may live elsewhere)."""
        return self.tracker.get(oid)

    def _queries_at(self, cell: CellIndex) -> frozenset[QueryId]:
        """Query ids registered at a grid cell (the cell owner's RQI)."""
        return self.registry.queries_at(cell)

    def _fresh_queries_at(self, prev_cell: CellIndex, new_cell: CellIndex) -> list[QueryId]:
        """Ids registered at ``new_cell`` but not ``prev_cell``, ascending.
        Both cells resolve locally here; a shard routes either through its
        coordinator when a foreign stripe owns it."""
        return self.registry.rqi.fresh_ids_between(prev_cell, new_cell)

    def _entry_of(self, qid: QueryId) -> SqtEntry:
        """The SQT entry of a query id found in some RQI cell."""
        return self.registry.get(qid)

    def _result_entry(self, qid: QueryId) -> SqtEntry | None:
        """The SQT entry a result-change report should apply to, or None
        if the query no longer exists anywhere."""
        return self.registry.get(qid) if qid in self.registry else None

    def _rqi_add(self, qid: QueryId, region: CellRange) -> None:
        """Register a monitoring region in the RQI of its cell owners."""
        self.registry.rqi.add(qid, region)

    def _rqi_remove(self, qid: QueryId, region: CellRange) -> None:
        """Withdraw a monitoring region from the RQI of its cell owners."""
        self.registry.rqi.remove(qid, region)

    def _rqi_move(self, qid: QueryId, old: CellRange, new: CellRange) -> None:
        """Move a query between monitoring regions across cell owners."""
        self.registry.rqi.move(qid, old, new)

    def _purge_object(self, oid: ObjectId) -> list[QueryId]:
        """Drop ``oid`` from every query result anywhere; qid-ascending."""
        return self.registry.purge_object(oid)

    def _acquire_focal(self, oid: ObjectId) -> None:
        """Take over responsibility for a focal object that crossed into
        this server's territory (no-op without partitioning)."""

    # ------------------------------------------------------ query install

    def install_query(self, spec: QuerySpec) -> QueryId:
        """Install a moving or static query (paper Section 3.3).

        Static queries (``spec.oid is None``) skip all focal bookkeeping:
        no FOT entry, no role notification, and a monitoring region that is
        simply the grid cells intersecting the fixed region.
        """
        if spec.is_static:
            return self._install_static(spec)
        with self.load.timed():
            if spec.oid not in self.tracker:
                # Contact the focal object for its position and velocity.
                # Installation predates the simulation run (there is no
                # delivery phase to drain a deferred response), so the
                # round trip is forced inline regardless of modeled
                # latency and the response arrives through on_uplink
                # before the send returns.
                with self.load.paused():  # the round trip is not server work
                    with self.transport.synchronous():
                        self.transport.send(spec.oid, MotionStateRequest(oid=spec.oid))
                if spec.oid not in self.tracker:
                    raise KeyError(f"focal object {spec.oid} did not answer the state request")
            focal = self.tracker.get(spec.oid)
            qid = self._allocate_qid()
            curr_cell = self.grid.cell_index(focal.state.pos)
            mon_region = monitoring_region(self.grid, curr_cell, spec.region)
            entry = SqtEntry(
                qid=qid,
                oid=spec.oid,
                region=spec.region,
                filter=spec.filter,
                curr_cell=curr_cell,
                mon_region=mon_region,
            )
            self.registry.add(entry)
            self._rqi_add(qid, mon_region)
            self.load.ops += mon_region.cell_count + 1

        # Notify the focal object of its role, then install the query on
        # every object in the monitoring region through broadcasts.
        self.transport.send(spec.oid, FocalRoleNotification(oid=spec.oid, has_mq=True))
        self.transport.broadcast(
            mon_region, QueryInstallBroadcast(queries=(self._descriptor(entry),))
        )
        return qid

    def _install_static(self, spec: QuerySpec) -> QueryId:
        with self.load.timed():
            qid = self._allocate_qid()
            mon_region = self.grid.cells_intersecting(spec.region.bounding_rect())
            entry = SqtEntry(
                qid=qid,
                oid=None,
                region=spec.region,
                filter=spec.filter,
                curr_cell=None,
                mon_region=mon_region,
            )
            self.registry.add(entry)
            self._rqi_add(qid, mon_region)
            self.load.ops += mon_region.cell_count + 1
        self.transport.broadcast(
            mon_region, QueryInstallBroadcast(queries=(self._descriptor(entry),))
        )
        return qid

    def remove_query(self, qid: QueryId) -> None:
        """Uninstall a query everywhere."""
        with self.load.timed():
            entry, focal_left = self.registry.remove(qid)
            self._rqi_remove(qid, entry.mon_region)
            self.load.ops += entry.mon_region.cell_count + 1
            if not focal_left:
                if entry.oid in self.tracker:
                    self.tracker.remove(entry.oid)
                self.tracker.pop_suspended(entry.oid)
        self.transport.broadcast(entry.mon_region, QueryRemoveBroadcast(qids=(qid,)))
        if not focal_left:
            self.transport.send(entry.oid, FocalRoleNotification(oid=entry.oid, has_mq=False))

    # ----------------------------------------------------------- handlers

    def on_uplink(self, message: object) -> None:
        """Dispatch an object -> server message."""
        if self.tracker.leases_enabled:
            oid = getattr(message, "oid", None)
            if oid is not None:
                self._touch_lease_rec(
                    oid, getattr(message, "state", None), getattr(message, "max_speed", None)
                )
        if isinstance(message, VelocityChangeReport):
            self._on_velocity_change_rec(message.oid, message.state)
        elif isinstance(message, CellChangeReport):
            self._on_cell_change_rec(
                message.oid, message.prev_cell, message.new_cell, message.state
            )
        elif isinstance(message, ResultChangeReport):
            self._apply_result_record(message.oid, message.epoch, message.changes.items())
        elif isinstance(message, MotionStateResponse):
            self._on_motion_state(message)
        elif isinstance(message, ResyncRequest):
            self._on_resync_request(message)
        elif isinstance(message, Heartbeat):
            pass  # liveness only; the lease bookkeeping above did the work
        else:
            raise TypeError(f"unexpected uplink message {type(message).__name__}")

    def apply_report_record(self, cols: ReportBuffer, i: int) -> None:
        """Apply record ``i`` of a flushed report window.

        ``cols`` is the :class:`~repro.core.reporting.ReportBuffer` the
        transport is flushing, or the one a flush under latency parked the
        record in.  Semantically identical to :meth:`on_uplink` with the
        equivalent per-record dataclass, but without constructing it.
        """
        kind = cols.kind[i]
        row = cols.rows[i]
        oid = row[0]
        state = row[1]
        if self.tracker.leases_enabled:
            self._touch_lease_rec(oid, state, None)
        if kind == REC_RESULT:
            self._apply_result_record(oid, row[2], row[3])
        elif kind == REC_CELL:
            self._on_cell_change_rec(oid, row[2], row[3], state)
        else:
            self._on_velocity_change_rec(oid, state)

    # ------------------------------------------------- soft-state leases

    def enable_leases(self, lease_steps: int) -> None:
        """Turn on soft-state leases: a focal object silent for more than
        ``lease_steps`` steps has its queries suspended until it is heard
        from again (wired up only under fault injection)."""
        self.tracker.enable_leases(lease_steps)

    def _touch_lease_rec(
        self, oid: ObjectId, state: MotionState | None, max_speed: float | None
    ) -> None:
        """Record a sign of life and reinstate a suspended focal object."""
        self.tracker.touch(oid, self.transport.step)
        if not self.tracker.is_suspended(oid):
            return
        if state is not None:
            self._reinstate(oid, state, max_speed)
        else:
            # A stateless sign of life (heartbeat, result report): probe for
            # fresh motion state; the response re-enters on_uplink and
            # reinstates through the branch above.
            self.transport.send(oid, MotionStateRequest(oid=oid))

    def expire_leases(self, step: int) -> None:
        """Suspend the queries of focal objects whose lease ran out."""
        for oid in self.tracker.expired(step):
            self._suspend(oid)

    def _suspend(self, oid: ObjectId) -> None:
        """Withdraw a silent focal object's queries from active service.

        The queries stay in the SQT (marked ``suspended``) but leave the
        RQI and lose their results, the focal object leaves the FOT, and
        the monitoring regions are told to drop the queries.  Everything
        is undone by :meth:`_reinstate` when the object resurfaces.
        """
        left: list[tuple[QueryId, ObjectId]] = []
        with self.load.timed():
            entries = self.registry.queries_of_focal(oid)
            for entry in entries:
                self._rqi_remove(entry.qid, entry.mon_region)
                entry.suspended = True
                for member in sorted(entry.result):
                    left.append((entry.qid, member))
                entry.result.clear()
                self.load.ops += entry.mon_region.cell_count + 1
            groups = self._groups(entries)
            self.tracker.mark_suspended(oid, self.tracker.get(oid).max_speed)
            self.tracker.remove(oid)
        for qid, member in left:
            self.registry.notify(qid, member, False)
        for mon_region, group in groups:
            self.transport.broadcast(
                mon_region, QueryRemoveBroadcast(qids=tuple(e.qid for e in group))
            )

    def _reinstate(self, oid: ObjectId, state: MotionState, max_speed: float | None = None) -> None:
        """Bring a suspended focal object's queries back into service."""
        stored = self.tracker.pop_suspended(oid)
        if stored is None:
            return
        if max_speed is None:
            max_speed = stored
        with self.load.timed():
            self.tracker.upsert(oid, state, max_speed)
            curr_cell = self.grid.cell_index(state.pos)
            entries = self.registry.queries_of_focal(oid)
            for entry in entries:
                entry.curr_cell = curr_cell
                entry.mon_region = monitoring_region(self.grid, curr_cell, entry.region)
                self._rqi_add(entry.qid, entry.mon_region)
                entry.suspended = False
                self.load.ops += entry.mon_region.cell_count + 1
            groups = self._groups(entries)
        for mon_region, group in groups:
            self.transport.broadcast(
                mon_region,
                QueryInstallBroadcast(queries=tuple(self._descriptor(e) for e in group)),
            )

    def _on_resync_request(self, message: ResyncRequest) -> None:
        """Rebuild one object's protocol state after it detected a gap.

        The object is about to discard its LQT (and with it the is_target
        memory its differential reports build on), so the server purges it
        from every result first; the object's next full evaluation then
        re-reports the truth as a clean differential.  The reply carries
        the descriptors of every query alive at the object's cell.
        """
        oid = message.oid
        focal_updates: list[tuple[object, list[SqtEntry]]] = []
        with self.load.timed():
            if oid in self.tracker:
                self.tracker.upsert(oid, message.state, message.max_speed)
            if self.registry.is_focal(oid) and not self.tracker.is_suspended(oid):
                # Always push fresh descriptors to the monitoring regions:
                # the focal's relays during its blackout are gone, and the
                # watchers cannot detect that staleness on their own.
                entries = self.registry.queries_of_focal(oid)
                if any(e.curr_cell != message.cell for e in entries):
                    focal_updates = self._refresh_focal_regions(oid, message.cell)
                else:
                    focal_updates = [
                        (group[0].mon_region, group)
                        for _region, group in self._groups(entries)
                    ]
            purged = self._purge_object(oid)
            # A new report generation: reports stamped with an older epoch
            # -- still in flight across the purge under modeled latency --
            # are discarded on arrival.
            epoch = self._report_epochs[oid] = self._report_epochs.get(oid, 0) + 1
            self.load.ops += len(purged)
            queries = tuple(
                self._descriptor(entry)
                for qid in sorted(self._queries_at(message.cell))
                if (entry := self._entry_of(qid)).oid != oid
            )
            has_mq = self.registry.is_focal(oid) and not self.tracker.is_suspended(oid)
        for qid in purged:
            self.registry.notify(qid, oid, False)
        for combined_region, group in focal_updates:
            self.transport.broadcast(
                combined_region,
                QueryUpdateBroadcast(queries=tuple(self._descriptor(e) for e in group)),
            )
        self.transport.send(
            oid, ResyncResponse(oid=oid, queries=queries, has_mq=has_mq, epoch=epoch)
        )

    def _on_motion_state(self, message: MotionStateResponse) -> None:
        with self.load.timed():
            self.tracker.upsert(message.oid, message.state, message.max_speed)
            self.load.ops += 1

    def _on_velocity_change_rec(self, oid: ObjectId, state: MotionState) -> None:
        """Relay a focal object's significant velocity change (Section 3.4)."""
        with self.load.timed():
            if oid not in self.tracker:
                return  # stale report from an object that lost its focal role
            self.tracker.update_state(oid, state)
            queries = self.registry.queries_of_focal(oid)
            groups = self._groups(queries)
            self.load.ops += 1 + len(queries)
        lazy = self.config.propagation.is_lazy
        for mon_region, group in groups:
            descriptors = tuple(self._descriptor(e) for e in group) if lazy else ()
            self.transport.broadcast(
                mon_region,
                VelocityChangeBroadcast(
                    oid=oid,
                    state=state,
                    qids=tuple(e.qid for e in group),
                    descriptors=descriptors,
                ),
            )

    def _on_cell_change_rec(
        self,
        oid: ObjectId,
        prev_cell: CellIndex,
        new_cell: CellIndex,
        state: MotionState | None,
    ) -> None:
        """Handle an object that crossed into a new grid cell (Section 3.5):
        the focal half here, the install list as a run of one through
        :meth:`apply_crossings`.  The focal's region refresh moves only its
        own queries in the RQI, which its install list never names, so the
        two halves read the same tables in either order."""
        self._acquire_focal(oid)
        focal_updates: list[tuple[object, list[SqtEntry]]] = []
        with self.load.timed():
            if state is not None and oid in self.tracker:
                self.tracker.update_state(oid, state)
            # A suspended focal's queries are out of service (no RQI
            # registration, no FOT entry): ``_reinstate`` recomputes their
            # regions from the state it resurfaces with.
            if self.registry.is_focal(oid) and not self.tracker.is_suspended(oid):
                focal_updates = self._refresh_focal_regions(oid, new_cell)
        self.apply_crossings(((oid, state, prev_cell, new_cell),))
        for combined_region, group in focal_updates:
            self.transport.broadcast(
                combined_region,
                QueryUpdateBroadcast(queries=tuple(self._descriptor(e) for e in group)),
            )

    def apply_crossings(self, rows: Sequence[tuple]) -> None:
        """The non-focal half of the cell-change reaction, for a run of
        cell-change records ``(oid, state, prev_cell, new_cell)`` in order:
        each sender's install list holds the queries newly covering its
        cell -- the RQI difference, less its own queries -- and the lists
        go to the transport together.

        A flushed report window hands over its non-focal records here as
        one stage; :meth:`_on_cell_change_rec` hands over a run of one.
        Nothing here moves the RQI, the SQT or the FOT, so the records of
        a run react independently of each other.
        """
        lists: list[tuple[ObjectId, list[SqtEntry]]] = []
        with self.load.timed():
            for oid, _state, prev_cell, new_cell in rows:
                fresh = self._fresh_queries_at(prev_cell, new_cell)
                self.load.ops += 1
                # The object never monitors its own queries (it is their focal).
                entries = [entry for qid in fresh if (entry := self._entry_of(qid)).oid != oid]
                if entries:
                    lists.append((oid, entries))
        if lists:
            self.transport.send_each(
                [
                    (oid, QueryInstallList(oid=oid, queries=tuple(map(self._descriptor, entries))))
                    for oid, entries in lists
                ]
            )

    def _refresh_focal_regions(
        self, oid: ObjectId, new_cell: CellIndex
    ) -> list[tuple[CellRange | CellRangeUnion | set[CellIndex], list[SqtEntry]]]:
        """Recompute monitoring regions of all queries bound to ``oid``.

        Returns, per broadcast group, the union of old and new monitoring
        regions (the paper broadcasts the query's new state to objects in
        the combined area) and the group's queries.  The union stays in
        range form (:class:`CellRangeUnion`) when the group shares one
        ``old | new`` pair -- the common case, since grouped queries share
        a monitoring region -- which keeps the station-cover memoization
        keyed on a hashable value and avoids materializing cell sets.
        """
        queries = self.registry.queries_of_focal(oid)
        combined_by_query: dict[int, CellRange | CellRangeUnion] = {}
        for entry in queries:
            old_region = entry.mon_region
            new_region = monitoring_region(self.grid, new_cell, entry.region)
            entry.curr_cell = new_cell
            entry.mon_region = new_region
            self._rqi_move(entry.qid, old_region, new_region)
            self.load.ops += old_region.cell_count + new_region.cell_count
            combined_by_query[entry.qid] = (
                old_region
                if old_region == new_region
                else CellRangeUnion(old_region, new_region)
            )
        groups = self._groups(queries)
        out: list[tuple[CellRange | CellRangeUnion | set[CellIndex], list[SqtEntry]]] = []
        for _mon_region, group in groups:
            shapes = {combined_by_query[entry.qid] for entry in group}
            if len(shapes) == 1:
                out.append((shapes.pop(), group))
            else:
                # Queries grouped together but refreshed from different
                # region pairs (install raced a crossing): exact set union.
                cells: set[CellIndex] = set()
                for shape in shapes:
                    cells.update(shape)
                out.append((cells, group))
        return out

    def _apply_result_record(
        self, oid: ObjectId, epoch: int, items: "Iterable[tuple[QueryId, bool]]"
    ) -> None:
        """Differentially update query results (Section 3.6)."""
        applied: list[tuple[QueryId, bool]] = []
        with self.load.timed():
            if epoch < self._report_epochs.get(oid, 0):
                # Sent before this object's last resync purge (only
                # possible under modeled latency): applying it would
                # resurrect memberships the purge just erased, and the
                # rebuilt LQT would never send the compensating removal.
                return
            for qid, is_target in items:
                entry = self._result_entry(qid)
                if entry is None:
                    continue  # query was removed while the report was in flight
                if entry.suspended:
                    continue  # lease-suspended: the report is stale by definition
                result = entry.result
                if is_target:
                    if oid not in result:
                        result.add(oid)
                        applied.append((qid, True))
                else:
                    if oid in result:
                        result.discard(oid)
                        applied.append((qid, False))
                self.load.ops += 1
        # Notify subscribers outside the timed section: the callbacks are
        # application code, not server protocol work.
        for qid, entered in applied:
            self.registry.notify(qid, oid, entered)

    def subscribe(self, qid: QueryId, callback: "ResultCallback") -> None:
        """Register a callback fired on every differential result change of
        query ``qid``: ``callback(qid, oid, entered)`` with ``entered`` True
        when the object joined the result and False when it left."""
        self.registry.subscribe(qid, callback)

    def unsubscribe(self, qid: QueryId, callback: "ResultCallback") -> None:
        """Remove a previously registered callback (no-op if absent)."""
        self.registry.unsubscribe(qid, callback)

    # ------------------------------------------------------------ helpers

    def _groups(self, queries: list[SqtEntry]) -> list[tuple[CellRange, list[SqtEntry]]]:
        """Group queries for broadcasting.

        With grouping enabled (Section 4.1), queries sharing the focal
        object *and* the monitoring region ride in one broadcast; groups
        are keyed by monitoring region.  With grouping disabled every
        query is broadcast separately.  Groups come out sorted by their
        smallest query id: on the monolith that is first-occurrence order
        (queries arrive qid-ascending), but a shard's table order depends
        on handoff history, and the explicit sort is what keeps multi-shard
        broadcast schedules deterministic.
        """
        if not self.config.grouping:
            return [(e.mon_region, [e]) for e in sorted(queries, key=lambda e: e.qid)]
        grouped: dict[CellRange, list[SqtEntry]] = {}
        for entry in sorted(queries, key=lambda e: e.qid):
            grouped.setdefault(entry.mon_region, []).append(entry)
        return sorted(grouped.items(), key=lambda item: item[1][0].qid)

    def _descriptor(self, entry: SqtEntry) -> QueryDescriptor:
        """The over-the-air descriptor of one query, from its SQT entry and
        its focal object's FOT entry (static queries have none)."""
        # A descriptor is a pure function of the entry's immutable fields
        # (qid, oid, region, filter), its monitoring region, and the focal
        # object's state and max speed.  The cached copy is reused whenever
        # those inputs are the very objects/values it was built from --
        # motion states and cell ranges are frozen, so identity implies
        # equality and the cache can never go stale.
        focal = None if entry.is_static else self._focal_entry(entry.oid)
        cached = entry.desc_cache
        if cached is not None and cached.mon_region is entry.mon_region:
            if focal is None:
                return cached
            if (
                cached.focal_state is focal.state
                and cached.focal_max_speed == focal.max_speed
            ):
                return cached
        desc = entry.desc_cache = QueryDescriptor(
            qid=entry.qid,
            oid=entry.oid,
            region=entry.region,
            filter=entry.filter,
            focal_state=None if focal is None else focal.state,
            focal_max_speed=0.0 if focal is None else focal.max_speed,
            mon_region=entry.mon_region,
        )
        return desc

    def beacon_static_queries(self) -> int:
        """Re-broadcast every static query's descriptor to its monitoring
        region (lazy-propagation healing, every ``STATIC_BEACON_STEPS``).
        Returns the number of broadcasts sent."""
        with self.load.timed():
            static_entries = [e for e in self.registry.entries() if e.is_static]
            self.load.ops += len(static_entries)
        broadcasts = 0
        for entry in static_entries:
            broadcasts += self.transport.broadcast(
                entry.mon_region, QueryInstallBroadcast(queries=(self._descriptor(entry),))
            )
        return broadcasts

    # --------------------------------------------------------- inspection

    def query_result(self, qid: QueryId) -> frozenset[ObjectId]:
        """The current (differentially maintained) result of a query."""
        return frozenset(self.registry.get(qid).result)

    def installed_queries(self) -> list[MovingQuery]:
        """All installed queries as MovingQuery values."""
        return [
            MovingQuery(qid=e.qid, oid=e.oid, region=e.region, filter=e.filter)
            for e in self.registry.entries()
        ]

    def check_invariants(self, down: Callable[[CellIndex], bool] = lambda cell: False) -> None:
        """Structural consistency between FOT, SQT, and RQI (used by tests);
        cells that are ``down`` (owned by a crashed shard) register nothing."""
        for oid in list(self.tracker.ids()):
            assert self.registry.is_focal(oid), f"FOT holds non-focal object {oid}"
        for entry in self.registry.entries():
            if entry.suspended:
                # Lease-suspended queries are deliberately out of the FOT
                # and RQI until their focal object resurfaces.
                assert not entry.result, f"suspended query {entry.qid} kept a result"
                continue
            if not entry.is_static:
                assert entry.oid in self.tracker, (
                    f"query {entry.qid}'s focal object {entry.oid} missing from FOT"
                )
            for cell in entry.mon_region:
                assert entry.qid in self._queries_at(cell) or down(cell), (
                    f"query {entry.qid} missing from RQI cell {cell}"
                )
        for cell in list(self.rqi.nonempty_cells()):
            for qid in self.rqi.queries_at(cell):
                try:
                    entry = self._entry_of(qid)
                except KeyError:
                    raise AssertionError(f"RQI holds removed query {qid}") from None
                assert entry.mon_region.contains(cell), (
                    f"RQI cell {cell} outside query {qid}'s monitoring region"
                )
