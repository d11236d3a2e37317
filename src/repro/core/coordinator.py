"""Coordinator: routes the MobiEyes protocol across grid-partitioned shards.

The coordinator is the transport's uplink sink and the system's
server-compatible facade when ``config.shards > 1``.  It owns no protocol
tables itself; it builds one :class:`~repro.core.shard.ServerShard` per
contiguous column stripe of the grid (see
:class:`~repro.core.partition.PartitionMap`), and the shards are the
directory.  Who owns a query (:meth:`Coordinator.owner`), where a focal
object lives (:meth:`Coordinator._home_of`: the shard whose registry
anchors its queries, else the one whose tracker holds its FOT entry) and
which slots are retired (the slots missing from the map's stripe order)
are asked of the live shards and the map at every read, never copied.
The derivation rests on the single-owner rule :meth:`check_invariants`
asserts: at most one shard holds any query, anchors any focal, or
tracks any FOT entry.

Routing: cell-change reports go to the shard owning the *new* cell
(triggering a focal handoff when the sender's queries live elsewhere);
result-change reports go to the shard owning the sender's current cell;
everything else goes to the sender's home shard, falling back to the
sender's cell.  Under soft-state leases the coordinator also guarantees
the lease touch: if a message routed away from the sender's home shard,
the home is touched too, so a focal object that only ever talks to
foreign shards (e.g. result reports for queries it monitors) can never
be suspended by silence that is an artifact of partitioning.

Query installation, removal, lease expiry, static beacons, load
aggregation, and the read-only ``fot`` / ``sqt`` / ``rqi`` views fan out
across shards in deterministic (shard id, then key-sorted) order, every
shard driven in the calling thread.  With one shard every route resolves
to shard 0 and the coordinated system is bit-identical to the monolithic
server.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import Iterator, Sequence

from repro.core.config import MobiEyesConfig
from repro.core.messages import (
    REC_CELL,
    REC_RESULT,
    REC_VELOCITY,
    CellChangeReport,
    MotionStateRequest,
    ResultChangeReport,
)
from repro.core.partition import PartitionMap
from repro.core.query import MovingQuery, QueryId, QuerySpec
from repro.core.registry import ResultCallback
from repro.core.reporting import ReportBuffer
from repro.core.shard import ServerShard
from repro.core.tables import FotEntry, SqtEntry
from repro.core.transport import SimulatedTransport
from repro.grid import CellIndex, CellRange, Grid
from repro.mobility.model import MotionState, ObjectId


class Coordinator:
    """Server facade dispatching the protocol across grid shards."""

    def __init__(
        self,
        grid: Grid,
        transport: SimulatedTransport,
        config: MobiEyesConfig,
        num_shards: int | None = None,
    ) -> None:
        self.grid = grid
        self.transport = transport
        self.config = config
        requested = num_shards if num_shards is not None else config.shards
        self.partitioner = PartitionMap(grid, requested)
        self._subscribers: dict[QueryId, list[ResultCallback]] = {}
        self._next_qid: QueryId = 1
        # One report-epoch map for the whole fleet; every shard holds this
        # very dict (restore fills it in place, never rebinds it).
        self._report_epochs: dict[ObjectId, int] = {}
        # The one record of which shards are down, with the query ids that
        # died with each: ``crash_shard`` adds, ``recover_shard`` removes,
        # the checkpoint's partition section carries it.
        self._dead: dict[int, set[QueryId]] = {}
        # Elastic lifecycle: ``shards`` indices are *stable slot ids* -- a
        # retired shard's slot stays in place (empty, with no stripe in the
        # map) so reliability endpoints and checkpoints never renumber; a
        # later spawn recycles the lowest retired slot before growing the
        # list.  Slots are never removed, so slot 0 always exists to ask.
        self.shards: list[ServerShard] = []
        for sid in range(self.partitioner.num_shards):
            self.shards.append(self._make_shard(sid))
        self._sqt_view = _SqtView(self)
        self._fot_view = _FotView(self)
        self._rqi_view = _RqiView(self)
        transport.attach_server(self)

    @property
    def num_shards(self) -> int:
        """The effective *live* shard count (requests beyond the grid's
        columns are clamped by the partitioner; retired slots excluded)."""
        return self.partitioner.num_shards

    def _make_shard(self, sid: int) -> ServerShard:
        """Build one shard slot.

        Used by the constructor, by :meth:`spawn_shard` when the fleet
        grows past every previously built slot, and by
        :meth:`restore_fleet` when a checkpoint restores a larger
        fleet than the config's initial count."""
        shard = ServerShard(
            self.grid,
            self.transport,
            self.config,
            coordinator=self,
            shard_id=sid,
            partitioner=self.partitioner,
        )
        # Leases are armed on the whole fleet or on none: ask slot 0.
        lease_steps = self.shards[0].tracker.lease_steps if self.shards else None
        if lease_steps is not None:
            shard.enable_leases(lease_steps)
        return shard

    # ------------------------------------------------------- who owns what
    #
    # Asked of the shards at every read.  Each answer is unique because
    # check_invariants' single-owner rule holds; none is cached.

    def owner(self, qid: QueryId) -> int | None:
        """The slot whose registry holds query ``qid`` (None: no shard)."""
        for shard in self.shards:
            if qid in shard.registry:
                return shard.shard_id
        return None

    def _fot_slot(self, oid: ObjectId) -> int | None:
        """The slot whose tracker holds ``oid``'s FOT entry."""
        for shard in self.shards:
            if oid in shard.tracker:
                return shard.shard_id
        return None

    def _focal_slot(self, oid: ObjectId) -> int | None:
        """The slot whose registry anchors ``oid``'s queries."""
        for shard in self.shards:
            if shard.registry.is_focal(oid):
                return shard.shard_id
        return None

    def _home_of(self, oid: ObjectId) -> int | None:
        """The focal slot of ``oid``, else its FOT slot (an install round
        trip's answer lands before the query does)."""
        home = self._focal_slot(oid)
        return home if home is not None else self._fot_slot(oid)

    def _homed_on(self, sid: int) -> list[ObjectId]:
        """The objects homed on slot ``sid``: its focals and its FOT ids."""
        shard = self.shards[sid]
        return sorted({*shard.registry.focal_ids(), *shard.tracker.ids()})

    # ------------------------------------------------------------ routing

    @property
    def partition_epoch(self) -> int:
        """The partition map's current version (bumped by every effective
        repartition; stamped onto deferred uplink envelopes so the
        transport can count stale-epoch reroutes)."""
        return self.partitioner.epoch

    def _route_report(self, kind: int, oid: ObjectId, new_cell: CellIndex | None) -> int:
        """The one routing rule, by record kind: a cell change goes to the
        owner of ``new_cell``, a result change to the owner of the sender's
        current cell, anything else (velocity changes and every control
        message) to the sender's home shard, falling back to its cell.
        Both :meth:`shard_for_uplink` and :meth:`apply_report_record`
        resolve through here."""
        if kind == REC_CELL:
            return self.partitioner.shard_of_cell(new_cell)
        if kind != REC_RESULT:
            home = self._home_of(oid)
            if home is not None:
                return home
        return self.partitioner.shard_of_cell(self.transport.coverage.cell_of(oid))

    def _touch_home(
        self, oid: ObjectId, endpoint: int, state: MotionState | None, max_speed: float | None
    ) -> None:
        """Lease-touch guarantee: a sender whose traffic routed to a
        foreign shard must still refresh its lease at home."""
        home = self._home_of(oid)
        if home is not None and home != endpoint:
            self.shards[home]._touch_lease_rec(oid, state, max_speed)

    def shard_for_uplink(self, message: object) -> int:
        """The shard an uplink message, or a report record as its ``(kind,
        row)`` pair, is dispatched to (also the ack endpoint the
        reliability layer keys its sequence streams by)."""
        if type(message) is tuple:
            return self._route_row(*message)
        if isinstance(message, CellChangeReport):
            return self._route_report(REC_CELL, message.oid, message.new_cell)
        if isinstance(message, ResultChangeReport):
            return self._route_report(REC_RESULT, message.oid, None)
        oid = getattr(message, "oid", None)
        if oid is None:
            return 0
        return self._route_report(REC_VELOCITY, oid, None)

    def uplink_dead(self, message: object) -> bool:
        """Whether an uplink's (or a report record's) destination shard is
        down (the fault injector's crash check)."""
        return bool(self._dead) and self.shard_for_uplink(message) in self._dead

    def on_uplink(self, message: object) -> None:
        """Dispatch an object -> server message to the responsible shard."""
        endpoint = self.shard_for_uplink(message)
        if self.shards[0].tracker.leases_enabled:
            oid = getattr(message, "oid", None)
            if oid is not None:
                self._touch_home(
                    oid,
                    endpoint,
                    getattr(message, "state", None),
                    getattr(message, "max_speed", None),
                )
        self.shards[endpoint].on_uplink(message)

    def _route_row(self, kind: int, row: tuple) -> int:
        """The shard a report row lands on (see :meth:`_route_report`)."""
        return self._route_report(kind, row[0], row[3] if kind == REC_CELL else None)

    def apply_report_record(self, cols: ReportBuffer, i: int) -> None:
        """Route record ``i`` of a flushed report window to its shard
        (the row twin of :meth:`on_uplink`)."""
        row = cols.rows[i]
        endpoint = self._route_row(cols.kind[i], row)
        if self.shards[0].tracker.leases_enabled:
            self._touch_home(row[0], endpoint, row[1], None)
        self.shards[endpoint].apply_report_record(cols, i)

    def apply_crossings(self, rows: Sequence[tuple]) -> None:
        """Hand each shard its consecutive same-endpoint slice of a run of
        non-focal cell-change records (a cell change lands on the owner of
        its new cell), in order."""
        shard_of = self.partitioner.shard_of_cell
        for endpoint, run in groupby(rows, key=lambda row: shard_of(row[3])):
            self.shards[endpoint].apply_crossings(list(run))

    # ---------------------------------------------------- focal handoff

    def migrate_focal(self, oid: ObjectId, to: int) -> None:
        """Move an object's queries and focal state to shard ``to``.

        Called by the target shard when a grid-cell crossing lands the
        object in its territory.  The SQT entries and tracker state
        (including lease freshness and any suspension record) migrate;
        RQI registrations stay put -- they are cell-owned, not
        focal-owned.  No-op when the object is already home or unknown.
        """
        src = self._home_of(oid)
        if src is None or src == to:
            return
        source = self.shards[src]
        target = self.shards[to]
        with target.load.timed():
            for entry in list(source.registry.queries_of_focal(oid)):
                source.registry.release(entry.qid)
                target.registry.add(entry)
                target.load.ops += 1
            packed = source.tracker.export_state(oid)
            source.tracker.evict(oid)
            target.tracker.import_state(oid, packed)
            target.load.ops += 1

    # ----------------------------------------------------- rebalancing

    def apply_rebalance(self, src: int, dst: int, cols: int) -> dict:
        """Move a column span from shard ``src`` into the adjacent shard
        ``dst``, migrating the span's state online.

        The migration runs in four deterministic strokes, all inside one
        housekeeping slot at the top of a step:

        1. *freeze the span*: compute the moving columns under the old map;
        2. *epoch bump*: mutate the partition map (``transfer``), making
           every layer that routes by cell -- uplink routing, RQI
           registration, broadcast splits -- see the new ownership at once;
        3. *handoff*: move the span's RQI buckets wholesale from ``src`` to
           ``dst`` (cell-owned soft state follows the cells) and migrate
           every focal homed on ``src`` whose last-known cell lies in the
           span, reusing the ordinary cross-shard focal handoff;
        4. the caller broadcasts a :class:`RebalanceDirective` so clients
           adopt the new epoch (in-flight uplinks stamped with the old
           epoch are rerouted at delivery, not dropped).

        Ops out of range for this map (a schedule written for more shards)
        clamp to a no-op; the returned summary says what actually moved.
        """
        part = self.partitioner
        summary = {
            "src": src,
            "dst": dst,
            "cols_moved": 0,
            "rqi_cells_moved": 0,
            "focals_migrated": 0,
            "epoch": part.epoch,
        }
        if not (part.is_live(src) and part.is_live(dst)):
            return summary
        moved = min(cols, part.width_of(src))
        if moved == 0:
            return summary
        # Freeze the moving span under the old boundaries.  Direction is a
        # *stripe-position* question, not an id comparison: after elastic
        # inserts the id order and the left-to-right order can differ.
        lo, hi = part.columns_of(src)
        if part.position_of(dst) > part.position_of(src):
            span_lo, span_hi = hi - moved + 1, hi
        else:
            span_lo, span_hi = lo, lo + moved - 1
        span = CellRange(span_lo, span_hi, 0, part.grid.n_rows - 1)
        part.transfer(src, dst, moved)
        summary["cols_moved"] = moved
        summary["epoch"] = part.epoch
        source, target = self.shards[src], self.shards[dst]
        with target.load.timed():
            # Cell-owned RQI registrations follow their cells wholesale.
            buckets = source.registry.rqi.extract_region(span)
            target.registry.rqi.absorb(buckets)
            target.load.ops += len(buckets)
            summary["rqi_cells_moved"] = len(buckets)
        # Focals homed on the donor whose last-known cell sits inside the
        # moved span follow it through the ordinary handoff.  Objects that
        # miss the cut -- no position on record yet, or currently outside
        # the span -- reconverge through their next cell-change report.
        cell_of = self.transport.coverage.cell_of
        for oid in self._homed_on(src):
            try:
                cell = cell_of(oid)
            except KeyError:
                continue
            if span.contains(cell):
                self.migrate_focal(oid, dst)
                summary["focals_migrated"] += 1
        return summary

    # ------------------------------------------------- elastic lifecycle

    def spawn_shard(self, donor: int) -> dict:
        """Scale out: bring a new shard online and split the donor's
        stripe into it.

        The new shard takes the lowest retired slot if one exists (its
        empty tables and reliability endpoint are simply reused),
        otherwise a fresh slot is appended.  A zero-width stripe is
        inserted immediately to the donor's right and the donor's right
        half migrates into it through the ordinary
        :meth:`apply_rebalance` path -- one epoch bump, RQI buckets and
        in-span focals handed off online.  Returns the migration summary
        extended with the new shard id.
        """
        part = self.partitioner
        if not part.is_live(donor):
            raise ValueError(f"split donor {donor} is not a live shard")
        if part.width_of(donor) < 2:
            raise ValueError(f"shard {donor} is too narrow to split")
        retired = self.retired_shards
        if retired:
            sid = retired[0]
        else:
            sid = len(self.shards)
            self.shards.append(self._make_shard(sid))
        part.insert_stripe(donor, sid)
        summary = self.apply_rebalance(donor, sid, part.width_of(donor) // 2)
        summary["spawned"] = sid
        return summary

    def retire_shard(self, sid: int, into: int) -> dict:
        """Scale in: drain shard ``sid`` into its stripe-adjacent neighbor
        ``into`` and retire the slot.

        The whole stripe migrates through :meth:`apply_rebalance` (one
        epoch bump; RQI buckets and in-span focals follow their cells),
        then the state that column draining cannot see is handed off
        explicitly: focals homed on ``sid`` whose last-known cell already
        sat outside the stripe, and static SQT entries (their descriptors
        live at the install-time owner regardless of cell).  Only then is
        the emptied stripe removed from the map, which is what retires the
        slot -- the :class:`ServerShard` object stays in ``shards`` so
        every index and reliability endpoint remains valid, ready for a
        later :meth:`spawn_shard` to recycle.
        """
        part = self.partitioner
        if not (part.is_live(sid) and part.is_live(into)):
            raise ValueError(f"retire_shard({sid}, {into}) names a dead shard")
        if part.num_shards < 2:
            raise ValueError("cannot retire the last shard")
        summary = self.apply_rebalance(sid, into, part.width_of(sid))
        summary["retired"] = sid
        shard, target = self.shards[sid], self.shards[into]
        # Focals still homed here (last-known cell outside the drained
        # span, or no position on record): the ordinary handoff.
        for oid in self._homed_on(sid):
            self.migrate_focal(oid, into)
            summary["focals_migrated"] += 1
        # Static queries stay at their install-time owner; re-home their
        # descriptors (RQI registrations already moved with the cells).
        for entry in sorted(shard.registry.entries(), key=lambda e: e.qid):
            shard.registry.release(entry.qid)
            target.registry.add(entry)
        part.remove_stripe(sid)
        return summary

    def restore_fleet(self, slots: int, dead: dict) -> None:
        """Checkpoint restore: grow ``shards`` to ``slots`` (a fleet that
        scaled out past the config's initial count) and adopt the
        checkpointed dead shards."""
        while len(self.shards) < slots:
            self.shards.append(self._make_shard(len(self.shards)))
        self._dead = {sid: set(lost) for sid, lost in dead.items()}

    @property
    def retired_shards(self) -> tuple[int, ...]:
        """Retired slot ids, ascending: the slots with no stripe in the map."""
        is_live = self.partitioner.is_live
        return tuple(sid for sid in range(len(self.shards)) if not is_live(sid))

    @property
    def dead_shards(self) -> tuple[int, ...]:
        """Crashed, not yet recovered shard ids, ascending."""
        return tuple(sorted(self._dead))

    # --------------------------------------------------- crash / recovery

    def crash_shard(self, sid: int) -> dict:
        """Kill shard ``sid``: all of its soft state vanishes.

        Models a server process crash.  The shard's SQT entries, FOT /
        lease / suspension records, and RQI buckets are erased; queued
        uplink envelopes addressed to it die with it (reliable exchanges
        stay pending client-side and retry through the normal budget).
        Ownership is read off the registries, so the dead queries are
        nobody's once the shard's are emptied and surviving shards route
        around the hole:
        results for dead queries resolve to ``None`` and are skipped, and
        fresh uplinks into the dead stripe are dropped by the fault
        injector, which asks :meth:`uplink_dead`.  Returns drop/teardown
        counters for the run report.
        """
        shard = self.shards[sid]
        # Discard in-flight uplinks first: routing consults the tables this
        # teardown is about to erase.
        def addressed_to_dead(env) -> bool:
            if env.kind == "report":  # a parked row of a flush under latency
                rows = env.message
                return self._route_row(rows.kind[env.context], rows.rows[env.context]) == sid
            return env.kind in ("uplink", "rel-uplink") and (
                self.shard_for_uplink(env.message) == sid
            )

        dropped = self.transport.discard_queued(addressed_to_dead)
        entries = list(shard.registry.entries())
        for entry in entries:
            if not entry.suspended:
                shard._rqi_remove(entry.qid, entry.mon_region)
            shard.registry.release(entry.qid)
        tracker = shard.tracker
        tracked = tracker.tracked_oids()
        for oid in tracked:
            tracker.evict(oid)
        # Foreign queries replicated their RQI portions into this stripe;
        # those registrations are this shard's soft state and die too
        # (recover_shard rebuilds them from the survivors' live entries).
        shard.registry.rqi.clear()
        self._dead[sid] = {entry.qid for entry in entries}
        return {
            "shard": sid,
            "queries_lost": len(entries),
            "focals_lost": len(tracked),
            "envelopes_dropped": dropped,
        }

    def recover_shard(self, sid: int, sections: list[dict], step: int) -> dict:
        """Restart shard ``sid`` from the server sections of the system's
        recovery basis (freshly decoded: this adopts their objects).

        Rebuilds the dead shard's tables in three strokes:

        1. every SQT entry of the basis whose query died with the shard
           (one removed since stays removed) is re-adopted -- by ``sid``,
           or by the shard its focal calls home now, if it was given a new
           query elsewhere meanwhile -- and its monitoring region
           re-registered across the partition;
        2. the stripe's RQI registrations for *surviving* queries are
           rebuilt from the live registries of the other shards (their
           entries are fresher than the checkpoint);
        3. FOT / suspension state of the recovered focals is re-imported
           from the checkpoint with ``last_heard = step``, granting a
           fresh lease so recovery itself cannot expire anyone.

        The caller (the system's boundary slot) follows up with a
        grid-wide resync directive so clients re-pull descriptors and
        report epochs; entries recovered here may be stale until those
        resyncs and the objects' own reports re-converge the results --
        the run driver's twin grades exactly that window.  Returns counters
        for the run report.
        """
        shard = self.shards[sid]
        lost = self._dead.pop(sid)
        recovered_queries = 0
        recovered_focals = 0
        for section in sections:
            for entry in section["entries"]:
                if entry.qid not in lost:
                    continue
                home = None if entry.is_static else self._home_of(entry.oid)
                adopter = shard if home is None else self.shards[home]
                adopter.registry.add(entry)
                if not entry.suspended:
                    adopter._rqi_add(entry.qid, entry.mon_region)
                recovered_queries += 1
            for oid, packed in section["tracker"]:
                if self._fot_slot(oid) is not None or oid in shard.tracker.suspended:
                    continue
                if not shard.registry.is_focal(oid):
                    continue
                entry, _heard, suspended_speed = packed
                shard.tracker.import_state(oid, (entry, step, suspended_speed))
                recovered_focals += 1
        # Surviving queries whose monitoring regions span the recovered
        # stripe: their registrations died with the shard's RQI, but the
        # owning registries are alive -- rebuild from live state.
        for other in self.shards:
            if other.shard_id == sid:
                continue
            for entry in other.registry.entries():
                portion = self.partitioner.clip(entry.mon_region, sid)
                if portion is not None and not entry.suspended:
                    shard.registry.register_cells(entry.qid, portion)
        return {
            "shard": sid,
            "queries_recovered": recovered_queries,
            "focals_recovered": recovered_focals,
        }

    # ---------------------------------------------- shard-facing lookups

    def allocate_qid(self) -> QueryId:
        """Claim the next globally unique query id."""
        qid = self._next_qid
        self._next_qid += 1
        return qid

    def focal_entry(self, oid: ObjectId) -> FotEntry:
        """The FOT entry of an object, wherever it lives."""
        home = self._fot_slot(oid)
        if home is None:
            raise KeyError(oid)
        return self.shards[home].tracker.get(oid)

    def queries_at(self, cell: CellIndex) -> frozenset[QueryId]:
        """Query ids registered at a cell, from the cell owner's RQI."""
        shard = self.partitioner.shard_of_cell(cell)
        return self.shards[shard].registry.queries_at(cell)

    def entry_of(self, qid: QueryId) -> SqtEntry:
        """The SQT entry of a query, from its owning shard."""
        entry = self.result_entry(qid)
        if entry is None:
            raise KeyError(qid)
        return entry

    def result_entry(self, qid: QueryId) -> SqtEntry | None:
        """The entry a result change applies to, or None if the query no
        longer exists anywhere."""
        owner = self.owner(qid)
        if owner is None:
            return None
        return self.shards[owner].registry.get(qid)

    def purge_object(self, oid: ObjectId) -> list[QueryId]:
        """Drop an object from every result set on every shard; returns
        the affected query ids in ascending order."""
        purged: list[QueryId] = []
        for shard in self.shards:
            purged.extend(shard.registry.purge_object(oid))
        purged.sort()
        return purged

    # ------------------------------------------------------- server API

    def install_query(self, spec: QuerySpec) -> QueryId:
        """Install a query on its owning shard.

        Static queries belong to the shard owning the monitoring region's
        lower-left cell.  Moving queries belong to the focal object's home
        shard; for a brand-new focal the coordinator first requests its
        motion state, and the response -- routed by the sender's current
        cell -- creates the FOT entry at the shard that becomes the owner.
        """
        if spec.is_static:
            mon_region = self.grid.cells_intersecting(spec.region.bounding_rect())
            owner = self.partitioner.shard_of_cell((mon_region.lo_i, mon_region.lo_j))
            if owner in self._dead:
                # Any shard can own a static query's descriptor (retire_shard
                # re-homes them the same way): the first one that is up.
                owner = next(sid for sid in self.partitioner.order if sid not in self._dead)
            return self.shards[owner].install_query(spec)
        home = self._home_of(spec.oid)
        if home is None:
            # Install-time round trip: forced inline (see the monolith's
            # install_query) so a tracker holds the focal before we route.
            with self.transport.synchronous():
                self.transport.send(spec.oid, MotionStateRequest(oid=spec.oid))
            home = self._home_of(spec.oid)
            if home is None:
                raise KeyError(f"focal object {spec.oid} did not answer the state request")
        return self.shards[home].install_query(spec)

    def remove_query(self, qid: QueryId) -> None:
        """Uninstall a query everywhere (routed to its owning shard)."""
        owner = self.owner(qid)
        if owner is None:
            raise KeyError(qid)
        self.shards[owner].remove_query(qid)

    def enable_leases(self, lease_steps: int) -> None:
        """Arm soft-state leases on every shard (a future spawn copies slot
        0's)."""
        for shard in self.shards:
            shard.enable_leases(lease_steps)

    def expire_leases(self, step: int) -> None:
        """Expire leases shard by shard, each in ascending object order."""
        for shard in self.shards:
            shard.expire_leases(step)

    def beacon_static_queries(self) -> int:
        """Re-broadcast static query descriptors from every shard."""
        return sum(shard.beacon_static_queries() for shard in self.shards)

    def subscribe(self, qid: QueryId, callback: ResultCallback) -> None:
        """Register a result-change callback (fires once per change, from
        whichever shard applies it -- the subscriber book is shared)."""
        if self.owner(qid) is None:
            raise KeyError(f"unknown query {qid}")
        self._subscribers.setdefault(qid, []).append(callback)

    def unsubscribe(self, qid: QueryId, callback: ResultCallback) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        callbacks = self._subscribers.get(qid)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

    def query_result(self, qid: QueryId) -> frozenset[ObjectId]:
        """The current (differentially maintained) result of a query."""
        return frozenset(self.entry_of(qid).result)

    def installed_queries(self) -> list[MovingQuery]:
        """All installed queries as MovingQuery values, qid-ascending."""
        return [
            MovingQuery(qid=e.qid, oid=e.oid, region=e.region, filter=e.filter)
            for e in self._sqt_view.entries()
        ]

    # ---------------------------------------------------------- load

    def load_totals(self) -> tuple[float, int]:
        """Lifetime (seconds, ops) summed over every shard slot -- retired
        ones included, so the totals only ever go up."""
        loads = [shard.load for shard in self.shards]
        return sum(load.seconds for load in loads), sum(load.ops for load in loads)

    def shard_loads(self) -> list[dict]:
        """Per-shard lifetime load totals (for the harness reports' balance block).

        Retired slots are excluded: they own no stripe and receive no
        routed traffic, so counting their (frozen) historical totals would
        skew the balance of the live fleet."""
        out = []
        for shard in self.shards:
            if not self.partitioner.is_live(shard.shard_id):
                continue
            lo, hi = self.partitioner.columns_of(shard.shard_id)
            out.append(
                {
                    "shard": shard.shard_id,
                    "columns": [lo, hi],
                    "ops": shard.load.ops,
                    "seconds": shard.load.seconds,
                    "queries": len(shard.registry),
                    "focals": len(shard.tracker),
                }
            )
        return out

    # ------------------------------------------------------ table views

    @property
    def sqt(self) -> "_SqtView":
        """Aggregate read view over every shard's server query table."""
        return self._sqt_view

    @property
    def fot(self) -> "_FotView":
        """Aggregate read view over every shard's focal object table."""
        return self._fot_view

    @property
    def rqi(self) -> "_RqiView":
        """Aggregate read view over every shard's reverse query index."""
        return self._rqi_view

    # --------------------------------------------------------- invariants

    def check_invariants(self) -> None:
        """The single-owner rule, then per-shard invariants and the
        cross-shard partition rules.

        Single owner: no query is held, no focal anchored and no FOT entry
        tracked by two shards -- every ownership lookup above derives its
        one answer from that.  Retired slots must be fully drained -- a
        retired shard holding state is a lost-migration bug -- and a dead
        shard holds no entry, no focal and no RQI cell."""
        for what, held in (
            ("query", lambda shard: shard.registry.ids()),
            ("focal", lambda shard: shard.registry.focal_ids()),
            ("FOT entry", lambda shard: shard.tracker.ids()),
        ):
            holder: dict = {}
            for shard in self.shards:
                for key in held(shard):
                    assert key not in holder, (
                        f"{what} {key} held by shards {holder[key]} and {shard.shard_id}"
                    )
                    holder[key] = shard.shard_id
        for shard in self.shards:
            sid = shard.shard_id
            if sid in self._dead or not self.partitioner.is_live(sid):
                idle = f"{'dead' if sid in self._dead else 'retired'} shard {sid}"
                assert len(shard.registry) == 0, f"{idle} still owns queries"
                assert not list(shard.tracker.ids()), f"{idle} still tracks focals"
                assert not list(shard.registry.rqi.nonempty_cells()), (
                    f"{idle} still holds RQI cells"
                )
                continue
            shard.check_invariants()


class _SqtView:
    """Qid-ordered read view over every shard's SQT."""

    def __init__(self, coordinator: Coordinator) -> None:
        self._coord = coordinator

    def __contains__(self, qid: QueryId) -> bool:
        return self._coord.owner(qid) is not None

    def __len__(self) -> int:
        return sum(len(shard.registry) for shard in self._coord.shards)

    def get(self, qid: QueryId) -> SqtEntry:
        return self._coord.entry_of(qid)

    def ids(self) -> Iterator[QueryId]:
        return iter(sorted(chain.from_iterable(s.registry.ids() for s in self._coord.shards)))

    def entries(self) -> Iterator[SqtEntry]:
        entries = chain.from_iterable(s.registry.entries() for s in self._coord.shards)
        return iter(sorted(entries, key=lambda entry: entry.qid))

    def is_focal(self, oid: ObjectId) -> bool:
        return self._coord._focal_slot(oid) is not None

    def queries_of_focal(self, oid: ObjectId) -> list[SqtEntry]:
        home = self._coord._focal_slot(oid)
        if home is None:
            return []
        return self._coord.shards[home].registry.queries_of_focal(oid)


class _FotView:
    """Read view over every shard's FOT."""

    def __init__(self, coordinator: Coordinator) -> None:
        self._coord = coordinator

    def __contains__(self, oid: ObjectId) -> bool:
        return self._coord._fot_slot(oid) is not None

    def __len__(self) -> int:
        return sum(len(shard.tracker) for shard in self._coord.shards)

    def get(self, oid: ObjectId) -> FotEntry:
        return self._coord.focal_entry(oid)

    def ids(self) -> Iterator[ObjectId]:
        return iter(sorted(chain.from_iterable(s.tracker.ids() for s in self._coord.shards)))


class _RqiView:
    """Read view over the partitioned RQI (each cell has one owner)."""

    def __init__(self, coordinator: Coordinator) -> None:
        self._coord = coordinator

    def queries_at(self, cell: CellIndex) -> frozenset[QueryId]:
        return self._coord.queries_at(cell)

    def nonempty_cells(self) -> Iterator[CellIndex]:
        return chain.from_iterable(
            shard.registry.rqi.nonempty_cells() for shard in self._coord.shards
        )
