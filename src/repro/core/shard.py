"""One grid-partitioned server shard behind the coordinator.

A :class:`ServerShard` *is* a :class:`~repro.core.server.MobiEyesServer`
bound to a contiguous stripe of grid columns: it runs the unmodified
protocol handlers and overrides only the cross-shard hooks, resolving
through its :class:`~repro.core.coordinator.Coordinator` whatever leaves
its own partition:

- RQI registrations are *cell-owned*: a monitoring region spanning the
  partition is split (:meth:`PartitionMap.split`) and each shard's RQI
  holds its own rectangular portion, while the SQT entry lives only at
  the owning shard (single-owner replication of the descriptor's home).
- Query ids come from the coordinator's global allocator.
- Focal state, SQT entries, and result purges that live elsewhere are
  fetched through the coordinator, which asks the shard holding them.
- A grid-cell crossing into this shard's territory triggers a focal
  handoff (:meth:`Coordinator.migrate_focal`) before the normal cell
  change handling runs, so the focal's queries and FOT entry are local
  by the time the monitoring regions are refreshed.

The shard never attaches itself to the transport; the coordinator is the
uplink sink and dispatches to shards by cell.  Under a nonzero
:class:`~repro.network.latency.LatencyModel` this means deferred uplinks
drain from the transport queue into the coordinator, which routes to the
owning shard within the same delivery slot -- shard count never adds
hops, so a 1-, 2-, or 4-shard run sees identical message timing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import MobiEyesConfig
from repro.core.partition import PartitionMap
from repro.core.query import QueryId
from repro.core.registry import QueryRegistry
from repro.core.server import MobiEyesServer
from repro.core.tables import FotEntry, SqtEntry
from repro.core.transport import SimulatedTransport
from repro.grid import CellIndex, CellRange, Grid
from repro.mobility.model import ObjectId

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coordinator import Coordinator


class ServerShard(MobiEyesServer):
    """A MobiEyes server owning one contiguous stripe of grid columns."""

    def __init__(
        self,
        grid: Grid,
        transport: SimulatedTransport,
        config: MobiEyesConfig,
        coordinator: "Coordinator",
        shard_id: int,
        partitioner: PartitionMap,
    ) -> None:
        # The subscriber book is the fleet's: a subscription survives its
        # query's handoff between shards.
        registry = QueryRegistry(subscribers=coordinator._subscribers)
        super().__init__(grid, transport, config, registry=registry, attach=False)
        self.coordinator = coordinator
        self.shard_id = shard_id
        self.partitioner = partitioner
        # One report-epoch map for the whole fleet, shared by reference: an
        # object's epoch must survive focal/cell handoffs between shards.
        self._report_epochs = coordinator._report_epochs

    # -------------------------------------------------- cross-shard hooks

    def _allocate_qid(self) -> QueryId:
        return self.coordinator.allocate_qid()

    def _focal_entry(self, oid: ObjectId) -> FotEntry:
        if oid in self.tracker:
            return self.tracker.get(oid)
        return self.coordinator.focal_entry(oid)

    def _queries_at(self, cell: CellIndex) -> frozenset[QueryId]:
        if self.partitioner.owns(self.shard_id, cell):
            return self.registry.queries_at(cell)
        return self.coordinator.queries_at(cell)

    def _fresh_queries_at(self, prev_cell: CellIndex, new_cell: CellIndex) -> list[QueryId]:
        # Either cell may live on a foreign stripe; resolve both through
        # the owner lookup instead of the monolith's direct bucket reads.
        return sorted(self._queries_at(new_cell) - self._queries_at(prev_cell))

    def _entry_of(self, qid: QueryId) -> SqtEntry:
        if qid in self.registry:
            return self.registry.get(qid)
        return self.coordinator.entry_of(qid)

    def _result_entry(self, qid: QueryId) -> SqtEntry | None:
        if qid in self.registry:
            return self.registry.get(qid)
        return self.coordinator.result_entry(qid)

    # A dead shard's RQI stripe stays empty until recover_shard rebuilds it
    # from the live entries.

    def _rqi_add(self, qid: QueryId, region: CellRange) -> None:
        dead = self.coordinator._dead
        for shard, portion in self.partitioner.split(region):
            if shard not in dead:
                self.coordinator.shards[shard].registry.register_cells(qid, portion)

    def _rqi_remove(self, qid: QueryId, region: CellRange) -> None:
        dead = self.coordinator._dead
        for shard, portion in self.partitioner.split(region):
            if shard not in dead:
                self.coordinator.shards[shard].registry.unregister_cells(qid, portion)

    def _rqi_move(self, qid: QueryId, old: CellRange, new: CellRange) -> None:
        self._rqi_remove(qid, old)
        self._rqi_add(qid, new)

    def _purge_object(self, oid: ObjectId) -> list[QueryId]:
        return self.coordinator.purge_object(oid)

    def _acquire_focal(self, oid: ObjectId) -> None:
        self.coordinator.migrate_focal(oid, self.shard_id)

    # --------------------------------------------------------- inspection

    def check_invariants(self) -> None:
        """Per-shard structural consistency, including the partition rule
        that this shard's RQI only holds cells of its own column stripe."""
        dead = self.coordinator._dead
        # A monitoring region's portion on a dead stripe is gone until
        # recover_shard rebuilds it from this (live) entry.
        super().check_invariants(lambda cell: self.partitioner.shard_of_cell(cell) in dead)
        for cell in self.registry.rqi.nonempty_cells():
            assert self.partitioner.owns(self.shard_id, cell), (
                f"shard {self.shard_id} RQI holds foreign cell {cell}"
            )
