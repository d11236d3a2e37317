"""Query registry: the SQT, the RQI and result-change subscriptions.

One of the two table owners of a server (registry / focal tracker).  The
registry *is* the server query table of one server (the monolithic
server, or one shard behind the coordinator) -- ``qid -> SqtEntry`` plus
the focal-object grouping, held here and nowhere else -- and owns that
server's reverse query index, so ownership changes have one entrance.

Behind a coordinator the registries are the ownership directory: the
coordinator finds a query's owner, or a focal object's home, by asking
each shard's registry (``qid in registry``, :meth:`~QueryRegistry.is_focal`)
and keeps no copy.  The subscriber book may be shared between registries
(every shard gets the coordinator's dict) so result-change subscriptions
survive cross-shard focal handoffs.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.core.query import QueryId
from repro.core.tables import ReverseQueryIndex, SqtEntry
from repro.grid import CellIndex, CellRange
from repro.mobility.model import ObjectId

# callback(qid, oid, entered): a differential result change of query qid.
ResultCallback = Callable[[QueryId, ObjectId, bool], None]


class QueryRegistry:
    """The SQT and RQI of one server plus the result-change subscriber book."""

    def __init__(self, subscribers: dict[QueryId, list[ResultCallback]] | None = None) -> None:
        self._entries: dict[QueryId, SqtEntry] = {}
        self._by_focal: dict[ObjectId, set[QueryId]] = {}
        self.rqi = ReverseQueryIndex()
        self.subscribers: dict[QueryId, list[ResultCallback]] = (
            subscribers if subscribers is not None else {}
        )

    # --------------------------------------------------------------- SQT

    def __contains__(self, qid: QueryId) -> bool:
        return qid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, qid: QueryId) -> SqtEntry:
        """Look up an owned query entry."""
        return self._entries[qid]

    def add(self, entry: SqtEntry) -> None:
        """Take ownership of a query entry, fresh or migrating in from
        another registry (SQT only: RQI registrations are cell-owned, so
        the caller registers the monitoring region separately, possibly
        across shards, and a handoff leaves them where they are)."""
        if entry.qid in self._entries:
            raise ValueError(f"duplicate query id {entry.qid}")
        self._entries[entry.qid] = entry
        if entry.oid is not None:
            self._by_focal.setdefault(entry.oid, set()).add(entry.qid)

    def release(self, qid: QueryId) -> SqtEntry:
        """Give up ownership of an entry migrating to another registry,
        keeping its subscriptions (the book is shared) and its RQI cells."""
        entry = self._entries.pop(qid)
        if entry.oid is not None:
            group = self._by_focal[entry.oid]
            group.discard(qid)
            if not group:
                del self._by_focal[entry.oid]
        return entry

    def remove(self, qid: QueryId) -> tuple[SqtEntry, bool]:
        """Uninstall a query: :meth:`release` plus dropping its
        subscriptions.  Returns ``(entry, focal_left)`` where
        ``focal_left`` is True while the entry's focal object still anchors
        other queries in this registry."""
        entry = self.release(qid)
        self.subscribers.pop(qid, None)
        return entry, entry.is_static or self.is_focal(entry.oid)

    def queries_of_focal(self, oid: ObjectId) -> list[SqtEntry]:
        """Owned queries bound to focal object ``oid`` (groupable MQs),
        qid-ascending."""
        return [self._entries[qid] for qid in sorted(self._by_focal.get(oid, ()))]

    def is_focal(self, oid: ObjectId) -> bool:
        """Whether ``oid`` anchors at least one owned query."""
        return oid in self._by_focal

    def focal_ids(self) -> Iterator[ObjectId]:
        """The objects anchoring owned queries, in ascending order."""
        return iter(sorted(self._by_focal))

    def entries(self) -> Iterator[SqtEntry]:
        """Owned entries in qid-ascending order.

        Query ids are allocated monotonically, so for a monolithic server
        the sort matches plain insertion order; behind the coordinator a
        shard's insertion order depends on handoff history, and the
        explicit sort is what keeps resync purges, static beacons, and
        result snapshots deterministic across shard counts.
        """
        return iter([self._entries[qid] for qid in sorted(self._entries)])

    def ids(self) -> Iterator[QueryId]:
        """Owned query ids in ascending order."""
        return iter(sorted(self._entries))

    # --------------------------------------------------------------- RQI

    def queries_at(self, cell: CellIndex) -> frozenset[QueryId]:
        """Query ids registered at a grid cell (owned or replicated)."""
        return self.rqi.queries_at(cell)

    def register_cells(self, qid: QueryId, cells: CellRange) -> None:
        """Register a query id at this registry's portion of a region."""
        self.rqi.add(qid, cells)

    def unregister_cells(self, qid: QueryId, cells: CellRange) -> None:
        """Remove a query id from this registry's portion of a region."""
        self.rqi.remove(qid, cells)

    # -------------------------------------------------------- subscribers

    def subscribe(self, qid: QueryId, callback: ResultCallback) -> None:
        """Register a result-change callback for an owned query."""
        if qid not in self._entries:
            raise KeyError(f"unknown query {qid}")
        self.subscribers.setdefault(qid, []).append(callback)

    def unsubscribe(self, qid: QueryId, callback: ResultCallback) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        callbacks = self.subscribers.get(qid)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)

    def notify(self, qid: QueryId, oid: ObjectId, entered: bool) -> None:
        """Fire every subscriber of ``qid`` with one differential change."""
        for callback in self.subscribers.get(qid, ()):
            callback(qid, oid, entered)

    def purge_object(self, oid: ObjectId) -> list[QueryId]:
        """Drop ``oid`` from every owned result set; returns the affected
        query ids in qid-ascending order (callbacks are the caller's job)."""
        purged: list[QueryId] = []
        for entry in self.entries():
            if oid in entry.result:
                entry.result.discard(oid)
                purged.append(entry.qid)
        return purged
