"""Table rows and the two tables that hide an algorithm (paper Section 3.2).

Server side:
    - :class:`FotEntry`: one FOT row, ``oid -> (pos, vel, tm)`` plus the
      max-speed bound used by safe periods.  The FOT itself is the
      :class:`~repro.core.focal.FocalTracker`'s own dict.
    - :class:`SqtEntry`: one SQT row, ``qid -> (oid, region, curr_cell,
      mon_region, filter, {result})``.  The SQT itself is the
      :class:`~repro.core.registry.QueryRegistry`'s own dicts.
    - :class:`ReverseQueryIndex` (RQI): grid cell -> ids of queries whose
      monitoring region intersects the cell (``nearby_queries`` of any
      object in that cell).

Object side:
    - :class:`LocalQueryTable` (LQT): the queries this object is responsible
      for evaluating, with the last known focal motion state, the query's
      monitoring region, the last containment result (``is_target``), and
      the safe-period processing time ``ptm``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterator

from repro.geometry import Shape
from repro.grid import CellIndex, CellRange, region_reach
from repro.mobility.model import MotionState, ObjectId
from repro.core.messages import QueryDescriptor
from repro.core.query import QueryFilter, QueryId


# ------------------------------------------------------------- server side


@dataclass(slots=True)
class FotEntry:
    """One focal object's last reported kinematic state."""

    oid: ObjectId
    state: MotionState
    max_speed: float


@dataclass(slots=True)
class SqtEntry:
    """One installed query's server-side record.

    Static queries have ``oid is None`` and ``curr_cell is None``; their
    monitoring region never changes.
    """

    qid: QueryId
    oid: ObjectId | None
    region: Shape
    filter: QueryFilter
    curr_cell: CellIndex | None
    mon_region: CellRange
    result: set[ObjectId] = field(default_factory=set)
    # Soft-state lease flag: True while the focal object's lease has
    # expired and the query is withdrawn from the RQI (see
    # MobiEyesServer.expire_leases).  Always False outside fault injection.
    suspended: bool = False
    # Last descriptor assembled for this entry.  Not authoritative state:
    # ``MobiEyesServer._descriptor`` revalidates it by identity against the
    # inputs it was built from before reuse, so it needs no invalidation.
    desc_cache: QueryDescriptor | None = field(default=None, repr=False, compare=False)

    @property
    def is_static(self) -> bool:
        """Whether this is a static (fixed-region) query."""
        return self.oid is None


class ReverseQueryIndex:
    """RQI: grid cell -> query ids whose monitoring region covers the cell.

    Conceptually the paper's ``M x N`` matrix of query-id sets; stored
    sparsely since most cells have no nearby queries.
    """

    def __init__(self) -> None:
        self._cells: dict[CellIndex, set[QueryId]] = {}

    def add(self, qid: QueryId, mon_region: CellRange) -> None:
        """Add a new entry."""
        for cell in mon_region:
            self._cells.setdefault(cell, set()).add(qid)

    def remove(self, qid: QueryId, mon_region: CellRange) -> None:
        """Remove a stored entry."""
        for cell in mon_region:
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(qid)
                if not bucket:
                    del self._cells[cell]

    def clear(self) -> None:
        """Forget every registration (shard crash: the RQI is soft state
        rebuilt from the surviving registries at recovery)."""
        self._cells.clear()

    def extract_region(self, region: CellRange) -> list[tuple[CellIndex, set[QueryId]]]:
        """Pop and return every non-empty bucket inside ``region``, in the
        range's deterministic cell order.

        Used by rebalancing to hand a migrating column span's registrations
        to its new owning shard wholesale: the per-query region clipping was
        already done when the cells were registered, so the buckets move as
        opaque sets instead of being recomputed query by query."""
        out: list[tuple[CellIndex, set[QueryId]]] = []
        for cell in region:
            bucket = self._cells.pop(cell, None)
            if bucket:
                out.append((cell, bucket))
        return out

    def absorb(self, buckets: list[tuple[CellIndex, set[QueryId]]]) -> None:
        """Merge buckets previously popped by :meth:`extract_region`."""
        cells = self._cells
        for cell, bucket in buckets:
            existing = cells.get(cell)
            if existing is None:
                cells[cell] = bucket
            else:
                existing.update(bucket)

    def move(self, qid: QueryId, old_region: CellRange, new_region: CellRange) -> None:
        """Move a query from one monitoring region to another.

        Consecutive monitoring regions of a focal object overlap heavily
        (the region shifts by one cell per crossing), so only the
        difference is walked, as column strips: the cells of ``old - new``
        in ``old``'s order, then those of ``new - old`` in ``new``'s --
        the bucket operations a walk of both ranges would make, in the
        same order; cells in both ranges keep their registration.
        """
        if old_region == new_region:
            return
        cells = self._cells
        for i, lo_j, hi_j in old_region.strips_outside(new_region):
            for j in range(lo_j, hi_j + 1):
                bucket = cells.get((i, j))
                if bucket is not None:
                    bucket.discard(qid)
                    if not bucket:
                        del cells[(i, j)]
        for i, lo_j, hi_j in new_region.strips_outside(old_region):
            for j in range(lo_j, hi_j + 1):
                bucket = cells.get((i, j))
                if bucket is None:
                    cells[(i, j)] = {qid}
                else:
                    bucket.add(qid)

    def fresh_ids_between(self, prev_cell: CellIndex, new_cell: CellIndex) -> list[QueryId]:
        """Query ids registered at ``new_cell`` but not ``prev_cell``, in
        ascending order -- the queries an object crossing between the two
        cells newly became nearby to.  Reads the buckets directly instead
        of materializing two frozenset copies."""
        bucket = self._cells.get(new_cell)
        if not bucket:
            return []
        prev = self._cells.get(prev_cell)
        if not prev:
            return sorted(bucket)
        return sorted(bucket - prev)

    def queries_at(self, cell: CellIndex) -> frozenset[QueryId]:
        """``nearby_queries`` of an object whose current cell is ``cell``."""
        bucket = self._cells.get(cell)
        return frozenset(bucket) if bucket else frozenset()

    def nonempty_cells(self) -> Iterator[CellIndex]:
        """Cells that currently have nearby queries."""
        return iter(self._cells)


# ------------------------------------------------------------- object side

# Hull sentinel: wide enough that any real cell index lies inside.
_HULL_MAX = 1 << 62
_REACH = attrgetter("reach")


@dataclass(slots=True)
class LqtEntry:
    """One query installed on a moving object.

    ``ptm`` is the safe-period *processing time*: evaluation of the query is
    skipped while ``ptm`` lies in the future (paper Section 4.2).  ``reach``
    caches the region's maximal extent from its binding point (the radius
    for circles), used by grouping and the safe-period bound; it is zero
    for static queries (``oid is None``), whose region is absolute.
    """

    qid: QueryId
    oid: ObjectId | None  # focal object id; None for static queries
    region: Shape
    filter: QueryFilter
    focal_state: MotionState | None
    focal_max_speed: float
    mon_region: CellRange
    is_target: bool = False
    ptm: float = 0.0  # hours
    reach: float = field(init=False, default=0.0)
    # The vectorized batch evaluator's handle -- the entry's arena slot, -1
    # until it places the entry -- which only it writes.
    arena_slot: int = field(init=False, default=-1, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.reach = region_reach(self.region) if self.oid is not None else 0.0

    # A checkpoint leaves the arena handle out: restore re-installs every
    # entry, and the table hook places it afresh.
    def __getstate__(self) -> tuple:
        return (
            self.qid, self.oid, self.region, self.filter, self.focal_state,
            self.focal_max_speed, self.mon_region, self.is_target, self.ptm, self.reach,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.qid, self.oid, self.region, self.filter, self.focal_state,
            self.focal_max_speed, self.mon_region, self.is_target, self.ptm, self.reach,
        ) = state
        self.arena_slot = -1

    @property
    def is_static(self) -> bool:
        """Whether this is a static (fixed-region) query."""
        return self.oid is None

    @staticmethod
    def from_descriptor(desc: QueryDescriptor) -> "LqtEntry":
        """Build an LQT entry from a broadcast descriptor.

        Fills the slots directly instead of going through the generated
        ``__init__``: installs run tens of thousands of times per dense
        step sequence and the keyword-argument dispatch dominates.
        """
        entry = object.__new__(LqtEntry)
        entry.qid = desc.qid
        entry.oid = desc.oid
        entry.region = desc.region
        entry.filter = desc.filter
        entry.focal_state = desc.focal_state
        entry.focal_max_speed = desc.focal_max_speed
        entry.mon_region = desc.mon_region
        entry.is_target = False
        entry.ptm = 0.0
        entry.reach = region_reach(desc.region) if desc.oid is not None else 0.0
        entry.arena_slot = -1
        return entry


class LocalQueryTable:
    """LQT: the queries a moving object currently monitors.

    Outside evaluation (which writes ``ptm`` and ``is_target``), only the
    table writes its entries: install, remove, the drop scan
    :meth:`drop_uncovered`, and the in-place rewrites :meth:`refresh`,
    :meth:`set_focal_state` and :meth:`void_safe_periods`, each of which
    voids the entry's safe period (``ptm`` 0).

    A consumer that caches derived structure (the vectorized batch
    evaluator) registers a *watcher* (:meth:`watch`) to be told about
    changes as they happen: ``lqt_changed(oid, entry, delta)`` fires on
    every install/remove with the affected entry and the change in table
    size, always +1 or -1 (an install of a query the table already holds
    is refused), and ``state_changed(entry)`` on every in-place
    rewrite.  With no watcher registered -- the reference engine -- the
    hooks reduce to one ``None`` check.

    The table also maintains a *hull*: the intersection of every
    installed entry's monitoring-region bounds.  While the owning object
    stays inside the hull, no entry's region can have been left, so the
    drop scan is skipped entirely.  The hull only tightens on install and
    on region rewrites; removals leave it stale-but-conservative until the
    next drop scan rebuilds it -- a too-small hull only costs an extra
    scan, never a missed drop.
    """

    def __init__(self) -> None:
        self._entries: dict[QueryId, LqtEntry] = {}
        self._watcher = None
        self._watch_oid: ObjectId | None = None
        self.hull_lo_i = -_HULL_MAX
        self.hull_hi_i = _HULL_MAX
        self.hull_lo_j = -_HULL_MAX
        self.hull_hi_j = _HULL_MAX

    def watch(self, watcher, oid: ObjectId) -> None:
        """Register ``watcher`` to receive change notifications for this
        table, identified by the owning object's ``oid``."""
        self._watcher = watcher
        self._watch_oid = oid

    # ----------------------------------------------------------------- hull

    def _tighten_hull(self, region: CellRange) -> None:
        """Intersect the hull with one monitoring region's bounds."""
        if region.lo_i > self.hull_lo_i:
            self.hull_lo_i = region.lo_i
        if region.hi_i < self.hull_hi_i:
            self.hull_hi_i = region.hi_i
        if region.lo_j > self.hull_lo_j:
            self.hull_lo_j = region.lo_j
        if region.hi_j < self.hull_hi_j:
            self.hull_hi_j = region.hi_j

    def drop_uncovered(self, cell: CellIndex) -> dict[QueryId, bool]:
        """Remove every entry whose monitoring region does not cover
        ``cell`` (the owner's new cell) and rebuild the hull exactly from
        the survivors; returns the leave changes -- ``qid -> False`` for
        each removed entry that was a target.  O(1) while ``cell`` lies
        inside the hull."""
        i, j = cell
        if self.hull_lo_i <= i <= self.hull_hi_i and self.hull_lo_j <= j <= self.hull_hi_j:
            return {}
        leaves: dict[QueryId, bool] = {}
        self.hull_lo_i = self.hull_lo_j = -_HULL_MAX
        self.hull_hi_i = self.hull_hi_j = _HULL_MAX
        for entry in list(self._entries.values()):
            if entry.mon_region.contains(cell):
                self._tighten_hull(entry.mon_region)
            else:
                self.remove(entry.qid)
                if entry.is_target:
                    leaves[entry.qid] = False
        return leaves

    # ------------------------------------------------------------ rewrites

    def refresh(self, entry: LqtEntry, desc: QueryDescriptor) -> None:
        """Rewrite ``entry`` from a fresh descriptor of its query (the
        focal object moved)."""
        entry.focal_state = desc.focal_state
        entry.focal_max_speed = desc.focal_max_speed
        entry.mon_region = desc.mon_region
        entry.ptm = 0.0
        self._tighten_hull(desc.mon_region)
        watcher = self._watcher
        if watcher is not None:
            watcher.state_changed(entry)

    def set_focal_state(self, entry: LqtEntry, state: MotionState) -> None:
        """Rewrite ``entry``'s focal state: the prediction basis changed,
        so the safe period is void."""
        entry.focal_state = state
        entry.ptm = 0.0
        watcher = self._watcher
        if watcher is not None:
            watcher.state_changed(entry)

    def void_safe_periods(self) -> None:
        """Void every set safe period (the owner was moved externally, and
        they were bounds from where it stood)."""
        watcher = self._watcher
        for entry in self._entries.values():
            if entry.ptm:
                entry.ptm = 0.0
                if watcher is not None:
                    watcher.state_changed(entry)

    def __contains__(self, qid: QueryId) -> bool:
        return qid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, qid: QueryId) -> LqtEntry:
        """Look up a stored entry by its identifier."""
        return self._entries[qid]

    def find(self, qid: QueryId) -> LqtEntry | None:
        """Look up a stored entry, or ``None`` when absent (one lookup)."""
        return self._entries.get(qid)

    def install(self, entry: LqtEntry) -> None:
        """Install a query entry.  A query the table already holds is
        refused (``ValueError``): its entry is rewritten in place, or
        removed first, so table order is install order."""
        if entry.qid in self._entries:
            raise ValueError(f"query {entry.qid} is already installed")
        self._entries[entry.qid] = entry
        self._tighten_hull(entry.mon_region)
        watcher = self._watcher
        if watcher is not None:
            watcher.lqt_changed(self._watch_oid, entry, 1)

    def remove(self, qid: QueryId) -> LqtEntry | None:
        """Remove a stored entry."""
        entry = self._entries.pop(qid, None)
        if entry is not None:
            watcher = self._watcher
            if watcher is not None:
                watcher.lqt_changed(self._watch_oid, entry, -1)
        return entry

    def entries(self) -> list[LqtEntry]:
        """Iterate over the stored entries."""
        return list(self._entries.values())

    def ids(self) -> list[QueryId]:
        """Iterate over the stored identifiers."""
        return list(self._entries)

    def by_focal(self) -> dict[ObjectId | None, list[LqtEntry]]:
        """Entries grouped by focal object, each group sorted by reach
        descending -- the object-side grouping order (paper Section 4.1):
        when the object is beyond a larger region's reach it is necessarily
        outside every smaller one bound to the same focal object.

        Static entries all land under the ``None`` key; they share no focal
        object, so the caller must not apply the reach short-circuit there.
        """
        groups: dict[ObjectId | None, list[LqtEntry]] = {}
        for entry in self._entries.values():
            groups.setdefault(entry.oid, []).append(entry)
        for group in groups.values():
            if len(group) > 1:
                # Stable, so equal reaches keep table order.
                group.sort(key=_REACH, reverse=True)
        return groups
