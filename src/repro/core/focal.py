"""Focal tracker: the FOT plus soft-state lease bookkeeping.

One of the two table owners of a server (registry / focal tracker).  The
tracker *is* one server's focal object table -- ``oid -> FotEntry``, the
last reported kinematic state of every focal object it is responsible
for, held here and nowhere else -- together with the lease machinery
wired up under fault injection: the last step each object was heard
from, and the max-speed bounds of focal objects whose queries are
currently suspended.

Behind a coordinator the trackers are the FOT directory: the shard
holding an object's focal state is the one whose tracker contains it,
asked at every read and recorded nowhere else.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.tables import FotEntry
from repro.mobility.model import MotionState, ObjectId


class FocalTracker:
    """The FOT of one server, lease freshness, and suspension state."""

    def __init__(self) -> None:
        self._entries: dict[ObjectId, FotEntry] = {}
        # Soft-state leases (enabled under fault injection): last step each
        # object was heard from, and the max-speed bound of focal objects
        # whose queries are currently suspended.
        self.lease_steps: int | None = None
        self.last_heard: dict[ObjectId, int] = {}
        self.suspended: dict[ObjectId, float] = {}

    # ---------------------------------------------------------------- FOT

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, oid: ObjectId) -> FotEntry:
        """The stored kinematic state of a focal object."""
        return self._entries[oid]

    def upsert(self, oid: ObjectId, state: MotionState, max_speed: float) -> FotEntry:
        """Insert or refresh a focal object's state."""
        entry = self._entries.get(oid)
        if entry is not None:
            entry.state = state
            entry.max_speed = max_speed
            return entry
        entry = self._entries[oid] = FotEntry(oid=oid, state=state, max_speed=max_speed)
        return entry

    def update_state(self, oid: ObjectId, state: MotionState) -> None:
        """Replace the stored motion state of a focal object."""
        self._entries[oid].state = state

    def remove(self, oid: ObjectId) -> None:
        """Drop a focal object's state."""
        del self._entries[oid]

    def ids(self) -> Iterator[ObjectId]:
        """Tracked focal object ids in ascending order.  The explicit sort
        keeps lease expiry and invariant checks deterministic even when
        entries migrated between shards out of insertion order."""
        return iter(sorted(self._entries))

    # -------------------------------------------------------------- leases

    def enable_leases(self, lease_steps: int) -> None:
        """Arm the soft-state lease machinery."""
        self.lease_steps = lease_steps

    @property
    def leases_enabled(self) -> bool:
        """Whether lease expiry is armed (fault injection only)."""
        return self.lease_steps is not None

    def touch(self, oid: ObjectId, step: int) -> None:
        """Record a sign of life from an object."""
        self.last_heard[oid] = step

    def expired(self, step: int) -> list[ObjectId]:
        """Focal objects whose lease ran out, in ascending id order."""
        if self.lease_steps is None:
            return []
        return [
            oid
            for oid in self.ids()
            if step - self.last_heard.get(oid, 0) > self.lease_steps
        ]

    def mark_suspended(self, oid: ObjectId, max_speed: float) -> None:
        """Remember a suspended focal object's max-speed bound."""
        self.suspended[oid] = max_speed

    def pop_suspended(self, oid: ObjectId) -> float | None:
        """Clear a suspension record; returns the stored max speed."""
        return self.suspended.pop(oid, None)

    def is_suspended(self, oid: ObjectId) -> bool:
        """Whether this focal object's queries are currently suspended."""
        return oid in self.suspended

    # ----------------------------------------------------------- handoff

    def tracked_oids(self) -> list[ObjectId]:
        """Every object with any state here (an entry, a lease stamp or a
        suspension record), ascending."""
        return sorted({*self.last_heard, *self.suspended, *self._entries})

    def export_state(self, oid: ObjectId) -> tuple:
        """Package one object's tracker state for a cross-shard handoff."""
        return (self._entries.get(oid), self.last_heard.get(oid), self.suspended.get(oid))

    def import_state(self, oid: ObjectId, packed: tuple) -> None:
        """Adopt tracker state exported by another shard's tracker."""
        entry, heard, suspended_speed = packed
        if entry is not None:
            self.upsert(oid, entry.state, entry.max_speed)
        if heard is not None:
            # Keep the fresher of the exported timestamp and any sign of
            # life already recorded here (the uplink that triggered the
            # handoff touches the acquiring shard before the migration).
            mine = self.last_heard.get(oid)
            self.last_heard[oid] = heard if mine is None else max(mine, heard)
        if suspended_speed is not None:
            self.suspended[oid] = suspended_speed

    def evict(self, oid: ObjectId) -> None:
        """Forget one object entirely (its state migrated to another shard)."""
        self._entries.pop(oid, None)
        self.last_heard.pop(oid, None)
        self.suspended.pop(oid, None)
