"""Scriptable deterministic fault schedules.

A schedule is a set of half-open step windows: per-object disconnections
(the device is in a tunnel / its battery died -- all its traffic drops,
both directions), base-station outages (all traffic *through* the dead
station drops), and server-shard crashes (the shard's soft state and
in-flight uplinks are lost; see
:meth:`~repro.core.coordinator.Coordinator.crash_shard`).  The windows
are pure data, so a schedule is trivially reproducible and serializable
into a run report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mobility.model import ObjectId
from repro.network.basestation import BaseStationId


@dataclass(frozen=True, slots=True)
class DisconnectWindow:
    """Object ``oid`` is off the air for steps ``start <= step < end``."""

    oid: ObjectId
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window [{self.start}, {self.end})")

    def active(self, step: int) -> bool:
        """Whether the window covers ``step``."""
        return self.start <= step < self.end


@dataclass(frozen=True, slots=True)
class StationOutage:
    """Base station ``bsid`` is dead for steps ``start <= step < end``."""

    bsid: BaseStationId
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window [{self.start}, {self.end})")

    def active(self, step: int) -> bool:
        """Whether the window covers ``step``."""
        return self.start <= step < self.end


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """Server shard ``shard`` is down for steps ``start <= step < end``.

    Declarative: the system resolves a window into a ``("crash", shard)``
    op at the ``start`` boundary
    (:meth:`~repro.core.coordinator.Coordinator.crash_shard`: the shard's
    soft state is gone and, while the coordinator lists it dead, every
    uplink routed to it is lost) and a ``("recover", shard)`` op at ``end``
    (:meth:`~repro.core.coordinator.Coordinator.recover_shard`, from the
    recovery basis).
    """

    shard: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty window [{self.start}, {self.end})")
        if self.shard < 0:
            raise ValueError("shard must be non-negative")


@dataclass(frozen=True, slots=True)
class FaultSchedule:
    """A fixed script of disconnections, station outages, and shard crashes."""

    disconnects: tuple[DisconnectWindow, ...] = ()
    outages: tuple[StationOutage, ...] = ()
    crashes: tuple[CrashWindow, ...] = ()

    def at(self, step: int) -> tuple[frozenset[ObjectId], frozenset[BaseStationId]]:
        """The (offline objects, dead stations) active at ``step``."""
        offline = frozenset(w.oid for w in self.disconnects if w.active(step))
        dead = frozenset(o.bsid for o in self.outages if o.active(step))
        return offline, dead

    @property
    def last_step(self) -> int:
        """The last step at which any scheduled fault is still active."""
        ends = (
            [w.end for w in self.disconnects]
            + [o.end for o in self.outages]
            + [c.end for c in self.crashes]
        )
        return max(ends) - 1 if ends else -1

    def describe(self) -> dict:
        """A JSON-friendly rendering of the schedule (for chaos reports)."""
        return {
            "disconnects": [
                {"oid": w.oid, "start": w.start, "end": w.end} for w in self.disconnects
            ],
            "outages": [
                {"bsid": o.bsid, "start": o.start, "end": o.end} for o in self.outages
            ],
            "crashes": [
                {"shard": c.shard, "start": c.start, "end": c.end} for c in self.crashes
            ],
        }
