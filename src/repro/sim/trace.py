"""The system's one event log.

A :class:`~repro.core.system.MobiEyesSystem` keeps the ``trace`` it was
given, or a fresh log, and checkpoints it.  Decisions always go in (``crash``
/ ``recover`` / ``transfer`` / ``split`` / ``merge``); charged messages
(``uplink`` / ``downlink``, from the ledger) only when a trace was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event: step index, event kind, and free-form details."""

    step: int
    kind: str
    details: dict[str, Any]


@dataclass
class TraceLog:
    """An append-only in-memory event log."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(self, step: int, kind: str, /, **details: Any) -> None:
        """Append one event (its details may hold a ``step`` of their own)."""
        self.events.append(TraceEvent(step, kind, details))

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All recorded events of one kind."""
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        """Number of recorded events of one kind."""
        return sum(1 for e in self.events if e.kind == kind)

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)
