"""Object-to-server reporting policies of the centralized baselines.

The paper's messaging-cost experiments compare MobiEyes against two
centralized reporting scenarios (Section 5.3):

- **naive**: every object reports its position to the server at every time
  step in which the position changed;
- **central optimal**: every object reports its velocity vector (full
  motion state) only when it changed significantly since the last report --
  "the minimum amount of information required for a centralized approach to
  evaluate queries unless there is an assumption about object trajectories".
  Significance uses the same dead-reckoning threshold as MobiEyes.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.messages import BITS_COORD, BITS_HEADER, BITS_MOTION_STATE, BITS_OID, BITS_TIME
from repro.mobility.dead_reckoning import DeadReckoner
from repro.mobility.model import MotionState, MovingObject, ObjectId

#: bits of a bare position report (no velocity): header + oid + (x, y) + time
BITS_POSITION_REPORT = BITS_HEADER + BITS_OID + 2 * BITS_COORD + BITS_TIME
#: bits of a full motion-state report
BITS_STATE_REPORT = BITS_HEADER + BITS_OID + BITS_MOTION_STATE


class ReportingPolicy(Protocol):
    """Decides, per object and step, whether (and what) to uplink."""

    def report(self, obj: MovingObject, now_hours: float) -> tuple[MotionState, int] | None:
        """Returns ``(state, message_bits)`` to uplink, or ``None``."""
        ...


class NaiveReporting:
    """Report the position every step in which it changed."""

    def __init__(self) -> None:
        self._last_pos: dict[ObjectId, tuple[float, float]] = {}

    def report(self, obj: MovingObject, now_hours: float) -> tuple[MotionState, int] | None:
        """Return (state, message_bits) to uplink, or None to stay silent."""
        pos = (obj.pos.x, obj.pos.y)
        if self._last_pos.get(obj.oid) == pos:
            return None
        self._last_pos[obj.oid] = pos
        # A naive report carries position only; the state's velocity is
        # still included in the tuple for the server's position store, but
        # the *message* is sized as a bare position report.
        return obj.snapshot(), BITS_POSITION_REPORT


class CentralOptimalReporting:
    """Report the motion state only on significant change: a dead-reckoned
    deviation above ``threshold``, or at ``threshold == 0`` a new velocity
    vector (the paper's "only when it changed").  With an unchanged vector
    the deviation is rounding that grows a few ulps a step, so no fixed
    tolerance covers it; relaying on it inflated this baseline ~4x."""

    def __init__(self, threshold: float = 0.0) -> None:
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self._reckoners: dict[ObjectId, DeadReckoner] = {}

    def report(self, obj: MovingObject, now_hours: float) -> tuple[MotionState, int] | None:
        """Return (state, message_bits) to uplink, or None to stay silent."""
        reckoner = self._reckoners.get(obj.oid)
        if reckoner is None:
            state = obj.snapshot()
            self._reckoners[obj.oid] = DeadReckoner(relayed=state, threshold=self.threshold)
            return state, BITS_STATE_REPORT
        if self.threshold > 0:
            significant = reckoner.needs_relay(obj.pos, now_hours)
        else:
            significant = obj.vel != reckoner.relayed.vel
        if significant:
            state = obj.snapshot()
            reckoner.relay(state)
            return state, BITS_STATE_REPORT
        return None
