"""The fault injector: a loss model that tells the truth.

:class:`FaultInjector` is the one thing the transport's ``loss`` seam
takes (the seam is an injector or None):

- besides stochastic channels (i.i.d. :class:`BernoulliChannel` or
  burst :class:`GilbertElliottChannel`, per link) it applies *scheduled*
  faults: an offline object's traffic drops in both directions, and any
  message whose sender's or receiver's serving base station is dead drops
  too;
- it does **not** exempt reliable messages -- attaching an injector makes
  the transport route them through the explicit ack/retransmit layer
  (:mod:`repro.faults.reliability`) instead, whose retries it also rolls;
- drops are counted per cause, so a run report can attribute loss to
  disconnections, outages, or the channel.

The serving station of an object is the station of its lattice tile (the
same choice :meth:`~repro.network.basestation.BaseStationLayout
.station_covering` makes for uplinks); downlink reachability is modeled
through the same station, a deliberate simplification that keeps the
drop decision a pure function of (schedule, object position).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.core.load import read_counters
from repro.faults.channels import BernoulliChannel, GilbertElliottChannel
from repro.faults.policy import ReliabilityPolicy
from repro.faults.schedule import FaultSchedule
from repro.geometry import Point
from repro.mobility.model import ObjectId
from repro.network.basestation import BaseStationLayout

Channel = BernoulliChannel | GilbertElliottChannel
Locator = Callable[[ObjectId], Point]


class FaultInjector:
    """Schedule-driven and channel-driven loss with per-cause accounting.

    ``dropped_uplinks`` / ``dropped_deliveries`` count every drop;
    ``drops_by_cause`` splits them into ``disconnect``, ``outage``,
    ``crash`` and ``channel``.
    """

    #: Lifetime counters (core/load.py); ``drops_by_cause`` splits them.
    COUNTERS = ("dropped_uplinks", "dropped_deliveries")
    #: What a checkpoint carries (see core/snapshot.py): the constructor's
    #: arguments and the drop accounting; the bindings are re-made at restore.
    CHECKPOINT_FIELDS = (
        "schedule", "policy", "uplink_channel", "downlink_channel", "drops_by_cause", *COUNTERS,
    )

    def __init__(
        self,
        schedule: FaultSchedule | None = None,
        policy: ReliabilityPolicy | None = None,
        uplink_channel: Channel | None = None,
        downlink_channel: Channel | None = None,
    ) -> None:
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.policy = policy if policy is not None else ReliabilityPolicy()
        self.uplink_channel = uplink_channel
        self.downlink_channel = downlink_channel
        self.dropped_uplinks = 0
        self.dropped_deliveries = 0
        self.drops_by_cause: Counter = Counter()
        self._offline: frozenset[ObjectId] = frozenset()
        self._dead: frozenset[int] = frozenset()
        self._layout: BaseStationLayout | None = None
        self._locator: Locator | None = None
        self._uplink_dead: Callable[[object], bool] | None = None

    # ------------------------------------------------------------- wiring

    def bind(
        self,
        layout: BaseStationLayout,
        locator: Locator,
        uplink_dead: Callable[[object], bool] | None = None,
    ) -> None:
        """Attach the station layout, an ``oid -> position`` resolver and,
        under a sharded server, the coordinator's "is this uplink's shard
        down" predicate (done by :class:`~repro.core.system.MobiEyesSystem`;
        the coordinator owns the dead set, the injector keeps none)."""
        self._layout = layout
        self._locator = locator
        self._uplink_dead = uplink_dead

    def begin_step(self, step: int) -> None:
        """Activate the disconnection and outage windows covering ``step``."""
        self._offline, self._dead = self.schedule.at(step)

    # ---------------------------------------------------------- predicates

    def offline(self, oid: ObjectId) -> bool:
        """Whether the object is inside an active disconnection window."""
        return oid in self._offline

    def station_dead_for(self, oid: ObjectId) -> bool:
        """Whether the object's serving base station is currently dead."""
        if not self._dead or self._layout is None or self._locator is None:
            return False
        tile = self._layout.tile_of_point(self._locator(oid))
        return self._layout.station_at_tile(tile).bsid in self._dead

    def carrier_lost(self, oid: ObjectId) -> bool:
        """Whether the object can locally tell it has no connectivity.

        Scheduled faults are carrier-level: a disconnected device or one
        whose serving station is down sees no signal, and real radios
        detect that without any round trip.  Channel loss is invisible
        here -- a device cannot sense that an individual packet died.
        """
        return self.offline(oid) or self.station_dead_for(oid)

    def _fault_cause(
        self, oid: ObjectId | None, channel: Channel | None, uplink: object = None
    ) -> str | None:
        """Why this hop is lost, checked in priority order: disconnection,
        station outage, crashed server shard (``uplink`` messages only),
        then the stochastic channel."""
        if oid is not None:
            if oid in self._offline:
                return "disconnect"
            if self.station_dead_for(oid):
                return "outage"
        if uplink is not None and self._uplink_dead is not None and self._uplink_dead(uplink):
            return "crash"
        if channel is not None and channel.roll():
            return "channel"
        return None

    # ------------------------------------------------------- loss interface

    @property
    def drops_downlinks(self) -> bool:
        """Whether a downlink delivery can be lost: a downlink channel, a
        disconnection or a station outage."""
        schedule = self.schedule
        return self.downlink_channel is not None or bool(schedule.disconnects or schedule.outages)

    def drop_uplink(self, message: object) -> bool:
        """Whether this object -> server message is lost in transit: a
        message, or a flushed report record as its ``(kind, row)`` pair
        (the row's sender first; the coordinator routes either).

        The crash check asks the coordinator and consumes no RNG, so a
        crash-free run's channel stream is bit-identical with or without
        crash windows in the schedule.
        """
        oid = message[1][0] if type(message) is tuple else getattr(message, "oid", None)
        cause = self._fault_cause(oid, self.uplink_channel, message)
        if cause is None:
            return False
        self.dropped_uplinks += 1
        self.drops_by_cause[f"uplink-{cause}"] += 1
        return True

    def drop_delivery(self, message: object, receiver: ObjectId | None = None) -> bool:
        """Whether one receiver misses this downlink message."""
        cause = self._fault_cause(receiver, self.downlink_channel)
        if cause is None:
            return False
        self.dropped_deliveries += 1
        self.drops_by_cause[f"downlink-{cause}"] += 1
        return True

    # ---------------------------------------------------------- inspection

    def counters(self) -> dict:
        """A JSON-friendly snapshot of the drop accounting."""
        by_cause = self.drops_by_cause
        return {**read_counters(self), "by_cause": {key: by_cause[key] for key in sorted(by_cause)}}
