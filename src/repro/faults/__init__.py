"""Fault injection and reliability: the part the paper hand-waves.

The paper assumes every protocol exchange completes inside the 30-second
step.  This package drops that assumption and models what a real cellular
deployment faces:

- :mod:`~repro.faults.channels` -- loss processes beyond i.i.d.:
  Gilbert-Elliott burst loss next to plain Bernoulli.
- :mod:`~repro.faults.schedule` -- scriptable deterministic fault
  schedules: per-object disconnection windows, base-station outages,
  and server-shard crash windows.
- :mod:`~repro.faults.injector` -- :class:`FaultInjector`, the system's
  one loss seam: schedule faults plus a channel per link, with no
  exemption for reliable messages.
- :mod:`~repro.faults.reliability` -- the ack/retransmit protocol that
  earns reliability instead: one exchange state machine whose every hop
  is inline or deferred as the transport's latency model says, bounded
  retries, per message sequence numbers, every attempt and every ack
  charged to the :class:`~repro.network.messaging.MessageLedger`.
- :mod:`~repro.faults.policy` -- the knobs (retry budget, heartbeat
  cadence, soft-state lease length).

The fault storm that measures how fast query results re-converge after
each fault clears is one input of the run driver (:mod:`repro.driver`).

Passing a :class:`FaultInjector` as ``MobiEyesSystem(..., loss=...)``
activates the whole stack: the transport routes reliable messages through
the ack/retransmit layer, clients heartbeat and resync on sequence gaps,
and the server expires soft-state leases for focal objects it no longer
hears from.
"""

from repro.faults.channels import BernoulliChannel, GilbertElliottChannel
from repro.faults.injector import FaultInjector
from repro.faults.policy import ReliabilityPolicy
from repro.faults.reliability import ReliabilityLayer
from repro.faults.schedule import CrashWindow, DisconnectWindow, FaultSchedule, StationOutage

__all__ = [
    "BernoulliChannel",
    "CrashWindow",
    "DisconnectWindow",
    "FaultInjector",
    "FaultSchedule",
    "GilbertElliottChannel",
    "ReliabilityLayer",
    "ReliabilityPolicy",
    "StationOutage",
]
