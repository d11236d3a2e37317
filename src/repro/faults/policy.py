"""Reliability protocol parameters.

All durations are measured in simulation steps (the paper's 30-second
intervals).  ``max_attempts`` always counts *wire transmissions* of one
message through the one exchange state machine
(:mod:`repro.faults.reliability`); each hop asks the transport whether it
is deferred, and that alone decides how long the budget takes to spend:

- while hops complete inline (no modeled latency, the default), an
  attempt and its ack finish inside the step that sent the original, so
  the retries are back-to-back sub-step rounds of the same step;
- with a nonzero :class:`~repro.network.latency.LatencyModel`, each
  attempt occupies a real round trip: a retransmit timer armed to the
  model's worst-case RTT re-sends from the delivery phase of a *later*
  step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ReliabilityPolicy:
    """Knobs for the ack/retransmit, heartbeat, and lease machinery.

    Attributes:
        max_attempts: wire transmissions per reliable message (1 original
            + up to ``max_attempts - 1`` retransmissions) before the
            sender gives up for this step.
        heartbeat_steps: an object sends a reliable heartbeat after this
            many steps without an acknowledged uplink, so partitions are
            detected within a bounded delay even for chatty objects whose
            ordinary (unacked) traffic never probes the channel.
        lease_steps: the server suspends the queries of a focal object it
            has not heard from for more than this many steps (soft-state
            expiry); the next uplink from the object reinstates them.
        resync_on_gap: whether a gap in the per-object downlink sequence
            stream triggers a client resync (the recovery protocol).
    """

    max_attempts: int = 4
    heartbeat_steps: int = 5
    lease_steps: int = 12
    resync_on_gap: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.heartbeat_steps < 1:
            raise ValueError(f"heartbeat_steps must be >= 1, got {self.heartbeat_steps}")
        if self.lease_steps < 1:
            raise ValueError(f"lease_steps must be >= 1, got {self.lease_steps}")
