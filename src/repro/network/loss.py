"""Wireless message loss injection.

The paper assumes reliable delivery; real deployments drop packets.  The
:class:`LossModel` injects independent random loss on uplink messages and
per-receiver downlink deliveries, letting the test suite and the loss
ablation measure how gracefully the protocol degrades (stale results heal
at the next velocity-change broadcast or cell crossing).

Whether a message is control plane (must not silently half-complete) is
declared by the message class itself: every class in
:mod:`repro.core.messages` carries a ``reliable`` flag.  The plain
:class:`LossModel` simply exempts reliable messages from loss -- an
abstraction of "retransmitted until acknowledged" that costs nothing on
the wire.  The fault-injection stack (:mod:`repro.faults`) replaces that
fiction with an explicit ack/retransmit protocol whose retries and acks
are charged to the message ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mobility.model import ObjectId
from repro.sim.rng import SimulationRng


def is_reliable(message: object) -> bool:
    """Whether a message class declares itself control plane (reliable)."""
    return getattr(message, "reliable", False)


@dataclass
class LossModel:
    """Independent Bernoulli loss per message / per delivery."""

    rng: SimulationRng
    uplink_loss_rate: float = 0.0
    downlink_loss_rate: float = 0.0
    dropped_uplinks: int = field(default=0, init=False)
    dropped_deliveries: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        for rate in (self.uplink_loss_rate, self.downlink_loss_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"loss rate must be in [0, 1], got {rate}")

    @property
    def drops_downlinks(self) -> bool:
        """Whether a downlink delivery can be lost."""
        return self.downlink_loss_rate > 0.0

    def begin_step(self, step: int) -> None:
        """Per-step hook (no state to roll for i.i.d. loss)."""

    def drop_uplink(self, message: object) -> bool:
        """Whether this object -> server message is lost in transit."""
        if self.uplink_loss_rate == 0.0 or is_reliable(message):
            return False
        if self.rng.random() < self.uplink_loss_rate:
            self.dropped_uplinks += 1
            return True
        return False

    def drop_delivery(self, message: object, receiver: ObjectId | None = None) -> bool:
        """Whether one receiver misses this downlink message."""
        if self.downlink_loss_rate == 0.0 or is_reliable(message):
            return False
        if self.rng.random() < self.downlink_loss_rate:
            self.dropped_deliveries += 1
            return True
        return False
