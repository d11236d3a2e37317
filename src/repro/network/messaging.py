"""Message accounting on the wireless medium.

The paper's messaging-cost experiments count *messages sent on the wireless
medium per second*, split into uplink messages (object -> server) and
downlink messages (base-station broadcast, or one-to-one server -> object
message).  The power experiments additionally account message *sizes* and
charge transmit energy to the sender and receive energy to every object
that hears a broadcast (including over-hearers outside the monitoring
region -- the paper calls this out as MobiEyes' main energy overhead).

The :class:`MessageLedger` is shared by MobiEyes and the centralized
baselines so the experiments compare identical accounting (and, given a
``trace``, log each message they charge).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection

from repro.mobility.model import ObjectId
from repro.network.radio import RadioModel
from repro.sim.trace import TraceLog


@dataclass
class MessageLedger:
    """Counts, sizes, and per-object energy for all wireless traffic."""

    radio: RadioModel = field(default_factory=RadioModel)
    uplink_count: int = 0
    downlink_count: int = 0
    uplink_bits: float = 0.0
    downlink_bits: float = 0.0
    counts_by_type: Counter = field(default_factory=Counter)
    bits_by_type: Counter = field(default_factory=Counter)
    energy_by_object: dict[ObjectId, float] = field(default_factory=dict)
    #: The event log each charged message also goes to (or None), and the
    #: step those events are stamped with: the transport's, kept here.
    trace: TraceLog | None = field(default=None, compare=False, repr=False)
    step: int = field(default=0, compare=False, repr=False)

    #: Lifetime counters (core/load.py); the by-type and by-object books
    #: split them.
    COUNTERS = ("uplink_count", "downlink_count", "uplink_bits", "downlink_bits")
    #: What a checkpoint carries (see core/snapshot.py): everything but the
    #: radio model, which the config rebuilds.
    CHECKPOINT_FIELDS = (
        *COUNTERS, "counts_by_type", "bits_by_type", "energy_by_object", "trace", "step",
    )

    def __post_init__(self) -> None:
        # Joules per bit, read off the (frozen) radio model once: plain
        # attributes, neither fields nor compared.
        self._tx_per_bit = self.radio.tx_joules_per_bit
        self._rx_per_bit = self.radio.rx_joules_per_bit

    # ------------------------------------------------------------- recording

    def record_uplink(self, msg_type: str, bits: float, sender: ObjectId | None = None) -> None:
        """One object -> server message: event ``uplink`` (``type``, ``oid``)."""
        self.uplink_count += 1
        self.uplink_bits += bits
        self.counts_by_type[msg_type] += 1
        self.bits_by_type[msg_type] += bits
        if sender is not None:
            energy = self.energy_by_object
            energy[sender] = energy.get(sender, 0.0) + bits * self._tx_per_bit
        if self.trace is not None:
            self.trace.record(self.step, "uplink", type=msg_type, oid=sender)

    def record_downlink(
        self,
        msg_type: str,
        bits: float,
        receivers: Collection[ObjectId] = (),
        broadcasts: int = 1,
    ) -> None:
        """Server -> objects traffic: event ``downlink`` (``type``, ``messages``).

        ``broadcasts`` is the number of wireless messages (one per base
        station for a broadcast, 1 for a one-to-one message); ``receivers``
        are all objects that hear the message and pay receive energy (the
        event's ``receivers`` count).
        """
        self.downlink_count += broadcasts
        self.downlink_bits += bits * broadcasts
        self.counts_by_type[msg_type] += broadcasts
        self.bits_by_type[msg_type] += bits * broadcasts
        rx_energy = bits * self._rx_per_bit
        # This loop runs once per receiver per broadcast, the hottest
        # accounting path in dense workloads.
        energy = self.energy_by_object
        get = energy.get
        for oid in receivers:
            energy[oid] = get(oid, 0.0) + rx_energy
        if self.trace is not None:
            self.trace.record(
                self.step, "downlink", type=msg_type, messages=broadcasts, receivers=len(receivers)
            )

    # ------------------------------------------------------------- summaries

    @property
    def total_count(self) -> int:
        """Total number of wireless messages."""
        return self.uplink_count + self.downlink_count

    @property
    def total_bits(self) -> float:
        """Uplink plus downlink bits."""
        return self.uplink_bits + self.downlink_bits

    def total_energy(self) -> float:
        """Total joules charged across all objects.

        ``fsum`` so the total is independent of the order objects were
        first charged: the two engines build a broadcast's receiver set in
        different insertion orders, and a naive left-to-right sum would
        differ in the last ulps between the two.
        """
        return math.fsum(self.energy_by_object.values())

    def mean_energy_per_object(self, population: int) -> float:
        """Average joules per object over a population of ``population``
        devices (objects that never communicated count as zero)."""
        if population <= 0:
            raise ValueError("population must be positive")
        return self.total_energy() / population
