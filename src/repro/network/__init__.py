"""Wireless network substrate: base stations, messaging, radio energy."""

from repro.network.basestation import BaseStation, BaseStationId, BaseStationLayout
from repro.network.latency import LatencyModel
from repro.network.messaging import MessageLedger
from repro.network.radio import RadioModel

__all__ = [
    "BaseStation",
    "BaseStationId",
    "BaseStationLayout",
    "LatencyModel",
    "MessageLedger",
    "RadioModel",
]
