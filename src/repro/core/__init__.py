"""The MobiEyes distributed moving-query protocol (the paper's contribution)."""

from repro.core.client import EvalCounters, MobiEyesClient
from repro.core.config import MobiEyesConfig
from repro.core.coordinator import Coordinator
from repro.core.focal import FocalTracker
from repro.core.load import LoadAccount
from repro.core.partition import PartitionMap
from repro.core.rebalance import RebalancePolicy
from repro.core.propagation import PropagationMode
from repro.core.query import (
    AndFilter,
    MovingQuery,
    NotFilter,
    OrFilter,
    PropertyEqualsFilter,
    QueryFilter,
    QueryId,
    QuerySpec,
    TrueFilter,
)
from repro.core.registry import QueryRegistry
from repro.core.safe_period import safe_period_hours
from repro.core.server import MobiEyesServer
from repro.core.shard import ServerShard
from repro.core.service import MobiEyesService
from repro.core.system import MobiEyesSystem
from repro.core.tables import (
    LocalQueryTable,
    LqtEntry,
    ReverseQueryIndex,
    SqtEntry,
)
from repro.core.transport import SimulatedTransport

__all__ = [
    "AndFilter",
    "Coordinator",
    "EvalCounters",
    "FocalTracker",
    "PartitionMap",
    "RebalancePolicy",
    "LoadAccount",
    "NotFilter",
    "OrFilter",
    "PropertyEqualsFilter",
    "LocalQueryTable",
    "LqtEntry",
    "MobiEyesClient",
    "MobiEyesConfig",
    "MobiEyesServer",
    "MobiEyesService",
    "MobiEyesSystem",
    "QueryRegistry",
    "ServerShard",
    "MovingQuery",
    "PropagationMode",
    "QueryFilter",
    "QueryId",
    "QuerySpec",
    "ReverseQueryIndex",
    "SimulatedTransport",
    "SqtEntry",
    "TrueFilter",
    "safe_period_hours",
]
