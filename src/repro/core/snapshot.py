"""Versioned checkpoint/restore of a full :class:`MobiEyesSystem`.

A checkpoint captures, at a step boundary, everything the next step's
outcome depends on: the server tables (SQT / RQI / FOT, per shard),
soft-state lease and suspension records, every client's LQT and
recovery scalars, the transport's deferred-envelope queue and sequence
counters, the reliability layer's in-flight exchanges and ledgers, the
fault injector's channel RNGs and drop accounting, the message ledger,
the event log, the metrics cursors, and the simulation RNG streams.  Restoring it
builds a *fresh* system -- callbacks, watchers, and fastpath mirrors
are reconstructed by the ordinary constructor -- and grafts the
captured state back in through the same table APIs the live protocol
uses, so ``restore(checkpoint(system))`` resumes bit-identically on
both engines at any shard count.

Capture strategy: a checkpoint *is* its bytes.  The live objects are
gathered into one payload dict and serialized once, inside
:func:`checkpoint`; that one ``pickle.dumps`` is the isolation from the
live system, and its memo keeps every identity relation inside the
payload (a queued :class:`~repro.core.transport.Envelope`'s ``context``
stays the very ``_Exchange`` the reliability layer keys in ``_pending``,
an ``SqtEntry``'s descriptor cache stays identity-valid, shared channel
RNGs stay shared).  The bytes become objects again in one place,
:func:`_decode`, which resolves allow-listed classes only and checks the
payload's shape before anything is built from it.  Each component names
its checkpointed attributes once, in a class-level ``CHECKPOINT_FIELDS``
read by :func:`export_state` / :func:`import_state`.  (The system itself
cannot be pickled: its watcher hooks and the fault injector's position
locator are closures.)

What is deliberately **not** captured:

- result-change *subscriptions* -- callbacks are code, not state; a
  system with live subscribers refuses to checkpoint;
- custom motion models (refuse): they carry arbitrary user state this
  module cannot promise to rebuild;
- the fastpath's arrays and mirrors: derived state, rebuilt by the
  constructor from the restored objects and pushed back in sync by the
  LQT install / relayed-state watcher hooks during the graft.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import MobiEyesSystem

#: Wire-format version.  Bump on any layout change: the header, a payload
#: key, an owner's ``CHECKPOINT_FIELDS``, a field of a payload class.
#: 18: the event log replaces ``crash_log`` / ``rebalance_log`` (the ledger's
#: ``trace`` is that log when message events are on); the injector has no ``rng``.
CHECKPOINT_VERSION = 18

#: Largest payload a checkpoint may hold, checked before anything is
#: hashed or decoded (Table 1 at full scale is ~6 MB).
MAX_PAYLOAD_BYTES = 1 << 28

_MAGIC = b"MOBIEYES"
#: magic, version, payload length, SHA-256 of the payload.
_HEADER = struct.Struct(">8sHQ32s")


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """One captured system state: a version tag plus the serialized payload.

    Immutable and opaque -- hand it back to :func:`restore`, or persist it
    with :meth:`to_bytes` / :func:`from_bytes`.  Construction is the one
    place the version and the size cap are checked.
    """

    version: int
    blob: bytes

    def __post_init__(self) -> None:
        if self.version != CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint version {self.version} unsupported (expected {CHECKPOINT_VERSION})"
            )
        if not isinstance(self.blob, bytes):
            raise ValueError(f"checkpoint payload is {type(self.blob).__name__}, not bytes")
        if len(self.blob) > MAX_PAYLOAD_BYTES:
            raise ValueError(f"checkpoint payload exceeds {MAX_PAYLOAD_BYTES} bytes")

    def to_bytes(self) -> bytes:
        """The fixed header followed by the payload bytes."""
        digest = hashlib.sha256(self.blob).digest()
        return _HEADER.pack(_MAGIC, self.version, len(self.blob), digest) + self.blob


def from_bytes(data: bytes) -> Checkpoint:
    """Parse :meth:`Checkpoint.to_bytes` output.

    Checks the header (magic, version, length, digest) and the size cap and
    **decodes nothing**: the payload stays bytes until :func:`restore`.
    Anything else is a ``ValueError``.
    """
    if not isinstance(data, (bytes, bytearray)) or len(data) < _HEADER.size:
        raise ValueError("not a checkpoint: no header")
    magic, version, length, digest = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("not a checkpoint: bad magic")
    if length != len(data) - _HEADER.size:
        raise ValueError(
            f"checkpoint header announces {length} payload bytes, "
            f"{len(data) - _HEADER.size} follow"
        )
    cp = Checkpoint(version, bytes(data[_HEADER.size :]))
    if hashlib.sha256(cp.blob).digest() != digest:
        raise ValueError("checkpoint payload does not match its digest")
    return cp


# ------------------------------------------------------------------- decode

#: Every global a payload may name, by module: the plain-data classes the
#: capture below gathers, every message that can sit in the delivery queue,
#: and the shapes and filters this package defines (a query built on a
#: caller-defined one checkpoints but does not restore).  Exact -- tests/
#: test_snapshot.py fails on a payload class missing here and on an entry
#: no checkpoint uses.  No numpy: the reference engine restores without it.
_ALLOWED_GLOBALS = {
    "random": "Random",
    "collections": "Counter deque",
    "repro.core.config": "MobiEyesConfig",
    "repro.core.messages": "Ack CellChangeReport FocalRoleNotification Heartbeat "
    "MotionStateRequest MotionStateResponse QueryDescriptor QueryInstallBroadcast "
    "QueryInstallList QueryRemoveBroadcast QueryUpdateBroadcast RebalanceDirective "
    "ResultChangeReport ResyncDirective ResyncRequest ResyncResponse "
    "VelocityChangeBroadcast VelocityChangeReport",
    "repro.core.propagation": "PropagationMode",
    "repro.core.query": "AndFilter NotFilter OrFilter PropertyEqualsFilter QuerySpec TrueFilter",
    "repro.core.reporting": "ReportBuffer",
    "repro.core.service": "IngestTicket",
    "repro.core.tables": "FotEntry LqtEntry SqtEntry",
    "repro.core.transport": "Envelope",
    "repro.faults.channels": "BernoulliChannel GilbertElliottChannel",
    "repro.faults.policy": "ReliabilityPolicy",
    "repro.faults.reliability": "_Exchange",
    "repro.faults.schedule": "CrashWindow DisconnectWindow FaultSchedule StationOutage",
    "repro.geometry.shapes": "Circle Rect",
    "repro.geometry.vector": "Vector",
    "repro.grid.grid": "CellRange",
    "repro.metrics.collectors": "StepStats",
    "repro.mobility.model": "MotionState MovingObject",
    "repro.network.latency": "LatencyModel",
    "repro.sim.rng": "SimulationRng",
    "repro.sim.trace": "TraceEvent TraceLog",
    "repro.workload.filters": "ClassThresholdFilter",
}


class _PayloadUnpickler(pickle.Unpickler):
    """Resolves allow-listed globals only, so decoding imports and calls
    nothing but the payload's own plain-data classes."""

    def find_class(self, module: str, name: str) -> Any:
        if name not in _ALLOWED_GLOBALS.get(module, "").split():
            raise pickle.UnpicklingError(f"{module}.{name} is not a checkpoint payload class")
        return super().find_class(module, name)


def _decode(blob: bytes, check: Callable[[Any], None] | None = None) -> Any:
    """``blob`` as a fresh, checked object graph per call (a whole payload
    unless ``check`` says otherwise) -- the only place checkpoint bytes
    become objects."""
    try:
        payload = _PayloadUnpickler(io.BytesIO(blob)).load()
    except Exception as exc:  # damaged or hostile bytes fail any way they like
        raise ValueError(f"checkpoint payload does not decode: {exc}") from exc
    (check or _check_shape)(payload)
    return payload


def decode_basis(blob: bytes | None) -> list[dict[str, Any]]:
    """The server sections of a recovery basis (:func:`capture_basis`),
    decoded and key-checked like a whole checkpoint's."""
    if not isinstance(blob, bytes):
        raise ValueError("no recovery basis has been captured: nothing to recover from")
    return _decode(blob, _check_sections)


def _check_keys(what: str, state: Any, names: Iterable) -> None:
    if not isinstance(state, dict):
        raise ValueError(f"checkpoint {what} is {type(state).__name__}, not a dict")
    expected = frozenset(names)
    if state.keys() != expected:  # the common case costs one comparison per section
        missing = sorted(expected - state.keys(), key=repr)
        unexpected = sorted(state.keys() - expected, key=repr)
        raise ValueError(f"checkpoint {what}: missing {missing}, unexpected {unexpected}")


def export_state(owner: Any) -> dict[str, Any] | None:
    """The attributes ``owner``'s class names in ``CHECKPOINT_FIELDS``
    (None for a component the system was built without)."""
    if owner is None:
        return None
    return {name: getattr(owner, name) for name in owner.CHECKPOINT_FIELDS}


def import_state(owner: Any, state: dict[str, Any] | None) -> None:
    """Set exactly the attributes :func:`export_state` read; a state whose
    keys differ from the owner's tuple is a ``ValueError``."""
    if state is not None:
        _check_keys(f"{type(owner).__name__} state", state, owner.CHECKPOINT_FIELDS)
        for name, value in state.items():
            setattr(owner, name, value)


_PAYLOAD_KEYS = (
    "config step objects rng velocity_changes_per_step changed_last_step track_accuracy "
    "warmup_steps latency loss server partition rebalance_policy next_qid report_epochs "
    "clients eval_counters transport reliability ledger metrics_steps system basis service"
).split()


def _check_sections(sections: Any) -> None:
    from repro.core.load import LoadAccount

    if not isinstance(sections, list):
        raise ValueError(f"checkpoint server sections are {type(sections).__name__}, not a list")
    for section in sections:
        _check_keys("server section", section, ("entries", "tracker", "load"))
        _check_keys("server load", section["load"], LoadAccount.CHECKPOINT_FIELDS)


def _check_shape(p: Any) -> None:
    """Refuse a payload :func:`restore` could only half-apply, before any
    system is built: exact keys in every dict this module wrote, one
    server section per shard slot, one client section per object."""
    from repro.core.client import EvalCounters, MobiEyesClient
    from repro.core.config import MobiEyesConfig
    from repro.core.rebalance import RebalancePolicy
    from repro.core.service import MobiEyesService
    from repro.core.system import MobiEyesSystem
    from repro.core.transport import SimulatedTransport
    from repro.faults.injector import FaultInjector
    from repro.faults.reliability import ReliabilityLayer
    from repro.network.messaging import MessageLedger
    from repro.sim.trace import TraceEvent, TraceLog

    _check_keys("payload", p, _PAYLOAD_KEYS)
    config, partition, sections, loss = p["config"], p["partition"], p["server"], p["loss"]
    if not isinstance(config, MobiEyesConfig):
        raise ValueError(f"checkpoint config is {type(config).__name__}")
    _check_sections(sections)
    if p["basis"] is not None:
        decode_basis(p["basis"])
    # A coordinator and its partition map exist exactly when shards > 1,
    # and its fleet (one section per shard slot) only grows.
    fleet_ok = len(sections) >= config.shards if config.shards > 1 else len(sections) == 1
    if not fleet_ok or (partition is None) != (config.shards == 1):
        raise ValueError(f"checkpoint server sections do not fit shards={config.shards}")
    if partition is not None:
        _check_keys("partition", partition, ("bounds", "epoch", "order", "dead"))
        # A slot missing from the stripe order is retired; one beyond the
        # fleet has no server section to restore.
        order = partition["order"]
        if not isinstance(order, tuple) or any(
            type(sid) is not int or not 0 <= sid < len(sections) for sid in order
        ):
            raise ValueError(f"checkpoint stripe order {order!r} does not fit the fleet")
    # The transport builds a reliability layer exactly when a fault
    # injector is attached.
    if (p["reliability"] is None) != (loss is None):
        raise ValueError("checkpoint reliability state does not match its loss seam")
    try:
        oids = [obj.oid for obj in p["objects"]]
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"checkpoint objects are malformed: {exc}") from exc
    _check_keys("clients", p["clients"], oids)
    client_keys = ("entries", "hull", "has_mq", "relayed", *MobiEyesClient.CHECKPOINT_FIELDS)
    for section in p["clients"].values():
        _check_keys("client section", section, client_keys)
    for what, state, owner in (
        ("evaluation counters", p["eval_counters"], EvalCounters),
        ("transport", p["transport"], SimulatedTransport),
        ("ledger", p["ledger"], MessageLedger),
        ("reliability", p["reliability"], ReliabilityLayer),
        ("injector", loss, FaultInjector),
        ("service", p["service"], MobiEyesService),
        ("rebalance policy", p["rebalance_policy"], RebalancePolicy),
        ("system", p["system"], MobiEyesSystem),
    ):
        if state is not None:
            _check_keys(what, state, owner.CHECKPOINT_FIELDS)
    # The event log: a TraceLog of well-formed events, the ledger's trace or not.
    log, trace = p["system"]["log"], p["ledger"]["trace"]
    events = vars(log).get("events") if type(log) is TraceLog else None
    if (trace is not None and trace is not log) or type(events) is not list or any(
        type(e) is not TraceEvent
        or [type(getattr(e, f, None)) for f in ("step", "kind", "details")] != [int, str, dict]
        for e in events
    ):
        raise ValueError(f"checkpoint event log is malformed ({type(log).__name__})")
    _check_queue(p["transport"]["_queue"])


def _check_queue(queue: Any) -> None:
    """Refuse a queued envelope the delivery phase could not open."""
    from repro.core.messages import REC_KIND_NAMES

    try:
        for env in (env for batch in queue.values() for env in batch):
            if env.kind == "downlink" and env.seqs is not None and len(env.seqs) != len(env.run):
                raise ValueError(
                    f"checkpoint downlink run {env.run!r} does not pair with its "
                    f"sequence numbers {env.seqs!r}"
                )
            if env.kind == "report" and env.message.kind[env.context] not in range(
                len(REC_KIND_NAMES)
            ):
                raise ValueError("checkpoint parked report row is of no record kind")
    except (AttributeError, TypeError, IndexError) as exc:
        raise ValueError(f"checkpoint transport queue is malformed: {exc}") from exc


# ------------------------------------------------------------------ capture


def _server_units(system: "MobiEyesSystem") -> list:
    """The table-owning server units: the shards, or the monolith itself."""
    shards = getattr(system.server, "shards", None)
    return list(shards) if shards is not None else [system.server]


def _capture_server(system: "MobiEyesSystem") -> list[dict[str, Any]]:
    return [
        {
            # SqtEntry objects in qid order; desc_cache rides along and
            # stays identity-valid (pickle memoises by identity).
            "entries": list(unit.registry.entries()),
            # (entry | None, last_heard | None, suspended_speed | None)
            # per object, the cross-shard handoff packing.
            "tracker": [
                (oid, unit.tracker.export_state(oid)) for oid in unit.tracker.tracked_oids()
            ],
            # The unit's lifetime load: what the step sample and the
            # rebalance policy's marks are differenced against.
            "load": export_state(unit.load),
        }
        for unit in _server_units(system)
    ]


def capture_basis(system: "MobiEyesSystem") -> bytes:
    """The recovery basis: the server tables as bytes and nothing else --
    what :meth:`Coordinator.recover_shard` rebuilds a crashed shard from."""
    return pickle.dumps(_capture_server(system), pickle.HIGHEST_PROTOCOL)


def _capture_clients(system: "MobiEyesSystem") -> dict[int, dict[str, Any]]:
    out = {}
    for oid in system._client_order:
        client = system.clients[oid]
        lqt = client.lqt
        out[oid] = {
            "entries": lqt.entries(),  # install order
            "hull": (lqt.hull_lo_i, lqt.hull_hi_i, lqt.hull_lo_j, lqt.hull_hi_j),
            "has_mq": client.has_mq,
            "relayed": client._relayed_state,
            **export_state(client),
        }
    return out


def _capture_partition(system: "MobiEyesSystem") -> dict[str, Any] | None:
    """The mutable partition state: boundary layout, epoch, stripe order
    and dead slots (None for a monolith: no map).  The shard-slot count is
    the number of server sections; the slots missing from the order are
    the retired ones."""
    partitioner = getattr(system.server, "partitioner", None)
    if partitioner is None:
        return None
    return {
        "bounds": partitioner.bounds,
        "epoch": partitioner.epoch,
        "order": partitioner.order,
        "dead": system.server._dead,
    }


def _check_supported(system: "MobiEyesSystem") -> None:
    if type(system.motion).__name__ not in ("MotionModel", "VectorizedMotionModel"):
        raise ValueError(
            f"cannot checkpoint a custom motion model ({type(system.motion).__name__})"
        )
    buf = system.transport.report_buffer
    if buf is not None and (buf.depth or buf.kind):
        raise ValueError("cannot checkpoint mid-phase: the report buffer is not empty")
    subscribers = getattr(system.server, "_subscribers", None)
    if subscribers is None:
        subscribers = system.server.registry.subscribers
    if any(subscribers.values()):
        raise ValueError(
            "cannot checkpoint a system with live result subscriptions "
            "(callbacks are code, not state)"
        )


def checkpoint(system: "MobiEyesSystem") -> Checkpoint:
    """Capture a system's full state at a step boundary.

    Must be called between steps (not from inside a phase); the captured
    state is bytes, so the system may keep running and the checkpoint be
    restored any number of times.
    """
    _check_supported(system)
    server = system.server
    payload: dict[str, Any] = {
        "config": system.config,
        "step": system.clock.step,
        # Plain objects: the vectorized engine's are views over its store.
        "objects": system.motion.objects
        if system._fastpath is None
        else [obj.detached() for obj in system.motion.objects],
        "rng": system.rng,
        "velocity_changes_per_step": system.motion.velocity_changes_per_step,
        "changed_last_step": system.motion.changed_last_step,
        "track_accuracy": system.track_accuracy,
        "warmup_steps": system.metrics.warmup_steps,
        "latency": system.latency,
        # The fault injector as a dict of its data attributes (its position
        # locator is a closure over the live clients), rebuilt and re-bound
        # at restore.
        "loss": export_state(system.transport.loss),
        "server": _capture_server(system),
        # Partition state must restore *before* the server graft: grafted
        # RQI registrations split monitoring regions by the live map.
        "partition": _capture_partition(system),
        "rebalance_policy": export_state(system._rebalance_policy),
        "next_qid": server._next_qid,
        "report_epochs": server._report_epochs,
        "clients": _capture_clients(system),
        "eval_counters": export_state(system.eval_counters),
        # Queued rel-* envelopes and the reliability layer's ``_pending``
        # share their exchanges: one dumps keeps them the same objects.
        "transport": export_state(system.transport),
        "reliability": export_state(system.transport.reliability),
        "ledger": export_state(system.ledger),
        "metrics_steps": system.metrics.steps,
        "system": export_state(system),
        # The crash-recovery basis (capture_basis bytes, or None).
        "basis": system.recovery_basis,
        # The attached service's ingest queue and accounting, so a restored
        # service resumes with the same pending work.
        "service": export_state(system._service),
    }
    return Checkpoint(CHECKPOINT_VERSION, pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))


# ------------------------------------------------------------------ restore


def _rebuild_loss(data: dict[str, Any] | None):
    if data is None:
        return None
    from repro.faults.injector import FaultInjector

    injector = FaultInjector()
    import_state(injector, data)
    return injector


def _graft_server(system: "MobiEyesSystem", sections: list[dict[str, Any]]) -> None:
    units = _server_units(system)
    # SQT entries first, then the RQI registrations, then the trackers --
    # so the FOT-subset-of-focals invariant holds at every point of the
    # graft.
    for unit, section in zip(units, sections):
        for entry in section["entries"]:
            unit.registry.add(entry)
            if not entry.suspended:
                # On a shard this splits the region across the partition,
                # registering each portion with its cell owner.
                unit._rqi_add(entry.qid, entry.mon_region)
    for unit, section in zip(units, sections):
        for oid, packed in section["tracker"]:
            unit.tracker.import_state(oid, packed)
        import_state(unit.load, section["load"])


def _graft_clients(system: "MobiEyesSystem", sections: dict[int, dict[str, Any]]) -> None:
    for oid in system._client_order:
        client = system.clients[oid]
        section = sections[oid]
        lqt = client.lqt
        for entry in section.pop("entries"):
            # install() fires the watcher hooks, so the fastpath's batch
            # evaluator and fan-out index stay in sync with the graft.
            lqt.install(entry)
        lqt.hull_lo_i, lqt.hull_hi_i, lqt.hull_lo_j, lqt.hull_hi_j = section.pop("hull")
        client._set_has_mq(section.pop("has_mq"))
        client._set_relayed(section.pop("relayed"))
        import_state(client, section)  # what is left: the plain attributes


def restore(cp: Checkpoint) -> "MobiEyesSystem":
    """Rebuild a running system from a checkpoint.

    The checkpoint is not consumed: every call decodes its bytes afresh,
    so the same checkpoint restores any number of independent systems.
    A payload that is damaged, hostile or of the wrong shape is a
    ``ValueError`` raised before any system is built.
    """
    from repro.core.system import MobiEyesSystem

    p = _decode(cp.blob)
    # An object an external update moved since the last movement phase is
    # built where the live coverage index still held it, then moved again.
    held = p["system"]["_unstepped_updates"]
    moved = [obj for obj in p["objects"] if obj.oid in held]
    updates = [(obj.oid, obj.pos, obj.vel, obj.recorded_at) for obj in moved]
    for obj in moved:
        obj.pos, obj.vel, obj.recorded_at = held[obj.oid]
    system = MobiEyesSystem(
        p["config"],
        p["objects"],
        rng=p["rng"],
        velocity_changes_per_step=p["velocity_changes_per_step"],
        track_accuracy=p["track_accuracy"],
        warmup_steps=p["warmup_steps"],
        loss=_rebuild_loss(p["loss"]),
        latency=p["latency"],
    )
    for update in updates:
        system.motion.apply_update(*update)
    partition = p["partition"]
    if partition is not None:
        server = system.server
        # Elastic fleets first grow the slot list (a run that scaled out
        # has more server sections than the config's initial count), then
        # adopt the stripe layout, which retires every slot it leaves out
        # -- all before the graft, whose RQI splits consult the live map.
        server.restore_fleet(len(p["server"]), partition["dead"])
        server.partitioner.restore_state(
            tuple(partition["bounds"]), partition["epoch"], tuple(partition["order"])
        )
    _graft_server(system, p["server"])
    system.server._next_qid = p["next_qid"]
    # In place: every shard holds the coordinator's epoch dict by reference.
    system.server._report_epochs.update(p["report_epochs"])
    _graft_clients(system, p["clients"])
    import_state(system.eval_counters, p["eval_counters"])
    import_state(system.transport, p["transport"])
    import_state(system.transport.reliability, p["reliability"])
    # In place: the one ledger (the transport's step; the log as its trace).
    import_state(system.ledger, p["ledger"])
    # The constructor rolled the loss seam into step 0: re-activate the
    # fault windows of the step the transport is really in.
    if system.transport.loss is not None:
        system.transport.loss.begin_step(system.transport.step)
    system.motion.changed_last_step = p["changed_last_step"]
    system.metrics.steps = p["metrics_steps"]
    import_state(system, p["system"])
    system.recovery_basis = p["basis"]
    import_state(system._rebalance_policy, p["rebalance_policy"])
    # A service attached to the restored system adopts the checkpointed
    # ingest queue (see MobiEyesService.__init__).
    system._pending_service_state = p["service"]
    system.engine.clock.step = p["step"]
    return system


# ---------------------------------------------------------------- hashing


def step_hash(system: "MobiEyesSystem") -> str:
    """A canonical digest of the externally observable system state.

    Covers the clock, every query result, the message/bit/energy ledger
    totals, and the in-flight envelope count -- the quantities the bench
    and run reports compare.  Two systems in the same state (e.g. an
    original and its restored twin after equal steps) hash identically;
    floats serialize via ``repr`` so the comparison is bit-exact.
    """
    ledger = system.ledger
    blob = {
        "step": system.clock.step,
        "results": [
            [qid, sorted(system.server.query_result(qid))]
            for qid in system.server.sqt.ids()
        ],
        "uplink_count": ledger.uplink_count,
        "downlink_count": ledger.downlink_count,
        "uplink_bits": ledger.uplink_bits,
        "downlink_bits": ledger.downlink_bits,
        "energy": ledger.total_energy(),
        "pending": system.transport.pending_count(),
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "checkpoint",
    "from_bytes",
    "restore",
    "step_hash",
]
