"""Versioned checkpoint/restore of a full :class:`MobiEyesSystem`.

A checkpoint captures, at a step boundary, everything the next step's
outcome depends on: the server tables (SQT / RQI / FOT, per shard),
soft-state lease and suspension records, every client's LQT and
recovery scalars, the transport's deferred-envelope queue and sequence
counters, the reliability layer's in-flight exchanges and ledgers, the
fault injector's channel RNGs and drop accounting, the message ledger,
the metrics cursors, and the simulation RNG streams.  Restoring it
builds a *fresh* system -- callbacks, watchers, and fastpath mirrors
are reconstructed by the ordinary constructor -- and grafts the
captured state back in through the same table APIs the live protocol
uses, so ``restore(checkpoint(system))`` resumes bit-identically on
both engines at any shard count.

Capture strategy: all live objects are gathered into **one** payload
dict and isolated with a single :func:`copy.deepcopy`.  The deepcopy
memo preserves every identity relation *inside* the payload -- a queued
:class:`~repro.core.transport.Envelope`'s ``context`` stays the very
``_Exchange`` the reliability layer keys in ``_pending``, an
``SqtEntry``'s descriptor cache stays identity-valid against its
monitoring region and focal state, and the injector's channel RNGs keep
any sharing they had -- while severing every reference to the live
system.  Pickling the system wholesale is not an option (coordinator
directory callbacks and client watcher hooks are closures); the payload
holds only plain data, so a checkpoint also serializes with
:meth:`Checkpoint.to_bytes`.

What is deliberately **not** captured:

- result-change *subscriptions* -- callbacks are code, not state; a
  system with live subscribers refuses to checkpoint;
- trace logs (refuse) and custom motion models (refuse): both carry
  arbitrary user state this module cannot promise to rebuild;
- the fastpath's arrays and mirrors: derived state, rebuilt by the
  constructor from the restored objects and pushed back in sync by the
  LQT install / relayed-state watcher hooks during the graft.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import MobiEyesSystem

#: Wire-format version of :class:`Checkpoint` payloads.  Bump on any
#: change to the payload layout; :func:`from_bytes` refuses mismatches.
#: v2 added the partition map (boundary layout + epoch), the rebalance
#: policy state and log, per-client partition epochs, and the transport's
#: stale-epoch reroute counter.  v3 added the elastic fleet shape (stripe
#: order, slot count, retired slots), the elastic policy's id-keyed
#: streaks, and the service runtime's ingest queue and counters.  v4
#: dropped the config's executor-flavor field and the per-step
#: critical-path server seconds (the pooled executors are gone) and added
#: the service's ``invalid_rejects`` counter.  v5 dropped seven policy
#: fields from the config and gave the placement policy one id-keyed state
#: shape (``marks``/``hot_streak``/``cold_streak`` dicts for every fleet).
#: v6: the queue holds one envelope per message (a v5 queue may hold
#: batched-report envelopes of a class that no longer exists).  v7: one
#: reliable-exchange shape (``_Exchange.up`` replaces ``kind``/``name``/
#: ``bits``); ``ClientStats.uplinks_sent`` and the LQT ``version`` are gone.
CHECKPOINT_VERSION = 7


@dataclass(slots=True)
class Checkpoint:
    """One captured system state: a version tag plus the payload dict.

    The payload is private to this module -- treat a checkpoint as an
    opaque token to hand back to :func:`restore` (or persist with
    :meth:`to_bytes` / :func:`from_bytes`).
    """

    version: int
    payload: dict[str, Any]

    def to_bytes(self) -> bytes:
        """Serialize for persistence (pickle protocol; the payload holds
        only plain data objects, no closures)."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)


def from_bytes(data: bytes) -> Checkpoint:
    """Deserialize a checkpoint produced by :meth:`Checkpoint.to_bytes`."""
    try:
        cp = pickle.loads(data)
    except Exception as exc:
        raise ValueError(f"not a checkpoint: {exc}") from exc
    if not isinstance(cp, Checkpoint):
        raise ValueError(f"not a checkpoint: {type(cp).__name__}")
    if cp.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {cp.version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    return cp


# ------------------------------------------------------------------ capture


def _server_units(system: "MobiEyesSystem") -> list:
    """The table-owning server units: the shards, or the monolith itself."""
    shards = getattr(system.server, "shards", None)
    return list(shards) if shards is not None else [system.server]


def _capture_server(system: "MobiEyesSystem") -> list[dict[str, Any]]:
    sections = []
    for unit in _server_units(system):
        tracker = unit.tracker
        oids = sorted({*tracker.last_heard, *tracker.suspended, *tracker.ids()})
        sections.append(
            {
                # SqtEntry objects in qid order; desc_cache rides along and
                # stays identity-valid under the one-blob deepcopy.
                "entries": list(unit.registry.entries()),
                # (entry | None, last_heard | None, suspended_speed | None)
                # per object, the cross-shard handoff packing.
                "tracker": [(oid, tracker.export_state(oid)) for oid in oids],
            }
        )
    return sections


def _capture_clients(system: "MobiEyesSystem") -> dict[int, dict[str, Any]]:
    out = {}
    for oid in system._client_order:
        client = system.clients[oid]
        lqt = client.lqt
        out[oid] = {
            "entries": list(lqt._entries.values()),  # install order
            "hull": (lqt.hull_lo_i, lqt.hull_hi_i, lqt.hull_lo_j, lqt.hull_hi_j),
            "has_mq": client.has_mq,
            "last_cell": client.last_cell,
            "relayed": client._relayed_state,
            "stats": client.stats,
            "steps_since_ack": client._steps_since_ack,
            "last_downlink_seq": client._last_downlink_seq,
            "needs_resync": client._needs_resync,
            "suspect": client._suspect,
            "report_epoch": client._report_epoch,
            "partition_epoch": client.partition_epoch,
        }
    return out


def _capture_transport(system: "MobiEyesSystem") -> dict[str, Any]:
    t = system.transport
    return {
        "step": t._step,
        "downlink_seq": t._downlink_seq,
        "queue": t._queue,
        "envelope_seq": t._envelope_seq,
        "delivered_deferred": t._delivered_deferred,
        "delivered_delay_sum": t._delivered_delay_sum,
        "stale_epoch_reroutes": t.stale_epoch_reroutes,
    }


def _capture_reliability(system: "MobiEyesSystem") -> dict[str, Any] | None:
    rel = system.transport.reliability
    if rel is None:
        return None
    return {
        "uplink_seq": rel._uplink_seq,
        "pending": rel._pending,
        "next_token": rel._next_token,
        "retransmissions": rel.retransmissions,
        "acks_sent": rel.acks_sent,
        "ack_drops": rel.ack_drops,
        "failures": rel.failures,
        "duplicates_suppressed": rel.duplicates_suppressed,
    }


def _capture_loss(system: "MobiEyesSystem") -> tuple[str, Any]:
    """``(kind, data)``: the loss seam's state, injector-aware.

    A :class:`~repro.faults.injector.FaultInjector` cannot be carried
    whole (its position locator is a closure over the live clients), so
    it is decomposed into its data parts and rebuilt at restore; the
    system constructor re-binds it.  A plain loss model has no wiring
    into the system and travels as-is.
    """
    loss = system.transport.loss
    if loss is None:
        return ("none", None)
    if getattr(loss, "policy", None) is not None:
        return (
            "injector",
            {
                "rng": loss.rng,
                "schedule": loss.schedule,
                "policy": loss.policy,
                "uplink_channel": loss.uplink_channel,
                "downlink_channel": loss.downlink_channel,
                "dropped_uplinks": loss.dropped_uplinks,
                "dropped_deliveries": loss.dropped_deliveries,
                "drops_by_cause": loss.drops_by_cause,
            },
        )
    return ("model", loss)


def _capture_partition(system: "MobiEyesSystem") -> dict[str, Any] | None:
    """The mutable partition state: boundary layout, epoch, and -- since
    elastic scale-out -- the stripe order, the shard-slot count, and the
    retired slots (None for a monolithic server, which has no map)."""
    partitioner = getattr(system.server, "partitioner", None)
    if partitioner is None:
        return None
    return {
        "bounds": partitioner.bounds,
        "epoch": partitioner.epoch,
        "order": partitioner.order,
        "slots": len(system.server.shards),
        "retired": system.server.retired_shards,
    }


def _check_supported(system: "MobiEyesSystem") -> None:
    if system.trace is not None:
        raise ValueError("cannot checkpoint a system with a trace log attached")
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
    state is fully isolated from the live system, so the system may keep
    running and the checkpoint restored any number of times.
    """
    _check_supported(system)
    server = system.server
    payload: dict[str, Any] = {
        "config": system.config,
        "step": system.clock.step,
        "objects": system.motion.objects,
        "rng": system.rng,
        "velocity_changes_per_step": system.motion.velocity_changes_per_step,
        "changed_last_step": system.motion.changed_last_step,
        "track_accuracy": system.track_accuracy,
        "warmup_steps": system.metrics.warmup_steps,
        "latency": system.latency,
        "loss": _capture_loss(system),
        "server": _capture_server(system),
        # Partition state must restore *before* the server graft: grafted
        # RQI registrations split monitoring regions by the live map.
        "partition": _capture_partition(system),
        "rebalance_policy": (
            system._rebalance_policy.state()
            if system._rebalance_policy is not None
            else None
        ),
        "rebalance_log": system.rebalance_log,
        "next_qid": server._next_qid,
        "report_epochs": server._report_epochs,
        "clients": _capture_clients(system),
        "transport": _capture_transport(system),
        "reliability": _capture_reliability(system),
        "ledger": system.ledger,
        "metrics_steps": system.metrics.steps,
        "ledger_mark": system._ledger_mark,
        "last_error": system._last_error,
        "last_error_step": system._last_error_step,
        # Crash-recovery cadence state: the last periodic checkpoint the
        # system took (None outside crash schedules), carried so a
        # restored run recovers from the same basis the original would.
        "last_checkpoint": getattr(system, "_last_checkpoint", None),
        "checkpoints_taken": system._checkpoints_taken,
        # Service runtime: the ingest queue and its accounting, so a
        # restored service resumes with the same pending work (None when
        # no service is attached).
        "service": (
            system._service.state() if system._service is not None else None
        ),
    }
    return Checkpoint(version=CHECKPOINT_VERSION, payload=copy.deepcopy(payload))


# ------------------------------------------------------------------ restore


def _rebuild_loss(kind: str, data: Any):
    if kind == "none":
        return None
    if kind == "model":
        return data
    from repro.faults.injector import FaultInjector

    injector = FaultInjector(
        rng=data["rng"],
        schedule=data["schedule"],
        policy=data["policy"],
        uplink_channel=data["uplink_channel"],
        downlink_channel=data["downlink_channel"],
    )
    injector.dropped_uplinks = data["dropped_uplinks"]
    injector.dropped_deliveries = data["dropped_deliveries"]
    injector.drops_by_cause = data["drops_by_cause"]
    return injector


def _graft_server(system: "MobiEyesSystem", sections: list[dict[str, Any]]) -> None:
    units = _server_units(system)
    if len(units) != len(sections):
        raise ValueError(
            f"checkpoint has {len(sections)} server sections, system has {len(units)}"
        )
    # SQT entries first (directory callbacks populate owner_of /
    # _focal_home), then the RQI registrations, then
    # the trackers -- so the FOT-subset-of-focals invariant holds at
    # every point of the graft.
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


def _graft_clients(system: "MobiEyesSystem", sections: dict[int, dict[str, Any]]) -> None:
    for oid in system._client_order:
        client = system.clients[oid]
        section = sections[oid]
        lqt = client.lqt
        for entry in section["entries"]:
            # install() fires the watcher hooks, so the fastpath's batch
            # evaluator and fan-out index stay in sync with the graft.
            lqt.install(entry)
        lqt.hull_lo_i, lqt.hull_hi_i, lqt.hull_lo_j, lqt.hull_hi_j = section["hull"]
        client._set_has_mq(section["has_mq"])
        client.last_cell = section["last_cell"]
        client._set_relayed(section["relayed"])
        client.stats = section["stats"]
        client._steps_since_ack = section["steps_since_ack"]
        client._last_downlink_seq = section["last_downlink_seq"]
        client._needs_resync = section["needs_resync"]
        client._suspect = section["suspect"]
        client._report_epoch = section["report_epoch"]
        client.partition_epoch = section["partition_epoch"]


def _graft_transport(system: "MobiEyesSystem", section: dict[str, Any]) -> None:
    t = system.transport
    t._step = section["step"]
    t._downlink_seq = section["downlink_seq"]
    t._queue = section["queue"]
    t._envelope_seq = section["envelope_seq"]
    t._delivered_deferred = section["delivered_deferred"]
    t._delivered_delay_sum = section["delivered_delay_sum"]
    t.stale_epoch_reroutes = section["stale_epoch_reroutes"]


def _graft_reliability(system: "MobiEyesSystem", section: dict[str, Any] | None) -> None:
    rel = system.transport.reliability
    if section is None:
        if rel is not None:
            raise ValueError("checkpoint has no reliability state but the system does")
        return
    if rel is None:
        raise ValueError("checkpoint has reliability state but the system does not")
    rel._uplink_seq = section["uplink_seq"]
    # Queued rel-* envelopes reference these exchanges by identity: the
    # one-blob deepcopy kept Envelope.context and _pending values the
    # same objects, so retransmit timers keep driving in-flight hops.
    rel._pending = section["pending"]
    rel._next_token = section["next_token"]
    rel.retransmissions = section["retransmissions"]
    rel.acks_sent = section["acks_sent"]
    rel.ack_drops = section["ack_drops"]
    rel.failures = section["failures"]
    rel.duplicates_suppressed = section["duplicates_suppressed"]


def _graft_ledger(system: "MobiEyesSystem", saved) -> None:
    # The transport and the system share one ledger object; graft the
    # captured totals into it in place.
    ledger = system.ledger
    ledger.uplink_count = saved.uplink_count
    ledger.downlink_count = saved.downlink_count
    ledger.uplink_bits = saved.uplink_bits
    ledger.downlink_bits = saved.downlink_bits
    ledger.counts_by_type = saved.counts_by_type
    ledger.bits_by_type = saved.bits_by_type
    ledger.energy_by_object = saved.energy_by_object


def restore(cp: Checkpoint) -> "MobiEyesSystem":
    """Rebuild a running system from a checkpoint.

    The checkpoint is not consumed: its payload is deepcopied again, so
    the same checkpoint restores any number of independent systems.
    """
    from repro.core.system import MobiEyesSystem

    if cp.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {cp.version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    p = copy.deepcopy(cp.payload)
    loss = _rebuild_loss(*p["loss"])
    system = MobiEyesSystem(
        p["config"],
        p["objects"],
        rng=p["rng"],
        velocity_changes_per_step=p["velocity_changes_per_step"],
        track_accuracy=p["track_accuracy"],
        warmup_steps=p["warmup_steps"],
        loss=loss,
        latency=p["latency"],
    )
    partition = p["partition"]
    if partition is not None:
        server = system.server
        # Elastic fleets first grow the slot list (a run that scaled out
        # has more server sections than the config's initial count) and
        # re-mark retired slots, then adopt the stripe layout -- all
        # before the graft, whose RQI splits consult the live map.
        server.ensure_shard_slots(partition["slots"])
        server.restore_retired(set(partition["retired"]))
        server.partitioner.restore_state(
            tuple(partition["bounds"]), partition["epoch"], tuple(partition["order"])
        )
    _graft_server(system, p["server"])
    system.server._next_qid = p["next_qid"]
    # In place: every shard holds the coordinator's epoch dict by reference.
    system.server._report_epochs.update(p["report_epochs"])
    _graft_clients(system, p["clients"])
    _graft_transport(system, p["transport"])
    _graft_reliability(system, p["reliability"])
    _graft_ledger(system, p["ledger"])
    system.motion.changed_last_step = p["changed_last_step"]
    system.metrics.steps = p["metrics_steps"]
    system._ledger_mark = p["ledger_mark"]
    system._last_error = p["last_error"]
    system._last_error_step = p["last_error_step"]
    system._last_checkpoint = p["last_checkpoint"]
    system._checkpoints_taken = p["checkpoints_taken"]
    if p["rebalance_policy"] is not None and system._rebalance_policy is not None:
        system._rebalance_policy.restore_state(p["rebalance_policy"])
    system.rebalance_log = p["rebalance_log"]
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
    and chaos reports compare.  Two systems in the same state (e.g. an
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
