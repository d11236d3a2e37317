"""Checkpoint/restore and shard crash-recovery tests.

The contract under test: ``restore(checkpoint(system))`` resumes
bit-identically (step hashes cover results, message counts, ledger bits,
energy, and queue depth) on both engines at any shard count; a crashed
shard loses its soft state and is rebuilt from the last periodic
checkpoint plus a grid-wide client resync, reconverging within a bounded
window.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import pickletools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MobiEyesService, MobiEyesSystem, snapshot
from repro.core.query import (
    AndFilter,
    NotFilter,
    OrFilter,
    PropertyEqualsFilter,
    QuerySpec,
    TrueFilter,
)
from repro.core.snapshot import (
    CHECKPOINT_VERSION,
    Checkpoint,
    checkpoint,
    export_state,
    from_bytes,
    import_state,
    restore,
    step_hash,
)
from repro.driver import canonical_schedule, run
from repro.faults import (
    CrashWindow,
    FaultInjector,
    FaultSchedule,
    ReliabilityLayer,
    ReliabilityPolicy,
)
from repro.faults.schedule import DisconnectWindow
from repro.faults.channels import BernoulliChannel, GilbertElliottChannel
from repro.fastpath import numpy_available
from repro.fastpath.bench import skewed_params
from repro.geometry import Circle, Rect
from repro.sim import SimulationRng, TraceLog

from tests.conftest import circle_query, make_object, make_system, paper_system


class TestCheckpointRoundtrip:
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_restore_resumes_bit_identically(self, engine, shards):
        if engine == "vectorized":
            pytest.importorskip("numpy")
        system = paper_system(engine, shards=shards)
        system.run(6)
        cp = checkpoint(system)
        system.run(6)
        want = step_hash(system)
        system.close()

        # Through the wire format: serialize, parse, restore, resume.
        resumed = restore(from_bytes(cp.to_bytes()))
        assert step_hash(resumed) != want  # six steps behind
        resumed.run(6)
        assert step_hash(resumed) == want
        resumed.close()

    def test_restore_under_latency(self):
        # In-flight envelopes (and their reliable-exchange contexts) are
        # part of the snapshot: the resumed run must deliver them on the
        # original timetable.
        system = paper_system(latency=2, shards=2)
        system.run(5)
        cp = checkpoint(system)
        assert system.transport.pending_count() > 0
        system.run(7)
        want = step_hash(system)
        system.close()
        resumed = restore(cp)
        resumed.run(7)
        assert step_hash(resumed) == want
        resumed.close()

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_restore_with_a_parked_broadcast_run(self, engine):
        # A deferred broadcast is one downlink envelope carrying its
        # receivers as a run: the checkpoint holds it as it is, and the
        # restored system opens it on the original timetable (in bulk on
        # the vectorized engine).
        if engine == "vectorized":
            pytest.importorskip("numpy")
        system = paper_system(engine, shards=2, latency=1)
        system.run(4)
        queued = [env for batch in system.transport._queue.values() for env in batch]
        assert max(env.hops for env in queued if env.kind == "downlink") > 1
        assert system.transport.pending_count() > len(queued)
        cp = checkpoint(system)
        hashes = []
        for _ in range(6):
            system.step()
            hashes.append(step_hash(system))
        system.close()

        resumed = restore(from_bytes(cp.to_bytes()))
        for want in hashes:
            resumed.step()
            assert step_hash(resumed) == want
            resumed.check_invariants()
        resumed.close()

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_restore_with_reliable_exchanges_in_flight(self, engine):
        # Lossy links under latency keep reliable exchanges open across the
        # step boundary (parked rel-* envelopes, armed retransmit timers);
        # a checkpoint taken then must resume them on the same timetable,
        # channel rolls included.
        if engine == "vectorized":
            pytest.importorskip("numpy")
        rng = SimulationRng(11)
        injector = FaultInjector(
            policy=ReliabilityPolicy(heartbeat_steps=2),
            uplink_channel=BernoulliChannel(rng, rate=0.2),
            downlink_channel=BernoulliChannel(rng, rate=0.2),
        )
        system = paper_system(engine, shards=2, latency=2, loss=injector)
        system.run(6)
        cp = checkpoint(system)
        reliability = system.transport.reliability
        assert reliability.counters()["pending"] > 0
        assert any(
            env.kind.startswith("rel-") and env.context.token in reliability._pending
            for batch in system.transport._queue.values()
            for env in batch
        )
        hashes = []
        for _ in range(8):
            system.step()
            hashes.append(step_hash(system))
        assert reliability.retransmissions > 0
        want_counters = reliability.counters()
        system.close()

        resumed = restore(from_bytes(cp.to_bytes()))
        for want in hashes:
            resumed.step()
            assert step_hash(resumed) == want
        assert resumed.transport.reliability.counters() == want_counters
        resumed.close()

    def test_restore_reactivates_the_open_fault_windows(self):
        # Found while writing tests/test_snapshot_stateful.py: the restored
        # injector stood in step 0's (empty) fault windows until the next
        # movement phase, so a broadcast made right after the restore was
        # delivered to objects the live run knows to be disconnected.
        def build():
            windows = tuple(DisconnectWindow(oid=oid, start=2, end=9) for oid in range(0, 40, 2))
            injector = FaultInjector(schedule=FaultSchedule(disconnects=windows))
            return paper_system(shards=1, scale=0.004, seed=1, loss=injector)

        system, twin = build(), build()
        system.run(4)
        twin.run(4)
        resumed = restore(checkpoint(system))
        qid = next(iter(twin.server.sqt.ids()))
        for each in (resumed, twin):
            each.remove_query(qid)
        assert resumed.transport.loss.counters() == twin.transport.loss.counters()
        assert step_hash(resumed) == step_hash(twin)
        for each in (resumed, twin, system):
            each.close()

    def test_vectorized_checkpoint_with_an_update_pending(self):
        # The vectorized engine's objects are row views over its store: the
        # checkpoint carries them as plain objects (no view class is
        # allow-listed), a restore rebuilds the views, and an external
        # update the movement phase has not consumed yet resumes exactly.
        pytest.importorskip("numpy")
        from repro.fastpath.store import ObjectRow
        from repro.geometry import Point, Vector
        from repro.mobility.model import MovingObject

        system = paper_system("vectorized", shards=2)
        system.run(4)
        system.apply_external_update(3, Point(-2.0, 7.5), Vector(12.0, -40.0))
        assert 3 in system._unstepped_updates
        cp = checkpoint(system)
        objects = snapshot._decode(cp.blob)["objects"]
        assert {type(obj) for obj in objects} == {MovingObject}
        assert not any("ObjectRow" in names for names in snapshot._ALLOWED_GLOBALS.values())
        hashes = []
        for _ in range(5):
            system.step()
            hashes.append(step_hash(system))
        system.close()

        resumed = restore(from_bytes(cp.to_bytes()))
        assert {type(obj) for obj in resumed.motion.objects} == {ObjectRow}
        assert resumed.motion.objects == resumed.motion.store.objects
        for want in hashes:
            resumed.step()
            assert step_hash(resumed) == want
        resumed.close()

    def test_checkpoint_is_not_consumed(self):
        system = paper_system(shards=1)
        system.run(4)
        cp = checkpoint(system)
        system.run(4)
        want = step_hash(system)
        system.close()
        for _ in range(2):
            resumed = restore(cp)
            resumed.run(4)
            assert step_hash(resumed) == want
            resumed.close()

    def test_checkpoint_does_not_perturb_the_run(self):
        # Taking snapshots (including the periodic cadence) is observably
        # free: the run with a cadence matches the run without one.
        plain = paper_system(shards=1)
        plain.run(10)
        want = step_hash(plain)
        plain.close()

        system = paper_system(shards=1, checkpoint_every_steps=3)
        system.run(10)
        assert system.checkpoints_taken == 3
        assert step_hash(system) == want
        system.close()

    def test_version_mismatch_rejected(self):
        system = paper_system(shards=1)
        cp = checkpoint(system)
        system.close()
        # The version is checked where a checkpoint is made, so a foreign
        # one never reaches restore.
        with pytest.raises(ValueError, match="version"):
            restore(Checkpoint(version=CHECKPOINT_VERSION + 1, blob=cp.blob))
        # v4 bytes (seven more config fields, list-indexed policy marks),
        # v5 bytes (whose queue may hold batched-report envelopes of a
        # deleted class), v6 bytes (reliable exchanges of the old shape),
        # v7 payloads (deep-copied objects, no header), v8 bytes (per-
        # client stats, no server load sections), v9 bytes (the previous
        # whole-world checkpoint nested under ``last_checkpoint``), v10
        # bytes (one queued downlink envelope per receiver, not per run) and
        # v11 bytes (a partition section listing the retired slots, a config
        # with ``ingest_inflight_limit``) and v12 bytes (a config with the
        # evaluation period, beacon cadence, radio and queue bound; carried
        # accuracy samples) and v13 bytes (a loss section that may be a
        # pickled ``LossModel``) and v14 bytes (LQT entries without their
        # arena handles) and v15 bytes (LQT entries pickled with them, as a
        # slots dict) and v16 bytes (one queued envelope per downlink hop)
        # and v17 bytes (``crash_log`` / ``rebalance_log`` lists beside no
        # event log, an injector ``rng``) are refused by the header's
        # version field, not half-read.
        data = cp.to_bytes()
        for old in (4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17):
            stale_bytes = data[:8] + old.to_bytes(2, "big") + data[10:]
            with pytest.raises(ValueError, match=f"version {old} unsupported"):
                from_bytes(stale_bytes)
        with pytest.raises(ValueError):
            from_bytes(b"not a checkpoint")

    def test_subscribers_are_unsupported(self):
        system = make_system([make_object(0, 25, 25), make_object(1, 26, 25)])
        qid = system.install_query(circle_query(0, 3.0))
        system.subscribe(qid, lambda q, oid, entered: None)
        with pytest.raises(ValueError, match="subscription"):
            checkpoint(system)


ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])


class TestRestoreUnderThePolicy:
    """PR 22's bug, found by reading the two sampling idioms side by side:
    the checkpoint carried the policy's marks but not the per-shard
    lifetime ``ops`` they are diffed against (docs/ROBUSTNESS.md)."""

    @pytest.mark.parametrize("cut", [7, 12, 23])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_thermostat_run_resumes_from_its_own_checkpoint(self, engine, cut):
        # At the parent the restored shards restarted from zero lifetime
        # ops, so the first policy window after the cut read max(0, small -
        # mark): rebalance_log and step_hash left the live run's at step
        # 10 / 15 / 25 (a transfer skipped, a merge where the live run
        # transfers).
        system, twin = (
            paper_system(
                engine,
                shards=2,
                params=skewed_params(0.03),
                rebalance_every_steps=5,
                elastic_max_shards=4,
            )
            for _ in range(2)
        )
        system.run(cut)
        twin.run(cut)
        resumed = restore(from_bytes(checkpoint(system).to_bytes()))
        system.close()
        for step in range(cut + 1, 61):
            resumed.step()
            twin.step()
            assert resumed.rebalance_log == twin.rebalance_log, step
            assert [row["ops"] for row in resumed.server.shard_loads()] == [
                row["ops"] for row in twin.server.shard_loads()
            ], step
            assert step_hash(resumed) == step_hash(twin), step
        assert twin.rebalance_log  # the policy did act
        resumed.close()
        twin.close()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_ops_charged_by_service_admission_survive_a_round_trip(self, engine):
        # An install admitted between steps charges ``load.ops`` before the
        # step that samples it; the restored run read 33 against 44.
        def admitted():
            system = paper_system(engine, shards=1)
            system.run(3)
            service = MobiEyesService(system)
            service.install_query(circle_query(5, 2.0))
            assert service.admit() == 1
            return system

        live, system = admitted(), admitted()
        charged = system.server.load.ops
        resumed = restore(from_bytes(checkpoint(system).to_bytes()))
        assert resumed.server.load.ops == charged
        live.step()
        resumed.step()
        assert resumed.metrics.steps[-1].server_ops == live.metrics.steps[-1].server_ops
        assert step_hash(resumed) == step_hash(live)
        for each in (live, system, resumed):
            each.close()


def tiny_checkpoint() -> Checkpoint:
    with make_system([make_object(0, 25, 25), make_object(1, 26, 25, vx=6.0)]) as system:
        system.install_query(circle_query(0, 3.0))
        system.run(2)
        return checkpoint(system)


def doctored(cp: Checkpoint, edit) -> Checkpoint:
    """``cp`` with ``edit`` applied to its decoded payload."""
    payload = snapshot._decode(cp.blob)
    edit(payload)
    return Checkpoint(CHECKPOINT_VERSION, pickle.dumps(payload))


#: The first bytes of ``checkpoint(...).to_bytes()`` as the parent commit
#: (checkpoint v7) wrote it for ``tiny_checkpoint``'s world: a bare
#: protocol-5 pickle of the ``Checkpoint`` dataclass, no header.
V7_BYTES = (
    b"\x80\x05\x95\xda\x1a\x00\x00\x00\x00\x00\x00\x8c\x13repro.core."
    b"snapshot\x94\x8c\nCheckpoint\x94\x93\x94"
    b")\x81\x94N}\x94(\x8c\x07version\x94K\x07\x8c\x07pay"
    b"load\x94}\x94(\x8c\x06config\x94\x8c\x11repro"
    b".core.config\x94\x8c\x0eMobiEyesC"
    b"onfig\x94\x93\x94)\x81\x94]\x94(\x8c\x15repro.ge"
    b"ometry.shapes\x94\x8c\x04Rect\x94\x93\x94)"
    b"\x81\x94]\x94(K\x00K\x00K2K2ebG@\x14\x00\x00\x00\x00\x00\x00"
    b"G@>\x00\x00\x00\x00\x00\x00G@$\x00\x00\x00\x00\x00\x00\x8c\x16repr"
    b"o.core.propagation\x94\x8c\x0fPro"
)

SENTINEL: list = []


def touch_sentinel(*args):
    SENTINEL.append(args)


class Evil:
    def __reduce__(self):
        return (touch_sentinel, ("ran",))


class TestWrongShapeFailsClosed:
    """A payload that decodes but is not what ``checkpoint`` wrote is a
    ``ValueError`` naming the difference, raised before a system exists."""

    @staticmethod
    def refused(cp: Checkpoint, match: str) -> None:
        built = AssertionError("restore built a system from a malformed payload")
        with mock.patch.object(MobiEyesSystem, "__init__", side_effect=built):
            with pytest.raises(ValueError, match=match):
                restore(cp)

    def test_empty_payload(self):
        self.refused(
            Checkpoint(CHECKPOINT_VERSION, pickle.dumps({})), "missing .*'clients'.*'loss'"
        )

    def test_payload_that_is_not_a_dict_or_not_bytes(self):
        self.refused(Checkpoint(CHECKPOINT_VERSION, pickle.dumps(None)), "NoneType, not a dict")
        for blob in ({}, None, bytearray(b"x")):
            with pytest.raises(ValueError, match="not bytes"):
                Checkpoint(CHECKPOINT_VERSION, blob)

    def test_reliability_state_without_an_injector_and_a_missing_client(self):
        cp = tiny_checkpoint()
        self.refused(
            doctored(cp, lambda p: p.update(reliability={})), "reliability state does not match"
        )
        # The loss seam is an injector's state or None: any other object is
        # refused, whatever the reliability section says.
        self.refused(
            doctored(
                cp,
                lambda p: p.update(
                    loss=Circle(0, 0, 1.0),
                    reliability=dict.fromkeys(ReliabilityLayer.CHECKPOINT_FIELDS),
                ),
            ),
            "injector is Circle, not a dict",
        )
        self.refused(doctored(cp, lambda p: p["clients"].pop(1)), r"clients: missing \[1\]")
        self.refused(doctored(cp, lambda p: p["transport"].update(extra=1)), "unexpected .*'extra'")
        self.refused(doctored(cp, lambda p: p["server"].append(p["server"][0])), "do not fit shards=1")

    def test_a_partition_section_must_fit_the_fleet(self):
        # The retired slots are the ones the stripe order leaves out, so the
        # order may name no slot without a server section.
        with make_system([make_object(0, 25, 25)], shards=2) as system:
            cp = checkpoint(system)

        def partition(edit):
            return doctored(cp, lambda p: edit(p["partition"]))

        self.refused(partition(lambda part: part.update(order=(0, 2))), "does not fit the fleet")
        self.refused(partition(lambda part: part.update(order=[0, 1])), "does not fit the fleet")
        self.refused(partition(lambda part: part.update(retired=())), r"unexpected \['retired'\]")

    def test_a_malformed_event_log_fails_closed(self):
        cp = tiny_checkpoint()

        def log(edit):
            return doctored(cp, lambda p: edit(p["system"]["log"]))

        restore(cp).close()  # the undoctored payload restores
        malformed = "event log is malformed"
        self.refused(doctored(cp, lambda p: p["system"].update(log=[])), malformed)
        self.refused(log(lambda events: events.events.append("crash")), malformed)
        self.refused(log(lambda events: events.record("3", "crash")), malformed)
        self.refused(log(lambda events: delattr(events, "events")), malformed)
        # The ledger traces into the system's log or nowhere.
        self.refused(doctored(cp, lambda p: p["ledger"].update(trace=TraceLog())), malformed)

    def test_import_rejects_keys_that_differ_from_the_owners_tuple(self):
        with make_system([make_object(0, 25, 25)]) as system:
            state = export_state(system.transport)
            assert tuple(state) == type(system.transport).CHECKPOINT_FIELDS
            import_state(system.transport, dict(state))
            del state["_queue"]
            state["queue"] = {}
            with pytest.raises(ValueError, match=r"missing \['_queue'\], unexpected \['queue'\]"):
                import_state(system.transport, state)


class TestHostileBytesFailClosed:
    def test_mutated_bytes_never_reach_the_decoder(self):
        good = tiny_checkpoint().to_bytes()
        header = snapshot._HEADER.size

        def relength(data: bytes, length: int) -> bytes:
            return data[:10] + length.to_bytes(8, "big") + data[18:]

        mutation = st.one_of(
            st.tuples(st.integers(0, len(good) - 1), st.integers(1, 255)).map(
                lambda flip: good[: flip[0]] + bytes([good[flip[0]] ^ flip[1]]) + good[flip[0] + 1 :]
            ),
            st.integers(0, len(good) - 1).map(lambda cut: good[:cut]),
            st.binary(min_size=1, max_size=64).map(lambda junk: good + junk),
            # A doctored length field, alone and with the data cut or
            # padded to agree with it (then the digest is what disagrees).
            st.integers(0, 2 * len(good)).filter(lambda n: n != len(good) - header).map(
                lambda n: relength(good, n)
            ),
            st.integers(0, len(good) - header - 1).map(
                lambda n: relength(good[: header + n], n)
            ),
            st.binary(min_size=1, max_size=64).map(
                lambda junk: relength(good + junk, len(good) - header + len(junk))
            ),
        )

        @settings(max_examples=max(1, settings().max_examples // 2), deadline=None)
        @given(mutation)
        def check(data):
            with mock.patch.object(snapshot, "_decode") as decode:
                with pytest.raises(ValueError):
                    restore(from_bytes(data))
            assert not decode.called

        check()
        with pytest.raises(ValueError, match="exceeds"):
            with mock.patch.object(snapshot, "MAX_PAYLOAD_BYTES", 16):
                from_bytes(good)

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(pickle.dumps(Evil()), id="reduce"),
            pytest.param(b"cos\nsystem\n(S'true'\ntR.", id="os.system"),
            pytest.param(b"cbuiltins\neval\n(S'1'\ntR.", id="builtins.eval"),
            pytest.param(pickle.dumps(restore), id="repro-function"),
            pytest.param(pickle.dumps(touch_sentinel), id="test-function"),
            pytest.param(b"\x80\x05\x95\xff\x00\x00\x00\x00\x00\x00\x00}\x94(\x8c\x06config", id="truncated"),
            pytest.param(pickle.dumps([1, 2, 3]), id="not-a-dict"),
            pytest.param(b"", id="empty"),
        ],
    )
    def test_valid_header_around_a_hostile_body(self, body):
        """``from_bytes`` accepts the well-formed header without decoding
        anything; ``restore`` refuses the body without running it."""
        del SENTINEL[:]
        data = Checkpoint(CHECKPOINT_VERSION, body).to_bytes()
        with mock.patch.object(snapshot, "_PayloadUnpickler") as unpickler:
            cp = from_bytes(data)
        assert not unpickler.called and cp.blob == body
        with pytest.raises(ValueError):
            restore(cp)
        assert SENTINEL == []

    def test_a_hostile_recovery_basis_never_reaches_a_table(self):
        """The basis is decoded by the same allow-listing unpickler and
        section key check as a whole checkpoint: at recovery, before
        ``recover_shard`` is called, and at restore, before a system is
        built from the checkpoint that carries it."""
        from repro.core.coordinator import Coordinator

        with paper_system(shards=2, scale=0.004, checkpoint_every_steps=2) as system:
            system.run(3)
            good = system.recovery_basis
            system.apply_op(("crash", 1), "test", 3)
            cp = checkpoint(system)
            for bad in (
                pickle.dumps(Evil()),
                b"cos\nsystem\n(S'true'\ntR.",
                good[: len(good) // 2],
                pickle.dumps({"entries": []}),  # not a list of sections
                pickle.dumps([{"entries": [], "tracker": []}]),  # a section short of a key
                None,
            ):
                del SENTINEL[:]
                system.recovery_basis = bad
                with mock.patch.object(Coordinator, "recover_shard") as recover:
                    with pytest.raises(ValueError):
                        system.apply_op(("recover", 1), "test", 3)
                assert not recover.called and SENTINEL == []
                assert system.server.dead_shards == (1,) and system.crash_log[-1]["step"] == 3
                if bad is not None:
                    TestWrongShapeFailsClosed.refused(
                        doctored(cp, lambda p: p.update(basis=bad)), "checkpoint"
                    )
            system.recovery_basis = good
            system.apply_op(("recover", 1), "test", 3)
            system.check_invariants()

    def test_a_truncated_real_payload_is_refused(self):
        cp = tiny_checkpoint()
        with pytest.raises(ValueError, match="does not decode"):
            restore(Checkpoint(CHECKPOINT_VERSION, cp.blob[: len(cp.blob) // 2]))

    def test_parent_written_v7_bytes_are_refused_by_the_magic_check(self):
        assert V7_BYTES.startswith(b"\x80\x05") and b"Checkpoint" in V7_BYTES
        with mock.patch.object(snapshot, "_PayloadUnpickler") as unpickler:
            with pytest.raises(ValueError, match="bad magic"):
                from_bytes(V7_BYTES)
        assert not unpickler.called

    def test_a_v16_blob_is_refused_before_decoding(self):
        """v17 changed the queued envelope shape (downlink runs of ids,
        parked report rows): a v16 blob is refused by its header."""
        blob = tiny_checkpoint().blob
        header = snapshot._HEADER.pack(
            snapshot._MAGIC, 16, len(blob), hashlib.sha256(blob).digest()
        )
        with mock.patch.object(snapshot, "_PayloadUnpickler") as unpickler:
            with pytest.raises(ValueError, match="version 16 unsupported"):
                from_bytes(header + blob)
        assert not unpickler.called

    @staticmethod
    def queued_checkpoint(kind: str) -> Checkpoint:
        """A latency-1 world's checkpoint with a queued ``kind`` envelope."""
        with paper_system(shards=1, latency=1, scale=0.006) as system:
            for _ in range(8):
                system.step()
                queue = system.transport._queue
                if any(env.kind == kind for batch in queue.values() for env in batch):
                    return checkpoint(system)
        raise AssertionError(f"no {kind} envelope was ever queued")

    @staticmethod
    def first_queued(payload: dict, kind: str):
        queue = payload["transport"]["_queue"]
        return next(env for batch in queue.values() for env in batch if env.kind == kind)

    def test_a_downlink_run_that_does_not_pair_with_its_seqs_fails_closed(self):
        cp = self.queued_checkpoint("downlink")
        restore(cp).close()  # the undoctored payload restores

        def unpaired(payload):
            env = self.first_queued(payload, "downlink")
            env.seqs = list(range(len(env.run) + 1))

        TestWrongShapeFailsClosed.refused(doctored(cp, unpaired), "does not pair")

    def test_a_parked_report_row_of_no_record_kind_fails_closed(self):
        cp = self.queued_checkpoint("report")

        def unknown(payload):
            env = self.first_queued(payload, "report")
            env.message.kind[env.context] = 7

        TestWrongShapeFailsClosed.refused(doctored(cp, unknown), "no record kind")


def globals_of(blob: bytes) -> set[tuple[str, str]]:
    """Every ``(module, name)`` a protocol-4+ pickle stream resolves, read
    off its opcodes without executing it."""
    seen: set[tuple[str, str]] = set()
    memo: list = []
    pushed: list = [None, None]  # the last two values pushed, strings only
    for op, arg, _ in pickletools.genops(blob):
        if op.name == "FRAME":
            continue
        if op.name == "MEMOIZE":
            memo.append(pushed[-1])
            continue
        assert op.name not in ("GLOBAL", "INST", "PUT", "BINPUT", "LONG_BINPUT", "GET"), op.name
        if op.name == "STACK_GLOBAL":
            seen.add((pushed[-2], pushed[-1]))
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8"):
            pushed.append(arg)
        elif op.name in ("BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        else:
            pushed.append(None)
        del pushed[:-2]
    return seen


class TestAllowListIsExact:
    def test_checkpoints_name_exactly_the_allow_listed_globals(self):
        """A new payload class fails here with its name; so does an
        allow-list entry no checkpoint uses."""
        seen: set[tuple[str, str]] = set()

        def take(system):
            seen.update(globals_of(checkpoint(system).blob))

        # The round-trip matrix.
        for engine in ("reference", "vectorized") if numpy_available() else ("reference",):
            for shards in (1, 2, 4):
                with paper_system(engine, shards=shards) as system:
                    system.run(6)
                    take(system)
        # Reliable exchanges in flight under latency 2, burst and i.i.d.
        # channels, every kind of fault window, a crash recovered from a
        # cadence checkpoint, scheduled rebalances, and a filtered static
        # query installed and removed mid-run -- a checkpoint every step,
        # so every message class is caught in the queue at some boundary.
        with paper_system(shards=2) as base:
            schedule = canonical_schedule(24, sorted(base.clients), base.layout, base.config.uod)
        schedule = dataclasses.replace(schedule, crashes=(CrashWindow(shard=1, start=8, end=12),))
        rng = SimulationRng(5)
        injector = FaultInjector(
            schedule=schedule,
            policy=ReliabilityPolicy(heartbeat_steps=2, lease_steps=3),
            uplink_channel=GilbertElliottChannel(
                rng, p_good_to_bad=0.05, p_bad_to_good=0.45, loss_good=0.0, loss_bad=1.0
            ),
            downlink_channel=BernoulliChannel(rng, rate=0.1),
        )
        spec = QuerySpec.static(
            Rect(10, 10, 20, 20),
            filter=AndFilter((OrFilter((NotFilter(PropertyEqualsFilter("class", 1)), TrueFilter())),)),
        )
        with paper_system(
            shards=2,
            latency=2,
            loss=injector,
            checkpoint_every_steps=3,
            rebalance_schedule=((5, 0, 1, 1), (15, 1, 0, 1)),
        ) as system:
            for step in range(24):
                system.step()
                take(system)
                if step == 13:
                    qid = system.install_query(spec)
                    take(system)
                if step == 16:
                    system.remove_query(qid)
                    take(system)
        # A suspended focal's stateless sign of life: the server probes it
        # for motion state (uplink loss switched on after the installs).
        rng = SimulationRng(9)
        injector = FaultInjector(policy=ReliabilityPolicy(heartbeat_steps=2, lease_steps=2))
        with paper_system(shards=1, latency=1, loss=injector) as system:
            injector.uplink_channel = BernoulliChannel(rng, rate=0.5)
            for _ in range(16):
                system.step()
                take(system)
        # A service mid-backlog: queued tickets and their specs.
        with paper_system(shards=2, latency=1, ingest_budget_per_step=1) as system:
            service = MobiEyesService(system)
            for oid in sorted(system.clients)[:2]:
                service.install_query(QuerySpec(oid=oid, region=Circle(0, 0, 1.0)))
            service.tick()
            assert service.queue_depth == 1
            take(system)
        # An elastic fleet after a split.
        with paper_system(shards=2, elastic_schedule=((3, "split", 0),)) as system:
            system.run(5)
            assert len(system.server.shards) == 3
            take(system)
        # Per-message reports under latency: the cell and velocity changes
        # in flight are dataclasses (a window flush parks rows instead).
        with paper_system(batch_reports=False, latency=1) as system:
            for _ in range(4):
                system.step()
                take(system)

        allowed = {
            (module, name)
            for module, names in snapshot._ALLOWED_GLOBALS.items()
            for name in names.split()
        }
        assert sorted(seen - allowed) == [], "payload classes missing from the allow-list"
        assert sorted(allowed - seen) == [], "allow-list entries no checkpoint uses"
        assert not any("numpy" in module for module, _ in allowed)


class TestCloseLifecycle:
    def test_close_is_idempotent(self):
        system = make_system([make_object(0, 25, 25)])
        system.close()
        system.close()

    def test_context_manager_closes(self):
        with make_system([make_object(0, 25, 25)]) as system:
            assert system._closed is False
            system.install_query(circle_query(0, 3.0))
            system.run(2)
        assert system._closed is True
        system.close()  # still safe after __exit__


def boundary_objects():
    """Objects on both sides of the two-stripe boundary (x = 25): the
    focal and its targets live on shard 1 so a shard-1 crash hurts."""
    return [
        make_object(0, 27, 25, max_speed=30.0),  # focal, shard 1
        make_object(1, 26, 25, vx=24.0, max_speed=30.0),  # leaves r=3
        make_object(2, 28, 26, vx=-6.0, vy=6.0, max_speed=30.0),
        make_object(3, 29, 23, vx=-12.0, max_speed=30.0),
        make_object(4, 23, 25, vx=12.0, max_speed=30.0),  # shard 0
    ]


class TestShardCrashRecovery:
    def crash_injector(self, start=6, end=10, shard=1):
        schedule = FaultSchedule(crashes=(CrashWindow(shard=shard, start=start, end=end),))
        # A short heartbeat cadence guarantees uplink traffic addressed to
        # the dead shard during the window (silent objects probe anyway).
        policy = ReliabilityPolicy(heartbeat_steps=3)
        return FaultInjector(schedule=schedule, policy=policy)

    def test_crash_requires_sharded_server(self):
        with pytest.raises(ValueError, match="shards"):
            make_system(
                boundary_objects(),
                loss=self.crash_injector(),
                checkpoint_every_steps=2,
            )

    def test_crash_requires_checkpoint_cadence(self):
        with pytest.raises(ValueError, match="checkpoint"):
            make_system(boundary_objects(), shards=2, loss=self.crash_injector())

    def test_crash_window_must_name_a_real_shard(self):
        with pytest.raises(ValueError, match="shard 5"):
            make_system(
                boundary_objects(),
                shards=2,
                checkpoint_every_steps=2,
                loss=self.crash_injector(shard=5),
            )

    def test_crash_before_the_first_basis_is_a_construction_error(self):
        # At the parent this config constructed and then raised "crash ended
        # at step 6 before the first cadence checkpoint" out of step(): the
        # only tick before the window's end (step 4) falls inside it.
        with pytest.raises(ValueError, match=r"start=2.*checkpoint_every_steps=4"):
            paper_system(
                shards=2,
                scale=0.01,
                checkpoint_every_steps=4,
                loss=self.crash_injector(start=2, end=6),
            )

    def test_crash_erases_and_recovery_rebuilds(self):
        injector = self.crash_injector(start=6, end=10, shard=1)
        system = make_system(
            boundary_objects(),
            shards=2,
            checkpoint_every_steps=2,
            loss=injector,
        )
        qid = system.install_query(circle_query(0, 3.0))
        coord = system.server
        assert coord.owner(qid) == 1

        system.run(6)  # the crash at step 6 has already fired
        assert coord.owner(qid) is None, "crash should erase the owning shard"
        assert 0 not in coord.fot
        assert not list(coord.shards[1].registry.entries())

        system.run(10)  # recovery at step 10, then reconvergence
        assert injector.drops_by_cause["uplink-crash"] > 0
        assert coord.owner(qid) == 1, "recovery should rebuild the query"
        assert 0 in coord.fot
        coord.check_invariants()
        results = system.results()
        oracle = system.oracle_results()
        assert results.get(qid, frozenset()) == oracle[qid]
        system.close()

    def test_a_checkpoint_taken_while_a_shard_is_dead_restores_it_dead(self):
        # The dead set rides in the checkpoint's partition section and the
        # injector asks the coordinator: nothing is re-derived from the
        # schedule, so the restored run drops the same uplinks.
        def build():
            system = make_system(
                boundary_objects(),
                shards=2,
                checkpoint_every_steps=2,
                loss=self.crash_injector(start=6, end=10, shard=1),
            )
            system.install_query(circle_query(0, 3.0))
            system.run(7)
            return system

        twin = build()
        with build() as system:
            resumed = restore(from_bytes(checkpoint(system).to_bytes()))
        assert resumed.server.dead_shards == twin.server.dead_shards == (1,)
        for each in (resumed, twin):
            each.run(9)
            each.check_invariants()
        assert resumed.server.dead_shards == ()
        assert resumed.crash_log == twin.crash_log and len(twin.crash_log) == 2
        drops = resumed.transport.loss.drops_by_cause
        assert drops == twin.transport.loss.drops_by_cause and drops["uplink-crash"] > 0
        assert step_hash(resumed) == step_hash(twin)
        resumed.close()
        twin.close()

    def test_surviving_shard_is_untouched(self):
        # Queries owned by the healthy shard keep exact results through a
        # neighbor's crash (its RQI stripe is rebuilt live at recovery).
        injector = self.crash_injector(start=6, end=10, shard=1)
        system = make_system(
            boundary_objects(),
            shards=2,
            checkpoint_every_steps=2,
            loss=injector,
        )
        qid = system.install_query(circle_query(4, 2.0))  # focal on shard 0
        coord = system.server
        assert coord.owner(qid) == 0
        for _ in range(16):
            system.step()
            assert coord.owner(qid) is not None
        coord.check_invariants()
        system.close()


class TestRecoveryBasis:
    def test_the_basis_is_the_server_tables_and_nests_nothing(self):
        # Deterministic byte counts, no clock read.  At the parent the basis
        # was a checkpoint of the whole world and every explicit checkpoint
        # of a cadence run carried the previous one inside it (1.99x).
        plain, cadenced = (
            paper_system(shards=2, scale=0.02, checkpoint_every_steps=every) for every in (0, 4)
        )
        with plain, cadenced:
            plain.run(9)
            cadenced.run(9)
            assert cadenced.checkpoints_taken == 2
            assert step_hash(cadenced) == step_hash(plain)
            whole = len(checkpoint(cadenced).blob)
            assert 0 < len(cadenced.recovery_basis) < whole / 10
            assert whole < 1.15 * len(checkpoint(plain).blob)


class TestChaosCrash:
    def test_chaos_crash_reconverges_to_the_twin(self):
        report = run(engine="reference", steps=24, scale=0.01, shards=2, faults="crash")
        grading = report["grading"]
        assert grading["basis"] == "twin"
        assert grading["converged"] is True
        assert report["counters"]["recovery"]["checkpoints_taken"] > 0
        (window,) = report["inputs"]["faults"]["schedule"]["crashes"]
        assert window["shard"] == 1
        # The crash really diverged the run from the fault-free twin ...
        divergence = grading["per_step"]["divergence"]
        assert any(d > 0 for d in divergence[window["start"] - 1 : window["end"]])
        # ... and the graded reconvergence window covers the crash end.
        assert any(r["window_end"] == window["end"] for r in grading["reconvergence"])
        # Satellite: the report carries the per-shard load split, its
        # seconds views under the clock key.
        assert len(report["fleet"]["shard_loads"]) == 2
        assert "seconds" not in report["fleet"]["shard_loads"][0]
        assert len(report["clock"]["shard_seconds"]) == 2
        assert report["fleet"]["load_balance"]["num_shards"] == 2
        assert "imbalance_seconds" in report["clock"]["load_balance"]

    def test_chaos_crash_requires_shards(self):
        with pytest.raises(ValueError, match="shards"):
            run(engine="reference", steps=10, scale=0.01, faults="crash")

    def test_shard_loads_absent_when_monolithic(self):
        report = run(engine="reference", steps=8, scale=0.01)
        assert report["fleet"]["shard_loads"] is None
        assert report["fleet"]["load_balance"] is None
        assert report["clock"]["shard_seconds"] is None
        assert report["clock"]["load_balance"] is None
        assert report["inputs"]["faults"]["schedule"]["crashes"] == []


class TestLeaseHandoffRace:
    def test_lease_expiry_racing_cross_shard_handoff_under_latency(self):
        # Satellite: a focal crossing the stripe boundary goes silent
        # right as its boundary-crossing report is in flight (one step of
        # uplink latency), and stays dark past the lease.  The handoff
        # and the expiry race; whatever order they land in, the
        # directories must stay coherent and the reconnect must reinstate
        # the query with exact results.
        policy = ReliabilityPolicy(lease_steps=4, heartbeat_steps=2)
        schedule = FaultSchedule(disconnects=(DisconnectWindow(oid=0, start=3, end=14),))
        injector = FaultInjector(schedule=schedule, policy=policy)
        objects = [
            make_object(0, 24.6, 25, vx=48.0, max_speed=60.0),  # crosses x=25 fast
            make_object(1, 25.5, 25, max_speed=30.0),
            make_object(2, 26.5, 26, vx=-6.0, vy=6.0, max_speed=30.0),
            make_object(3, 23.5, 24, vx=6.0, max_speed=30.0),
        ]
        system = make_system(
            objects,
            shards=2,
            loss=injector,
            uplink_latency_steps=1,
            downlink_latency_steps=1,
        )
        qid = system.install_query(circle_query(0, 3.0))
        coord = system.server
        assert coord.owner(qid) == 0

        suspended_seen = False
        for _ in range(12):
            system.step()
            entry = coord.sqt.get(qid)
            suspended_seen = suspended_seen or entry.suspended
            coord.check_invariants()
        assert suspended_seen, "the lease never expired during the dark window"
        assert 0 not in coord.fot

        system.run(12)  # reconnect at step 14: heartbeat -> reinstate
        entry = coord.sqt.get(qid)
        assert not entry.suspended
        assert 0 in coord.fot
        # The focal kept moving while dark: the reinstated query lives with
        # its focal, on whichever shard the race left them.
        assert coord.owner(qid) == coord._home_of(0) is not None
        coord.check_invariants()
        results = system.results()
        oracle = system.oracle_results()
        assert results.get(qid, frozenset()) == oracle[qid]
        system.close()
