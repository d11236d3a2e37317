"""Checkpoint/restore and shard crash-recovery tests.

The contract under test: ``restore(checkpoint(system))`` resumes
bit-identically (step hashes cover results, message counts, ledger bits,
energy, and queue depth) on both engines at any shard count; a crashed
shard loses its soft state and is rebuilt from the last periodic
checkpoint plus a grid-wide client resync, reconverging within a bounded
window.
"""

from __future__ import annotations

import pytest

from repro.core.snapshot import (
    CHECKPOINT_VERSION,
    Checkpoint,
    checkpoint,
    from_bytes,
    restore,
    step_hash,
)
from repro.faults import CrashWindow, FaultInjector, FaultSchedule, ReliabilityPolicy
from repro.faults.chaos import run_chaos
from repro.faults.schedule import DisconnectWindow
from repro.faults.channels import BernoulliChannel
from repro.sim import SimulationRng

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
    def test_restore_with_reliable_exchanges_in_flight(self, engine):
        # Lossy links under latency keep reliable exchanges open across the
        # step boundary (parked rel-* envelopes, armed retransmit timers);
        # a checkpoint taken then must resume them on the same timetable,
        # channel rolls included.
        if engine == "vectorized":
            pytest.importorskip("numpy")
        rng = SimulationRng(11)
        injector = FaultInjector(
            rng,
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

        system = paper_system(shards=1)
        system._checkpoint_every = 3
        system.run(10)
        assert system._checkpoints_taken == 3
        assert step_hash(system) == want
        system.close()

    def test_version_mismatch_rejected(self):
        system = paper_system(shards=1)
        cp = checkpoint(system)
        system.close()
        stale = Checkpoint(version=CHECKPOINT_VERSION + 1, payload=cp.payload)
        with pytest.raises(ValueError, match="version"):
            restore(stale)
        # v4 bytes (seven more config fields, list-indexed policy marks),
        # v5 bytes (whose queue may hold batched-report envelopes of a
        # deleted class) and v6 bytes (whose queue may hold reliable
        # exchanges of the old shape) are refused, not half-read.
        for old in (4, 5, 6):
            stale_bytes = Checkpoint(version=old, payload=cp.payload).to_bytes()
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
    def crash_injector(self, start=6, end=10, shard=1, seed=3):
        schedule = FaultSchedule(crashes=(CrashWindow(shard=shard, start=start, end=end),))
        # A short heartbeat cadence guarantees uplink traffic addressed to
        # the dead shard during the window (silent objects probe anyway).
        policy = ReliabilityPolicy(heartbeat_steps=3)
        return FaultInjector(SimulationRng(seed), schedule=schedule, policy=policy)

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
        assert coord.owner_of[qid] == 1

        system.run(6)  # the crash at step 6 has already fired
        assert qid not in coord.owner_of, "crash should erase the owning shard"
        assert 0 not in coord.fot
        assert not list(coord.shards[1].registry.entries())

        system.run(10)  # recovery at step 10, then reconvergence
        assert injector.drops_by_cause["uplink-crash"] > 0
        assert coord.owner_of[qid] == 1, "recovery should rebuild the query"
        assert 0 in coord.fot
        coord.check_invariants()
        results = system.results()
        oracle = system.oracle_results()
        assert results.get(qid, frozenset()) == oracle[qid]
        system.close()

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
        assert coord.owner_of[qid] == 0
        for _ in range(16):
            system.step()
            assert qid in coord.owner_of
        coord.check_invariants()
        system.close()


class TestChaosCrash:
    def test_chaos_crash_reconverges_to_the_twin(self):
        report = run_chaos(engine="reference", steps=24, scale=0.01, shards=2, crash=True)
        assert report["recovery_basis"] == "twin"
        assert report["converged"] is True
        crash = report["crash"]
        assert crash is not None
        assert crash["checkpoints_taken"] > 0
        (window,) = crash["windows"]
        assert window["shard"] == 1
        # The crash really diverged the run from the fault-free twin ...
        divergence = report["per_step"]["twin_divergence"]
        assert any(d > 0 for d in divergence[window["start"] - 1 : window["end"]])
        # ... and the graded reconvergence window covers the crash end.
        assert any(r["window_end"] == window["end"] for r in report["reconvergence"])
        # Satellite: the chaos report carries the per-shard load split,
        # seconds views included (the report's bit-identity carve-out).
        assert len(report["shard_loads"]) == 2
        assert "seconds" in report["shard_loads"][0]
        assert report["load_balance"]["num_shards"] == 2
        assert "imbalance_seconds" in report["load_balance"]

    def test_chaos_crash_requires_shards(self):
        with pytest.raises(ValueError, match="shards"):
            run_chaos(engine="reference", steps=10, scale=0.01, crash=True)

    def test_shard_loads_absent_when_monolithic(self):
        report = run_chaos(engine="reference", steps=8, scale=0.01)
        assert report["shard_loads"] is None
        assert report["load_balance"] is None
        assert report["crash"] is None


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
        injector = FaultInjector(SimulationRng(5), schedule=schedule, policy=policy)
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
        assert coord.owner_of[qid] == 0

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
        # The focal kept moving while dark: the reinstated query lives on
        # the shard that owns its current cell, wherever the race left it.
        home = coord.owner_of[qid]
        (owner,) = {
            shard.shard_id for shard in coord.shards if qid in shard.registry
        } or {home}
        assert owner == home
        coord.check_invariants()
        results = system.results()
        oracle = system.oracle_results()
        assert results.get(qid, frozenset()) == oracle[qid]
        system.close()
