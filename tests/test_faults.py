"""Tests for the fault-injection subsystem: channels, schedules, the
ack/retransmit reliability layer, recovery/reconvergence, and the chaos
harness's determinism."""

from __future__ import annotations

import typing

import pytest

from repro.core.messages import (
    Ack,
    DownlinkMessage,
    FocalRoleNotification,
    Heartbeat,
    MotionStateRequest,
    MotionStateResponse,
    QueryInstallBroadcast,
    ResyncRequest,
    ResyncResponse,
    UplinkMessage,
    VelocityChangeReport,
)
from repro.faults import (
    BernoulliChannel,
    DisconnectWindow,
    FaultInjector,
    FaultSchedule,
    GilbertElliottChannel,
    ReliabilityPolicy,
    StationOutage,
)
from repro.fastpath import numpy_available
from repro.geometry import Point, Rect, Vector
from repro.grid import Grid
from repro.mobility import MotionState
from repro.network.basestation import BaseStationLayout
from repro.sim import SimulationRng

from tests.conftest import circle_query, make_object, make_system

# The control plane: messages whose loss would wedge the protocol, and
# which therefore ride the ack/retransmit layer under fault injection.
CONTROL_PLANE = {
    MotionStateRequest,
    MotionStateResponse,
    FocalRoleNotification,
    Heartbeat,
    ResyncRequest,
    ResyncResponse,
}


def all_message_types():
    return set(typing.get_args(UplinkMessage)) | set(typing.get_args(DownlinkMessage))


class TestReliableAttribute:
    def test_every_message_type_declares_reliable(self):
        for cls in all_message_types():
            assert "reliable" in cls.__dict__, f"{cls.__name__} does not declare `reliable`"
            assert isinstance(cls.reliable, bool)

    def test_control_plane_is_exactly_the_reliable_set(self):
        reliable = {cls for cls in all_message_types() if cls.reliable}
        assert reliable == CONTROL_PLANE

    def test_acks_are_not_reliable(self):
        # An ack of an ack would recurse forever; retransmission covers
        # lost acks instead.
        assert Ack.reliable is False


class TestChannels:
    def test_bernoulli_rate_statistics_and_determinism(self):
        drops_a = [BernoulliChannel(SimulationRng(5), rate=0.3).roll() for _ in range(1)]
        channel_a = BernoulliChannel(SimulationRng(5), rate=0.3)
        channel_b = BernoulliChannel(SimulationRng(5), rate=0.3)
        rolls_a = [channel_a.roll() for _ in range(2000)]
        rolls_b = [channel_b.roll() for _ in range(2000)]
        assert rolls_a == rolls_b
        assert 0.2 < sum(rolls_a) / 2000 < 0.4
        assert drops_a  # rate > 0 consumed randomness on the first roll

    def test_bernoulli_zero_rate_consumes_no_randomness(self):
        rng = SimulationRng(5)
        before = rng.random()
        rng = SimulationRng(5)
        channel = BernoulliChannel(rng, rate=0.0)
        assert not any(channel.roll() for _ in range(10))
        assert rng.random() == before

    def test_gilbert_elliott_mean_and_bursts(self):
        channel = GilbertElliottChannel.with_mean_rate(SimulationRng(11), 0.1)
        assert (channel.loss_good, channel.loss_bad) == (0.0, 1.0)
        assert channel.mean_loss_rate == pytest.approx(0.1)
        rolls = [channel.roll() for _ in range(20000)]
        assert 0.06 < sum(rolls) / len(rolls) < 0.14
        # Burstiness: with loss_bad=1.0 every bad-state step drops, so
        # multi-drop runs must appear (an iid channel at 10% would make a
        # 4-run vanishingly rare in aggregate).
        run, longest = 0, 0
        for dropped in rolls:
            run = run + 1 if dropped else 0
            longest = max(longest, run)
        assert longest >= 4

    def test_gilbert_elliott_determinism(self):
        a = GilbertElliottChannel(SimulationRng(3))
        b = GilbertElliottChannel(SimulationRng(3))
        assert [a.roll() for _ in range(500)] == [b.roll() for _ in range(500)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BernoulliChannel(SimulationRng(1), rate=1.5)
        with pytest.raises(ValueError):
            GilbertElliottChannel(SimulationRng(1), loss_bad=-0.1)


class TestScheduleAndInjector:
    def test_windows_are_half_open(self):
        window = DisconnectWindow(oid=3, start=5, end=8)
        assert not window.active(4)
        assert window.active(5)
        assert window.active(7)
        assert not window.active(8)

    def test_empty_windows_rejected(self):
        with pytest.raises(ValueError):
            DisconnectWindow(oid=1, start=5, end=5)
        with pytest.raises(ValueError):
            StationOutage(bsid=0, start=9, end=3)

    def test_schedule_at(self):
        schedule = FaultSchedule(
            disconnects=(DisconnectWindow(oid=1, start=2, end=4),),
            outages=(StationOutage(bsid=7, start=3, end=5),),
        )
        assert schedule.at(1) == (frozenset(), frozenset())
        assert schedule.at(3) == (frozenset({1}), frozenset({7}))
        assert schedule.last_step == 4
        assert schedule.describe()["outages"][0]["bsid"] == 7

    def test_injector_drops_by_cause(self):
        grid = Grid(Rect(0, 0, 50, 50), 5.0)
        layout = BaseStationLayout(grid, 10.0)
        center_bsid = layout.station_at_tile(layout.tile_of_point(Point(25, 25))).bsid
        schedule = FaultSchedule(
            disconnects=(DisconnectWindow(oid=1, start=1, end=3),),
            outages=(StationOutage(bsid=center_bsid, start=1, end=3),),
        )
        injector = FaultInjector(schedule=schedule)
        injector.bind(layout, lambda oid: Point(25, 25))
        injector.begin_step(1)
        report = VelocityChangeReport(
            oid=1, state=MotionState(pos=Point(25, 25), vel=Vector(0, 0), recorded_at=0.0)
        )
        assert injector.offline(1)
        assert injector.carrier_lost(1)
        assert injector.drop_uplink(report)  # disconnect wins over outage
        report2 = VelocityChangeReport(
            oid=2, state=MotionState(pos=Point(25, 25), vel=Vector(0, 0), recorded_at=0.0)
        )
        assert injector.station_dead_for(2)
        assert injector.drop_uplink(report2)
        injector.begin_step(5)
        assert not injector.carrier_lost(1)
        assert not injector.drop_uplink(report)
        counters = injector.counters()
        assert counters["by_cause"] == {"uplink-disconnect": 1, "uplink-outage": 1}
        assert counters["dropped_uplinks"] == 2


def cluster_objects():
    """Objects near the center of the 50x50 world (base-station tile
    [20,30)^2), moving slowly enough to stay close during the test."""
    return [
        make_object(0, 25, 25, max_speed=30.0),  # focal, stationary
        make_object(1, 24, 25, vx=24.0, max_speed=30.0),  # exits r=3 during outage
        make_object(2, 26, 26, vx=-6.0, vy=6.0, max_speed=30.0),
        make_object(3, 23, 24, vx=6.0, vy=-6.0, max_speed=30.0),
        make_object(4, 27, 23, vx=-12.0, max_speed=30.0),
        make_object(5, 22, 27, vy=-6.0, max_speed=30.0),
    ]


def center_outage_injector(start=5, end=25, **kwargs):
    grid = Grid(Rect(0, 0, 50, 50), 5.0)
    layout = BaseStationLayout(grid, 10.0)
    center_bsid = layout.station_at_tile(layout.tile_of_point(Point(25, 25))).bsid
    schedule = FaultSchedule(outages=(StationOutage(bsid=center_bsid, start=start, end=end),))
    return FaultInjector(schedule=schedule, **kwargs)


def symmetric_error(system) -> int:
    results = system.results()
    oracle = system.oracle_results()
    return sum(len(results.get(qid, frozenset()) ^ oracle[qid]) for qid in oracle)


class TestReliabilityLayer:
    def build_lossy(self, rate=0.5, seed=9):
        rng = SimulationRng(seed)
        injector = FaultInjector(
            uplink_channel=BernoulliChannel(rng, rate=rate),
            downlink_channel=BernoulliChannel(rng, rate=rate),
        )
        system = make_system(cluster_objects(), loss=injector, velocity_changes_per_step=2)
        system.install_query(circle_query(0, 3.0))
        return system, injector

    def test_acks_and_retransmissions_are_charged_to_the_ledger(self):
        system, _injector = self.build_lossy()
        system.run(15)
        reliability = system.transport.reliability
        counts = system.ledger.counts_by_type
        assert counts["Ack"] > 0
        assert counts["Ack"] == reliability.acks_sent
        assert reliability.retransmissions > 0
        # Retransmissions are real wire messages: the heartbeat count on
        # the medium exceeds the number of logical heartbeat sends.
        assert counts["Heartbeat"] >= 1

    def test_reliable_exchange_survives_heavy_loss(self):
        # At 50% iid loss, 4 attempts fail with probability (1 - 0.5**2)**4
        # per message, so installation completes with near-certainty and
        # the system keeps serving queries.
        system, injector = self.build_lossy()
        assert system.client(0).has_mq
        assert 0 in system.server.fot
        system.run(10)
        assert injector.dropped_uplinks + injector.dropped_deliveries > 0

    def test_reliable_send_to_unregistered_receiver_fails(self):
        system, _injector = self.build_lossy()
        reliability = system.transport.reliability
        failures_before = reliability.failures
        assert system.transport.send(999, MotionStateRequest(oid=999)) is False
        assert reliability.failures == failures_before + 1

    def test_duplicate_deliveries_are_suppressed(self):
        # Force ack loss: downlink channel at 100% drops every downlink,
        # including the acks of reliable uplinks, so each reliable uplink
        # retries max_attempts times while the server sees it only once.
        rng = SimulationRng(4)
        injector = FaultInjector(
            policy=ReliabilityPolicy(max_attempts=3),
            downlink_channel=BernoulliChannel(rng, rate=1.0),
        )
        objects = [make_object(0, 25, 25, max_speed=30.0)]
        system = make_system(objects, loss=injector)
        with pytest.raises(KeyError):
            # Installation needs a MotionStateRequest round trip, which can
            # never complete when every downlink dies.
            system.install_query(circle_query(0, 3.0))
        reliability = system.transport.reliability
        assert reliability.failures > 0
        system.run(6)  # heartbeats: delivered to the server, acks all drop
        assert reliability.duplicates_suppressed > 0
        assert reliability.ack_drops > 0


class TestBroadcastUnregisteredReceivers:
    def test_no_loss_roll_and_no_drop_count_for_missing_radio(self):
        rng = SimulationRng(2)
        loss = FaultInjector()
        system = make_system(cluster_objects(), loss=loss)
        system.install_query(circle_query(0, 3.0))
        loss.downlink_channel = BernoulliChannel(rng, rate=1.0)
        loss.dropped_deliveries = 0
        # Two more objects in the region, 6 and 7, whose radios never attached.
        transport = system.transport
        positions = [(obj.oid, obj.pos) for obj in system.motion.objects]
        transport.coverage.rebuild(positions + [(6, Point(25, 24)), (7, Point(24, 26))])
        region = system.server.sqt.get(1).mon_region
        transport.broadcast(region, QueryInstallBroadcast(queries=()))
        # Exactly the registered receivers rolled (and, at rate 1.0,
        # dropped); the two without a radio were skipped entirely.
        assert loss.dropped_deliveries == 6

    def test_unregistered_receiver_consumes_no_randomness(self):
        rng = SimulationRng(6)
        loss = FaultInjector(downlink_channel=BernoulliChannel(rng, rate=0.5))
        system = make_system(cluster_objects(), loss=loss)
        message = QueryInstallBroadcast(queries=())
        baseline = SimulationRng(6).random()
        assert system.transport._deliver((999,), message) is False
        assert system.transport._deliver((999,), message) is False
        assert loss.dropped_deliveries == 0
        # The channel's rng was never rolled: there is no radio to miss
        # the message, so no drop decision exists to randomize.
        assert rng.random() == baseline


class TestOutageRecovery:
    """Acceptance: a 20-step base-station outage over the populated center,
    after which the protocol must reconverge to the exact oracle."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_reconverges_after_station_outage(self, engine):
        if engine == "vectorized":
            pytest.importorskip("numpy")
        injector = center_outage_injector(start=5, end=25)
        system = make_system(cluster_objects(), loss=injector, engine=engine)
        system.install_query(circle_query(0, 3.0))

        errors = []
        for _ in range(40):
            system.step()
            errors.append(symmetric_error(system))
            system.check_invariants()

        # The outage really cut traffic and really caused staleness.
        assert injector.drops_by_cause["uplink-outage"] > 0
        assert any(e > 0 for e in errors[15:27]), "outage never perturbed the results"
        # Bounded reconvergence: carrier sensing marks the affected
        # clients suspect during the outage; the first acked heartbeat
        # (cadence 5) schedules a resync, which lands one step later and
        # feeds that step's evaluation.  One extra step of slack covers
        # an in-flight differential.
        policy = injector.policy
        settle = 25 + policy.heartbeat_steps + 2
        assert all(e == 0 for e in errors[settle:]), errors
        # Reliability machinery visible in the ledger.
        counts = system.ledger.counts_by_type
        assert counts["Ack"] > 0
        assert counts["Heartbeat"] > 0
        assert counts["ResyncRequest"] > 0
        assert system.transport.reliability.retransmissions > 0

    def test_lease_expiry_suspends_and_reinstates(self):
        # Disconnect the focal object long enough for its lease to lapse:
        # the server must suspend its queries (FOT/RQI withdrawal, results
        # purged) and reinstate them when the object resurfaces.
        policy = ReliabilityPolicy(lease_steps=6, heartbeat_steps=3)
        schedule = FaultSchedule(disconnects=(DisconnectWindow(oid=0, start=2, end=14),))
        injector = FaultInjector(schedule=schedule, policy=policy)
        system = make_system(cluster_objects(), loss=injector)
        qid = system.install_query(circle_query(0, 3.0))

        events = []
        system.subscribe(qid, lambda q, oid, entered: events.append((q, oid, entered)))
        system.run(12)
        entry = system.server.sqt.get(qid)
        assert entry.suspended
        assert 0 not in system.server.fot
        assert entry.result == set()
        assert any(not entered for (_q, _oid, entered) in events), "no leave callbacks fired"
        system.check_invariants()

        system.run(10)  # object reconnects at step 14 and reinstates
        entry = system.server.sqt.get(qid)
        assert not entry.suspended
        assert 0 in system.server.fot
        system.check_invariants()
        assert symmetric_error(system) == 0


class TestDeterminism:
    """Satellite: identical seeds give identical drop counters and result
    hashes, on one engine and across both engines."""

    def test_chaos_report_is_bit_identical_across_runs(self):
        from repro.driver import run

        a = run(engine="reference", steps=16, scale=0.01, seed=7)
        b = run(engine="reference", steps=16, scale=0.01, seed=7)
        assert a.pop("clock") is not None and b.pop("clock") is not None
        assert a == b

    @pytest.mark.parametrize("burst", [False, True])
    def test_engines_agree_on_drops_and_results(self, burst):
        pytest.importorskip("numpy")
        from repro.driver import engine_mismatch, run

        kwargs = dict(
            steps=16, scale=0.01, seed=11, uplink_loss=0.1, downlink_loss=0.1, burst=burst
        )
        ref = run(engine="reference", **kwargs)
        fast = run(engine="vectorized", **kwargs)
        assert ref["result_hash"] == fast["result_hash"]
        for key in ("injector", "reliability", "message_counts"):
            assert ref["counters"][key] == fast["counters"][key], f"engines disagree on {key}"
        assert ref["grading"]["per_step"] == fast["grading"]["per_step"]
        # ... and on every other non-clock value.
        assert engine_mismatch({"reference": ref, "vectorized": fast}) == []

    def test_different_seeds_differ(self):
        from repro.driver import run

        a = run(engine="reference", steps=16, scale=0.01, seed=7)
        b = run(engine="reference", steps=16, scale=0.01, seed=8)
        assert (
            a["result_hash"] != b["result_hash"]
            or a["counters"]["injector"] != b["counters"]["injector"]
        )


class TestDriverCombinations:
    """Inputs the two retired harnesses could not run together."""

    def test_storm_crash_and_ingest_converge_on_both_engines(self):
        """The fault storm, a shard crash and the ingest script at 2 shards,
        graded against the twin fed the same script."""
        from repro.driver import run

        engines = ["reference"] + (["vectorized"] if numpy_available() else [])
        reports = {
            engine: run(
                engine=engine, steps=30, scale=0.015, shards=2, faults="crash",
                ingest_rate=4, ingest_budget=3, query_churn=6,
            )
            for engine in engines
        }
        divergences = set()
        for report in reports.values():
            grading, counters = report["grading"], report["counters"]
            assert grading["basis"] == "twin" and grading["converged"], grading["reconvergence"]
            (window,) = report["inputs"]["faults"]["schedule"]["crashes"]
            assert any(grading["per_step"]["divergence"][window["start"] - 1 : window["end"]])
            assert grading["per_step"]["divergence"][-1] == 0
            for service in (counters["service"], counters["twin_service"]):
                assert service["submitted"] > 0 and service["backpressure_rejects"] > 0
                assert service["submitted"] == (
                    service["applied"] + service["backpressure_rejects"]
                    + service["invalid_rejects"] + service["queued"]
                )
            divergences.add(tuple(grading["per_step"]["divergence"]))
        assert len(divergences) == 1

    def test_crash_and_elastic_schedule_are_refused(self):
        from repro.driver import run

        with pytest.raises(ValueError, match="cannot be combined with elastic_schedule"):
            run(engine="reference", steps=12, scale=0.01, shards=2, faults="crash", fleet="schedule")


class TestChaosCli:
    def test_chaos_cli_output_is_bit_identical(self, tmp_path, capsys):
        import json

        from repro.cli import main

        argv = [
            "drive",
            "--engine",
            "reference",
            "--steps",
            "20",
            "--scale",
            "0.01",
            "--tag",
            "t",
            "--output",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        artifact = (tmp_path / "DRIVE_t.json").read_text()
        assert artifact.strip() in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Equal apart from the clock.
        first, second = json.loads(first), json.loads(second)
        assert first.pop("clock") is not None and second.pop("clock") is not None
        assert first == second

    def test_chaos_cli_smoke_converges(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["drive", "--engine", "reference", "--tag", "smoke", "--output", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert '"converged": true' in out
        assert (tmp_path / "DRIVE_smoke.json").exists()
