"""Tests for i.i.d. wireless message loss: a fault injector with Bernoulli
channels, the one loss seam."""

import pytest

from repro.core.messages import MotionStateRequest, VelocityChangeReport
from repro.faults import BernoulliChannel, FaultInjector
from repro.geometry import Point, Vector
from repro.mobility import MotionState
from repro.sim import SimulationRng

from tests.conftest import circle_query, make_object, make_system


def velocity_report():
    return VelocityChangeReport(
        oid=1, state=MotionState(pos=Point(0, 0), vel=Vector(0, 0), recorded_at=0.0)
    )


def iid(seed, uplink=0.0, downlink=0.0):
    """An injector whose only faults are Bernoulli channels on both links."""
    rng = SimulationRng(seed)
    return FaultInjector(
        uplink_channel=BernoulliChannel(rng, rate=uplink),
        downlink_channel=BernoulliChannel(rng, rate=downlink),
    )


class TestLossModel:
    def test_zero_rate_never_drops(self):
        loss = iid(1)
        assert not any(loss.drop_uplink(velocity_report()) for _ in range(100))
        assert not any(loss.drop_delivery(velocity_report(), 1) for _ in range(100))

    def test_full_rate_always_drops(self):
        loss = iid(1, uplink=1.0, downlink=1.0)
        assert all(loss.drop_uplink(velocity_report()) for _ in range(50))
        assert all(loss.drop_delivery(velocity_report(), 1) for _ in range(50))

    def test_reliable_types_are_dropped_and_retransmitted(self):
        # No exemption: the channel drops a control-plane message like any
        # other, and the reliability layer pays for the retries.
        loss = iid(1, uplink=1.0, downlink=1.0)
        request = MotionStateRequest(oid=1)
        assert loss.drop_uplink(request)
        assert loss.drop_delivery(request, 1)
        system = make_system([make_object(0, 25, 25)], loss=iid(1, downlink=1.0))
        assert system.transport.send(0, MotionStateRequest(oid=0)) is False
        assert system.ledger.counts_by_type["MotionStateRequest"] == loss.policy.max_attempts

    def test_counters(self):
        loss = iid(1, uplink=1.0)
        for _ in range(5):
            loss.drop_uplink(velocity_report())
        assert loss.dropped_uplinks == 5
        assert loss.dropped_deliveries == 0
        assert loss.drops_by_cause == {"uplink-channel": 5}

    def test_intermediate_rate_statistics(self):
        loss = iid(2, downlink=0.3)
        drops = sum(loss.drop_delivery(velocity_report(), 1) for _ in range(2000))
        assert 0.2 < drops / 2000 < 0.4

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            iid(1, uplink=1.5)


class TestSystemUnderLoss:
    def build(self, uplink=0.0, downlink=0.0, seed=3):
        """Channels attach after the install, as the loss ablation does:
        a round trip the channel kept losing would abort the install."""
        objects = [
            make_object(0, 25, 25, vx=40.0, vy=10.0),
            make_object(1, 26, 25, vx=-20.0, vy=30.0),
            make_object(2, 28, 27, vx=15.0, vy=-25.0),
            make_object(3, 20, 20, vx=35.0, vy=5.0),
        ]
        rng = SimulationRng(seed)
        loss = FaultInjector()
        system = make_system(objects, velocity_changes_per_step=2, loss=loss)
        system.install_query(circle_query(0, 3.0))
        loss.uplink_channel = BernoulliChannel(rng, rate=uplink)
        loss.downlink_channel = BernoulliChannel(rng, rate=downlink)
        return system, loss

    def test_zero_loss_stays_exact(self):
        system, _loss = self.build()
        system.run(10)
        assert system.metrics.mean_result_error() == 0.0

    def test_lossy_system_keeps_running(self):
        system, loss = self.build(uplink=0.3, downlink=0.3)
        for _ in range(20):
            system.step()
            system.check_invariants()
        assert loss.dropped_uplinks + loss.dropped_deliveries > 0
        error = system.metrics.mean_result_error()
        assert error is None or 0.0 <= error <= 1.0

    def test_installation_survives_full_steady_state_loss(self):
        # Soft state: with every transmission lost, the server keeps the
        # installed query and suspends it only once the focal's lease runs
        # out; the client still holds its role.
        system, loss = self.build(uplink=1.0, downlink=1.0)
        (qid,) = system.server.sqt.ids()
        system.run(loss.policy.lease_steps)
        assert system.client(0).has_mq
        assert 0 in system.server.fot
        assert not system.server.sqt.get(qid).suspended

    def test_loss_reduces_delivered_not_counted_messages(self):
        clean, _ = self.build()
        lossy, loss = self.build(uplink=0.5, downlink=0.5)
        clean.run(10)
        lossy.run(10)
        # Messages are counted on the medium whether or not they arrive, and
        # what is lost is paid for again: retransmissions, heartbeats and
        # resyncs outweigh the follow-up traffic a lost report never earns.
        assert loss.dropped_uplinks and loss.dropped_deliveries
        assert lossy.metrics.messages_per_second() > clean.metrics.messages_per_second()
