"""Unit tests for the MobiEyes server (installation, handlers, RQI)."""

import pytest

from repro.core.messages import (
    CellChangeReport,
    QueryInstallBroadcast,
    ResultChangeReport,
    VelocityChangeReport,
)
from repro.core import PropagationMode

from tests.conftest import circle_query, make_object, make_system


class TestInstallQuery:
    def test_install_creates_sqt_and_rqi_entries(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        server = small_world.server
        assert qid in server.sqt
        entry = server.sqt.get(qid)
        assert entry.oid == 0
        assert entry.curr_cell == (5, 5)  # (25, 25) with alpha=5
        for cell in entry.mon_region:
            assert qid in server.rqi.queries_at(cell)

    def test_install_populates_fot_via_state_request(self, small_world):
        small_world.install_query(circle_query(0, 2.0))
        assert 0 in small_world.server.fot
        assert small_world.server.fot.get(0).state.pos.x == 25

    def test_focal_object_learns_its_role(self, small_world):
        small_world.install_query(circle_query(0, 2.0))
        assert small_world.client(0).has_mq

    def test_objects_in_monitoring_region_install(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        # objects 1, 2, 4 share / neighbour the focal cell
        for oid in (1, 2, 4):
            assert qid in small_world.client(oid).lqt
        # object 3 is far outside the monitoring region
        assert qid not in small_world.client(3).lqt

    def test_focal_object_does_not_monitor_own_query(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        assert qid not in small_world.client(0).lqt

    def test_unknown_focal_raises(self, small_world):
        with pytest.raises(KeyError):
            small_world.install_query(circle_query(99, 2.0))

    def test_distinct_qids(self, small_world):
        a = small_world.install_query(circle_query(0, 2.0))
        b = small_world.install_query(circle_query(1, 1.0))
        assert a != b

    def test_filter_blocks_install(self, small_world):
        class Never:
            def matches(self, props):
                return False

        qid = small_world.install_query(circle_query(0, 2.0, Never()))
        for oid in (1, 2, 3, 4):
            assert qid not in small_world.client(oid).lqt


class TestRemoveQuery:
    def test_remove_cleans_everything(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        small_world.remove_query(qid)
        server = small_world.server
        assert qid not in server.sqt
        assert 0 not in server.fot
        assert not small_world.client(0).has_mq
        for oid in (1, 2, 3, 4):
            assert qid not in small_world.client(oid).lqt
        server.check_invariants()

    def test_remove_keeps_focal_role_with_other_queries(self, small_world):
        a = small_world.install_query(circle_query(0, 2.0))
        b = small_world.install_query(circle_query(0, 4.0))
        small_world.remove_query(a)
        assert small_world.client(0).has_mq
        assert 0 in small_world.server.fot
        assert b in small_world.server.sqt


class TestVelocityChangeHandling:
    def test_updates_fot_and_rebroadcasts(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        obj0 = small_world.client(0).obj
        obj0.vel = obj0.vel.__class__(50.0, 0.0)
        state = obj0.snapshot()
        small_world.transport.uplink(VelocityChangeReport(oid=0, state=state))
        assert small_world.server.fot.get(0).state.vel.x == 50.0
        # Objects in the monitoring region saw the fresh state.
        assert small_world.client(1).lqt.get(qid).focal_state.vel.x == 50.0

    def test_stale_report_for_non_focal_ignored(self, small_world):
        state = small_world.client(3).obj.snapshot()
        small_world.transport.uplink(VelocityChangeReport(oid=3, state=state))
        assert 3 not in small_world.server.fot


class TestCellChangeHandling:
    def test_focal_cell_change_moves_monitoring_region(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        server = small_world.server
        old_region = server.sqt.get(qid).mon_region
        # Teleport the focal object two cells east and report it.
        client0 = small_world.client(0)
        client0.obj.pos = client0.obj.pos.__class__(36.0, 25.0)
        small_world.transport.uplink(
            CellChangeReport(oid=0, prev_cell=(5, 5), new_cell=(7, 5), state=client0.obj.snapshot())
        )
        new_region = server.sqt.get(qid).mon_region
        assert new_region != old_region
        assert server.sqt.get(qid).curr_cell == (7, 5)
        server.check_invariants()

    def test_non_focal_gets_new_queries_on_cell_change(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        client3 = small_world.client(3)  # far away, no queries
        assert qid not in client3.lqt
        # Move object 3 next to the focal object; its own report phase
        # detects the cell change, uplinks it, and receives the install
        # list synchronously.
        client3.obj.pos = client3.obj.pos.__class__(27.0, 25.0)
        client3.report_phase(small_world.clock)
        assert qid in client3.lqt

    def test_rqi_diff_suppresses_redundant_installs(self, small_world):
        """Moving between two cells inside the same monitoring region must
        not re-send the query (RQI(new) - RQI(prev) is empty)."""
        qid = small_world.install_query(circle_query(0, 2.0))
        before = small_world.ledger.counts_by_type.get("QueryInstallList", 0)
        small_world.transport.uplink(
            CellChangeReport(oid=1, prev_cell=(5, 5), new_cell=(5, 6))
        )
        after = small_world.ledger.counts_by_type.get("QueryInstallList", 0)
        assert after == before
        assert qid in small_world.client(1).lqt


class TestResultChangeHandling:
    def test_add_and_remove_target(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        small_world.transport.uplink(ResultChangeReport(oid=1, changes={qid: True}))
        assert small_world.result(qid) == frozenset({1})
        small_world.transport.uplink(ResultChangeReport(oid=1, changes={qid: False}))
        assert small_world.result(qid) == frozenset()

    def test_report_for_removed_query_ignored(self, small_world):
        qid = small_world.install_query(circle_query(0, 2.0))
        small_world.remove_query(qid)
        small_world.transport.uplink(ResultChangeReport(oid=1, changes={qid: True}))
        # no crash, no resurrection
        assert qid not in small_world.server.sqt


class TestGroupedBroadcasts:
    def test_same_focal_same_region_shares_broadcast(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, grouping=True)
        system.install_query(circle_query(0, 2.0))
        system.install_query(circle_query(0, 2.2))  # same monitoring region
        before = system.ledger.counts_by_type.get("VelocityChangeBroadcast", 0)
        client0 = system.client(0)
        client0.obj.vel = client0.obj.vel.__class__(40.0, 0.0)
        system.transport.uplink(VelocityChangeReport(oid=0, state=client0.obj.snapshot()))
        broadcasts = system.ledger.counts_by_type["VelocityChangeBroadcast"] - before
        # Monitoring region fits under one base station here: one message.
        assert broadcasts == 1

    def test_grouping_disabled_broadcasts_separately(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, grouping=False)
        system.install_query(circle_query(0, 2.0))
        system.install_query(circle_query(0, 2.2))
        before = system.ledger.counts_by_type.get("VelocityChangeBroadcast", 0)
        client0 = system.client(0)
        client0.obj.vel = client0.obj.vel.__class__(40.0, 0.0)
        system.transport.uplink(VelocityChangeReport(oid=0, state=client0.obj.snapshot()))
        broadcasts = system.ledger.counts_by_type["VelocityChangeBroadcast"] - before
        assert broadcasts == 2


class TestLazyPropagationServer:
    def test_velocity_broadcast_carries_descriptors(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, propagation=PropagationMode.LAZY)
        qid = system.install_query(circle_query(0, 2.0))
        # Wipe object 1's LQT to simulate a missed install.
        system.client(1).lqt.remove(qid)
        client0 = system.client(0)
        client0.obj.vel = client0.obj.vel.__class__(40.0, 0.0)
        system.transport.uplink(VelocityChangeReport(oid=0, state=client0.obj.snapshot()))
        # The expanded broadcast healed the missing install.
        assert qid in system.client(1).lqt


class TestServerLoadAccounting:
    def test_load_accumulates_and_resets(self, small_world):
        # "Resets" is the step sample's view: the account itself only goes
        # up, and each step's figure is the difference since the last one.
        small_world.install_query(circle_query(0, 2.0))
        server = small_world.server
        seconds, ops = server.load_totals()
        assert seconds > 0.0
        assert ops > 0
        assert server.load_totals() == (seconds, ops)  # reading takes nothing
        small_world.step()
        first = small_world.metrics.steps[-1]
        assert first.server_ops == server.load_totals()[1] >= ops  # install included
        small_world.step()
        second = small_world.metrics.steps[-1]
        assert second.server_ops == server.load_totals()[1] - first.server_ops
        assert second.server_seconds == pytest.approx(
            server.load_totals()[0] - first.server_seconds
        )

    def test_only_the_outermost_section_is_timed_and_pauses_are_excluded(self, monkeypatch):
        from types import SimpleNamespace

        from repro.core import LoadAccount, load

        # Only the load module's view of the clock, not the process's.
        ticks = iter(range(100))
        monkeypatch.setattr(load, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        account = LoadAccount()
        with account.timed():  # clock read 0
            with account.timed():  # nested: no clock read
                pass
            with account.paused():  # read 1 closes the span, read 2 reopens it
                pass
        # read 3 closes it: (1 - 0) + (3 - 2), the pause's own tick left out.
        assert account.seconds == 2.0
        with account.timed() as section:
            assert section is account
        assert account.seconds == 3.0
