"""Tests for static continuous queries (fixed regions, no focal object)."""

import pytest

from repro.core import MovingQuery, PropagationMode, QuerySpec, TrueFilter
from repro.core.server import STATIC_BEACON_STEPS
from repro.geometry import Circle, Point, Rect, Vector

from tests.conftest import make_object, make_system


def static_circle(cx, cy, r):
    return QuerySpec.static(Circle(cx, cy, r))


class TestStaticQueryModel:
    def test_static_spec(self):
        spec = static_circle(20, 20, 3)
        assert spec.is_static
        assert spec.oid is None

    def test_static_allows_offcenter_circle(self):
        # Absolute regions are not origin-bound.
        QuerySpec.static(Circle(30, 40, 2))

    def test_static_query_region_at_ignores_focal(self):
        q = MovingQuery(qid=1, oid=None, region=Circle(20, 20, 3), filter=TrueFilter())
        assert q.is_static
        assert q.region_at(None) == Circle(20, 20, 3)
        assert q.region_at(Point(99, 99)) == Circle(20, 20, 3)

    def test_static_reach_undefined(self):
        q = MovingQuery(qid=1, oid=None, region=Circle(20, 20, 3), filter=TrueFilter())
        with pytest.raises(TypeError):
            _ = q.reach

    def test_moving_query_still_needs_focal(self):
        q = MovingQuery(qid=1, oid=5, region=Circle(0, 0, 3), filter=TrueFilter())
        with pytest.raises(ValueError):
            q.region_at(None)


class TestStaticQueriesEndToEnd:
    def build(self, **kwargs):
        objects = [
            make_object(0, 19, 20, vx=30.0),       # near the fence, moving in
            make_object(1, 21, 21),                 # inside
            make_object(2, 40, 40, vx=-100.0, vy=-100.0),  # far, approaching
            make_object(3, 5, 5),                   # far, static
        ]
        return make_system(objects, **kwargs)

    def test_results_match_oracle(self):
        system = self.build()
        qid = system.install_query(static_circle(20, 20, 3))
        for _ in range(10):
            system.step()
            assert system.result(qid) == system.oracle_results()[qid]

    def test_no_focal_bookkeeping(self):
        system = self.build()
        system.install_query(static_circle(20, 20, 3))
        assert len(system.server.fot) == 0
        assert not any(c.has_mq for c in system.clients.values())

    def test_no_velocity_broadcast_traffic(self):
        system = self.build()
        system.install_query(static_circle(20, 20, 3))
        system.run(8)
        assert system.ledger.counts_by_type.get("VelocityChangeBroadcast", 0) == 0

    def test_entering_object_installs_query_on_cell_change(self):
        system = self.build()
        qid = system.install_query(static_circle(20, 20, 3))
        client2 = system.client(2)
        assert qid not in client2.lqt
        for _ in range(35):  # ~0.83 mi/step: reaching the fence takes ~25
            system.step()
            if qid in client2.lqt:
                break
        assert qid in client2.lqt

    def test_remove_static_query(self):
        system = self.build()
        qid = system.install_query(static_circle(20, 20, 3))
        system.run(2)
        system.remove_query(qid)
        system.run(2)
        for client in system.clients.values():
            assert qid not in client.lqt
        system.check_invariants()

    def test_mixed_static_and_moving(self):
        system = self.build()
        q_static = system.install_query(static_circle(20, 20, 3))
        q_moving = system.install_query(QuerySpec(oid=0, region=Circle(0, 0, 2.0)))
        for _ in range(8):
            system.step()
            oracle = system.oracle_results()
            assert system.result(q_static) == oracle[q_static]
            assert system.result(q_moving) == oracle[q_moving]

    def test_static_with_optimizations(self):
        system = self.build(grouping=True, safe_period=True)
        qid = system.install_query(static_circle(20, 20, 3))
        qid2 = system.install_query(static_circle(8, 8, 4))
        for _ in range(10):
            system.step()
            oracle = system.oracle_results()
            assert system.result(qid) == oracle[qid]
            assert system.result(qid2) == oracle[qid2]

    def test_safe_period_skips_far_static_fence(self):
        objects = [make_object(0, 45, 45, max_speed=10.0)]
        system = make_system(objects, alpha=50.0, safe_period=True)
        system.install_query(static_circle(5, 5, 2))
        system.run(3)
        assert system.metrics.steps[-1].skipped_by_safe_period >= 1

    def test_rect_static_fence(self):
        system = self.build()
        qid = system.install_query(QuerySpec.static(Rect(18, 18, 6, 6)))
        for _ in range(6):
            system.step()
            assert system.result(qid) == system.oracle_results()[qid]


class TestStaticUnderLazyPropagation:
    def test_beacon_heals_missed_installs(self):
        objects = [
            make_object(0, 45, 45, vx=-150.0, vy=-150.0, max_speed=200.0),
            make_object(1, 21, 21),
        ]
        system = make_system(objects, propagation=PropagationMode.LAZY)
        qid = system.install_query(static_circle(20, 20, 3))
        entered = False
        for _ in range(3 * STATIC_BEACON_STEPS):
            system.step()
            if 0 in system.result(qid):
                entered = True
                break
        assert entered, "beacon never healed the missed static install"

    def test_beacon_disabled_under_eager(self):
        system = make_system(
            [make_object(0, 21, 21)], propagation=PropagationMode.EAGER
        )
        system.install_query(static_circle(20, 20, 3))
        before = system.ledger.counts_by_type.get("QueryInstallBroadcast", 0)
        system.run(2 * STATIC_BEACON_STEPS)
        after = system.ledger.counts_by_type.get("QueryInstallBroadcast", 0)
        assert after == before  # no periodic re-broadcasts under EQP

    def test_beacon_traffic_counted(self):
        system = make_system([make_object(0, 21, 21)], propagation=PropagationMode.LAZY)
        system.install_query(static_circle(20, 20, 3))
        before = system.ledger.counts_by_type.get("QueryInstallBroadcast", 0)
        system.run(2 * STATIC_BEACON_STEPS + 1)
        after = system.ledger.counts_by_type.get("QueryInstallBroadcast", 0)
        assert after - before == 2  # steps 10 and 20


class TestCentralizedStaticQueries:
    def test_object_index_static(self):
        from repro.baselines import CentralizedConfig, CentralizedSystem, IndexingMode
        from repro.sim import SimulationRng

        objects = [make_object(0, 19, 20, vx=30.0), make_object(1, 21, 21)]
        system = CentralizedSystem(
            CentralizedConfig(uod=Rect(0, 0, 50, 50), indexing=IndexingMode.OBJECTS),
            objects,
            SimulationRng(7),
        )
        qid = system.install_query(static_circle(20, 20, 3))
        for _ in range(6):
            system.step()
            assert system.result(qid) == system.oracle_results()[qid]

    def test_query_index_static(self):
        from repro.baselines import CentralizedConfig, CentralizedSystem, IndexingMode
        from repro.sim import SimulationRng

        objects = [make_object(0, 19, 20, vx=30.0), make_object(1, 21, 21, vy=5.0)]
        system = CentralizedSystem(
            CentralizedConfig(uod=Rect(0, 0, 50, 50), indexing=IndexingMode.QUERIES),
            objects,
            SimulationRng(7),
        )
        qid = system.install_query(static_circle(20, 20, 3))
        for _ in range(6):
            system.step()
            assert system.result(qid) == system.oracle_results()[qid]
