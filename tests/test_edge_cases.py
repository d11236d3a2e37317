"""Edge cases across the stack: degenerate geometries, extreme configs."""

import pytest

from repro.core import MobiEyesConfig, PropagationMode, QuerySpec
from repro.core.messages import QueryDescriptor
from repro.core.query import TrueFilter
from repro.geometry import Circle, Point, Rect
from repro.grid import CellRange
from repro.mobility import MotionState
from repro.network import RadioModel

from tests.conftest import circle_query, make_object, make_system


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            MobiEyesConfig(uod=Rect(0, 0, 10, 10), alpha=0)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            MobiEyesConfig(uod=Rect(0, 0, 10, 10), step_seconds=0)

    def test_bad_bs_side(self):
        with pytest.raises(ValueError):
            MobiEyesConfig(uod=Rect(0, 0, 10, 10), base_station_side=-1)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            MobiEyesConfig(uod=Rect(0, 0, 10, 10), dead_reckoning_threshold=-0.1)


class TestDegenerateGeometries:
    def test_single_cell_grid(self):
        """Alpha larger than the whole universe: one cell, no crossings."""
        objects = [make_object(0, 25, 25), make_object(1, 30, 30, vx=50.0)]
        system = make_system(objects, alpha=100.0)
        qid = system.install_query(circle_query(0, 8.0))
        for _ in range(6):
            system.step()
            assert system.result(qid) == system.oracle_results()[qid]
        assert system.ledger.counts_by_type.get("CellChangeReport", 0) == 0

    def test_query_region_covering_whole_universe(self):
        objects = [make_object(0, 25, 25)] + [
            make_object(i, 5 * i % 50, 7 * i % 50) for i in range(1, 8)
        ]
        system = make_system(objects)
        qid = system.install_query(circle_query(0, 100.0))
        system.step()
        assert system.result(qid) == frozenset(range(1, 8))

    def test_zero_radius_query(self):
        objects = [make_object(0, 25, 25), make_object(1, 25, 25)]  # co-located
        system = make_system(objects)
        qid = system.install_query(circle_query(0, 0.0))
        system.step()
        # Object 1 sits exactly on the focal position: inside a closed disk
        # of radius zero.
        assert system.result(qid) == frozenset({1})

    def test_base_station_smaller_than_cell(self):
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, alpha=10.0, bs_side=2.0)
        qid = system.install_query(circle_query(0, 2.0))
        system.step()
        assert system.result(qid) == system.oracle_results()[qid]

    def test_object_on_uod_corner(self):
        objects = [make_object(0, 0, 0), make_object(1, 50, 50)]
        system = make_system(objects)
        qid = system.install_query(circle_query(0, 2.0))
        system.step()
        assert system.result(qid) == frozenset()
        system.check_invariants()


class TestNoQueries:
    def test_system_without_queries_is_quiet(self):
        objects = [make_object(i, 5 + i, 5, vx=20.0) for i in range(5)]
        system = make_system(objects)
        system.run(5)
        assert system.metrics.mean_lqt_size() == 0.0
        # Only cell-change reports may occur (objects still report moves).
        types = set(system.ledger.counts_by_type)
        assert types <= {"CellChangeReport"}

    def test_lazy_system_without_queries_is_silent(self):
        objects = [make_object(i, 5 + i, 5, vx=20.0) for i in range(5)]
        system = make_system(objects, propagation=PropagationMode.LAZY)
        system.run(5)
        assert system.ledger.total_count == 0


class TestGroupingAcrossRegions:
    def test_non_matching_monitoring_regions_broadcast_separately(self):
        """Groupable queries with different monitoring regions cannot share
        a broadcast (paper §4.1): radii 1 and 20 straddle cell boundaries."""
        objects = [make_object(0, 25, 25), make_object(1, 26, 25)]
        system = make_system(objects, grouping=True)
        system.install_query(circle_query(0, 1.0))
        system.install_query(circle_query(0, 20.0))
        from repro.core.messages import VelocityChangeReport

        before = system.ledger.counts_by_type.get("VelocityChangeBroadcast", 0)
        client0 = system.client(0)
        client0.obj.vel = client0.obj.vel.__class__(40.0, 0.0)
        system.transport.uplink(VelocityChangeReport(oid=0, state=client0.obj.snapshot()))
        sent = system.ledger.counts_by_type["VelocityChangeBroadcast"] - before
        # Two distinct monitoring regions: at least two broadcast messages.
        assert sent >= 2

    def test_object_side_grouping_shares_prediction(self):
        objects = [make_object(0, 25, 25), make_object(1, 40, 40)]
        system = make_system(objects, alpha=50.0, grouping=True)
        for r in (1.0, 2.0, 4.0, 8.0):
            system.install_query(circle_query(0, r))
        system.step()
        stats = system.metrics.steps[-1]
        # Object 1 is ~21 miles out: only the largest region is evaluated,
        # the rest are implied by the reach short-circuit.
        assert stats.skipped_by_grouping >= 3


class TestMessageSizes:
    def descriptor(self, oid):
        return QueryDescriptor(
            qid=1,
            oid=oid,
            region=Circle(0, 0, 2.0) if oid is not None else Circle(20, 20, 2.0),
            filter=TrueFilter(),
            focal_state=(
                MotionState(pos=Point(0, 0), vel=Point(0, 0), recorded_at=0.0)
                if oid is not None
                else None
            ),
            focal_max_speed=0.0,
            mon_region=CellRange(0, 1, 0, 1),
        )

    def test_static_descriptor_smaller_than_moving(self):
        assert self.descriptor(None).bits < self.descriptor(7).bits


class TestRadioExtremes:
    def test_symmetric_link_changes_tradeoff(self):
        symmetric = RadioModel(uplink_bits_per_second=28_000.0)
        default = RadioModel()
        assert symmetric.tx_joules_per_bit < default.tx_joules_per_bit

    def test_energy_zero_bits(self):
        radio = RadioModel()
        assert radio.transmit_energy(0) == 0.0
        assert radio.receive_energy(0) == 0.0
