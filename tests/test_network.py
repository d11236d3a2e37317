"""Tests for the wireless network substrate: base stations, ledger, radio."""

import math

import pytest

from repro.geometry import Point, Rect
from repro.grid import CellRange, CellRangeUnion, Grid
from repro.network import BaseStationLayout, MessageLedger, RadioModel, basestation


@pytest.fixture
def grid():
    return Grid(Rect(0, 0, 100, 100), alpha=10.0)


@pytest.fixture
def layout(grid):
    return BaseStationLayout(grid, side_length=20.0)


class TestLayout:
    def test_station_count(self, layout):
        assert len(layout) == 25  # 5 x 5 lattice of 20-mile tiles

    def test_invalid_side_rejected(self, grid):
        with pytest.raises(ValueError):
            BaseStationLayout(grid, side_length=0)

    def test_coverage_radius_is_tile_circumradius(self, layout):
        station = layout.get(0)
        assert math.isclose(station.coverage.r, 20.0 * math.sqrt(2) / 2.0)

    def test_every_cell_covered(self, grid, layout):
        for cell in grid.all_cells():
            assert layout.bmap(cell), f"cell {cell} uncovered"

    def test_bmap_stations_actually_intersect(self, grid, layout):
        for cell in grid.all_cells():
            rect = grid.cell_rect(cell)
            for bsid in layout.bmap(cell):
                assert layout.get(bsid).coverage.intersects_rect(rect)

    def test_station_covering_contains_point(self, layout):
        for p in (Point(0, 0), Point(99, 99), Point(50, 37)):
            station = layout.station_covering(p)
            assert station.covers_point(p)

    def test_tile_roundtrip(self, layout):
        for station in layout.stations:
            tile = layout.tile_of_point(station.coverage.center)
            assert layout.station_at_tile(tile).bsid == station.bsid

    def test_stations_hearing(self, layout):
        hearers = layout.stations_hearing(Point(50, 50))
        assert len(hearers) >= 1
        for bsid in hearers:
            assert layout.get(bsid).covers_point(Point(50, 50))


class TestMinimalCover:
    def test_single_cell_single_station(self, layout):
        cover = layout.minimal_cover(CellRange(0, 0, 0, 0))
        assert len(cover) == 1

    def test_cover_actually_covers(self, grid, layout):
        region = CellRange(2, 7, 1, 6)
        cover = set(layout.minimal_cover(region))
        for cell in region:
            rect = grid.cell_rect(cell)
            assert any(layout.get(b).coverage.intersects_rect(rect) for b in cover)

    def test_empty_region(self, layout):
        assert layout.minimal_cover([]) == []

    def test_accepts_cell_iterable(self, layout):
        cover = layout.minimal_cover({(0, 0), (9, 9)})
        assert len(cover) >= 1

    def test_larger_stations_need_fewer_broadcasts(self, grid):
        small = BaseStationLayout(grid, side_length=10.0)
        large = BaseStationLayout(grid, side_length=50.0)
        region = CellRange(0, 5, 0, 5)
        assert len(large.minimal_cover(region)) <= len(small.minimal_cover(region))

    def test_greedy_not_worse_than_all_stations(self, layout):
        region = CellRange(0, 9, 0, 9)
        assert len(layout.minimal_cover(region)) <= len(layout)

    def test_memo_is_capped_and_a_clear_changes_no_answer(self, layout, monkeypatch):
        """Every focal crossing keys a fresh region, so an uncapped memo
        grows for as long as a run lasts."""
        monkeypatch.setattr(basestation, "COVER_CACHE_MAX", 4)
        regions = [CellRange(i, i + 2, j, j + 3) for i in range(6) for j in range(5)]
        regions.append(CellRangeUnion(regions[0], regions[-1]))
        first_pass = []
        for region in regions:
            first_pass.append(layout.minimal_cover(region))
            assert len(layout._cover_cache) <= 4
        # The memo was cleared several times over; every answer repeats.
        assert [layout.minimal_cover(region) for region in regions] == first_pass


class TestRadioModel:
    def test_paper_energy_constants(self):
        radio = RadioModel()
        # ~80 uJ/bit transmit, ~5 uJ/bit receive (paper footnote 2).
        assert 70e-6 <= radio.tx_joules_per_bit <= 90e-6
        assert 3e-6 <= radio.rx_joules_per_bit <= 6e-6

    def test_transmit_much_costlier_than_receive(self):
        radio = RadioModel()
        assert radio.tx_joules_per_bit > 10 * radio.rx_joules_per_bit

    def test_energy_scales_with_bits(self):
        radio = RadioModel()
        assert radio.transmit_energy(2000) == 2 * radio.transmit_energy(1000)

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            RadioModel(amplifier_efficiency=0.0)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            RadioModel(uplink_bits_per_second=0)


class TestMessageLedger:
    def test_uplink_accounting(self):
        ledger = MessageLedger()
        ledger.record_uplink("report", bits=100, sender=1)
        assert ledger.uplink_count == 1
        assert ledger.uplink_bits == 100
        assert ledger.counts_by_type["report"] == 1
        assert ledger.energy_by_object[1] == ledger.radio.transmit_energy(100)

    def test_downlink_broadcast_counts_per_station(self):
        ledger = MessageLedger()
        ledger.record_downlink("install", bits=200, receivers=(1, 2, 3), broadcasts=2)
        assert ledger.downlink_count == 2
        assert ledger.downlink_bits == 400
        # Each receiver pays for one reception of the message.
        assert ledger.energy_by_object[2] == ledger.radio.receive_energy(200)

    def test_totals(self):
        ledger = MessageLedger()
        ledger.record_uplink("a", 100, sender=1)
        ledger.record_downlink("b", 50, receivers=(1,), broadcasts=1)
        assert ledger.total_count == 2
        assert ledger.total_bits == 150
        assert ledger.total_energy() == pytest.approx(
            ledger.radio.transmit_energy(100) + ledger.radio.receive_energy(50)
        )

    def test_mean_energy_per_object_counts_silent_objects(self):
        ledger = MessageLedger()
        ledger.record_uplink("a", 100, sender=1)
        assert ledger.mean_energy_per_object(4) == ledger.total_energy() / 4

    def test_mean_energy_invalid_population(self):
        with pytest.raises(ValueError):
            MessageLedger().mean_energy_per_object(0)
