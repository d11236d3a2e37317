"""Tests for the simulated transport and coverage index."""

import pytest

from repro.core.messages import MotionStateRequest
from repro.core.transport import CoverageIndex, SimulatedTransport
from repro.geometry import Point, Rect
from repro.grid import CellRange, Grid
from repro.network import BaseStationLayout, MessageLedger
from repro.sim import TraceLog


@pytest.fixture
def grid():
    return Grid(Rect(0, 0, 50, 50), alpha=5.0)


@pytest.fixture
def layout(grid):
    return BaseStationLayout(grid, side_length=10.0)


class FakeServer:
    def __init__(self):
        self.received = []

    def on_uplink(self, message):
        self.received.append(message)


class FakeClient:
    def __init__(self):
        self.received = []

    def on_downlink(self, message):
        self.received.append(message)


class SizedMessage:
    def __init__(self, oid=None, bits=100):
        self.oid = oid
        self.bits = bits


class TestCoverageIndex:
    def test_receivers_by_station(self, layout, grid):
        index = CoverageIndex(layout, grid)
        index.rebuild([(1, Point(5, 5)), (2, Point(45, 45))])
        station = layout.station_covering(Point(5, 5))
        receivers = index.covered_by_stations([station.bsid])
        assert 1 in receivers
        assert 2 not in receivers

    def test_in_cells(self, layout, grid):
        index = CoverageIndex(layout, grid)
        index.rebuild([(1, Point(2, 2)), (2, Point(27, 27))])
        assert index.in_cells([(0, 0)]) == {1}
        assert index.in_cells([(5, 5)]) == {2}
        assert index.in_cells([(9, 9)]) == set()

    def test_rebuild_replaces_state(self, layout, grid):
        index = CoverageIndex(layout, grid)
        index.rebuild([(1, Point(2, 2))])
        index.rebuild([(2, Point(2, 2))])
        assert index.in_cells([(0, 0)]) == {2}


class TestTransport:
    def make(self, layout, grid):
        ledger = MessageLedger()
        trace = TraceLog()
        transport = SimulatedTransport(layout, grid, ledger, trace=trace)
        server = FakeServer()
        transport.attach_server(server)
        return transport, ledger, server, trace

    def test_uplink_accounting_and_delivery(self, layout, grid):
        transport, ledger, server, trace = self.make(layout, grid)
        transport.uplink(SizedMessage(oid=7, bits=128))
        assert ledger.uplink_count == 1
        assert ledger.uplink_bits == 128
        assert len(server.received) == 1
        assert trace.count("uplink") == 1

    def test_uplink_without_server_raises(self, layout, grid):
        transport = SimulatedTransport(layout, grid, MessageLedger())
        with pytest.raises(RuntimeError):
            transport.uplink(SizedMessage(oid=1))

    def test_send_one_to_one(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        client = FakeClient()
        transport.attach_client(3, client)
        transport.send(3, MotionStateRequest(oid=3))
        assert ledger.downlink_count == 1
        assert len(client.received) == 1

    def test_send_to_detached_client_counts_message(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        transport.send(99, MotionStateRequest(oid=99))
        assert ledger.downlink_count == 1  # radio message still on the air

    def test_broadcast_delivers_to_region_and_overhearers(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        inside = FakeClient()
        nearby = FakeClient()
        far = FakeClient()
        transport.attach_client(1, inside)
        transport.attach_client(2, nearby)
        transport.attach_client(3, far)
        transport.begin_step(
            1, [(1, Point(2, 2)), (2, Point(12, 2)), (3, Point(48, 48))]
        )
        count = transport.broadcast(CellRange(0, 0, 0, 0), SizedMessage(bits=64))
        assert count >= 1
        assert len(inside.received) == 1  # in the target region
        assert len(far.received) == 0
        # Receivers pay energy; the message count equals stations used.
        assert ledger.downlink_count == count

    def test_broadcast_empty_region(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        assert transport.broadcast([], SizedMessage()) == 0
        assert ledger.downlink_count == 0

    def test_wide_region_uses_multiple_stations(self, layout, grid):
        transport, ledger, _server, _trace = self.make(layout, grid)
        transport.begin_step(1, [])
        count = transport.broadcast(CellRange(0, 9, 0, 9), SizedMessage(bits=64))
        assert count > 1
        assert ledger.downlink_count == count
