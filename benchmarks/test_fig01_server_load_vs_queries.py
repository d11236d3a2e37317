"""Reproduces Figure 1: server load vs number of queries (log scale)."""

import pytest

SYSTEMS = ("object-index", "query-index", "mobieyes-eqp", "mobieyes-lqp")


def check_shape(object_index, query_index, eqp, lqp):
    # MobiEyes sits far below both centralized approaches at every sweep
    # point (the paper reports up to two orders of magnitude).
    for row in range(len(eqp)):
        assert max(eqp[row], lqp[row]) < min(object_index[row], query_index[row])

    # The object index is insensitive to the query count (its cost is the
    # per-object index update); the query index grows with it.
    assert max(object_index) < 3.0 * min(object_index)
    assert query_index[-1] > query_index[0]


def test_fig01_server_ops_vs_queries(run_figure):
    result = run_figure("fig01")
    object_index, query_index, eqp, lqp = (result.column(f"ops({name})") for name in SYSTEMS)
    check_shape(object_index, query_index, eqp, lqp)
    # Deterministic counts carry tighter statements than a clock can: the
    # object index is flat to within a quarter and reads more nodes than
    # the query index at every point, MobiEyes is at least five times below
    # either, and lazy propagation never costs the server more than eager.
    assert max(object_index) < 1.25 * min(object_index)
    for row in range(len(eqp)):
        assert 5 * eqp[row] < query_index[row] < object_index[row]
        assert lqp[row] <= eqp[row]


@pytest.mark.clock
def test_fig01_server_seconds_vs_queries(run_figure):
    result = run_figure("fig01")
    object_index, query_index, eqp, lqp = (result.column(name) for name in SYSTEMS)
    check_shape(object_index, query_index, eqp, lqp)
    # Lazy propagation is no more expensive than eager on the server.
    assert sum(lqp) <= sum(eqp) * 1.25
