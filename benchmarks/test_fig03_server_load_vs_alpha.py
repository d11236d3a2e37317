"""Reproduces Figure 3: effect of alpha on server load."""

import pytest


def test_fig03_server_ops_vs_alpha(run_figure):
    result = run_figure("fig03")
    alphas = result.column("alpha")
    eqp = result.column("ops(mobieyes-eqp)")
    lqp = result.column("ops(mobieyes-lqp)")
    object_index = result.column("ops(object-index)")
    query_index = result.column("ops(query-index)")

    # From the default alpha up MobiEyes stays below both centralized
    # baselines, and lazy propagation below eager across the whole sweep.
    default = alphas.index(sorted(alphas)[len(alphas) // 2])
    for row in range(default, len(alphas)):
        assert eqp[row] < min(object_index[row], query_index[row])
    assert all(l <= e for l, e in zip(lqp, eqp))

    # Too-small alpha hurts: every cell crossing is mediated and charged
    # per monitoring-region cell.  The left arm of the paper's U, by a
    # margin: the smallest alpha costs ten times the sweep's minimum.
    assert eqp[0] > eqp[1] > eqp[2]
    assert eqp[0] > 10.0 * min(eqp)


@pytest.mark.clock
def test_fig03_server_seconds_vs_alpha(run_figure):
    result = run_figure("fig03")
    eqp = result.column("mobieyes-eqp")
    object_index = result.column("object-index")
    query_index = result.column("query-index")

    # MobiEyes stays below both centralized baselines across the sweep.
    for row in range(len(eqp)):
        assert eqp[row] < object_index[row]
        assert eqp[row] < query_index[row]

    # The paper's U-shape means the smallest alpha is never the cheapest.
    assert eqp[0] > min(eqp)
