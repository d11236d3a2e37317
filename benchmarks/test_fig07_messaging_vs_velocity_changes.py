"""Reproduces Figure 7: effect of velocity-change frequency on messaging."""

from repro.workload import paper_defaults


def test_fig07_messaging_vs_velocity_changes(run_figure):
    result = run_figure("fig07")
    nmo = result.column("nmo")
    naive = result.column("naive")
    optimal = result.column("central-optimal")
    eqp = result.column("mobieyes-eqp")
    lqp = result.column("mobieyes-lqp")

    for row in range(len(naive)):
        assert naive[row] >= optimal[row]
        assert lqp[row] <= eqp[row]

    # Central-optimal relays one report per velocity change: it grows with
    # nmo at one message per extra change per step (within 10%; boundary
    # reflections are the rest of its traffic).
    step_seconds = paper_defaults().time_step_seconds
    assert optimal == sorted(set(optimal))
    extra_changes = (nmo[-1] - nmo[0]) / step_seconds
    assert abs((optimal[-1] - optimal[0]) - extra_changes) <= 0.1 * extra_changes

    # EQP's cell-change traffic does not depend on nmo, so the
    # EQP-to-central-optimal gap narrows at every step of the sweep (the
    # paper's "gap tends to decrease").
    gaps = [e - o for e, o in zip(eqp, optimal)]
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))

    # At this figure's query count (5% of the objects) LQP's traffic is
    # query-driven -- focal objects' cell changes and velocity changes,
    # result reports, monitoring-region broadcasts -- so it barely moves
    # with nmo, and central-optimal's one report per velocity change
    # overtakes it only at the largest nmo (DESIGN.md "Shapes the
    # full-scale table still does not show", Fig. 7).
    assert max(lqp) <= 1.1 * min(lqp)
    assert lqp[-1] < optimal[-1]
