"""Reproduces Figure 7: effect of velocity-change frequency on messaging."""


def test_fig07_messaging_vs_velocity_changes(run_figure):
    result = run_figure("fig07")
    naive = result.column("naive")
    optimal = result.column("central-optimal")
    eqp = result.column("mobieyes-eqp")
    lqp = result.column("mobieyes-lqp")

    for row in range(len(naive)):
        assert naive[row] >= optimal[row]
        assert lqp[row] <= eqp[row]

    # Central-optimal grows with nmo (each change is a report), so the
    # ratio of EQP to central-optimal shrinks as nmo rises (the paper's
    # "gap tends to decrease").
    first_ratio = eqp[0] / max(optimal[0], 1e-12)
    last_ratio = eqp[-1] / max(optimal[-1], 1e-12)
    assert last_ratio < first_ratio
