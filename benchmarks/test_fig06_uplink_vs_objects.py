"""Reproduces Figure 6: uplink messaging cost vs number of objects."""

import pytest


def test_fig06_uplink_vs_objects(run_figure):
    result = run_figure("fig06")
    naive = result.column("naive")
    optimal = result.column("central-optimal")
    eqp = result.column("mobieyes-eqp")
    lqp = result.column("mobieyes-lqp")

    for row in range(len(naive)):
        # LQP slashes uplink traffic: only focal objects talk to the
        # server about motion.
        assert lqp[row] < naive[row]
        assert lqp[row] < eqp[row]
        # Naive uplink is the heaviest.
        assert naive[row] >= optimal[row]
        assert naive[row] >= eqp[row]

    # The query count is a tenth of the *base* population, so the focal
    # share falls as the population grows, and LQP closes on central-optimal
    # (which relays only velocity changes and sends no result reports).
    ratios = [lq / o for lq, o in zip(lqp, optimal)]
    assert all(later < earlier for earlier, later in zip(ratios, ratios[1:]))


@pytest.mark.xfail(
    strict=True,
    reason="LQP's uplink is above central-optimal's here; see DESIGN.md "
    "'Shapes the full-scale table still does not show', Fig. 6",
)
def test_fig06_lqp_uplink_below_every_approach(run_figure):
    # The paper: LQP's uplink is far below every other approach on every row.
    result = run_figure("fig06")
    lqp = result.column("mobieyes-lqp")
    for other in ("naive", "central-optimal", "mobieyes-eqp"):
        assert all(lq < o for lq, o in zip(lqp, result.column(other)))
