"""Reproduces Figure 9: per-object communication power vs query count."""


def test_fig09_power_vs_queries(run_figure):
    result = run_figure("fig09")
    naive = result.column("naive")
    optimal = result.column("central-optimal")
    mobieyes = result.column("mobieyes")

    for row in range(len(naive)):
        # Naive burns the most energy: every object transmits every step
        # and transmitting costs ~20x receiving.
        assert naive[row] > optimal[row]
        assert naive[row] > mobieyes[row]

    # Central-optimal's reports do not depend on the query count; MobiEyes'
    # power grows with it (more broadcasts are over-heard).  So MobiEyes
    # wins at the fewest queries and central-optimal overtakes it as
    # queries grow -- the paper's crossover.
    assert len(set(optimal)) == 1
    assert mobieyes == sorted(set(mobieyes))
    assert mobieyes[0] < optimal[0]
    assert mobieyes[-1] > optimal[-1]
