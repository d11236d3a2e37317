"""Reproduces Figure 13: effect of the safe-period optimization."""


def test_fig13_safe_period(run_figure):
    result = run_figure("fig13")
    evals_off = result.column("evals(off)")
    evals_on = result.column("evals(on)")
    skipped = result.column("skipped(on)")

    # The optimization never evaluates more than the baseline.
    assert all(on <= off for on, off in zip(evals_on, evals_off))

    # At the largest alpha (wide monitoring regions, long distances) the
    # safe period skips a substantial share of evaluations.
    assert skipped[-1] > 0
    assert evals_on[-1] < evals_off[-1]

    # Relative savings grow with alpha, strictly, point by point (the
    # paper's headline effect); half the evaluations go at the largest.
    saved = [1.0 - on / off for on, off in zip(evals_on, evals_off)]
    assert all(later > earlier for earlier, later in zip(saved, saved[1:]))
    assert saved[-1] > 0.4
