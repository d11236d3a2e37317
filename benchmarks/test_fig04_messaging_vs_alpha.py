"""Reproduces Figure 4: effect of alpha on messaging cost."""


def test_fig04_messaging_vs_alpha(run_figure):
    result = run_figure("fig04")
    count_headers = [h for h in result.headers if h.startswith("msgs")]

    for header in count_headers:
        column = result.column(header)
        # Small alpha is penalized by frequent cell-change traffic: the
        # left arm of the U, by a margin -- the smallest alpha costs at
        # least twice the sweep's minimum, and the curve falls to the default.
        assert column[0] > column[1] > column[2]
        assert column[0] > 2.0 * min(column)

    # More queries cost more messages at every alpha.
    lightest = result.column(count_headers[0])
    heaviest = result.column(count_headers[-1])
    assert all(h >= l for h, l in zip(heaviest, lightest))

    # The right arm shows where there are queries enough for the inflated
    # monitoring regions to cost broadcasts: at nmq = no/10 the largest
    # alpha is above the sweep's minimum.
    assert heaviest[-1] > min(heaviest)
