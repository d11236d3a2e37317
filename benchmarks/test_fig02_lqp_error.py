"""Reproduces Figure 2: result error of lazy query propagation."""


def test_fig02_lqp_error(run_figure):
    result = run_figure("fig02")
    alpha_headers = [h for h in result.headers if h.startswith("error")]
    columns = {h: result.column(h) for h in alpha_headers}

    # All errors are valid fractions.
    for column in columns.values():
        assert all(v is None or 0.0 <= v <= 1.0 for v in column)

    # Error increases as alpha shrinks (more cell crossings are missed),
    # at every nmo.
    for row in result.rows:
        errors = [v or 0.0 for v in row[1:]]
        assert errors == sorted(errors, reverse=True) and errors[0] > errors[-1]

    # More velocity changes heal more missed installs: where crossings are
    # most frequent (the smallest alpha) the error falls as nmo grows.
    smallest = columns[alpha_headers[0]]
    assert smallest == sorted(smallest, reverse=True) and smallest[0] > smallest[-1]
