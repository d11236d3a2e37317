"""Figure-shape suite configuration.

Each test runs one registered experiment (one per paper table/figure),
prints the reproduced table, and asserts the paper's qualitative *shape*
(who wins, what grows, where the knees are) on its deterministic columns --
absolute numbers depend on the scale.  The session shares one run table, so
a simulation several figures read is run once.  An assertion that reads a
wall clock is its own test, marked ``clock``; CI runs ``-m "not clock"``.

Scale control: set ``REPRO_SCALE`` (e.g. ``0.06`` (default), ``0.2``, or
``paper`` for the full Table 1 setup -- measured: all 24 tests pass there in
22.7 min on a 2-core host with numpy, the time ``python -m repro report``
takes).
"""

from __future__ import annotations

import pytest

from repro.experiments import run_experiment
from repro.experiments.runner import RunTable


@pytest.fixture(scope="session")
def runs():
    return RunTable()


@pytest.fixture
def run_figure(runs):
    """Run one experiment through the session's run table and print its table."""

    def _run(exp_id: str):
        result = run_experiment(exp_id, runs=runs)
        print()
        print(result.table())
        return result

    return _run
