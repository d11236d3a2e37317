"""The two workload presets beside Table 1: ``dense`` and ``skewed``.

The repo benchmark (``bench/workloads.py``), the run driver and the
shard tests build their worlds from these.  Running and grading a
benchmark is ``bench/run.py`` + ``bench/compare.py``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.workload import SimulationParameters, paper_defaults


def dense_params(scale: float = 1.0) -> SimulationParameters:
    """Large, slow-moving monitoring regions: the evaluation-bound workload.

    Query radii scaled 3x (Fig. 12's ``radius_factor``) and speeds scaled
    to 0.1x: LQT evaluation work dominates and the per-object protocol
    chatter stays small.
    """
    params = paper_defaults()
    params = replace(
        params,
        radius_factor=3.0,
        max_speeds=tuple(s * 0.1 for s in params.max_speeds),
    )
    return params.scaled(scale) if scale != 1.0 else params


def skewed_params(scale: float = 1.0) -> SimulationParameters:
    """The flash-crowd workload: half the population in the left fifth.

    Built on :func:`dense_params` (slow speeds keep the crowd where it was
    placed for the whole run) with ``hotspot_fraction=0.5``: half the
    objects compress into the left 20% of the x-axis, so the column-stripe
    partitioner's leftmost shards absorb most of the uplink and evaluation
    load.  This is the scenario online rebalancing exists for -- the
    ``shard_loads`` imbalance is real, persistent, and stripe-aligned.
    """
    return replace(dense_params(scale), hotspot_fraction=0.5, hotspot_width=0.2)
