"""Shared experiment runner.

Every figure-reproduction in :mod:`repro.experiments.figures` builds systems
through these helpers so that MobiEyes and the baselines always see the same
workload (same seed => same objects, same queries) and the same measurement
window (a warm-up prefix is excluded, as the paper measures steady state).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.baselines import CentralizedConfig, CentralizedSystem, IndexingMode, ReportingMode
from repro.core import MobiEyesSystem, PropagationMode
from repro.metrics.report import format_table
from repro.scenario import build_system
from repro.sim.rng import SimulationRng
from repro.workload import SimulationParameters, bench_defaults, generate_workload

DEFAULT_STEPS = 24
DEFAULT_WARMUP = 4


@dataclass(frozen=True)
class ExperimentResult:
    """One reproduced table/figure: an id, a title, and tabular data."""

    exp_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: str = ""

    def table(self) -> str:
        """Render the result as an aligned plain-text table."""
        text = format_table(self.headers, self.rows, title=f"[{self.exp_id}] {self.title}")
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text

    def column(self, header: str) -> list:
        """The values of one column, by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def default_params(scale: float | None = None) -> SimulationParameters:
    """Scaled Table 1 defaults (REPRO_SCALE-aware when ``scale`` is None)."""
    if scale is None:
        return bench_defaults()
    from repro.workload import paper_defaults

    return paper_defaults().scaled(scale)


def sweep_fractions(params: SimulationParameters, fractions: Sequence[float]) -> list[int]:
    """Query-count sweep points as fractions of the object population.

    The paper sweeps ``nmq`` from ``no/100`` to ``no/10``; expressing sweep
    points as fractions keeps the same ratios at any benchmark scale.
    """
    return sorted({max(1, round(params.num_objects * f)) for f in fractions})


def run_mobieyes(
    params: SimulationParameters,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
    propagation: PropagationMode = PropagationMode.EAGER,
    alpha: float | None = None,
    base_station_side: float | None = None,
    grouping: bool = True,
    safe_period: bool = False,
    dead_reckoning_threshold: float = 0.0,
    track_accuracy: bool = False,
    focal_skew: float | None = None,
    seed_offset: int = 0,
) -> MobiEyesSystem:
    """Build, install, and run a MobiEyes system on the Table 1 workload."""
    config = dict(
        propagation=propagation,
        dead_reckoning_threshold=dead_reckoning_threshold,
        grouping=grouping,
        safe_period=safe_period,
    )
    if alpha is not None:
        config["alpha"] = alpha
    if base_station_side is not None:
        config["base_station_side"] = base_station_side
    system, _, _ = build_system(
        params,
        params.seed + seed_offset,
        config=config,
        focal_skew=focal_skew,
        track_accuracy=track_accuracy,
        warmup_steps=warmup,
    )
    system.run(steps)
    return system


def run_centralized(
    params: SimulationParameters,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
    reporting: ReportingMode = ReportingMode.NAIVE,
    indexing: IndexingMode = IndexingMode.OBJECTS,
    dead_reckoning_threshold: float = 0.0,
    track_accuracy: bool = False,
    seed_offset: int = 0,
) -> CentralizedSystem:
    """Build, install, and run a centralized baseline on the same workload."""
    rng = SimulationRng(params.seed + seed_offset)
    workload = generate_workload(params, rng.fork(1))
    config = CentralizedConfig(
        uod=params.uod,
        step_seconds=params.time_step_seconds,
        reporting=reporting,
        indexing=indexing,
        dead_reckoning_threshold=dead_reckoning_threshold,
        oracle_alpha=params.alpha,
    )
    system = CentralizedSystem(
        config,
        list(workload.objects),
        rng.fork(2),
        velocity_changes_per_step=params.velocity_changes_per_step,
        track_accuracy=track_accuracy,
        warmup_steps=warmup,
    )
    system.install_queries(workload.query_specs)
    system.run(steps)
    return system


def with_queries(params: SimulationParameters, num_queries: int) -> SimulationParameters:
    """A copy of the parameters with a different query count."""
    return replace(params, num_queries=min(num_queries, params.num_objects))
