"""Shared experiment runner: the two build-and-run functions and the run table.

:func:`run_mobieyes` and :func:`run_centralized` build a system on the Table 1
workload and run it, so MobiEyes and the baselines always see the same
workload (same seed => same objects, same queries) and the same measurement
window (a warm-up prefix is excluded, as the paper measures steady state).
A :class:`RunTable` runs each distinct simulation a report asks for once;
the experiments in :mod:`repro.experiments.figures` are views over it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro import fastpath
from repro.baselines import CentralizedConfig, CentralizedSystem, IndexingMode, ReportingMode
from repro.core import MobiEyesSystem, PropagationMode
from repro.metrics.collectors import MetricsLog
from repro.metrics.report import format_table
from repro.scenario import build_system
from repro.sim.rng import SimulationRng
from repro.workload import SimulationParameters, bench_defaults, generate_workload, paper_defaults

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
    motion: Callable | None = None,
) -> MobiEyesSystem:
    """Build, install, and run a MobiEyes system on the Table 1 workload.

    The engine comes from the platform: the vectorized one where numpy can
    be imported, the reference one otherwise -- they are bit-identical, so
    every count is the same table either way.  A custom ``motion`` factory
    (see :func:`repro.scenario.build_system`) runs on the reference engine,
    the only one that takes a motion model.
    """
    vectorized = fastpath.numpy_available() and motion is None
    system, _, _ = build_system(
        params,
        params.seed + seed_offset,
        config=dict(
            engine="vectorized" if vectorized else "reference",
            propagation=propagation,
            alpha=params.alpha if alpha is None else alpha,
            base_station_side=(
                params.base_station_side if base_station_side is None else base_station_side
            ),
            dead_reckoning_threshold=dead_reckoning_threshold,
            grouping=grouping,
            safe_period=safe_period,
        ),
        focal_skew=focal_skew,
        motion=motion,
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
    motion: Callable | None = None,
) -> CentralizedSystem:
    """Build, install, and run a centralized baseline on the same workload
    (``motion`` as in :func:`run_mobieyes`)."""
    rng = SimulationRng(params.seed + seed_offset)
    workload = generate_workload(params, rng.fork(1))
    objects = list(workload.objects)
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
        objects,
        rng.fork(2),
        velocity_changes_per_step=params.velocity_changes_per_step,
        track_accuracy=track_accuracy,
        warmup_steps=warmup,
        motion=motion(objects, rng.fork(3)) if motion is not None else None,
    )
    system.install_queries(workload.query_specs)
    system.run(steps)
    return system


def with_queries(params: SimulationParameters, num_queries: int) -> SimulationParameters:
    """A copy of the parameters with a different query count."""
    return replace(params, num_queries=min(num_queries, params.num_objects))


class RunTable:
    """The simulations behind one report, each distinct one run once.

    A run is keyed by its build function, its parameters and every build
    argument with the defaults filled in, and maps to the run's
    :class:`MetricsLog` -- never the system: one at Table 1 size is ~80 MB
    and a report has ~100 distinct ones.  A table is one measurement window
    (``steps``, ``warmup``); experiments that build their own systems read
    the window off it.
    """

    def __init__(self, steps: int = DEFAULT_STEPS, warmup: int = DEFAULT_WARMUP) -> None:
        self.steps = steps
        # A warm-up that swallows the run leaves no measured step.
        self.warmup = min(warmup, steps // 4)
        self.requested = 0
        self._logs: dict[tuple, MetricsLog] = {}

    @property
    def executed(self) -> int:
        """Distinct simulations run so far (``requested`` counts every ask)."""
        return len(self._logs)

    def mobieyes(self, params: SimulationParameters, **overrides) -> MetricsLog:
        """The metrics of ``run_mobieyes(params, steps, warmup, **overrides)``."""
        return self._log(run_mobieyes, params, overrides)

    def centralized(self, params: SimulationParameters, **overrides) -> MetricsLog:
        """The metrics of ``run_centralized(params, steps, warmup, **overrides)``."""
        return self._log(run_centralized, params, overrides)

    def _log(self, build: Callable, params: SimulationParameters, overrides: dict) -> MetricsLog:
        call = inspect.signature(build).bind(params, self.steps, self.warmup, **overrides)
        call.apply_defaults()
        for name in ("alpha", "base_station_side"):  # None means "the parameters' own"
            if call.arguments.get(name, 0) is None:
                call.arguments[name] = getattr(params, name)
        key = (build.__name__, *call.arguments.items())
        self.requested += 1
        if key not in self._logs:
            self._logs[key] = build(*call.args, **call.kwargs).metrics
        return self._logs[key]
