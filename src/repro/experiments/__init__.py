"""Experiment harness: registry, run table, the figures and their extensions."""

from repro.experiments.registry import EXPERIMENTS, TITLES, all_experiment_ids, run_experiment
from repro.experiments import figures, extensions  # noqa: F401  (registers, in report order)
from repro.experiments.runner import (
    DEFAULT_STEPS,
    DEFAULT_WARMUP,
    ExperimentResult,
    default_params,
    run_centralized,
    run_mobieyes,
)

__all__ = [
    "DEFAULT_STEPS",
    "DEFAULT_WARMUP",
    "EXPERIMENTS",
    "ExperimentResult",
    "TITLES",
    "all_experiment_ids",
    "default_params",
    "run_centralized",
    "run_experiment",
    "run_mobieyes",
]
