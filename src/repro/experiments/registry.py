"""Registry of reproducible experiments: one per paper figure + ablations."""

from __future__ import annotations

from typing import Callable

from repro.experiments.figures import (
    ablation_dead_reckoning,
    ablation_grouping,
    ablation_latency,
    ablation_message_loss,
    ablation_mobility,
    ablation_propagation,
    ablation_rebalance,
    analysis_lqt_size,
    analysis_optimal_alpha,
    fig01_server_load_vs_queries,
    fig02_lqp_error,
    fig03_server_load_vs_alpha,
    fig04_messaging_vs_alpha,
    fig05_messaging_vs_objects,
    fig06_uplink_vs_objects,
    fig07_messaging_vs_velocity_changes,
    fig08_messaging_vs_bs_coverage,
    fig09_power_vs_queries,
    fig10_lqt_vs_alpha,
    fig11_lqt_vs_queries,
    fig12_lqt_vs_radius,
    fig13_safe_period,
)
from repro.experiments.runner import ExperimentResult


_MODULES = (
    fig01_server_load_vs_queries,
    fig02_lqp_error,
    fig03_server_load_vs_alpha,
    fig04_messaging_vs_alpha,
    fig05_messaging_vs_objects,
    fig06_uplink_vs_objects,
    fig07_messaging_vs_velocity_changes,
    fig08_messaging_vs_bs_coverage,
    fig09_power_vs_queries,
    fig10_lqt_vs_alpha,
    fig11_lqt_vs_queries,
    fig12_lqt_vs_radius,
    fig13_safe_period,
    ablation_dead_reckoning,
    ablation_grouping,
    ablation_propagation,
    ablation_message_loss,
    ablation_mobility,
    ablation_latency,
    ablation_rebalance,
    analysis_optimal_alpha,
    analysis_lqt_size,
)

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    module.EXP_ID: module.run for module in _MODULES
}

TITLES: dict[str, str] = {module.EXP_ID: module.TITLE for module in _MODULES}


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``fig04``)."""
    try:
        runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}") from None
    return runner(**kwargs)


def all_experiment_ids() -> list[str]:
    """Ids of every registered experiment."""
    return list(EXPERIMENTS)
