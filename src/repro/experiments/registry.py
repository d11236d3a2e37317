"""Registry of reproducible experiments: one per paper figure + ablations.

An experiment is a plain function over ``(runs, params)`` -- a
:class:`~repro.experiments.runner.RunTable` and the scaled Table 1
parameters -- returning ``(headers, rows)`` or ``(headers, rows, note)``,
registered under an id and a title with :func:`experiment`.  Its docstring
is the one statement of what the paper's figure shows: ``repro list``, the
report and ``pydoc`` all print it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.experiments.runner import (
    DEFAULT_STEPS,
    DEFAULT_WARMUP,
    ExperimentResult,
    RunTable,
    default_params,
)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment; calling it runs it."""

    exp_id: str
    title: str
    paper: str
    fn: Callable

    def __call__(
        self,
        scale: float | None = None,
        steps: int = DEFAULT_STEPS,
        warmup: int = DEFAULT_WARMUP,
        runs: RunTable | None = None,
    ) -> ExperimentResult:
        """Run at ``scale`` (``REPRO_SCALE`` when None).  ``runs`` shares
        simulations with the other experiments run through the same table
        and carries its own window; without one, a table for
        (``steps``, ``warmup``) lives for this call."""
        if runs is None:
            runs = RunTable(steps, warmup)
        headers, rows, *note = self.fn(runs, default_params(scale))
        return ExperimentResult(self.exp_id, self.title, tuple(headers), tuple(rows), *note)


EXPERIMENTS: dict[str, Experiment] = {}
TITLES: dict[str, str] = {}


def experiment(exp_id: str, title: str) -> Callable[[Callable], Callable]:
    """Register the decorated function; its docstring is the paper paragraph."""

    def register(fn: Callable) -> Callable:
        paper = " ".join(inspect.cleandoc(fn.__doc__ or "").split())
        EXPERIMENTS[exp_id] = Experiment(exp_id, title, paper, fn)
        TITLES[exp_id] = title
        return fn

    return register


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``fig04``); the keywords
    are :meth:`Experiment.__call__`'s."""
    try:
        runner = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}") from None
    return runner(**kwargs)


def all_experiment_ids() -> list[str]:
    """Ids of every registered experiment."""
    return list(EXPERIMENTS)
