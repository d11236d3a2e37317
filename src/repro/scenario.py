"""What every harness shares: build a system, digest its results, count
how far two runs' results are apart.

The run driver and the experiments all start from the same recipe --
a Table-1 workload from one seeded stream, a config whose geometry comes
from the workload parameters, a system, the workload's queries installed
-- and several of them build the same thing twice to grade a run against
a lockstep twin.  The recipe lives here once so that "the same workload"
means the same code, not nine copies that agree today.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Mapping

from repro.core import MobiEyesConfig, MobiEyesSystem
from repro.sim.rng import SimulationRng
from repro.workload import SimulationParameters, Workload, generate_workload


def build_system(
    params: SimulationParameters,
    seed: int | None = None,
    *,
    config: Mapping[str, Any] | None = None,
    focal_skew: float | None = None,
    motion: Callable | None = None,
    **system_kwargs: Any,
) -> tuple[MobiEyesSystem, Workload, SimulationRng]:
    """Build a system on the parameters' workload and install its queries.

    ``seed`` (default ``params.seed``) roots one rng: ``fork(1)`` draws
    the workload and ``fork(2)`` drives motion, so equal arguments give
    bit-identical systems -- build twice for a twin, never share the
    workload (a reference run moves its objects in place).  ``config`` holds
    :class:`MobiEyesConfig` fields laid over the geometry taken from
    ``params``; ``motion`` is a factory ``(objects, rng) -> motion model``
    called with the system's own object list and ``fork(3)`` (a custom
    motion model needs ``engine="reference"``); the remaining keywords go
    to :class:`MobiEyesSystem`.
    Returns the system, its workload and the root rng (fork it for any
    further stream, e.g. a loss channel or an ingest script).
    """
    rng = SimulationRng(params.seed if seed is None else seed)
    workload = generate_workload(params, rng.fork(1), focal_skew=focal_skew)
    fields = {
        "uod": params.uod,
        "alpha": params.alpha,
        "step_seconds": params.time_step_seconds,
        "base_station_side": params.base_station_side,
        **(config or {}),
    }
    objects = list(workload.objects)
    if motion is not None:
        system_kwargs["motion"] = motion(objects, rng.fork(3))
    system = MobiEyesSystem(
        MobiEyesConfig(**fields),
        objects,
        rng.fork(2),
        velocity_changes_per_step=params.velocity_changes_per_step,
        **system_kwargs,
    )
    system.install_queries(workload.query_specs)
    return system, workload, rng


def result_digest(system: MobiEyesSystem) -> str:
    """Order-independent digest of every query's current result set.

    Results only; :func:`repro.core.snapshot.step_hash` also covers the
    clock, the ledger and the in-flight queue.
    """
    payload = sorted(
        (int(qid), sorted(int(oid) for oid in members))
        for qid, members in system.results().items()
    )
    return hashlib.sha256(json.dumps(payload).encode("ascii")).hexdigest()


def twin_divergence(results: Mapping, twin_results: Mapping) -> int:
    """Size of the symmetric difference between two runs' result sets,
    summed over every query either run knows (0 = the runs agree)."""
    empty = frozenset()
    return sum(
        len(results.get(qid, empty) ^ twin_results.get(qid, empty))
        for qid in results.keys() | twin_results.keys()
    )
