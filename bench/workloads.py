"""The five benchmark workloads: inputs, set-up, and the closed-loop driver.

Every workload is a :class:`Workload` row.  ``build`` turns a row plus a
seed into a running system (the *set-up*: build system, install queries,
warm-up steps); :class:`Driver` advances it one measured step at a time.
The program under test receives only generated inputs: a fixed population
and query set per workload, and seeded motion, latency and ingest traffic.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

from repro import Circle, MobiEyesConfig, MobiEyesSystem, Point, QuerySpec, SimulationRng, Vector
from repro.core import MobiEyesService
from repro.fastpath.bench import dense_params, skewed_params
from repro.workload import SimulationParameters, generate_workload, paper_defaults

WARMUP_STEPS = 5
POPULATION_SEED = 42

# service_churn's per-tick ingest mix.
CHURN_UPDATES = 100
CHURN_REMOVES = 10
CHURN_INSTALLS = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the inputs and the system knobs."""

    name: str
    why: str
    params: SimulationParameters
    engine: str = "vectorized"
    shards: int = 1
    latency_steps: int = 0
    rebalance_schedule: tuple = ()
    churn: bool = False
    # Ceiling for the mean result error of a full-size run (2x what this
    # workload measured when the benchmark was defined).
    error_ceiling: float = 1.0

    def scaled(self, factor: float) -> "Workload":
        """The same configuration at ``factor`` of the population."""
        return replace(self, params=self.params.scaled(factor))


WORKLOADS = (
    Workload(
        name="paper_table1",
        why=(
            "Untouched Table 1 mobility: protocol-bound, cell-change reaction "
            "chain and broadcast fan-out dominate the reporting phase"
        ),
        params=paper_defaults(),
        error_ceiling=0.032,
    ),
    Workload(
        name="dense_eval",
        why=(
            "Radius x3, speeds x0.1: evaluator, motion and coverage kernels "
            "dominate; few cell changes, so a cell-change gain barely moves it"
        ),
        params=dense_params(),
        error_ceiling=0.055,
    ),
    Workload(
        name="skew_sharded_latency",
        why=(
            "Flash crowd on 4 shards with 1-step link latency and scheduled "
            "rebalances: envelopes, delivery phase, routing, declined fan-out"
        ),
        params=skewed_params(0.5),
        shards=4,
        latency_steps=1,
        rebalance_schedule=((20, 0, 1, 1), (40, 1, 2, 1), (60, 0, 1, 1)),
        error_ceiling=0.072,
    ),
    Workload(
        name="service_churn",
        why=(
            "Service runtime with per-tick external updates, query removes "
            "and installs: the write path runs beside the steady-state reads"
        ),
        params=paper_defaults().scaled(0.5),
        churn=True,
        error_ceiling=0.027,
    ),
    Workload(
        name="reference_scaled",
        why=(
            "Reference engine at 0.2 scale: the scalar server/transport/client "
            "path every differential test and figure reproduction runs on"
        ),
        params=paper_defaults().scaled(0.2),
        engine="reference",
        error_ceiling=0.032,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


class IngestGenerator:
    """Seeded external traffic for ``service_churn``.

    Each tick: ``updates`` position reports (the object's current position
    displaced by at most alpha per axis, clamped to the universe, with a
    fresh velocity within its speed limit), ``removes`` removals of live
    queries and ``installs`` fresh moving queries.
    """

    def __init__(self, system: MobiEyesSystem, service: MobiEyesService, seed: int, scale: float):
        self.system = system
        self.service = service
        self.rng = random.Random(seed)
        self.updates = max(1, round(CHURN_UPDATES * scale))
        self.removes = max(1, round(CHURN_REMOVES * scale))
        self.installs = max(1, round(CHURN_INSTALLS * scale))
        self.oids = sorted(system.clients)
        self.tickets: list = []

    def submit(self) -> None:
        """Queue one tick's operations on the service."""
        rng = self.rng
        system = self.system
        service = self.service
        uod = system.config.uod
        alpha = system.config.alpha
        tickets = self.tickets
        for oid in rng.sample(self.oids, self.updates):
            obj = system.client(oid).obj
            x = min(uod.ux, max(uod.lx, obj.pos.x + rng.uniform(-alpha, alpha)))
            y = min(uod.uy, max(uod.ly, obj.pos.y + rng.uniform(-alpha, alpha)))
            vel = Vector.from_polar(rng.uniform(0.0, math.tau), rng.uniform(0.0, obj.max_speed))
            tickets.append(service.submit_update(oid, Point(x, y), vel))
        live = sorted(system.server.sqt.ids())
        for qid in rng.sample(live, min(self.removes, len(live))):
            tickets.append(service.remove_query(qid))
        for oid in rng.sample(self.oids, self.installs):
            spec = QuerySpec(oid=oid, region=Circle(0.0, 0.0, rng.uniform(1.0, 5.0)))
            tickets.append(service.install_query(spec))

    def unaccounted(self) -> int:
        """Submitted operations that are neither applied nor still queued
        (rejected, or lost): each counts as a failed operation."""
        return sum(1 for t in self.tickets if t.status != "applied")


class Driver:
    """Closed loop, one driver: the next step starts when the previous
    returns.  ``step`` times only the program's own work -- the service's
    admission slot plus the simulation step -- and excludes the ingest
    generation that precedes it."""

    def __init__(self, workload: Workload, system: MobiEyesSystem, seed: int, scale: float = 1.0):
        self.workload = workload
        self.system = system
        self.service = None
        self.ingest = None
        if workload.churn:
            self.service = MobiEyesService(system)
            self.ingest = IngestGenerator(system, self.service, seed, scale)
        # The traced run swaps these for span-recording equivalents.
        self.step_system = system.step
        self.admit = self.service.admit if self.service is not None else None

    def step(self) -> float:
        """One measured step; returns its wall seconds."""
        if self.ingest is not None:
            self.ingest.submit()
            started = time.perf_counter()
            self.admit()
            self.step_system()
            return time.perf_counter() - started
        started = time.perf_counter()
        self.step_system()
        return time.perf_counter() - started

    def close(self) -> None:
        self.system.close()


def make_inputs(workload: Workload, seed: int):
    """Generate one run's inputs (untimed: the benchmark's own work).

    The population and the query set *are* the workload: they come from
    ``POPULATION_SEED`` whatever ``seed`` is.  ``seed`` drives what happens
    to them -- the motion model's random velocity changes (and, in
    ``build``, the latency model and the ingest generator).  Seeding the
    population too makes the counters of one workload differ by 7-11%
    between seeds (``skew_sharded_latency``: how many focal objects land in
    the hotspot), which would force every bound to the contract's ceiling.
    """
    params = workload.params
    generated = generate_workload(params, SimulationRng(POPULATION_SEED).fork(1))
    return params, generated, SimulationRng(seed).fork(2)


def build(workload: Workload, seed: int, scale: float = 1.0, engine: str | None = None):
    """Set up one system; returns ``(driver, setup_seconds)``.

    ``setup_seconds`` covers building the system, installing the queries
    and the warm-up steps -- not the input generation before it.
    """
    if scale != 1.0:
        workload = workload.scaled(scale)
    params, generated, motion_rng = make_inputs(workload, seed)
    config = MobiEyesConfig(
        uod=params.uod,
        alpha=params.alpha,
        step_seconds=params.time_step_seconds,
        base_station_side=params.base_station_side,
        dead_reckoning_threshold=1.0,
        engine=engine or workload.engine,
        shards=workload.shards,
        shard_workers=0,
        uplink_latency_steps=workload.latency_steps,
        downlink_latency_steps=workload.latency_steps,
        latency_seed=seed,
        rebalance_schedule=workload.rebalance_schedule,
    )
    started = time.perf_counter()
    system = MobiEyesSystem(
        config,
        list(generated.objects),
        motion_rng,
        velocity_changes_per_step=params.velocity_changes_per_step,
    )
    system.install_queries(generated.query_specs)
    driver = Driver(workload, system, seed, scale)
    setup = time.perf_counter() - started
    for _ in range(WARMUP_STEPS):
        setup += driver.step()
    return driver, setup
