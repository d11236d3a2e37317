"""The centralized moving-query processor used as the paper's baseline.

Everything happens at the server: objects uplink reports per a
:class:`~repro.baselines.reporting.ReportingPolicy` (naive or central
optimal), the server maintains a server-side position store (extrapolating
from velocity vectors under central-optimal reporting), keeps a spatial
index over objects or over queries, and evaluates all queries each step.

The system exposes the same driving surface as
:class:`~repro.core.system.MobiEyesSystem` (``install_query`` / ``run`` /
``result`` / ``metrics``) so experiments can swap engines.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.baselines.object_index import ObjectIndexEngine
from repro.baselines.query_index import QueryIndexEngine
from repro.baselines.reporting import CentralOptimalReporting, NaiveReporting
from repro.core.query import MovingQuery, QueryId, QuerySpec
from repro.geometry import Point, Rect
from repro.metrics.accuracy import exact_results, mean_result_error
from repro.metrics.collectors import MetricsLog, StepStats
from repro.mobility.model import MotionState, MovingObject, ObjectId
from repro.network.messaging import MessageLedger
from repro.sim.clock import SimulationClock
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SimulationRng
from repro.grid import Grid
from repro.mobility.motion import MotionModel


class ReportingMode(enum.Enum):
    """How objects report to the central server."""

    NAIVE = "naive"
    CENTRAL_OPTIMAL = "central-optimal"


class IndexingMode(enum.Enum):
    """Which side the central server indexes."""

    OBJECTS = "objects"
    QUERIES = "queries"


@dataclass(frozen=True, slots=True)
class CentralizedConfig:
    """Configuration of the centralized baseline."""

    uod: Rect
    step_seconds: float = 30.0
    reporting: ReportingMode = ReportingMode.NAIVE
    indexing: IndexingMode = IndexingMode.OBJECTS
    dead_reckoning_threshold: float = 0.0
    #: grid cell size used only by the oracle's bucketing (not the protocol)
    oracle_alpha: float = 5.0


class CentralizedSystem:
    """A central server evaluating all moving queries itself."""

    def __init__(
        self,
        config: CentralizedConfig,
        objects: Sequence[MovingObject],
        rng: SimulationRng | None = None,
        velocity_changes_per_step: int = 0,
        track_accuracy: bool = False,
        warmup_steps: int = 0,
        motion: MotionModel | None = None,
    ) -> None:
        self.config = config
        self.rng = rng if rng is not None else SimulationRng()
        self.ledger = MessageLedger()
        if motion is not None:
            if list(motion.objects) != list(objects):
                raise ValueError("motion model must wrap the same object population")
            self.motion = motion
        else:
            self.motion = MotionModel(
                objects, config.uod, self.rng, velocity_changes_per_step=velocity_changes_per_step
            )
        self._objects: dict[ObjectId, MovingObject] = {o.oid: o for o in self.motion.objects}
        self._object_order = sorted(self._objects)
        self.track_accuracy = track_accuracy
        self._oracle_grid = Grid(config.uod, config.oracle_alpha)

        if config.reporting is ReportingMode.NAIVE:
            self.policy = NaiveReporting()
        else:
            self.policy = CentralOptimalReporting(threshold=config.dead_reckoning_threshold)

        if config.indexing is IndexingMode.OBJECTS:
            self.index = ObjectIndexEngine()
        else:
            self.index = QueryIndexEngine()

        # Server-side knowledge: last reported motion state per object.
        # Initial states are known at registration time.
        self._server_states: dict[ObjectId, MotionState] = {
            oid: self._objects[oid].snapshot() for oid in self._object_order
        }
        self._server_positions: dict[ObjectId, Point] = {
            oid: state.pos for oid, state in self._server_states.items()
        }
        self._queries: dict[QueryId, MovingQuery] = {}
        self._results: dict[QueryId, set[ObjectId]] = {}
        self._next_qid: QueryId = 1
        self._pending_reports: list[tuple[ObjectId, MotionState]] = []

        # Lifetime totals of the server phase; a step's figures are the
        # totals minus the mark taken at the previous sample.  An op is a
        # changed position, an evaluated query or an index node read, so the
        # two index modes differ in ops and not only in seconds.
        self.server_seconds = 0.0
        self.server_ops = 0
        self.metrics = MetricsLog(
            step_seconds=config.step_seconds,
            population=len(self.motion),
            warmup_steps=warmup_steps,
        )
        self._step_mark = self._sample_totals()

        self.engine = SimulationEngine(SimulationClock(config.step_seconds))
        self.engine.register("movement", self._movement_phase)
        self.engine.register("reporting", self._reporting_phase)
        self.engine.register("server", self._server_phase)
        self.engine.register("measurement", self._measurement_phase)

        # Seed the index with the initial positions (server work, untimed
        # setup -- the paper measures steady-state load).
        for oid in self._object_order:
            self._apply_position(oid, self._server_positions[oid])

    # --------------------------------------------------------------- API

    @property
    def clock(self) -> SimulationClock:
        """The simulation clock driving this system."""
        return self.engine.clock

    def install_query(self, spec: QuerySpec) -> QueryId:
        """Register a query at the server (no wireless traffic involved)."""
        if spec.oid is not None and spec.oid not in self._objects:
            raise KeyError(f"unknown focal object {spec.oid}")
        qid = self._next_qid
        self._next_qid += 1
        query = spec.with_qid(qid)
        self._queries[qid] = query
        self._results[qid] = set()
        if isinstance(self.index, QueryIndexEngine):
            focal_pos = self._server_positions[spec.oid] if spec.oid is not None else None
            self.index.add_query(query, focal_pos)
        return qid

    def install_queries(self, specs: Iterable[QuerySpec]) -> list[QueryId]:
        """Install several query specs; returns their qids in order."""
        return [self.install_query(spec) for spec in specs]

    def remove_query(self, qid: QueryId) -> None:
        """Uninstall a query everywhere it is known."""
        del self._queries[qid]
        self._results.pop(qid, None)
        if isinstance(self.index, QueryIndexEngine):
            self.index.remove_query(qid)

    def step(self) -> int:
        """Advance the simulation by one time step."""
        return self.engine.step()

    def run(self, steps: int) -> int:
        """Run ``steps`` consecutive steps; returns the final step index."""
        return self.engine.run(steps)

    def result(self, qid: QueryId) -> frozenset[ObjectId]:
        """The current result set of a query."""
        return frozenset(self._results[qid])

    def results(self) -> dict[QueryId, frozenset[ObjectId]]:
        """All current query results, keyed by query id."""
        return {qid: frozenset(members) for qid, members in self._results.items()}

    def oracle_results(self) -> dict[QueryId, frozenset[ObjectId]]:
        """Exact results computed from true positions (ground truth)."""
        return exact_results(self.motion.objects, self._queries.values(), self._oracle_grid)

    # ------------------------------------------------------------- phases

    def _movement_phase(self, clock: SimulationClock) -> None:
        self.motion.advance(clock.step_hours, clock.now_hours)

    def _reporting_phase(self, clock: SimulationClock) -> None:
        self._pending_reports.clear()
        for oid in self._object_order:
            report = self.policy.report(self._objects[oid], clock.now_hours)
            if report is None:
                continue
            state, bits = report
            self.ledger.record_uplink(type(self.policy).__name__, bits, sender=oid)
            self._pending_reports.append((oid, state))

    def _server_phase(self, clock: SimulationClock) -> None:
        started = time.perf_counter()
        visited = self.index.node_visits
        # 1. Ingest reports into the server-side store.
        for oid, state in self._pending_reports:
            self._server_states[oid] = state
        # 2. Refresh server-side positions (extrapolating under
        #    central-optimal reporting) and update the index.  With the
        #    query index, all focal rects move before any object is probed
        #    so probes see a consistent snapshot of the query regions.
        now = clock.now_hours
        extrapolate = self.config.reporting is ReportingMode.CENTRAL_OPTIMAL
        changed: list[ObjectId] = []
        for oid in self._object_order:
            state = self._server_states[oid]
            pos = state.predict(now) if extrapolate else state.pos
            if pos != self._server_positions[oid]:
                self._server_positions[oid] = pos
                changed.append(oid)
                self.server_ops += 1
        if isinstance(self.index, QueryIndexEngine):
            for oid in changed:
                self.index.update_focal(oid, self._server_positions[oid])
            for oid in changed:
                self.index.probe(oid, self._server_positions[oid], self._objects[oid])
        else:
            for oid in changed:
                self.index.apply_position(oid, self._server_positions[oid])
        # 3. Evaluate all queries.
        evaluated = self.index.evaluate(self._queries, self._server_positions, self._objects)
        for qid, members in evaluated.items():
            self._results[qid] = members
        self.server_ops += len(self._queries) + self.index.node_visits - visited
        self.server_seconds += time.perf_counter() - started

    def _apply_position(self, oid: ObjectId, pos: Point) -> None:
        if isinstance(self.index, QueryIndexEngine):
            self.index.update_focal(oid, pos)
            self.index.probe(oid, pos, self._objects[oid])
        else:
            self.index.apply_position(oid, pos)

    def _sample_totals(self) -> tuple:
        """The lifetime totals a step sample is a difference of."""
        ledger = self.ledger
        return (
            self.server_seconds,
            self.server_ops,
            ledger.uplink_count,
            ledger.downlink_count,
            ledger.uplink_bits,
            ledger.downlink_bits,
            ledger.total_energy(),
        )

    def _measurement_phase(self, clock: SimulationClock) -> None:
        totals = self._sample_totals()
        seconds, ops, uplinks, downlinks, uplink_bits, downlink_bits, energy = (
            now - before for now, before in zip(totals, self._step_mark)
        )
        self._step_mark = totals
        error = None
        if self.track_accuracy:
            error = mean_result_error(self.results(), self.oracle_results())
        self.metrics.append(
            StepStats(
                step=clock.step,
                server_seconds=seconds,
                server_ops=ops,
                uplink_messages=uplinks,
                downlink_messages=downlinks,
                uplink_bits=uplink_bits,
                downlink_bits=downlink_bits,
                energy_joules=energy,
                result_error=error,
            )
        )
