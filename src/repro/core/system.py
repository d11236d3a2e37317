"""End-to-end MobiEyes system: the public facade of the reproduction.

:class:`MobiEyesSystem` wires together the grid, the base-station layout,
the simulated transport, the server, one client per moving object, and the
motion model, then drives them with the time-stepped engine:

1. *movement* -- objects move; ``nmo`` random objects pick new velocity
   vectors; the transport's coverage index is refreshed.
2. *reporting* -- clients detect cell crossings and (for focal objects)
   dead-reckoning deviations, and uplink reports; with zero modeled
   latency the server reacts inline with installs/broadcasts.
3. *delivery* -- the transport drains deferred envelopes whose modeled
   latency elapsed and runs the reliability retransmit timers (a no-op
   without a latency model).
4. *evaluation* -- every client processes its LQT (each step, as in the
   paper) and uplinks differential result changes.
5. *measurement* -- per-step metrics are recorded.

Typical use::

    config = MobiEyesConfig(uod=Rect(0, 0, 100, 100), alpha=5.0)
    system = MobiEyesSystem(config, objects, rng, velocity_changes_per_step=10)
    qid = system.install_query(QuerySpec(oid=3, region=Circle(0, 0, 2.0)))
    system.run(steps=100)
    print(system.result(qid))

The live objects are ``system.motion.objects``: on the reference engine the
caller's, moved in place; on the vectorized one views over its store.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.client import EvalCounters, MobiEyesClient
from repro.core.config import MobiEyesConfig
from repro.core.load import LoadAccount, read_counters
from repro.core.messages import RebalanceDirective, ResyncDirective
from repro.core.query import QueryId, QuerySpec
from repro.core.reporting import report_runs
from repro.core.server import STATIC_BEACON_STEPS, MobiEyesServer
from repro.core.snapshot import capture_basis, decode_basis
from repro.core.transport import SimulatedTransport
from repro.grid import CellRange, Grid
from repro.metrics.accuracy import exact_results, mean_result_error
from repro.metrics.collectors import MetricsLog, StepStats
from repro.mobility.model import MovingObject, ObjectId
from repro.mobility.motion import MotionModel
from repro.network.basestation import BaseStationLayout
from repro.network.latency import LatencyModel
from repro.network.messaging import MessageLedger
from repro.sim.clock import SimulationClock
from repro.sim.engine import SimulationEngine
from repro.sim.rng import SimulationRng
from repro.sim.trace import TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector


class MobiEyesSystem:
    """A complete distributed MobiEyes deployment in simulation."""

    #: Lifetime counters (core/load.py).
    COUNTERS = ("checkpoints_taken",)
    #: The facade's own attributes a checkpoint carries (core/snapshot.py).
    CHECKPOINT_FIELDS = ("_step_mark", "log", "_unstepped_updates", *COUNTERS)

    def __init__(
        self,
        config: MobiEyesConfig,
        objects: Sequence[MovingObject],
        rng: SimulationRng | None = None,
        velocity_changes_per_step: int = 0,
        track_accuracy: bool = False,
        trace: TraceLog | None = None,
        warmup_steps: int = 0,
        loss: FaultInjector | None = None,
        motion: MotionModel | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.config = config
        self.rng = rng if rng is not None else SimulationRng()
        self.grid = Grid(config.uod, config.alpha)
        self.layout = BaseStationLayout(self.grid, config.base_station_side)
        self.log = trace if trace is not None else TraceLog()
        self.ledger = MessageLedger(trace=trace)
        self.transport = SimulatedTransport(self.layout, self.grid, self.ledger, loss=loss)
        if config.batch_reports:
            # Clients append the high-volume uplink reports to one buffer
            # while a phase's report window is open; the transport flushes
            # it with identical per-record accounting.
            self.transport.enable_report_batching()
        # Per-link delivery latency: an explicit model wins; otherwise the
        # config's knobs (all-zero means no model -- the inline fast path).
        self.latency = latency if latency is not None else LatencyModel.from_config(config)
        if self.latency is not None:
            self.transport.set_latency(self.latency)
        if config.shards > 1:
            from repro.core.coordinator import Coordinator

            self.server = Coordinator(self.grid, self.transport, config)
        else:
            self.server = MobiEyesServer(self.grid, self.transport, config)
        # A custom mobility model (e.g. random waypoint) may be supplied;
        # it must manage the same object population.
        if motion is not None:
            if config.engine == "vectorized":
                raise ValueError("a custom motion model needs engine='reference'")
            if list(motion.objects) != list(objects):
                raise ValueError("motion model must wrap the same object population")
            self.motion = motion
        elif config.engine == "vectorized":
            from repro.fastpath.motion import VectorizedMotionModel

            self.motion = VectorizedMotionModel(
                objects, config.uod, self.rng, velocity_changes_per_step=velocity_changes_per_step
            )
        else:
            self.motion = MotionModel(
                objects, config.uod, self.rng, velocity_changes_per_step=velocity_changes_per_step
            )
        # The one evaluation-counter object every client (and the batch
        # evaluator) increments.
        self.eval_counters = EvalCounters()
        self.clients: dict[ObjectId, MobiEyesClient] = {
            obj.oid: MobiEyesClient(obj, self.grid, self.transport, config, self.eval_counters)
            for obj in self.motion.objects
        }
        self._client_order = sorted(self.clients)
        # Client-side view of who holds moving queries.  The fastpath uses
        # this (rather than the server's FOT) to pick dead-reckoning
        # candidates, because lease suspension can remove an object from
        # the FOT while its client still believes it is focal.
        self.focal_flags: set[ObjectId] = set()
        for client in self.clients.values():
            client.focal_registry = self.focal_flags
        # The server tables as bytes (snapshot.capture_basis), retaken every
        # ``checkpoint_every_steps``: what a crashed shard is rebuilt from.
        self.recovery_basis: bytes | None = None
        self.checkpoints_taken = 0
        # step -> (crash ops, transfers, splits / merges) due at that
        # boundary, resolved here once (see _boundary_slot).
        self._due: dict[int, tuple[list, list, list]] = {}
        self._rebalance_policy = None
        if config.rebalance_every_steps and config.shards > 1:
            from repro.core.rebalance import RebalancePolicy

            # elastic_max_shards > 0 lets the thermostat change the shard
            # count too: split a persistently hot stripe into a spawned
            # shard, merge a persistently cold one away.
            self._rebalance_policy = RebalancePolicy(config.elastic_max_shards)
        if loss is not None:
            # Fault injection: bind the injector to live positions (and to
            # the coordinator's dead set), turn on server leases, and give
            # every client the fault policy (heartbeats and resync).
            uplink_dead = getattr(self.server, "uplink_dead", None)
            loss.bind(self.layout, lambda oid: self.clients[oid].obj.pos, uplink_dead)
            self.server.enable_leases(loss.policy.lease_steps)
            for client in self.clients.values():
                client.fault_policy = loss.policy
            self._schedule_crashes(loss.schedule.crashes)
        for step, *transfer in config.rebalance_schedule:
            self._due_at(step)[1].append(("transfer", *transfer))
        for step, *op in config.elastic_schedule:
            self._due_at(step)[2].append(tuple(op))
        # Service runtime attach point (core/service.py): the live service
        # wrapping this system, and -- after a restore -- the checkpointed
        # ingest-queue state waiting for the next service to adopt.
        self._service = None
        self._pending_service_state = None
        # ``oid -> (pos, vel, recorded_at)`` before the external updates
        # applied since the last movement phase: where the coverage index
        # still holds those objects, so a restore can rebuild it the same.
        self._unstepped_updates: dict[ObjectId, tuple] = {}
        self._fastpath = None
        if config.engine == "vectorized":
            from repro.fastpath.runtime import FastpathRuntime

            self._fastpath = FastpathRuntime(self)
            # All coverage queries from here on go through the array index.
            self.transport.coverage = self._fastpath.coverage
        self.track_accuracy = track_accuracy
        self._closed = False
        self.metrics = MetricsLog(
            step_seconds=config.step_seconds,
            population=len(self.motion),
            warmup_steps=warmup_steps,
        )
        # The lifetime totals at the last step sample (see _sample_totals).
        self._step_mark = self._sample_totals()

        self.engine = SimulationEngine(SimulationClock(config.step_seconds))
        self.engine.register("movement", self._movement_phase)
        self.engine.register("reporting", self._reporting_phase)
        self.engine.register("delivery", self._delivery_phase)
        if loss is not None:
            self.engine.register("server", self._fault_phase)
        self.engine.register("evaluation", self._evaluation_phase)
        self.engine.register("measurement", self._measurement_phase)
        # The install-time broadcasts need a valid coverage index.
        self.transport.begin_step(0, self._positions())

    # --------------------------------------------------------------- API

    @property
    def clock(self) -> SimulationClock:
        """The simulation clock driving this system."""
        return self.engine.clock

    @property
    def crash_log(self) -> list[dict]:
        """What each crash erased and each recovery rebuilt, from the log."""
        return [e.details for e in self.log.events if e.kind in ("crash", "recover")]

    @property
    def rebalance_log(self) -> list[dict]:
        """The applied transfers, splits and merges, from the log."""
        return [e.details for e in self.log.events if e.kind in ("transfer", "split", "merge")]

    def install_query(self, spec: QuerySpec) -> QueryId:
        """Install a moving query; returns its server-assigned qid."""
        return self.server.install_query(spec)

    def install_queries(self, specs: Iterable[QuerySpec]) -> list[QueryId]:
        """Install several query specs; returns their qids in order."""
        return [self.install_query(spec) for spec in specs]

    def remove_query(self, qid: QueryId) -> None:
        """Uninstall a query everywhere it is known."""
        self.server.remove_query(qid)

    def apply_external_update(self, oid: ObjectId, pos, vel) -> None:
        """Adopt an externally reported position/velocity for one object.

        The service runtime's ingest path, applied *between* steps (the
        current clock boundary): the next step's movement, reporting, and
        evaluation see the new state exactly as if the object had moved
        there itself, so a scripted sequence of these calls replayed at
        fixed steps is bit-identical however it is driven (service queue
        or direct calls).

        The object's safe periods were bounds from where it stood, so the
        ones it has set are voided.
        """
        client = self.clients[oid]
        obj = client.obj
        self._unstepped_updates.setdefault(oid, (obj.pos, obj.vel, obj.recorded_at))
        self.motion.apply_update(oid, pos, vel, self.clock.now_hours)
        client.lqt.void_safe_periods()

    def step(self) -> int:
        """Advance the simulation by one time step."""
        return self.engine.step()

    def run(self, steps: int) -> int:
        """Run ``steps`` consecutive steps; returns the final step index."""
        return self.engine.run(steps)

    def result(self, qid: QueryId) -> frozenset[ObjectId]:
        """The differentially maintained result of a query."""
        return self.server.query_result(qid)

    def subscribe(self, qid: QueryId, callback) -> None:
        """Fire ``callback(qid, oid, entered)`` on every result change."""
        self.server.subscribe(qid, callback)

    def unsubscribe(self, qid: QueryId, callback) -> None:
        """Remove a previously registered result callback (no-op if absent)."""
        self.server.unsubscribe(qid, callback)

    def results(self) -> dict[QueryId, frozenset[ObjectId]]:
        """All current query results, keyed by query id."""
        return {qid: self.server.query_result(qid) for qid in self.server.sqt.ids()}

    def oracle_results(self) -> dict[QueryId, frozenset[ObjectId]]:
        """Exact results computed from true positions (the ground truth)."""
        if self._fastpath is not None:
            return self._fastpath.oracle_results(self.server.installed_queries())
        return exact_results(self.motion.objects, self.server.installed_queries(), self.grid)

    def client(self, oid: ObjectId) -> MobiEyesClient:
        """The client state machine of one moving object."""
        return self.clients[oid]

    def counters(self) -> dict:
        """Every lifetime counter of the system (plus its owners' gauges)
        under one flat ``"<owner>.<name>"`` key: the read-only view the
        run driver's report is filled from.  Owners the system
        was built without are absent."""
        transport = self.transport
        sections = {
            "system": read_counters(self),
            "server": dict(zip(LoadAccount.COUNTERS, self.server.load_totals())),
            "eval": read_counters(self.eval_counters),
            "ledger": read_counters(self.ledger),
            "transport": read_counters(transport),
            "policy": read_counters(self._rebalance_policy),
        }
        for name, owner in (
            ("reliability", transport.reliability),
            ("injector", transport.loss),
            ("service", self._service),
        ):
            if owner is not None:
                sections[name] = owner.counters()
        return {
            f"{owner}.{name}": value
            for owner, section in sections.items()
            for name, value in section.items()
        }

    def check_invariants(self) -> None:
        """Protocol invariants validated by the test suite.

        With modeled latency the client-side coupling invariants are
        relaxed: installs, removals, and monitoring-region updates may
        still be in flight, so a client's LQT can legitimately lag the
        server's tables until the pipeline drains.  Likewise while a
        downlink can be lost: a receiver that missed a removal or a region
        update lags until its next cell change or resync.  The structural
        server-side invariants and the "never monitor your own query"
        rule hold regardless.
        """
        self.server.check_invariants()
        transport = self.transport
        assert transport._envelope_seq == (
            transport.delivered_deferred
            + transport.discarded_envelopes
            + transport.pending_count()
        ), "an envelope is neither delivered, discarded nor queued"
        # Likewise while a shard is dead and for a client that still owes the
        # resync a recovery directed: the LQT may hold what the crash erased.
        relaxed = (
            transport.latency_active
            or transport.pending_count() > 0
            or self.server.dead_shards
            or (transport.loss is not None and transport.loss.drops_downlinks)
        )
        for oid in self._client_order:
            client = self.clients[oid]
            for entry in client.lqt.entries():
                assert entry.oid != oid, "object monitors its own query"
                if relaxed or client._needs_resync:
                    continue
                assert entry.qid in self.server.sqt, "LQT holds a removed query"
                assert entry.mon_region.contains(client.last_cell), (
                    "LQT entry's monitoring region does not cover the object's cell"
                )
        if self._fastpath is not None:
            self._fastpath.evaluator.check_invariants()

    # ------------------------------------------------------------- phases

    def _positions(self) -> list[tuple[ObjectId, object]]:
        # The vectorized coverage index reads the store's columns instead.
        return [(o.oid, o.pos) for o in self.motion.objects] if self._fastpath is None else []

    def _movement_phase(self, clock: SimulationClock) -> None:
        self._boundary_slot(clock.step)
        self._unstepped_updates.clear()
        self.motion.advance(clock.step_hours, clock.now_hours)
        self.transport.begin_step(clock.step, self._positions())

    def _due_at(self, step: int) -> tuple[list, list, list]:
        return self._due.setdefault(step, ([], [], []))

    def _schedule_crashes(self, crashes: tuple) -> None:
        """Resolve the fault schedule's crash windows into boundary ops,
        refusing what could only fail later, out of ``step()``."""
        if not crashes:
            return
        config = self.config
        every = config.checkpoint_every_steps
        if config.elastic_schedule:
            # The load-driven fleet (elastic_max_shards) is fine: the policy
            # holds while a shard is dead.
            raise ValueError(
                "shard crash windows cannot be combined with elastic_schedule: both name "
                "shard ids by hand, and a scheduled split / merge can retire, recycle or "
                "hand live state to the very slot a window kills"
            )
        if config.shards <= 1:
            raise ValueError("shard crash windows require a sharded server (config.shards > 1)")
        for window in crashes:
            if window.shard >= self.server.num_shards:
                raise ValueError(
                    f"crash window targets shard {window.shard} but the "
                    f"partitioner built only {self.server.num_shards} shards"
                )
            if not 0 < every < window.start:
                # The slot crashes before it captures: the first basis
                # exists from the boundary after step ``every``'s.
                raise ValueError(
                    f"{window} opens before any recovery basis exists to rebuild the shard "
                    f"from (checkpoint_every_steps={every}: 0 captures none, N first at step N)"
                )
        for window in crashes:
            self._due_at(window.end)[0].append(("recover", window.shard))
        for window in crashes:
            self._due_at(window.start)[0].append(("crash", window.shard))

    def _boundary_slot(self, step: int) -> None:
        """Everything that happens *between* steps, at the very top of the
        movement phase: the clock already reads ``step`` but nothing of it
        has happened (the post-``step - 1`` boundary).  In order: recover
        the shards whose crash window ends here (this step's traffic sees
        the rebuilt tables), kill those whose window starts here (before
        any new delivery), retake the recovery basis on a cadence tick,
        then move boundaries: scheduled transfers, scheduled splits /
        merges, the load-driven policy.

        ``rebalance_schedule`` triggers fire unconditionally and always
        broadcast one rebalance directive -- even under a monolithic
        server or when the operation clamps to a no-op for this shard
        count -- so a fixed schedule yields identical message counts and
        energy ledgers across 1/2/4 shards and both engines.
        """
        crash_ops, transfers, elastic_ops = self._due.get(step, ((), (), ()))
        for op in crash_ops:
            self.apply_op(op, "schedule", step)
        config = self.config
        every = config.checkpoint_every_steps
        # A dead shard cannot contribute its tables (the old basis stays),
        # and its frozen ``ops`` read as a cold stripe the policy would hand
        # columns to (the policy holds).
        all_up = not self.server.dead_shards
        if every and step % every == 0 and all_up:
            self.recovery_basis = capture_basis(self)
            self.checkpoints_taken += 1
        if transfers:
            if config.shards > 1:
                for op in transfers:
                    self.apply_op(op, "schedule", step, announce=False)
                epoch = self.server.partition_epoch
            else:
                # Monolith: no map to mutate, but the directive still goes
                # out (see above); derive the advertised epoch statelessly
                # so checkpoint/restore replays the same value.
                epoch = sum(1 for op in config.rebalance_schedule if op[0] <= step)
            self._broadcast_everywhere(RebalanceDirective(epoch=epoch))
        for op in elastic_ops:
            self.apply_op(op, "schedule", step)
        policy = self._rebalance_policy
        if policy is not None and all_up and step % config.rebalance_every_steps == 0:
            # It reads only the deterministic ``ops`` counters.
            part = self.server.partitioner
            rows = self.server.shard_loads()
            totals = {row["shard"]: float(row["ops"]) for row in rows}
            widths = {row["shard"]: part.width_of(row["shard"]) for row in rows}
            proposal = policy.propose(totals, widths, part.order)
            if proposal is not None:
                self.apply_op(proposal, "policy", step)

    def apply_op(self, op: tuple, source: str, step: int, announce: bool = True) -> None:
        """Apply one step-boundary operation through the coordinator, stamp
        its summary with ``step``, write it to the log as an event of the
        op's kind and announce it: ``("recover", sid)`` / ``("crash",
        sid)`` read back through ``crash_log`` (a recovery directs every
        client to resync), ``("transfer", src, dst, cols)`` / ``("split",
        donor)`` / ``("merge", sid, into)`` through ``rebalance_log``
        (moved columns advertise the new epoch).  The schedules, the
        policy and the tests all come through here."""
        coordinator = self.server
        kind = op[0]
        directive = None
        if kind == "recover":
            sections = decode_basis(self.recovery_basis)
            summary = coordinator.recover_shard(op[1], sections, step)
            directive = ResyncDirective()
        elif kind == "crash":
            summary = coordinator.crash_shard(op[1])
        else:
            if kind == "split":
                summary = coordinator.spawn_shard(op[1])
            elif kind == "merge":
                summary = coordinator.retire_shard(op[1], op[2])
            else:
                summary = coordinator.apply_rebalance(*op[1:])
            summary["trigger"] = source if kind == "transfer" else f"{source}-{kind}"
            if summary["cols_moved"]:
                directive = RebalanceDirective(epoch=coordinator.partition_epoch)
        summary["step"] = step
        self.log.record(step, kind, **summary)
        if announce and directive is not None:
            self._broadcast_everywhere(directive)

    def _broadcast_everywhere(self, directive: object) -> None:
        """Grid-wide directive (coverage still matches true positions:
        movement has not run yet)."""
        grid = self.grid
        self.transport.broadcast(CellRange(0, grid.n_cols - 1, 0, grid.n_rows - 1), directive)

    def _reporting_phase(self, clock: SimulationClock) -> None:
        if self._fastpath is not None:
            self._fastpath.reporting_phase(clock)
        else:
            # Only the candidates report: a client that is not focal and
            # has not left its last cell does nothing (core/reporting.py,
            # "Who reports").  With batched reporting, one report window
            # per run of consecutive non-focal candidates and one per focal
            # candidate: the window flushes (closed) before the next one
            # opens, so every reaction that can reach a later client's
            # report has run before that client reports -- as on the
            # per-message path.
            window = self.transport.report_window
            clients = self.clients
            focal = self.focal_flags
            cell_of = self.transport.coverage.cell_of
            candidates = (
                clients[oid]
                for oid in self._client_order
                if oid in focal or cell_of(oid) != clients[oid].last_cell
            )
            for run in report_runs(candidates):
                with window:
                    for client in run:
                        client.report_phase(clock)
        if self.config.propagation.is_lazy and clock.step % STATIC_BEACON_STEPS == 0:
            self.server.beacon_static_queries()

    def _delivery_phase(self, clock: SimulationClock) -> None:
        """Drain deferred envelopes due this step (no-op without latency)."""
        self.transport.delivery_phase(clock.step)

    def _fault_phase(self, clock: SimulationClock) -> None:
        """Fault-injection housekeeping between reporting and evaluation.

        Clients run their heartbeat/resync logic (so a resync completed
        here feeds the same step's evaluation), then the server expires
        leases of objects it has not heard from.
        """
        for oid in self._client_order:
            self.clients[oid].fault_phase(clock)
        self.server.expire_leases(clock.step)

    def _evaluation_phase(self, clock: SimulationClock) -> None:
        if self._fastpath is not None:
            self._fastpath.evaluation_phase(clock)
            return
        # One window around the whole evaluation pass: result reports only
        # flow client -> server here (applying one cannot influence another
        # client's evaluation), so a single end-of-phase flush is safe.  A
        # client with an empty table has nothing to evaluate.  The clients
        # share one prediction memo, so each focal state is predicted once
        # a phase (``MobiEyesClient.evaluation_phase`` says why that is exact).
        clients = self.clients
        memo: dict = {}
        with self.transport.report_window:
            for oid in self._client_order:
                client = clients[oid]
                if client.lqt:
                    client.evaluation_phase(clock, memo)

    def close(self) -> None:
        """End of the system's lifecycle.  Idempotent; the system holds
        no background resources, so this only marks it closed."""
        self._closed = True

    def __enter__(self) -> "MobiEyesSystem":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager teardown."""
        self.close()

    def _sample_totals(self) -> tuple:
        """The lifetime totals a step sample is a difference of."""
        ledger, evals, transport = self.ledger, self.eval_counters, self.transport
        return (
            *self.server.load_totals(),
            ledger.uplink_count,
            ledger.downlink_count,
            ledger.uplink_bits,
            ledger.downlink_bits,
            ledger.total_energy(),
            evals.evaluated_queries,
            evals.skipped_by_safe_period,
            evals.skipped_by_grouping,
            evals.processing_seconds,
            transport.delivered_deferred,
            transport.delivered_delay_sum,
        )

    def _measurement_phase(self, clock: SimulationClock) -> None:
        totals = self._sample_totals()
        (
            server_seconds, server_ops,
            uplinks, downlinks, uplink_bits, downlink_bits, energy,
            evaluated, skipped_sp, skipped_group, processing,
            delivered, delay_sum,
        ) = (now - before for now, before in zip(totals, self._step_mark))
        self._step_mark = totals

        if self._fastpath is not None:
            # The batch evaluator tracks the LQT sizes; no per-client walk.
            lqt_total = self._fastpath.evaluator.lqt_total()
        else:
            lqt_total = sum(len(client.lqt) for client in self.clients.values())

        # The oracle pass is by far the most expensive part of measurement,
        # so accuracy is sampled only when asked for.
        error = None
        if self.track_accuracy:
            error = mean_result_error(self.results(), self.oracle_results())

        self.metrics.append(
            StepStats(
                step=clock.step,
                server_seconds=server_seconds,
                server_ops=server_ops,
                uplink_messages=uplinks,
                downlink_messages=downlinks,
                uplink_bits=uplink_bits,
                downlink_bits=downlink_bits,
                energy_joules=energy,
                mean_lqt_size=lqt_total / max(1, len(self.clients)),
                evaluated_queries=evaluated,
                skipped_by_safe_period=skipped_sp,
                skipped_by_grouping=skipped_group,
                object_processing_seconds=processing,
                result_error=error,
                inflight_messages=self.transport.pending_count(),
                delivered_messages=delivered,
                delivery_delay_steps=delay_sum,
            )
        )
