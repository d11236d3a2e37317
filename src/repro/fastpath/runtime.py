"""Engine glue: drives the vectorized kernels inside the phase loop.

:class:`FastpathRuntime` shares the vectorized motion model's
:class:`~repro.fastpath.store.ObjectStateStore`, owns the vectorized
coverage index (installed onto the transport in place of the dict-based
one) and the batch evaluator, and implements two hot phases of
:class:`~repro.core.system.MobiEyesSystem` (*movement* is the motion
model's own ``advance``, which the system calls on either engine):

- *reporting*: a vectorized cell-crossing scan picks the candidate objects
  (cell changed, or focal and therefore subject to the dead-reckoning
  check); only candidates run their scalar protocol reactions, strictly in
  ascending object-id order and in report windows by the reference loop's
  rule (one per run of non-focal candidates, one per focal candidate) so
  mid-phase broadcasts interleave exactly as in the reference loop.
  Non-candidates provably do nothing (the one argument is
  ``core/reporting.py``, "Who reports"), so skipping them is unobservable.
- *evaluation*: one system-wide :class:`BatchEvaluator` pass.

The *delivery* phase is not vectorized: deferred envelopes (nonzero
modeled latency) drain through the transport's scalar handlers, and the
client reactions they trigger -- LQT installs, focal-state flips --
reach the batch evaluator through the same push-based ``attach`` hooks
the reporting phase uses, so a message that arrives late lands in the
arena exactly as if its handler had run inline.

The reporting scan picks dead-reckoning candidates from the system's
``focal_flags`` -- the client-side registry of who believes it has moving
queries -- rather than the server's FOT.  The two agree in fault-free
runs (``FocalRoleNotification`` transitions are synchronous), but lease
suspension removes an object from the FOT while its client still acts
focal; the reference loop drives clients off ``has_mq``, so the scan
must too.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.core.reporting import report_runs
from repro.fastpath.coverage import VectorizedCoverageIndex
from repro.fastpath.evaluator import BatchEvaluator
from repro.fastpath.fanout import BroadcastFanout
from repro.fastpath.oracle import exact_results_fast

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.query import MovingQuery, QueryId
    from repro.core.system import MobiEyesSystem
    from repro.mobility.model import ObjectId
    from repro.sim.clock import SimulationClock


class FastpathRuntime:
    """Vectorized phase implementations for one MobiEyes system."""

    def __init__(self, system: "MobiEyesSystem") -> None:
        self.system = system
        self.store = system.motion.store
        np = self.store.np
        self.np = np
        self.coverage = VectorizedCoverageIndex(system.layout, system.grid, self.store)
        self.evaluator = BatchEvaluator(system.config, self.store, system.eval_counters)
        self.clients_in_order = [system.clients[oid] for oid in system._client_order]
        # From here on every LQT install/remove and focal-state refresh is
        # pushed to the evaluator instead of being polled per evaluation.
        self.evaluator.attach(self.clients_in_order)
        # Mirror of each client's `last_cell`, indexed by store row.  The
        # client attribute only changes inside `_handle_own_cell_change`,
        # which the reporting scan itself invokes, so the mirror cannot
        # drift.
        self.last_i = np.empty(self.store.n, dtype=np.int64)
        self.last_j = np.empty(self.store.n, dtype=np.int64)
        # Mirror of each client's relayed motion state, for the vectorized
        # dead-reckoning pre-filter; kept current through the client's
        # `_relayed_watcher` hook (fired on every `_set_relayed`).
        self.rel_x = np.empty(self.store.n, dtype=np.float64)
        self.rel_y = np.empty(self.store.n, dtype=np.float64)
        self.rel_vx = np.empty(self.store.n, dtype=np.float64)
        self.rel_vy = np.empty(self.store.n, dtype=np.float64)
        self.rel_rec = np.empty(self.store.n, dtype=np.float64)
        for row, obj in enumerate(self.store.objects):
            client = system.clients[obj.oid]
            cell = client.last_cell
            self.last_i[row] = cell[0]
            self.last_j[row] = cell[1]
            self._relayed_changed(obj.oid, client._relayed_state)
            client._relayed_watcher = self._relayed_changed
        # Bulk application of eligible server broadcasts, inline at send
        # or when a deferred run opens; the transport falls back to its
        # per-receiver loop whenever the fan-out declines (see its rules).
        self.fanout = BroadcastFanout(self)
        system.transport.fanout = self.fanout

    def _relayed_changed(self, oid: "ObjectId", state) -> None:
        """Client hook: mirror a relayed-state update into the DR columns."""
        row = self.store.row_of[oid]
        pos = state.pos
        vel = state.vel
        self.rel_x[row] = pos.x
        self.rel_y[row] = pos.y
        self.rel_vx[row] = vel.x
        self.rel_vy[row] = vel.y
        self.rel_rec[row] = state.recorded_at

    # ------------------------------------------------------------- phases

    def reporting_phase(self, clock: "SimulationClock") -> None:
        """Run the scalar report logic for the objects that need it."""
        store = self.store
        np = self.np
        now = clock.now_hours
        changed = (store.cell_i != self.last_i) | (store.cell_j != self.last_j)
        candidates = set(store.oids[changed].tolist()) if changed.any() else set()
        focal = self.system.focal_flags
        if focal:
            # Dead-reckoning pre-filter: a focal client that has not
            # crossed and whose phase-start deviation is within the
            # threshold is a no-op until its turn (core/reporting.py, "Who
            # reports").  The array expression replays the scalar
            # arithmetic exactly: predict's `pos + vel * dt` and
            # `math.hypot` (the same libm hypot `np.hypot` dispatches to).
            dt = now - self.rel_rec
            dx = store.x - (self.rel_x + self.rel_vx * dt)
            dy = store.y - (self.rel_y + self.rel_vy * dt)
            deviating = np.hypot(dx, dy) > self.system.config.dead_reckoning_threshold
            candidates.update(focal.intersection(store.oids[deviating].tolist()))
        if not candidates:
            return
        clients = self.system.clients
        row_of = store.row_of
        cell_i = store.cell_i
        cell_j = store.cell_j
        threshold = self.system.config.dead_reckoning_threshold
        # With batched reporting, one report window per run of consecutive
        # non-focal candidates and one per focal candidate (the reference
        # engine's rule, core/reporting.py::report_runs): a window flushes
        # before the next one opens.
        window = self.system.transport.report_window
        for run in report_runs(clients[oid] for oid in sorted(candidates)):
            with window:
                for client in run:
                    row = row_of[client.oid]
                    new_cell = (int(cell_i[row]), int(cell_j[row]))
                    if new_cell != client.last_cell:
                        # Keep the scan's mirror of `last_cell` in step (the
                        # handler sets the attribute as its first statement).
                        self.last_i[row] = new_cell[0]
                        self.last_j[row] = new_cell[1]
                        client._handle_own_cell_change(new_cell, now)
                    if client.has_mq:
                        deviation = client.obj.pos.distance_to(client._relayed_state.predict(now))
                        if deviation > threshold:
                            client._relay_motion_state(now)

    def evaluation_phase(self, clock: "SimulationClock") -> None:
        """One batched pass over every client's local query table."""
        started = time.perf_counter()
        with self.system.transport.report_window:
            self.evaluator.run(clock.now_hours)
        self.system.eval_counters.processing_seconds += time.perf_counter() - started

    def oracle_results(
        self, queries: "list[MovingQuery]"
    ) -> "dict[QueryId, frozenset[ObjectId]]":
        """Vectorized ground-truth evaluation on the current store state."""
        return exact_results_fast(self.coverage, queries, self.system.grid)
