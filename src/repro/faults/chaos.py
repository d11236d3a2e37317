"""Chaos harness: run MobiEyes under a scripted fault storm and grade it.

The harness builds a Table-1 workload, attaches a
:class:`~repro.faults.injector.FaultInjector` with a canonical schedule
(one base-station outage over the center of the universe of discourse
plus rolling per-object disconnections, optionally topped with channel
loss), runs the system step by step, and compares the protocol's results
against the exact oracle after every step.

The report is a plain JSON-safe dict and is bit-identical across runs
with the same arguments -- with one carve-out: the ``shard_loads`` /
``load_balance`` blocks include wall-clock seconds views (charged shard
time, ``imbalance_seconds``, critical min/max), which vary run to run.
Everything the differential checks grade (``result_hash``, ``drops``,
``message_counts``, ``per_step``) contains no wall-clock values and the
two engines produce it identically apart from the ``engine`` field.

Convergence metrics:

- ``reconvergence``: for each fault window, how many steps after the
  window closed the system needed to recover exactly (``null`` if it
  never did within the run).
- ``staleness_weighted_error``: mean over steps of the symmetric error
  fraction weighted by how many consecutive steps the system had already
  been wrong -- long-lived staleness is punished quadratically, brief
  blips barely register.

Recovery basis: with zero modeled latency, "recovered" means matching
the exact oracle (fault-free runs match it every step).  With nonzero
latency the oracle is an unfair yardstick -- even a fault-free run lags
it by the delivery pipeline's depth -- so the harness runs a fault-free
*twin* with the identical latency configuration alongside and grades
recovery as exact realignment with the twin's results.  The twin
comparison is exact only for deterministic delays (``latency_jitter``
0): jitter rolls are consumed per enqueued message, so a faulted run and
its twin draw different delays and never bit-realign.
"""

from __future__ import annotations

import dataclasses

from repro.core.load import counter_section, fleet_section
from repro.faults.channels import mean_rate_channel
from repro.faults.injector import FaultInjector
from repro.faults.policy import ReliabilityPolicy
from repro.faults.schedule import CrashWindow, DisconnectWindow, FaultSchedule, StationOutage
from repro.grid import Grid
from repro.network.basestation import BaseStationLayout
from repro.scenario import build_system, result_digest, twin_divergence
from repro.sim.rng import SimulationRng
from repro.workload import paper_defaults

DISCONNECT_EVERY = 7  # every 7th object gets a disconnection window


def canonical_schedule(steps: int, oids: list, layout: BaseStationLayout, uod) -> FaultSchedule:
    """The standard chaos script, scaled to the run length.

    One outage of the base station serving the center of the universe of
    discourse (where object density is highest), plus a disconnection
    window for every ``DISCONNECT_EVERY``-th object.  Both windows close
    well before the run ends so reconvergence is observable.
    """
    center_bsid = layout.station_at_tile(layout.tile_of_point(uod.center)).bsid
    outage_start = max(1, steps // 4)
    outage_len = min(20, max(2, steps // 3))
    disc_start = max(1, steps // 5)
    disc_len = min(10, max(2, steps // 4))
    disconnects = tuple(
        DisconnectWindow(oid=oid, start=disc_start, end=disc_start + disc_len)
        for oid in sorted(oids)
        if oid % DISCONNECT_EVERY == 0
    )
    outages = (StationOutage(bsid=center_bsid, start=outage_start, end=outage_start + outage_len),)
    return FaultSchedule(disconnects=disconnects, outages=outages)


def canonical_rebalance_schedule(
    steps: int, shards: int, crash_start: int | None = None, crash_end: int | None = None
) -> tuple[tuple[int, int, int, int], ...]:
    """Fixed repartition triggers that deliberately race the fault windows.

    One column moves right between the first shard pair while the rolling
    disconnections are open, and moves back while the station outage is
    live (directive downlinks through the dead station are dropped, so
    clients under the outage keep routing with a stale epoch until the
    resync).  With a crash window (``crash_start``/``crash_end``), two
    more triggers bracket it on the *crashed* shard pair: one lands while
    the shard's soft state is erased -- recovery must rebuild against the
    post-move boundaries -- and one fires right after recovery completes.
    Steps land strictly inside the run so every move is observable.
    """
    disc_start = max(1, steps // 5)
    outage_start = max(1, steps // 4)
    ops = [
        (disc_start + 1, 0, 1, 1),
        (outage_start + 2, 1, 0, 1),
    ]
    if crash_start is not None and crash_end is not None:
        hi = shards - 1
        ops.append((crash_start + 1, hi - 1, hi, 1))
        ops.append((crash_end + 1, hi, hi - 1, 1))
    return tuple(sorted(op for op in ops if op[0] < steps))


def run_chaos(
    engine: str = "reference",
    steps: int = 40,
    scale: float = 0.02,
    seed: int = 7,
    uplink_loss: float = 0.0,
    downlink_loss: float = 0.0,
    burst: bool = False,
    policy: ReliabilityPolicy | None = None,
    shards: int = 1,
    uplink_latency: int = 0,
    downlink_latency: int = 0,
    latency_jitter: int = 0,
    crash: bool = False,
    rebalance: bool = False,
) -> dict:
    """Run one chaos scenario and return the JSON-safe report.

    With ``crash=True`` (requires ``shards >= 2``) the schedule gains a
    mid-run crash window on the last shard: the shard's soft state is
    erased at the window start and rebuilt from the system's recovery
    basis (the server tables, captured every ``max(2, steps // 8)``
    steps) at the window end, followed by a grid-wide client resync.  Crash runs are always graded against the fault-free
    lockstep twin, even at zero latency.

    With ``rebalance=True`` (requires ``shards >= 2``) the run applies
    :func:`canonical_rebalance_schedule`: fixed repartition triggers
    placed inside the fault windows (and, with ``crash``, bracketing the
    crash window), so boundary migration races outages, disconnections,
    and shard recovery.  The grade stays the fault-free twin -- and the
    twin deliberately does *not* rebalance, which is the stronger check:
    reconvergence proves repartitioning moved load without ever moving
    results, even mid-fault.
    """
    if crash and shards < 2:
        raise ValueError("crash injection requires shards >= 2 (a shard must die)")
    if rebalance and shards < 2:
        raise ValueError("rebalancing requires shards >= 2 (a boundary must exist)")
    params = paper_defaults().scaled(scale)
    checkpoint_every = max(2, steps // 8) if crash else 0
    crash_start = crash_end = None
    if crash:
        # The window opens only after the first recovery basis exists
        # and closes with enough run left to observe reconvergence.
        crash_start = max(checkpoint_every + 1, steps // 3)
        crash_end = crash_start + min(8, max(2, steps // 5))
    rebalance_schedule = (
        canonical_rebalance_schedule(steps, shards, crash_start, crash_end)
        if rebalance
        else ()
    )
    config = dict(
        engine=engine,
        shards=shards,
        uplink_latency_steps=uplink_latency,
        downlink_latency_steps=downlink_latency,
        latency_jitter_steps=latency_jitter,
        latency_seed=seed,
        checkpoint_every_steps=checkpoint_every,
        rebalance_schedule=rebalance_schedule,
    )
    layout = BaseStationLayout(Grid(params.uod, params.alpha), params.base_station_side)
    # The workload numbers its objects 0..N-1.
    schedule = canonical_schedule(steps, list(range(params.num_objects)), layout, params.uod)
    if crash:
        schedule = dataclasses.replace(
            schedule,
            crashes=(CrashWindow(shard=shards - 1, start=crash_start, end=crash_end),),
        )
    channel_rng = SimulationRng(seed).fork(3)
    injector = FaultInjector(
        channel_rng,
        schedule=schedule,
        policy=policy if policy is not None else ReliabilityPolicy(),
    )
    # Deployment happens on a healthy network (faults start at step >= 1
    # anyway); channels are armed only afterwards, so a burst that would
    # strand the install round trip cannot abort the scenario.
    system, _, _ = build_system(params, seed, config=config, loss=injector)
    # Everything past construction runs under try/finally: a raising
    # step (or report assembly) must still close the system and its
    # lockstep twin.
    twin = None
    try:
        injector.uplink_channel = mean_rate_channel(channel_rng, uplink_loss, burst)
        injector.downlink_channel = mean_rate_channel(channel_rng, downlink_loss, burst)

        # Recovery yardstick under latency: a fault-free twin with the same
        # latency pipeline (motion is identical -- faults never touch the
        # motion rng), stepped in lockstep.  Crash runs always grade against
        # the twin: recovery replays the basis, and only exact realignment
        # with the fault-free run proves the rebuilt shard converged.
        if uplink_latency or downlink_latency or latency_jitter or crash or rebalance:
            # The fault-free twin needs no recovery basis (skip its
            # cadence) and no boundary moves: grading the rebalanced run
            # against a static-stripes twin proves migration never moved
            # results.
            twin, _, _ = build_system(
                params,
                seed,
                config={**config, "checkpoint_every_steps": 0, "rebalance_schedule": ()},
            )

        sym_fracs: list[float] = []
        sym_counts: list[int] = []
        missing_fracs: list[float] = []
        recovery_counts: list[int] = []
        for _ in range(steps):
            system.step()
            results = system.results()
            oracle = system.oracle_results()
            diff = 0
            miss = 0
            total = 0
            for qid in sorted(oracle):
                truth = oracle[qid]
                got = results.get(qid, frozenset())
                total += len(truth)
                miss += len(truth - got)
                diff += len(truth ^ got)
            denom = max(1, total)
            sym_counts.append(diff)
            sym_fracs.append(diff / denom)
            missing_fracs.append(miss / denom)
            if twin is not None:
                twin.step()
                recovery_counts.append(twin_divergence(results, twin.results()))
            else:
                recovery_counts.append(diff)

        # Steps-to-reconverge, measured from each fault window's end to the
        # first step at which the system matches the oracle exactly.
        window_ends = sorted(
            {w.end for w in schedule.disconnects}
            | {o.end for o in schedule.outages}
            | {c.end for c in schedule.crashes}
        )
        reconvergence = []
        for end in window_ends:
            settled = None
            for step in range(end, steps + 1):
                if recovery_counts[step - 1] == 0:
                    settled = step - end
                    break
            reconvergence.append({"window_end": end, "steps_to_reconverge": settled})
        if reconvergence:
            converged = all(r["steps_to_reconverge"] is not None for r in reconvergence)
        else:
            converged = recovery_counts[-1] == 0 if recovery_counts else True

        age = 0
        weighted = 0.0
        for frac in sym_fracs:
            age = age + 1 if frac > 0 else 0
            weighted += frac * age
        staleness_weighted = weighted / max(1, steps)

        counters = system.counters()
        by_type = system.ledger.counts_by_type  # the per-type book, not a counter
        # The seconds views in shard_loads / load_balance are the
        # docstring's bit-identity carve-out.
        fleet = fleet_section(system)
        rebalance_report = None
        if rebalance:
            rebalance_report = {
                "schedule": [list(op) for op in rebalance_schedule],
                "log": fleet["rebalance_log"],
                "partition_bounds": fleet["partition_bounds"],
                "partition_epoch": fleet["partition_epoch"],
                "stale_epoch_reroutes": fleet["stale_epoch_reroutes"],
            }
        crash_report = None
        if crash:
            crash_report = {
                "windows": schedule.describe()["crashes"],
                "checkpoint_every": checkpoint_every,
                "checkpoints_taken": counters["system.checkpoints_taken"],
                "basis_bytes": len(system.recovery_basis),
                "envelopes_discarded": counters["transport.discarded_envelopes"],
                "log": list(system.crash_log),
            }
        return {
            "engine": engine,
            "seed": seed,
            "steps": steps,
            "scale": scale,
            "shards": shards,
            "objects": params.num_objects,
            "queries": params.num_queries,
            "channels": {
                "uplink_loss": uplink_loss,
                "downlink_loss": downlink_loss,
                "burst": burst,
            },
            "latency": {
                "uplink_steps": uplink_latency,
                "downlink_steps": downlink_latency,
                "jitter_steps": latency_jitter,
                "pending_at_end": system.transport.pending_count(),
            },
            "schedule": schedule.describe(),
            "crash": crash_report,
            "rebalance": rebalance_report,
            "shard_loads": fleet["shard_loads"],
            "load_balance": fleet["load_balance"],
            "per_step": {
                "symmetric_error": [round(v, 9) for v in sym_fracs],
                "missing_fraction": [round(v, 9) for v in missing_fracs],
                "twin_divergence": recovery_counts if twin is not None else None,
            },
            "recovery_basis": "twin" if twin is not None else "oracle",
            "final_symmetric_error": round(sym_fracs[-1], 9) if sym_fracs else 0.0,
            "reconvergence": reconvergence,
            "converged": converged,
            "staleness_weighted_error": round(staleness_weighted, 9),
            "message_counts": {key: int(by_type[key]) for key in sorted(by_type)},
            "drops": counter_section(counters, "injector"),
            "reliability": counter_section(counters, "reliability"),
            "result_hash": result_digest(system),
        }
    finally:
        system.close()
        if twin is not None:
            twin.close()
