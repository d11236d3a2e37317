"""The run driver: one MobiEyes run, stepped beside the basis it is graded on.

``python -m repro drive`` and :func:`run` take a scenario preset and
three optional inputs, and write one report schema for every run:

- a *fault schedule* (``faults``): ``"storm"`` is the canonical script --
  one outage of the base station over the center of the universe of
  discourse plus rolling per-object disconnections, optionally topped
  with channel loss -- and ``"crash"`` adds a mid-run shard crash window
  (the shard's soft state is erased and rebuilt from the recovery basis
  captured every ``max(2, steps // 8)`` steps);
- an *ingest script* (``ingest_rate`` / ``query_churn``): per-step
  external position reports plus query install/remove churn, fed through
  the service's queue-driven ingest API under ``ingest_budget``;
- a *fleet plan* (``fleet``): ``"rebalance"`` applies fixed repartition
  triggers that race the fault windows, ``"schedule"`` one elastic split
  and one merge, ``"policy"`` the load thermostat with a fleet ceiling,
  ``"both"`` the schedule beside a transfer-only thermostat.

The run always steps a :class:`~repro.core.MobiEyesService`; with no
ingest a tick is exactly a step.

The basis is chosen by the inputs, never by a flag.  When nothing can
make a correct run lag the exact answer -- zero latency, no crash, no
fleet change and a zero dead-reckoning threshold -- the run is graded
against the oracle.  Otherwise it is graded against a *twin* built from
the same inputs minus the fault windows, the channels, the checkpoint
cadence and any fleet change (a faulted run's twin keeps its
reliability policy, on an injector with an empty schedule), fed the
same ingest script and stepped in lockstep: recovery then means exact
realignment with the twin, which proves faults, crashes and fleet
changes never moved results.  The twin comparison is exact only for
deterministic delays (``latency_jitter`` 0): jitter rolls are consumed
per enqueued message, so a faulted run and its twin draw different
delays and never bit-realign.

Grading: ``divergence`` per step against the basis, each fault window's
``reconvergence`` (steps from the window's end to the first exact step,
``null`` if never), ``converged`` (every window reconverged; with no
window, the last step matched), ``results_match`` (every step matched)
and ``staleness_weighted_error`` (the oracle error fraction weighted by
how many consecutive steps the run had been wrong).

The report's ``metrics`` section holds the paper's per-run numbers under
the names ``BENCHMARK.json`` gives them: messages per simulated second
(all, uplink, downlink), the mean LQT size, the communication power per
object in mW (``system.metrics`` over every step, no warm-up) and the
mean per-query missing fraction against the oracle (``result_error``,
sampled after every step).

Every wall-clock value of the report sits under its ``clock`` key --
server milliseconds per step, shard seconds, the seconds views of each
balance, the wall time and ``improved_seconds`` -- so two runs with the
same inputs are equal once ``clock`` is popped, and so are the two
engines' reports apart from ``engine``.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.core import MobiEyesService
from repro.core.load import load_balance
from repro.core.query import QuerySpec
from repro.core.service import OP_INSTALL, OP_REMOVE, OP_UPDATE
from repro.fastpath.bench import dense_params, skewed_params
from repro.faults.channels import mean_rate_channel
from repro.faults.injector import FaultInjector
from repro.faults.policy import ReliabilityPolicy
from repro.faults.schedule import CrashWindow, DisconnectWindow, FaultSchedule, StationOutage
from repro.geometry import Circle, Point, Vector
from repro.grid import Grid
from repro.metrics.accuracy import mean_result_error
from repro.network.basestation import BaseStationLayout
from repro.scenario import build_system, result_digest, twin_divergence
from repro.sim.rng import SimulationRng
from repro.workload import paper_defaults

SCENARIOS = ("paper", "skewed", "dense")
FAULTS = ("storm", "crash", "none")
FLEET_PLANS = ("static", "rebalance", "policy", "schedule", "both")
DISCONNECT_EVERY = 7  # every 7th object gets a disconnection window
#: Config fields the twin drops: the recovery cadence and every fleet change.
TWIN_DROPS = (
    "checkpoint_every_steps", "rebalance_schedule", "rebalance_every_steps",
    "elastic_max_shards", "elastic_schedule",
)


def scenario_params(scenario: str, scale: float):
    """Workload parameters of a scenario preset.

    ``paper`` is Table 1; ``skewed`` is the elastic-policy showcase (half
    the population in the left 20% x-strip, the flash crowd the
    thermostat exists for) and ``dense`` the evaluation-bound preset, both
    from the benchmark.
    """
    if scenario == "skewed":
        return skewed_params(scale)
    if scenario == "dense":
        return dense_params(scale)
    if scenario == "paper":
        return paper_defaults().scaled(scale)
    raise ValueError(f"unknown scenario {scenario!r}")


def canonical_schedule(steps: int, oids: list, layout: BaseStationLayout, uod) -> FaultSchedule:
    """The storm, scaled to the run length.

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
    steps: int, shards: int, crash: CrashWindow | None = None
) -> tuple[tuple[int, int, int, int], ...]:
    """Fixed repartition triggers that deliberately race the fault windows.

    One column moves right between the first shard pair while the rolling
    disconnections are open, and moves back while the station outage is
    live (directive downlinks through the dead station are dropped, so
    clients under the outage keep routing with a stale epoch until the
    resync).  With a ``crash`` window, two more triggers bracket it on the
    *crashed* shard pair: one lands while the shard's soft state is erased
    -- recovery must rebuild against the post-move boundaries -- and one
    fires right after recovery completes.  Steps land strictly inside the
    run so every move is observable.
    """
    ops = [
        (max(1, steps // 5) + 1, 0, 1, 1),
        (max(1, steps // 4) + 2, 1, 0, 1),
    ]
    if crash is not None:
        hi = shards - 1
        ops.append((crash.start + 1, hi - 1, hi, 1))
        ops.append((crash.end + 1, hi, hi - 1, 1))
    return tuple(sorted(op for op in ops if op[0] < steps))


def default_elastic_schedule(steps: int, shards: int) -> tuple[tuple, ...]:
    """One split, then one merge.

    Shard 0 (the hotspot stripe under the skewed scenario) splits a
    third of the way in; the spawned shard is merged back into its donor
    at the two-thirds mark, so a single bounded run exercises the whole
    spawn/retire lifecycle including the retired-slot bookkeeping.
    """
    split_at = max(2, steps // 3)
    merge_at = max(split_at + 2, (2 * steps) // 3)
    spawned = shards  # first spawn appends a fresh slot
    return ((split_at, "split", 0), (merge_at, "merge", spawned, 0))


def ingest_script_stream(params, workload, rng, rate: int, churn_every: int):
    """Yield one step's worth of ingest operations, forever.

    Deterministic given the rng fork: each step emits ``rate`` external
    position reports (uniform position in the UoD, fresh velocity within
    the object's speed class) and, every ``churn_every`` steps, one
    moving-query install whose removal is scheduled half a churn period
    later.  Operations use the service's kinds; a removal names its
    install's *script id*, which the runner maps to its own ticket.

    Updates pick uniformly over the whole population, so focal and plain
    objects are reported alike.  Hotspot membership is preserved the way
    the workload generator assigns it -- a hotspot object's reported x is
    compressed into the left ``hotspot_width`` strip -- so sustained
    ingest *sustains* the skew instead of scattering the flash crowd the
    elastic policy exists to chase.
    """
    uod = params.uod
    oids = [obj.oid for obj in workload.objects]
    hot = round(params.num_objects * params.hotspot_fraction)
    hot_oids = frozenset(obj.oid for obj in workload.objects[:hot])
    speed = max(params.max_speeds)
    radius = max(params.radius_means)
    install_seq = 0
    pending_removals: dict[int, list[int]] = {}
    step = 0
    while True:
        ops: list[tuple] = []
        for script_id in pending_removals.pop(step, []):
            ops.append((OP_REMOVE, script_id))
        for _ in range(rate):
            oid = rng.choice(oids)
            pos = Point(rng.uniform(uod.lx, uod.ux), rng.uniform(uod.ly, uod.uy))
            if oid in hot_oids:
                pos = Point(uod.lx + (pos.x - uod.lx) * params.hotspot_width, pos.y)
            vel = Vector.from_polar(rng.direction(), rng.uniform(0.0, speed))
            ops.append((OP_UPDATE, oid, pos, vel))
        if churn_every and step > 0 and step % churn_every == 0:
            spec = QuerySpec(oid=rng.choice(oids), region=Circle(0.0, 0.0, radius))
            ops.append((OP_INSTALL, install_seq, spec))
            removal_step = step + max(1, churn_every // 2)
            pending_removals.setdefault(removal_step, []).append(install_seq)
            install_seq += 1
        yield ops
        step += 1


class _ScriptRunner:
    """Feed one service with the shared script, tracking install tickets."""

    def __init__(self, service: MobiEyesService) -> None:
        self.service = service
        self._installs: dict[int, object] = {}

    def submit(self, ops) -> None:
        for op in ops:
            if op[0] == OP_UPDATE:
                self.service.submit_update(*op[1:])
            elif op[0] == OP_INSTALL:
                self._installs[op[1]] = self.service.install_query(op[2])
            elif not self._installs[op[1]].rejected:
                # A rejected install has nothing to remove (and the run and
                # its twin agree, because admission is identical across them).
                self.service.remove_query(self._installs[op[1]])


def _shard_loads(system) -> list[dict] | None:
    loads = getattr(system.server, "shard_loads", None)
    return loads() if loads is not None else None


def _tail_rows(system, base: list[dict]) -> list[dict]:
    """Per-shard load accrued since the ``base`` rows.

    Lifetime counters punish a late-spawned shard: it joined with zero
    accrued ops, so cumulative max/mean reads it as cold no matter how
    well it carries the load *now*.  Shards spawned after the base start
    from zero; retired shards drop out with the fleet.
    """
    marks = {row["shard"]: (row["ops"], row["seconds"]) for row in base}
    rows = []
    for row in system.server.shard_loads():
        ops, seconds = marks.get(row["shard"], (0, 0.0))
        rows.append({"shard": row["shard"], "ops": row["ops"] - ops,
                     "seconds": row["seconds"] - seconds})
    return rows


def _balance(rows: list[dict] | None) -> tuple[dict | None, dict | None]:
    """:func:`load_balance` split into its ops view and its clock view."""
    if rows is None:
        return None, None
    full = load_balance(rows)
    clock = {key: value for key, value in full.items() if key.endswith("seconds")}
    return {key: value for key, value in full.items() if key not in clock}, clock


def _section(counters: dict, owner: str) -> dict:
    """One owner's slice of ``MobiEyesSystem.counters()``, prefix removed."""
    prefix = owner + "."
    return {key[len(prefix):]: value for key, value in counters.items() if key.startswith(prefix)}


def _paper_metrics(log, error_samples: list[float]) -> dict:
    """The paper's per-run numbers over every step of ``log`` (the system's
    :class:`~repro.metrics.collectors.MetricsLog`, no warm-up), plus the
    step count and length that turn a rate back into a message count."""
    measured = bool(log.steps)  # an interrupt before the first step averages nothing
    return {
        "steps": len(log.steps),
        "step_seconds": log.step_seconds,
        "msgs_per_sim_s": log.messages_per_second() if measured else None,
        "uplink_msgs_per_sim_s": log.uplink_messages_per_second() if measured else None,
        "downlink_msgs_per_sim_s": log.downlink_messages_per_second() if measured else None,
        "mean_lqt_size": log.mean_lqt_size() if measured else None,
        "energy_mw_per_object": 1000.0 * log.mean_power_watts_per_object() if measured else None,
        "result_error": sum(error_samples) / len(error_samples) if error_samples else None,
    }


def write_artifact(path: Path, artifact: dict) -> None:
    path.write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n", encoding="ascii")


def run(
    engine: str = "reference",
    steps: int | None = 30,
    scale: float = 0.015,
    seed: int = 7,
    scenario: str = "paper",
    shards: int = 1,
    dead_reckoning: float = 0.0,
    faults: str = "storm",
    uplink_loss: float = 0.0,
    downlink_loss: float = 0.0,
    burst: bool = False,
    latency: int = 0,
    jitter: int = 0,
    fleet: str = "static",
    max_shards: int = 4,
    rebalance_every: int = 5,
    ingest_rate: int = 0,
    ingest_budget: int = 0,
    query_churn: int = 0,
    path: str | Path | None = None,
    report_every: int = 0,
    log=print,
) -> dict:
    """Run one scenario on one engine and return its JSON-safe report.

    ``steps=None`` runs until interrupted (Ctrl-C finalizes the report:
    the run so far is graded, not discarded); such a run takes no fault
    schedule and no fleet schedule, which are scaled to the run length,
    and its report carries no ``per_step`` record.
    ``latency`` / ``jitter`` delay every uplink and downlink hop.  With
    ``path`` and ``report_every`` the report so far is written there every
    ``report_every`` steps.  See the module docstring for the inputs and
    the grading.
    """
    if steps is not None and steps < 1:
        raise ValueError(f"steps must be at least 1 (or None: until interrupted), got {steps}")
    if faults not in FAULTS:
        raise ValueError(f"unknown fault schedule {faults!r}")
    if fleet not in FLEET_PLANS:
        raise ValueError(f"unknown fleet plan {fleet!r}")
    if faults == "crash" and shards < 2:
        raise ValueError("crash injection requires shards >= 2 (a shard must die)")
    if fleet != "static" and shards < 2:
        raise ValueError(f"fleet plan {fleet!r} requires shards >= 2 (a boundary must exist)")
    if steps is None and (faults != "none" or fleet in ("rebalance", "schedule", "both")):
        raise ValueError("a run without a step bound takes no fault or fleet schedule")
    if fleet == "both" and rebalance_every == 0:
        raise ValueError("fleet plan 'both' arms the thermostat: rebalance_every must be positive")
    if burst and not (uplink_loss or downlink_loss):
        raise ValueError("burst shapes channel loss: it needs uplink_loss or downlink_loss > 0")
    for name, rate in (("uplink_loss", uplink_loss), ("downlink_loss", downlink_loss)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")
    for name, value in (
        ("ingest_rate", ingest_rate), ("query_churn", query_churn), ("report_every", report_every)
    ):
        if value < 0:
            raise ValueError(f"{name} must be non-negative (0 = off), got {value}")
    params = replace(scenario_params(scenario, scale), seed=seed)
    crash = None
    checkpoint_every = 0
    if faults == "crash":
        checkpoint_every = max(2, steps // 8)
        # The window opens only after the first recovery basis exists and
        # closes with enough run left to observe reconvergence.
        start = max(checkpoint_every + 1, steps // 3)
        crash = CrashWindow(shard=shards - 1, start=start, end=start + min(8, max(2, steps // 5)))
    schedule = FaultSchedule()
    if faults != "none":
        layout = BaseStationLayout(Grid(params.uod, params.alpha), params.base_station_side)
        # The workload numbers its objects 0..N-1.
        schedule = canonical_schedule(steps, list(range(params.num_objects)), layout, params.uod)
        schedule = replace(schedule, crashes=(crash,) if crash else ())
    rebalance_schedule = (
        canonical_rebalance_schedule(steps, shards, crash) if fleet == "rebalance" else ()
    )
    elastic_schedule = (
        default_elastic_schedule(steps, shards) if fleet in ("schedule", "both") else ()
    )
    config = dict(
        dead_reckoning_threshold=dead_reckoning,
        engine=engine,
        shards=shards,
        uplink_latency_steps=latency,
        downlink_latency_steps=latency,
        latency_jitter_steps=jitter,
        latency_seed=seed,
        ingest_budget_per_step=ingest_budget,
        checkpoint_every_steps=checkpoint_every,
        rebalance_schedule=rebalance_schedule,
        # In "both" the schedule owns fleet membership and the policy, left
        # without a ceiling, only transfers: a scheduled merge names fixed
        # shard ids and requires them stripe-adjacent, so a policy split
        # landing between the pair would (correctly) raise.
        rebalance_every_steps=rebalance_every if fleet in ("policy", "both") else 0,
        elastic_max_shards=max_shards if fleet == "policy" else 0,
        elastic_schedule=elastic_schedule,
    )
    injector = None
    if faults != "none" or uplink_loss or downlink_loss:
        channel_rng = SimulationRng(seed).fork(3)
        injector = FaultInjector(schedule=schedule, policy=ReliabilityPolicy())
    graded_by_twin = bool(
        latency or jitter or crash is not None or fleet != "static" or dead_reckoning
    )

    # Deployment happens on a healthy network (faults start at step >= 1
    # anyway); channels are armed only afterwards, so a burst that would
    # strand the install round trip cannot abort the scenario.
    system, workload, rng = build_system(params, seed, config=config, loss=injector)
    service = MobiEyesService(system)
    twin = None
    # Everything past construction runs under try/finally: a raising step
    # (or report assembly) must still close the run and its twin.
    try:
        if injector is not None:
            injector.uplink_channel = mean_rate_channel(channel_rng, uplink_loss, burst)
            injector.downlink_channel = mean_rate_channel(channel_rng, downlink_loss, burst)
        runners = [_ScriptRunner(service)]
        if graded_by_twin:
            twin_config = {key: value for key, value in config.items() if key not in TWIN_DROPS}
            # The run's reliability layer without its faults: an empty
            # schedule and no channel, so the two agree until a window opens.
            twin_loss = None if injector is None else FaultInjector(policy=injector.policy)
            twin = MobiEyesService(
                build_system(params, seed, config=twin_config, loss=twin_loss)[0]
            )
            runners.append(_ScriptRunner(twin))
        script = ingest_script_stream(params, workload, rng.fork(9), ingest_rate, query_churn)

        # Balance is graded over a *tail window*: lifetime counters punish
        # a late spawn (see _tail_rows), so the improvement compares load
        # accrued after the last scheduled fleet change (or the midpoint,
        # whichever is later) -- the layout the run settled into.
        tail_start = None
        if fleet != "static" and steps is not None:
            tail_start = max([steps // 2, *(op[0] for op in rebalance_schedule + elastic_schedule)])
            if tail_start >= steps:
                tail_start = None
        tail_base = None

        # The grade accrues step by step: each window's end -> steps until
        # the run was exact again, the first divergent step, the last
        # step's divergence and error, and the staleness weighting.  An
        # unbounded run keeps no per-step record, which would grow without end.
        windows = (*schedule.disconnects, *schedule.outages, *schedule.crashes)
        settled: dict[int, int | None] = dict.fromkeys(sorted({w.end for w in windows}))
        per_step = None if steps is None else {
            "divergence": [], "symmetric_error": [], "missing_fraction": [],
        }
        error_samples: list[float] = []
        first_wrong = None
        last_divergence = 0
        last_error = 0.0
        age = 0
        weighted = 0.0
        done = 0
        interrupted = False
        started = time.perf_counter()

        def report(final: bool) -> dict:
            wall = time.perf_counter() - started
            counters = system.counters()
            converged = (
                all(value is not None for value in settled.values())
                if settled else last_divergence == 0
            )
            rows = _shard_loads(system)
            balance, balance_clock = _balance(rows)
            server = system.server
            log_ops = system.rebalance_log
            fleet_out = {
                "shard_loads": None if rows is None else [
                    {key: value for key, value in row.items() if key != "seconds"} for row in rows
                ],
                "load_balance": balance,
                "partition_bounds": None if rows is None else list(server.partitioner.bounds),
                "partition_order": None if rows is None else list(server.partitioner.order),
                "partition_epoch": None if rows is None else server.partition_epoch,
                "retired_shards": None if rows is None else list(server.retired_shards),
                "rebalance_log": log_ops,
                "stale_epoch_reroutes": counters["transport.stale_epoch_reroutes"],
                "splits": sum(1 for op in log_ops if "split" in op["trigger"]),
                "merges": sum(1 for op in log_ops if "merge" in op["trigger"]),
                "twin_load_balance": None,
                "improvement": None,
            }
            clock = {
                "wall_seconds": round(wall, 4),
                "steps_per_sec": round(done / wall, 4) if wall > 0 and done else None,
                "server_ms_per_step": (
                    round(1000.0 * system.metrics.mean_server_seconds(), 4)
                    if system.metrics.steps else None
                ),
                "shard_seconds": None if rows is None else [
                    round(row["seconds"], 4) for row in rows
                ],
                "load_balance": balance_clock,
                "twin_load_balance": None,
                "improvement": None,
            }
            if fleet != "static":
                # A fleet plan needs >= 2 shards, so the twin is sharded too.
                fleet_out["twin_load_balance"], clock["twin_load_balance"] = _balance(
                    twin.system.server.shard_loads()
                )
                window = "lifetime"
                static, moved = fleet_out["twin_load_balance"], balance
                static_clock, moved_clock = clock["twin_load_balance"], balance_clock
                if tail_base is not None:
                    static, static_clock = _balance(_tail_rows(twin.system, tail_base[1]))
                    moved, moved_clock = _balance(_tail_rows(system, tail_base[0]))
                    window = f"tail:{tail_start}"
                fleet_out["improvement"] = {
                    "window": window,
                    "static_imbalance_ops": static["imbalance"],
                    "elastic_imbalance_ops": moved["imbalance"],
                    "improved_ops": moved["imbalance"] < static["imbalance"],
                }
                clock["improvement"] = {
                    "static_imbalance_seconds": static_clock["imbalance_seconds"],
                    "elastic_imbalance_seconds": moved_clock["imbalance_seconds"],
                    "improved_seconds": (
                        moved_clock["imbalance_seconds"] < static_clock["imbalance_seconds"]
                    ),
                }
            by_type = system.ledger.counts_by_type  # the per-type book, not a counter
            return {
                "engine": engine,
                "inputs": {
                    "scenario": scenario,
                    "scale": scale,
                    "seed": seed,
                    "steps": steps,
                    "shards": shards,
                    "objects": params.num_objects,
                    "queries": params.num_queries,
                    "dead_reckoning": dead_reckoning,
                    "faults": {
                        "plan": faults,
                        "schedule": schedule.describe(),
                        "checkpoint_every": checkpoint_every,
                        "channels": {
                            "uplink_loss": uplink_loss,
                            "downlink_loss": downlink_loss,
                            "burst": burst,
                        },
                    },
                    "latency": {
                        "uplink_steps": latency,
                        "downlink_steps": latency,
                        "jitter_steps": jitter,
                    },
                    "ingest": {
                        "rate_per_step": ingest_rate,
                        "budget_per_step": ingest_budget,
                        "queue_limit": service.queue_limit,
                        "query_churn_every": query_churn,
                    },
                    "fleet": {
                        "plan": fleet,
                        "rebalance_schedule": [list(op) for op in rebalance_schedule],
                        "elastic_schedule": [list(op) for op in elastic_schedule],
                        # "both" arms the thermostat without a ceiling.
                        "max_shards": max_shards if fleet == "policy" else None,
                        "rebalance_every": rebalance_every if fleet in ("policy", "both") else None,
                    },
                },
                "grading": {
                    "basis": "twin" if twin is not None else "oracle",
                    "steps": done,
                    "in_progress": not final,
                    "interrupted": interrupted,
                    "per_step": per_step,
                    "final_symmetric_error": round(last_error, 9),
                    "reconvergence": [
                        {"window_end": end, "steps_to_reconverge": settled[end]}
                        for end in settled
                    ],
                    "converged": converged,
                    "results_match": first_wrong is None,
                    "first_divergence_step": first_wrong,
                    "staleness_weighted_error": round(weighted / max(1, done), 9),
                },
                "counters": {
                    "message_counts": {key: int(by_type[key]) for key in sorted(by_type)},
                    "injector": _section(counters, "injector"),
                    "reliability": _section(counters, "reliability"),
                    "service": _section(counters, "service"),
                    "twin_service": (
                        None if twin is None else _section(twin.system.counters(), "service")
                    ),
                    "recovery": {
                        "checkpoints_taken": counters["system.checkpoints_taken"],
                        "basis_bytes": len(system.recovery_basis or b""),
                        "envelopes_discarded": counters["transport.discarded_envelopes"],
                        "crash_log": system.crash_log,
                    },
                    "pending_at_end": system.transport.pending_count(),
                },
                "fleet": fleet_out,
                "metrics": _paper_metrics(system.metrics, error_samples),
                "result_hash": result_digest(system),
                "clock": clock,
            }

        try:
            while steps is None or done < steps:
                ops = next(script)
                for runner in runners:
                    runner.submit(ops)
                service.tick()
                results = system.results()
                oracle = system.oracle_results()
                diff = miss = total = 0
                for qid in sorted(oracle):
                    truth = oracle[qid]
                    got = results.get(qid, frozenset())
                    total += len(truth)
                    miss += len(truth - got)
                    diff += len(truth ^ got)
                last_error = diff / max(1, total)
                error = mean_result_error(results, oracle)
                if error is not None:
                    error_samples.append(error)
                if twin is not None:
                    twin.tick()
                    diff = twin_divergence(results, twin.system.results())
                done += 1
                if per_step is not None:
                    per_step["divergence"].append(diff)
                    per_step["symmetric_error"].append(round(last_error, 9))
                    per_step["missing_fraction"].append(round(miss / max(1, total), 9))
                last_divergence = diff
                if diff and first_wrong is None:
                    first_wrong = done
                for end, value in settled.items():
                    if value is None and end <= done and not diff:
                        settled[end] = done - end
                age = age + 1 if last_error > 0 else 0
                weighted += last_error * age
                if done == tail_start:
                    tail_base = (_shard_loads(system), _shard_loads(twin.system))
                if path is not None and report_every and done % report_every == 0:
                    write_artifact(Path(path), report(final=False))
                    queue = service.counters()
                    log(f"drive: step {done}" + (f"/{steps}" if steps is not None else "")
                        + f", queue {queue['queued']}, rejects {queue['backpressure_rejects']}")
        except KeyboardInterrupt:
            interrupted = True
            log(f"drive: interrupted at step {done}, finalizing report")
        service.check_accounting()
        if twin is not None:
            twin.check_accounting()
        return report(final=True)
    finally:
        service.close()
        if twin is not None:
            twin.close()


def engine_mismatch(reports: dict[str, dict]) -> list[str]:
    """The report keys (``section.key``) on which two engines' reports
    differ, ignoring ``engine`` and ``clock``."""
    first, second = reports.values()
    mismatched = []
    for section in sorted((first.keys() | second.keys()) - {"engine", "clock"}):
        a, b = first.get(section), second.get(section)
        if isinstance(a, dict) and isinstance(b, dict):
            mismatched += [
                f"{section}.{key}" for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)
            ]
        elif a != b:
            mismatched.append(section)
    return mismatched


def failure(report: dict) -> str | None:
    """Why the run failed its grade, or ``None``: it must converge to its
    basis, and with no fault window it must match the basis every step."""
    grading = report["grading"]
    if not grading["converged"]:
        return f"NON-CONVERGENCE: never realigned with the {grading['basis']}"
    if not any(report["inputs"]["faults"]["schedule"].values()) and not grading["results_match"]:
        return (f"DIVERGENCE: results differ from the {grading['basis']} "
                f"(first at step {grading['first_divergence_step']})")
    return None


__all__ = [
    "canonical_rebalance_schedule",
    "canonical_schedule",
    "default_elastic_schedule",
    "engine_mismatch",
    "failure",
    "ingest_script_stream",
    "run",
    "scenario_params",
]
