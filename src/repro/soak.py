"""Soak harness: the service runtime under a continuous ingest stream.

``python -m repro serve`` drives a :class:`~repro.core.MobiEyesService`
for a bounded (``--steps``) or open-ended (``--forever``) run and writes
a ``SOAK_<tag>.json`` artifact.  The harness synthesizes a deterministic
*ingest script* -- per-step external position reports plus optional
query install/remove churn, all drawn from a forked seeded rng -- and
feeds it through the service's queue-driven ingest API, so admission
control, backpressure, and deferral are exercised by real traffic, not
by unit-test stubs.

Elastic grading: with scale-out enabled (``elastic="policy"``,
``"schedule"``, or ``"both"``) the run is accompanied by a
*static-fleet twin* -- an
identical system (same workload, same seed, same ingest script, same
admission knobs) whose shard count never changes -- stepped in lockstep.
The twin is the oracle: elastic scale-out moves state between shards but
must never move results, so ``results_match`` requires every compared
step's query results to be identical between the two runs.  Message
counts are *not* compared (splits and merges broadcast extra partition
directives by design); the improvement section then shows what the
moves bought, as static vs elastic ``imbalance_seconds`` /
``imbalance`` over a *tail window* -- load accrued after the fleet's
last scheduled change -- because lifetime counters would read a
late-spawned shard as cold no matter how well it carries the load now.

Backpressure is graded by accounting, not by luck: every submission ends
applied, rejected, or still queued (``check_accounting``), and because
admission depends only on the queue and the budget -- both identical
across the pair -- the elastic run and its twin admit exactly the same
operations in the same order.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.core import MobiEyesService, MobiEyesSystem
from repro.core.load import counter_section, fleet_section, load_balance
from repro.core.query import QuerySpec
from repro.fastpath.bench import dense_params, skewed_params
from repro.geometry import Circle, Point, Vector
from repro.scenario import build_system, twin_divergence
from repro.workload import paper_defaults

#: Script operation kinds (mirrors the service's ticket kinds; removals
#: reference the *script id* of the install they cancel).
OP_UPDATE = "update"
OP_INSTALL = "install"
OP_REMOVE = "remove"


def soak_params(scenario: str, scale: float):
    """Workload parameters for a soak scenario.

    ``skewed`` is the elastic-policy showcase (half the population in the
    left 20% x-strip -- the flash crowd the thermostat exists for);
    ``dense`` and ``paper`` are the benchmark's presets.
    """
    if scenario == "skewed":
        return skewed_params(scale)
    if scenario == "dense":
        return dense_params(scale)
    if scenario == "paper":
        params = paper_defaults()
        return params.scaled(scale) if scale != 1.0 else params
    raise ValueError(f"unknown soak scenario {scenario!r}")


def ingest_script_stream(params, workload, rng, rate: int, churn_every: int):
    """Yield one step's worth of ingest operations, forever.

    Deterministic given the rng fork: each step emits ``rate`` external
    position reports (uniform position in the UoD, fresh velocity within
    the object's speed class) and, every ``churn_every`` steps, one
    moving-query install whose removal is scheduled half a churn period
    later.  Removals name the install's *script id*; the runner maps
    script ids to its own service tickets.

    Objects already covered by a focal query keep their role: updates
    pick uniformly over the whole population, so focal and plain objects
    are reported alike.  Hotspot membership is preserved the same way
    the workload generator assigns it -- a hotspot object's reported x
    is compressed into the left ``hotspot_width`` strip -- so sustained
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
                pos = Point(
                    uod.lx + (pos.x - uod.lx) * params.hotspot_width, pos.y
                )
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
                _, oid, pos, vel = op
                self.service.submit_update(oid, pos, vel)
            elif op[0] == OP_INSTALL:
                _, script_id, spec = op
                self._installs[script_id] = self.service.install_query(spec)
            else:
                _, script_id = op
                ticket = self._installs[script_id]
                if ticket.rejected:
                    # The install itself was backpressure-rejected; there
                    # is nothing to remove (and both runs agree, because
                    # admission is identical across the pair).
                    continue
                self.service.remove_query(ticket)


def default_elastic_schedule(steps: int, shards: int) -> tuple[tuple, ...]:
    """The bounded-soak schedule: one split, then one merge.

    Shard 0 (the hotspot stripe under the skewed scenario) splits a
    third of the way in; the spawned shard is merged back into its donor
    at the two-thirds mark, so a single bounded run exercises the whole
    spawn/retire lifecycle including the retired-slot bookkeeping.
    """
    split_at = max(2, steps // 3)
    merge_at = max(split_at + 2, (2 * steps) // 3)
    spawned = shards  # first spawn appends a fresh slot
    return ((split_at, "split", 0), (merge_at, "merge", spawned, 0))


def _load_snapshot(system: MobiEyesSystem) -> dict[int, tuple] | None:
    loads = getattr(system.server, "shard_loads", None)
    if loads is None:
        return None
    return {row["shard"]: (row["ops"], row["seconds"]) for row in loads()}


def _tail_rows(system: MobiEyesSystem, base: dict[int, tuple]) -> list[dict]:
    """Per-shard load accrued since the ``base`` snapshot.

    The lifetime counters punish a late-spawned shard: it joined with
    zero accrued ops, so cumulative max/mean reads it as cold no matter
    how well it carries the load *now*.  Differencing against a
    snapshot taken after the fleet settles grades the final layout's
    steady-state balance instead.  Shards spawned after the snapshot
    start from zero; retired shards drop out with the fleet.
    """
    rows = []
    for row in system.server.shard_loads():
        base_ops, base_seconds = base.get(row["shard"], (0, 0.0))
        rows.append(
            {
                "shard": row["shard"],
                "ops": row["ops"] - base_ops,
                "seconds": row["seconds"] - base_seconds,
            }
        )
    return rows


def run_soak(
    steps: int | None = 60,
    engine: str = "reference",
    shards: int = 2,
    scenario: str = "skewed",
    scale: float = 0.02,
    seed: int = 11,
    elastic: str = "policy",
    max_shards: int = 4,
    rebalance_every: int = 5,
    elastic_schedule: tuple[tuple, ...] = (),
    ingest_rate: int = 6,
    ingest_budget: int = 4,
    query_churn_every: int = 10,
    latency: int = 0,
    jitter: int = 0,
    twin: bool = True,
    report_every: int = 0,
    tag: str = "local",
    out_dir: str | Path | None = None,
    log=print,
) -> dict:
    """Run one soak and return (and write) the ``SOAK_<tag>.json`` report.

    ``steps=None`` runs until interrupted (Ctrl-C finalizes the report
    cleanly -- the run so far is graded and written, not discarded).
    ``elastic`` selects the scale-out mode: ``"policy"`` arms the
    :class:`~repro.core.RebalancePolicy` thermostat with a fleet ceiling
    (``max_shards``), ``"schedule"`` applies fixed split/merge triggers
    (``elastic_schedule``, defaulted by :func:`default_elastic_schedule`
    for bounded runs), ``"both"`` combines the schedule with a
    transfer-only thermostat -- guaranteed lifecycle coverage from the
    schedule *and* the thermostat's load chasing (the CI soak smoke uses
    this) -- and ``"off"`` runs a fixed fleet with no twin.
    """
    if elastic not in ("policy", "schedule", "both", "off"):
        raise ValueError(f"unknown elastic mode {elastic!r}")
    if elastic != "off" and shards < 2:
        raise ValueError("elastic scale-out requires shards >= 2")
    if elastic in ("schedule", "both") and not elastic_schedule:
        if steps is None:
            raise ValueError("--forever needs an explicit elastic schedule")
        elastic_schedule = default_elastic_schedule(steps, shards)

    params = replace(soak_params(scenario, scale), seed=seed)
    config = dict(
        dead_reckoning_threshold=1.0,
        engine=engine,
        shards=shards,
        uplink_latency_steps=latency,
        downlink_latency_steps=latency,
        latency_jitter_steps=jitter,
        latency_seed=seed,
        ingest_budget_per_step=ingest_budget,
    )
    static_config = dict(config)  # the twin: same knobs, a fleet that never changes
    if elastic in ("policy", "both"):
        config["rebalance_every_steps"] = rebalance_every
    if elastic == "policy":
        config["elastic_max_shards"] = max_shards
    if elastic in ("schedule", "both"):
        # In "both" mode the schedule owns fleet membership and the policy,
        # left without a ceiling, only transfers: a scheduled merge names
        # fixed shard ids and requires them to be stripe-adjacent, so a
        # policy split landing between the pair would (correctly) raise.
        config["elastic_schedule"] = tuple(elastic_schedule)

    grade_twin = twin and elastic != "off"
    system, workload, rng = build_system(params, seed, config=config)
    service = MobiEyesService(system)
    static = None
    if grade_twin:
        static = MobiEyesService(build_system(params, seed, config=static_config)[0])

    script = ingest_script_stream(
        params, workload, rng.fork(9), ingest_rate, query_churn_every
    )
    runner = _ScriptRunner(service)
    static_runner = _ScriptRunner(static) if static is not None else None

    dest = Path(out_dir if out_dir is not None else Path.cwd())
    dest.mkdir(parents=True, exist_ok=True)
    path = dest / f"SOAK_{tag}.json"

    mismatched_steps: list[int] = []
    compared = 0
    interrupted = False
    done = 0
    started = time.perf_counter()

    # Balance is graded over a *tail window*: lifetime counters punish a
    # late spawn (see _tail_rows), so the improvement verdict compares
    # load accrued after the last scheduled fleet change (or the
    # midpoint, whichever is later) -- the steady state the elastic run
    # actually converged to.
    tail_start: int | None = None
    tail_base: dict | None = None
    if steps is not None and grade_twin:
        tail_start = steps // 2
        if elastic_schedule:
            tail_start = max(tail_start, *(op[0] for op in elastic_schedule))
        if tail_start >= steps:
            tail_start = None

    def report(final: bool) -> dict:
        wall = time.perf_counter() - started
        fleet = fleet_section(service.system)
        out: dict = {
            "tag": tag,
            "engine": engine,
            "scenario": scenario,
            "scale": scale,
            "seed": seed,
            "shards": shards,
            "steps": done,
            "bounded_steps": steps,
            "in_progress": not final,
            "interrupted": interrupted,
            "wall_seconds": round(wall, 4),
            "steps_per_sec": round(done / wall, 4) if wall > 0 and done else None,
            "elastic": {
                "mode": elastic,
                "max_shards": (
                    max_shards if elastic in ("policy", "both") else None
                ),
                "rebalance_every": (
                    rebalance_every if elastic in ("policy", "both") else None
                ),
                "schedule": [list(op) for op in elastic_schedule],
            },
            "ingest": {
                "rate_per_step": ingest_rate,
                "budget_per_step": ingest_budget,
                "queue_limit": service.queue_limit,
                "query_churn_every": query_churn_every,
                "counters": counter_section(service.system.counters(), "service"),
            },
            "latency": {
                "uplink_steps": latency,
                "downlink_steps": latency,
                "jitter_steps": jitter,
            },
            "rebalance_log": fleet["rebalance_log"],
            "stale_epoch_reroutes": fleet["stale_epoch_reroutes"],
        }
        ops = out["rebalance_log"]
        out["splits"] = sum(1 for op in ops if "split" in op["trigger"])
        out["merges"] = sum(1 for op in ops if "merge" in op["trigger"])
        if fleet["shard_loads"] is not None:
            server = service.system.server
            out["fleet"] = {
                "shard_loads": fleet["shard_loads"],
                "balance": fleet["load_balance"],
                "partition_bounds": fleet["partition_bounds"],
                "partition_order": list(server.partitioner.order),
                "partition_epoch": fleet["partition_epoch"],
                "retired_shards": list(server.retired_shards),
            }
        if static is not None:
            # A graded twin means an elastic mode, so both fleets are sharded.
            static_bal = load_balance(static.system.server.shard_loads())
            elastic_bal = fleet["load_balance"]
            out["twin"] = {
                "compared_steps": compared,
                "results_match": not mismatched_steps,
                "first_divergence_step": (
                    mismatched_steps[0] if mismatched_steps else None
                ),
                "counters": counter_section(static.system.counters(), "service"),
                "balance": static_bal,
            }
            window = "lifetime"
            if tail_base is not None:
                static_bal = load_balance(
                    _tail_rows(static.system, tail_base["static"])
                )
                elastic_bal = load_balance(
                    _tail_rows(service.system, tail_base["elastic"])
                )
                window = f"tail:{tail_start}"
            out["improvement"] = {
                "window": window,
                "static_imbalance_seconds": static_bal["imbalance_seconds"],
                "elastic_imbalance_seconds": elastic_bal["imbalance_seconds"],
                "static_imbalance_ops": static_bal["imbalance"],
                "elastic_imbalance_ops": elastic_bal["imbalance"],
                "improved_seconds": elastic_bal["imbalance_seconds"]
                < static_bal["imbalance_seconds"],
                "improved_ops": elastic_bal["imbalance"]
                < static_bal["imbalance"],
            }
        return out

    def write(payload: dict) -> None:
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="ascii")

    try:
        with service:
            try:
                while steps is None or done < steps:
                    ops = next(script)
                    runner.submit(ops)
                    if static_runner is not None:
                        static_runner.submit(ops)
                    service.tick()
                    if static is not None:
                        static.tick()
                        compared += 1
                        if twin_divergence(
                            service.system.results(), static.system.results()
                        ):
                            mismatched_steps.append(done + 1)
                    done += 1
                    if tail_start is not None and done == tail_start:
                        tail_base = {
                            "elastic": _load_snapshot(service.system),
                            "static": _load_snapshot(static.system),
                        }
                    if report_every and done % report_every == 0:
                        progress = report(final=False)
                        write(progress)
                        ingest = progress["ingest"]["counters"]
                        log(
                            f"soak: step {done}"
                            + (f"/{steps}" if steps is not None else "")
                            + f", queue {ingest['queued']}, "
                            f"rejects {ingest['backpressure_rejects']}, "
                            f"fleet {service.system.server.partitioner.num_shards}"
                        )
            except KeyboardInterrupt:
                interrupted = True
                log(f"soak: interrupted at step {done}, finalizing report")
            service.check_accounting()
            if static is not None:
                static.check_accounting()
            final = report(final=True)
    finally:
        if static is not None:
            static.close()

    write(final)
    log(f"soak: wrote {path}")
    if static is not None:
        verdict = "results match" if final["twin"]["results_match"] else "DIVERGED"
        log(
            f"soak: {final['splits']} split(s), {final['merges']} merge(s), "
            f"twin {verdict} over {compared} compared step(s)"
        )
    return final


__all__ = [
    "default_elastic_schedule",
    "ingest_script_stream",
    "run_soak",
    "soak_params",
]
