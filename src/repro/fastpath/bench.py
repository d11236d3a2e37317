"""Benchmark trajectory harness: reference vs. vectorized engine.

``python -m repro bench`` runs a fixed scenario matrix through *both*
engines on the identical workload (same seed, same objects, same queries)
and writes a ``BENCH_<tag>.json`` artifact with per-phase wall time,
steps/sec, and result-set hashes.  Matching hashes are the cheap in-artifact
witness that the vectorized engine produced exactly the reference results;
the exhaustive proof is the differential test suite
(``tests/test_fastpath_differential.py``).

Scenario matrix (full mode, paper scale -- Table 1's 10,000 objects and
1,000 queries, 200 measured steps):

- ``dense``: the headline hot-path scenario.  Query radii scaled 3x
  (Fig. 12's ``radius_factor``) and speeds scaled to 0.1x so monitoring
  regions are large and stable: LQT evaluation work dominates and the
  per-object protocol chatter (which both engines share unchanged) stays
  small.  This is where the batched evaluator shines.
- ``paper``: untouched Table 1 defaults.  Deliberately the honest row --
  the shared scalar protocol path (broadcast fan-out, uplink handling)
  dominates at high mobility, so the end-to-end speedup is modest even
  though the vectorized phases themselves are far faster.

``--smoke`` shrinks both scenarios (``REPRO_SCALE``-aware, default 0.02)
for CI; the artifact shape is identical.

Timing protocol: each engine runs ``warmup_steps`` first (query install
storm plus the first full evaluation), then the measured window is timed.
Per-phase accumulators are zeroed after warmup, so ``phase_seconds`` and
``steps_per_sec`` describe steady state only.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core import MobiEyesConfig, MobiEyesSystem
from repro.fastpath import numpy_available
from repro.sim.engine import PHASE_ORDER
from repro.sim.rng import SimulationRng
from repro.workload import (
    SimulationParameters,
    bench_scale_from_env,
    generate_workload,
    paper_defaults,
)

DEFAULT_STEPS = 200
DEFAULT_WARMUP = 5
SMOKE_STEPS = 30
SMOKE_WARMUP = 3
SMOKE_SCALE = 0.02

ENGINES = ("reference", "vectorized")


@dataclass(frozen=True)
class BenchScenario:
    """One row of the benchmark matrix: a workload plus system knobs."""

    name: str
    description: str
    params: SimulationParameters
    steps: int = DEFAULT_STEPS
    warmup: int = DEFAULT_WARMUP
    grouping: bool = True
    safe_period: bool = False
    dead_reckoning_threshold: float = 0.0
    track_accuracy: bool = False
    uplink_latency: int = 0
    downlink_latency: int = 0
    latency_jitter: int = 0
    # Engines this scenario runs (the xl preset is vectorized-only: the
    # reference engine cannot finish 100k objects in smoke time).
    engines: tuple[str, ...] = ENGINES


def dense_params(scale: float = 1.0) -> SimulationParameters:
    """Large, slow-moving monitoring regions: the evaluation-bound workload."""
    params = paper_defaults()
    params = replace(
        params,
        radius_factor=3.0,
        max_speeds=tuple(s * 0.1 for s in params.max_speeds),
    )
    return params.scaled(scale) if scale != 1.0 else params


def skewed_params(scale: float = 1.0) -> SimulationParameters:
    """The flash-crowd workload: half the population in the left fifth.

    Built on :func:`dense_params` (slow speeds keep the crowd where it was
    placed for the whole run) with ``hotspot_fraction=0.5``: half the
    objects compress into the left 20% of the x-axis, so the column-stripe
    partitioner's leftmost shards absorb most of the uplink and evaluation
    load.  This is the scenario online rebalancing exists for -- the
    ``shard_loads`` imbalance is real, persistent, and stripe-aligned.
    """
    return replace(dense_params(scale), hotspot_fraction=0.5, hotspot_width=0.2)


def xl_params() -> SimulationParameters:
    """The ``--scale xl`` workload: 100,000 objects, 5,000 queries.

    Ten times the paper's area and population (densities preserved), with
    the query count capped at 5,000 -- the ROADMAP's "city-scale" stress
    point.  Only the vectorized engine gets through it.
    """
    params = paper_defaults().scaled(10.0)
    return replace(params, num_queries=5_000)


def scenario_matrix(
    smoke: bool = False, latency: int = 0, jitter: int = 0, preset: str = "default"
) -> list[BenchScenario]:
    """The fixed scenarios a bench run executes, in order.

    ``latency`` applies the same per-link delay to the uplink and the
    downlink of every scenario (``jitter`` adds the seeded random extra),
    exercising the deferred delivery pipeline under benchmark load.

    ``preset="xl"`` replaces the matrix with the single 100k-object
    :func:`xl_params` scenario (vectorized-only, a handful of measured
    steps); it keeps its fixed size regardless of ``smoke``.

    ``preset="skewed"`` replaces the matrix with the single flash-crowd
    :func:`skewed_params` scenario (both engines, ``smoke``-scaled like
    the default matrix) -- the rebalancing A/B scenario.
    """
    if preset == "xl":
        return [
            BenchScenario(
                name="xl",
                description=(
                    "100k objects / 5k queries (paper x10, densities "
                    "preserved): the city-scale stress scenario"
                ),
                params=xl_params(),
                steps=4,
                warmup=1,
                dead_reckoning_threshold=1.0,
                uplink_latency=latency,
                downlink_latency=latency,
                latency_jitter=jitter,
                engines=("vectorized",),
            )
        ]
    if preset not in ("default", "skewed"):
        raise ValueError(f"unknown scenario preset {preset!r}")
    if smoke:
        scale = bench_scale_from_env(default=SMOKE_SCALE)
        steps, warmup = SMOKE_STEPS, SMOKE_WARMUP
    else:
        scale, steps, warmup = 1.0, DEFAULT_STEPS, DEFAULT_WARMUP
    skewed = BenchScenario(
        name="skewed",
        description=(
            "dense workload with a flash crowd: half the objects in the "
            "left 20% x-strip (the rebalancing scenario)"
        ),
        params=skewed_params(scale),
        steps=steps,
        warmup=warmup,
        dead_reckoning_threshold=1.0,
        uplink_latency=latency,
        downlink_latency=latency,
        latency_jitter=jitter,
    )
    if preset == "skewed":
        return [skewed]
    return [
        BenchScenario(
            name="dense",
            description=(
                "radius_factor=3, speeds x0.1: large stable monitoring "
                "regions, LQT evaluation dominates"
            ),
            params=dense_params(scale),
            steps=steps,
            warmup=warmup,
            dead_reckoning_threshold=1.0,
            uplink_latency=latency,
            downlink_latency=latency,
            latency_jitter=jitter,
        ),
        BenchScenario(
            name="paper",
            description="untouched Table 1 defaults (protocol-bound at full mobility)",
            params=paper_defaults().scaled(scale) if scale != 1.0 else paper_defaults(),
            steps=steps,
            warmup=warmup,
            dead_reckoning_threshold=1.0,
            uplink_latency=latency,
            downlink_latency=latency,
            latency_jitter=jitter,
        ),
        skewed,
    ]


def _instrument(system: MobiEyesSystem) -> dict[str, float]:
    """Wrap every engine phase callback with a wall-clock accumulator.

    Arms the transport's serialization meter and reports the time spent
    constructing and metering wire messages (ledger records, envelope
    assembly, batch encoding) as its own ``serialization`` row; each
    phase's row is its wall time *minus* the serialization share, so
    ``reporting`` isolates candidate scanning and report computation from
    the protocol encoding cost it triggers.
    """
    totals = {name: 0.0 for name in PHASE_ORDER}
    totals["serialization"] = 0.0
    transport = system.transport
    transport.meter_serialization = True
    phases = system.engine._phases
    for name in PHASE_ORDER:
        wrapped = []
        for callback in phases[name]:

            def timed(clock, _cb=callback, _name=name):
                ser0 = transport.serialization_seconds
                started = time.perf_counter()
                _cb(clock)
                elapsed = time.perf_counter() - started
                ser = transport.serialization_seconds - ser0
                totals[_name] += elapsed - ser
                totals["serialization"] += ser

            wrapped.append(timed)
        phases[name] = wrapped
    return totals


def result_hash(system: MobiEyesSystem) -> str:
    """Order-independent digest of every query's current result set."""
    payload = sorted(
        (int(qid), tuple(sorted(int(oid) for oid in members)))
        for qid, members in system.results().items()
    )
    return hashlib.sha256(repr(payload).encode("ascii")).hexdigest()


def run_engine(
    scenario: BenchScenario,
    engine: str,
    shards: int = 1,
    checkpoint_every: int = 0,
    rebalance_every: int = 0,
    rebalance_metric: str = "seconds",
) -> dict:
    """Build, warm up, and time one engine on a scenario's workload.

    With ``checkpoint_every > 0`` the system snapshots itself on that
    cadence during the measured window, and after the run the last
    checkpoint is serialized, restored into a fresh system, and resumed
    to the end step; the report's ``checkpoint`` section records the
    snapshot cost and whether the resumed run matched bit-for-bit.

    With ``rebalance_every > 0`` (and ``shards > 1``) the load-aware
    rebalancing policy runs on that cadence; the report gains the applied
    ``rebalance_log``, the final ``partition_bounds``/``partition_epoch``,
    and the transport's ``stale_epoch_reroutes`` counter.
    """
    params = scenario.params
    rng = SimulationRng(params.seed)
    workload = generate_workload(params, rng.fork(1))
    config = MobiEyesConfig(
        uod=params.uod,
        alpha=params.alpha,
        step_seconds=params.time_step_seconds,
        base_station_side=params.base_station_side,
        dead_reckoning_threshold=scenario.dead_reckoning_threshold,
        grouping=scenario.grouping,
        safe_period=scenario.safe_period,
        engine=engine,
        shards=shards,
        uplink_latency_steps=scenario.uplink_latency,
        downlink_latency_steps=scenario.downlink_latency,
        latency_jitter_steps=scenario.latency_jitter,
        latency_seed=params.seed,
        checkpoint_every_steps=checkpoint_every,
        rebalance_every_steps=rebalance_every if shards > 1 else 0,
        rebalance_metric=rebalance_metric,
    )
    built = time.perf_counter()
    system = MobiEyesSystem(
        config,
        list(workload.objects),
        rng.fork(2),
        velocity_changes_per_step=params.velocity_changes_per_step,
        track_accuracy=scenario.track_accuracy,
        warmup_steps=scenario.warmup,
    )
    with system:
        return _run_engine_timed(system, scenario, workload, build_seconds=built)


def _run_engine_timed(
    system: MobiEyesSystem, scenario: BenchScenario, workload, build_seconds: float
) -> dict:
    config = system.config
    shards = config.shards
    engine = config.engine
    checkpoint_every = config.checkpoint_every_steps
    rebalance_every = config.rebalance_every_steps
    built = build_seconds
    system.install_queries(workload.query_specs)
    build_seconds = time.perf_counter() - built

    phase_seconds = _instrument(system)
    started = time.perf_counter()
    system.run(scenario.warmup)
    warmup_seconds = time.perf_counter() - started
    for name in phase_seconds:
        phase_seconds[name] = 0.0

    started = time.perf_counter()
    system.run(scenario.steps)
    wall_seconds = time.perf_counter() - started

    # Server seconds over the measured window, summed over shards.
    server_aggregate = sum(s.server_seconds for s in system.metrics._measured())

    report = {
        "engine": engine,
        "build_seconds": round(build_seconds, 4),
        "warmup_seconds": round(warmup_seconds, 4),
        "wall_seconds": round(wall_seconds, 4),
        "steps_per_sec": round(scenario.steps / wall_seconds, 4),
        "ms_per_step": round(1000.0 * wall_seconds / scenario.steps, 3),
        "server_aggregate_seconds": round(server_aggregate, 4),
        "phase_seconds": {name: round(spent, 4) for name, spent in phase_seconds.items()},
        "result_hash": result_hash(system),
        "uplink_messages": system.ledger.uplink_count,
        "downlink_messages": system.ledger.downlink_count,
        "energy_joules": round(system.ledger.total_energy(), 6),
        "pending_messages_at_end": system.transport.pending_count(),
    }
    shard_loads = getattr(system.server, "shard_loads", None)
    if shard_loads is not None:
        report["shard_loads"] = [
            {**row, "seconds": round(row["seconds"], 4)} for row in shard_loads()
        ]
        report["load_balance"] = load_balance(report["shard_loads"])
        report["partition_bounds"] = list(system.server.partitioner.bounds)
        report["partition_epoch"] = system.server.partition_epoch
    if rebalance_every and shards > 1:
        report["rebalance_log"] = list(system.rebalance_log)
        report["stale_epoch_reroutes"] = system.transport.stale_epoch_reroutes
    if checkpoint_every:
        report["checkpoint"] = _checkpoint_roundtrip(system, report)
    return report


def _checkpoint_roundtrip(system: MobiEyesSystem, report: dict) -> dict:
    """Serialize the run's last cadence checkpoint, restore it into a
    fresh system, resume to the end step, and compare the observables.

    ``roundtrip_match`` is the bit-identity witness: the resumed run must
    reproduce the original's result hash, message counts, energy, and
    in-flight queue depth exactly.  ``None`` means the cadence never
    fired (run shorter than the interval).
    """
    from repro.core.snapshot import from_bytes, restore

    cp = system._last_checkpoint
    out: dict = {"checkpoints_taken": system._checkpoints_taken}
    if cp is None:
        out["roundtrip_match"] = None
        return out
    started = time.perf_counter()
    blob = cp.to_bytes()
    with restore(from_bytes(blob)) as resumed:
        resumed_steps = system.clock.step - resumed.clock.step
        resumed.run(resumed_steps)
        out["checkpoint_bytes"] = len(blob)
        out["restored_from_step"] = cp.payload["step"]
        out["resumed_steps"] = resumed_steps
        out["restore_resume_seconds"] = round(time.perf_counter() - started, 4)
        out["roundtrip_match"] = (
            result_hash(resumed) == report["result_hash"]
            and resumed.ledger.uplink_count == report["uplink_messages"]
            and resumed.ledger.downlink_count == report["downlink_messages"]
            and round(resumed.ledger.total_energy(), 6) == report["energy_joules"]
            and resumed.transport.pending_count() == report["pending_messages_at_end"]
        )
    return out


def load_balance(shard_loads: list[dict]) -> dict:
    """Balance summary over the per-shard lifetime load counters.

    ``imbalance`` is max/mean over the deterministic ``ops`` counters:
    1.0 is a perfect split, ``num_shards`` is the degenerate case of all
    load on one shard.  The seconds-based view reports the same split in
    wall time: ``aggregate_seconds`` sums every shard,
    ``critical_seconds`` is the slowest shard, and ``imbalance_seconds``
    is that slowest shard over the mean.
    """
    ops = [row["ops"] for row in shard_loads]
    seconds = [row["seconds"] for row in shard_loads]
    mean_ops = sum(ops) / max(1, len(ops))
    mean_seconds = sum(seconds) / max(1, len(seconds))
    return {
        "num_shards": len(shard_loads),
        "min_ops": min(ops),
        "max_ops": max(ops),
        "mean_ops": round(mean_ops, 1),
        "imbalance": round(max(ops) / mean_ops, 3) if mean_ops else 1.0,
        "aggregate_seconds": round(sum(seconds), 4),
        "min_seconds": round(min(seconds), 4),
        "max_seconds": round(max(seconds), 4),
        "critical_seconds": round(max(seconds), 4),
        "imbalance_seconds": round(max(seconds) / mean_seconds, 3) if mean_seconds else 1.0,
    }


def run_scenario(
    scenario: BenchScenario,
    log=print,
    shards: int = 1,
    checkpoint_every: int = 0,
    rebalance_every: int = 0,
    rebalance_metric: str = "seconds",
) -> dict:
    """Run one scenario through every available engine.

    With ``rebalance_every > 0`` (and ``shards > 1``) each engine *also*
    runs a static-stripes twin first, and the rebalanced run gains a
    ``rebalance`` block: static vs rebalanced ``imbalance_seconds`` (the
    A/B the CI gate reads), the ops-based view, the throughput ratio, and
    a result-hash match flag -- repartitioning moves load, never results.
    """
    params = scenario.params
    row: dict = {
        "name": scenario.name,
        "description": scenario.description,
        "num_objects": params.num_objects,
        "num_queries": params.num_queries,
        "velocity_changes_per_step": params.velocity_changes_per_step,
        "radius_factor": params.radius_factor,
        "max_speeds": list(params.max_speeds),
        "alpha": params.alpha,
        "seed": params.seed,
        "measured_steps": scenario.steps,
        "warmup_steps": scenario.warmup,
        "grouping": scenario.grouping,
        "safe_period": scenario.safe_period,
        "dead_reckoning_threshold": scenario.dead_reckoning_threshold,
        "shards": shards,
        "latency": {
            "uplink_steps": scenario.uplink_latency,
            "downlink_steps": scenario.downlink_latency,
            "jitter_steps": scenario.latency_jitter,
        },
        "engines": {},
    }
    for engine in scenario.engines:
        if engine == "vectorized" and not numpy_available():
            row["engines"][engine] = {"skipped": "numpy not installed"}
            log(f"  {scenario.name}/{engine}: skipped (numpy not installed)")
            continue
        log(
            f"  {scenario.name}/{engine}: {params.num_objects} objects, "
            f"{params.num_queries} queries, {scenario.steps} steps ..."
        )
        static = None
        if rebalance_every and shards > 1:
            # The rebalance baseline: identical run, frozen stripes.
            static = run_engine(scenario, engine, shards=shards)
        result = run_engine(
            scenario,
            engine,
            shards=shards,
            checkpoint_every=checkpoint_every,
            rebalance_every=rebalance_every,
            rebalance_metric=rebalance_metric,
        )
        row["engines"][engine] = result
        if static is not None:
            static_balance = static["load_balance"]
            balanced = result["load_balance"]
            moves = sum(1 for op in result.get("rebalance_log", []) if op["cols_moved"])
            result["rebalance"] = {
                "every_steps": rebalance_every,
                "metric": rebalance_metric,
                "moves": moves,
                "static_imbalance_seconds": static_balance["imbalance_seconds"],
                "rebalanced_imbalance_seconds": balanced["imbalance_seconds"],
                "improved": balanced["imbalance_seconds"]
                < static_balance["imbalance_seconds"],
                "static_imbalance_ops": static_balance["imbalance"],
                "rebalanced_imbalance_ops": balanced["imbalance"],
                "static_steps_per_sec": static["steps_per_sec"],
                "steps_per_sec_ratio": (
                    round(result["steps_per_sec"] / static["steps_per_sec"], 3)
                    if static["steps_per_sec"] > 0
                    else None
                ),
                # Repartitioning moves state between shards, never the
                # protocol outcome: the rebalanced run's results must equal
                # the static run's bit for bit.
                "results_match_static": result["result_hash"] == static["result_hash"],
            }
            verdict = "improved" if result["rebalance"]["improved"] else "NOT IMPROVED"
            log(
                f"  {scenario.name}/{engine}: rebalance {moves} move(s), "
                f"imbalance_seconds {static_balance['imbalance_seconds']:.3f}x -> "
                f"{balanced['imbalance_seconds']:.3f}x ({verdict}, "
                f"wall ratio {result['rebalance']['steps_per_sec_ratio']}x)"
            )
        log(
            f"  {scenario.name}/{engine}: {result['steps_per_sec']:.2f} steps/s "
            f"({result['ms_per_step']:.1f} ms/step)"
        )
        balance = result.get("load_balance")
        if balance is not None:
            log(
                f"  {scenario.name}/{engine}: {balance['num_shards']} shards, "
                f"ops {balance['min_ops']}..{balance['max_ops']} "
                f"(imbalance {balance['imbalance']:.3f}x, "
                f"seconds {balance['imbalance_seconds']:.3f}x)"
            )
        roundtrip = result.get("checkpoint")
        if roundtrip is not None:
            if roundtrip["roundtrip_match"] is None:
                log(
                    f"  {scenario.name}/{engine}: checkpoint cadence never fired "
                    f"(run shorter than the interval)"
                )
            else:
                verdict = "bit-identical" if roundtrip["roundtrip_match"] else "DIVERGED"
                log(
                    f"  {scenario.name}/{engine}: checkpoint roundtrip from step "
                    f"{roundtrip['restored_from_step']} "
                    f"({roundtrip['checkpoint_bytes']} bytes, "
                    f"{roundtrip['resumed_steps']} steps resumed): {verdict}"
                )
    ref = row["engines"].get("reference", {})
    vec = row["engines"].get("vectorized", {})
    if "steps_per_sec" in ref and "steps_per_sec" in vec:
        row["speedup"] = round(vec["steps_per_sec"] / ref["steps_per_sec"], 3)
        row["results_match"] = ref["result_hash"] == vec["result_hash"]
        ref_rep = ref.get("phase_seconds", {}).get("reporting", 0.0)
        vec_rep = vec.get("phase_seconds", {}).get("reporting", 0.0)
        if ref_rep > 0 and vec_rep > 0:
            row["reporting_speedup"] = round(ref_rep / vec_rep, 3)
    return row


class BenchRegression(RuntimeError):
    """Raised when a bench run's checkpoint roundtrip diverges (the
    artifact is still written first)."""


def run_bench(
    tag: str | None = None,
    smoke: bool = False,
    out_dir: str | Path | None = None,
    log=print,
    shards: int = 1,
    latency: int = 0,
    jitter: int = 0,
    scale: str = "default",
    checkpoint_every: int = 0,
    rebalance_every: int = 0,
    rebalance_metric: str = "seconds",
) -> Path:
    """Run the full matrix and write ``BENCH_<tag>.json``; returns the path.

    Raises :class:`BenchRegression` when a ``checkpoint_every`` roundtrip
    diverged.  This harness gates no timings -- the perf gate is
    ``bench/run.py`` + ``bench/compare.py``.
    """
    if tag is None:
        tag = "smoke" if smoke else "local"
    # Fail fast on an unwritable destination -- before minutes of scenarios.
    dest = Path(out_dir if out_dir is not None else Path.cwd())
    dest.mkdir(parents=True, exist_ok=True)
    scenarios = scenario_matrix(smoke=smoke, latency=latency, jitter=jitter, preset=scale)
    log(
        f"bench: {len(scenarios)} scenario(s), mode={'smoke' if smoke else 'full'}"
        + (f", scale={scale}" if scale != "default" else "")
        + (f", shards={shards}" if shards > 1 else "")
        + (f", latency={latency}" if latency else "")
        + (f", jitter={jitter}" if jitter else "")
        + (f", checkpoint_every={checkpoint_every}" if checkpoint_every else "")
        + (
            f", rebalance_every={rebalance_every} ({rebalance_metric})"
            if rebalance_every
            else ""
        )
    )
    report = {
        "tag": tag,
        "mode": "smoke" if smoke else "full",
        "python": sys.version.split()[0],
        "numpy_available": numpy_available(),
        "shards": shards,
        "scale": scale,
        "latency": {"uplink_steps": latency, "downlink_steps": latency, "jitter_steps": jitter},
        "checkpoint_every": checkpoint_every,
        "rebalance_every": rebalance_every,
        "rebalance_metric": rebalance_metric if rebalance_every else None,
        "created_unix": int(time.time()),
        "scenarios": [
            run_scenario(
                scenario,
                log=log,
                shards=shards,
                checkpoint_every=checkpoint_every,
                rebalance_every=rebalance_every,
                rebalance_metric=rebalance_metric,
            )
            for scenario in scenarios
        ],
    }
    path = dest / f"BENCH_{tag}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    for row in report["scenarios"]:
        if "speedup" in row:
            match = "results match" if row["results_match"] else "RESULTS DIFFER"
            log(f"  {row['name']}: vectorized {row['speedup']}x vs reference ({match})")
    log(f"bench: wrote {path}")
    # A diverged checkpoint roundtrip is a correctness failure, not a
    # perf regression -- fail the run (the artifact is already written).
    broken = [
        f"{row['name']}/{engine}"
        for row in report["scenarios"]
        for engine, result in row["engines"].items()
        if result.get("checkpoint", {}).get("roundtrip_match") is False
    ]
    if broken:
        raise BenchRegression(
            "checkpoint roundtrip diverged: " + ", ".join(broken)
        )
    return path
