"""Measured windows, end-to-end metrics and the correctness checks.

Timing protocol: closed loop, one driver.  Each step of the window is
timed on its own with ``perf_counter``; the window's wall is the sum of
those, so the work between steps (ingest generation, oracle sampling,
hashing) is excluded.  The window is a fixed number of steps -- the same
work on every commit -- sized from ``--seconds`` by the workload's nominal
step rate.

Host-speed normalisation: the shared 2-core host this runs on drifts by
+-25% within seconds (a fixed kernel takes 12-19 ms, in CPU time as much
as in wall time), which no window the time cap allows averages out.  So a
fixed pure-Python probe is timed right before and right after every step,
and every reported time is the measured time divided by the probe's time
around it, multiplied by the probe's nominal time: seconds as a host that
runs the probe in exactly ``PROBE_NOMINAL_S`` would have measured them.  A
change to the program moves a step's time and not the probe's, so gains and
regressions show undiminished; most of the host's drift cancels.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro.core.snapshot import checkpoint, from_bytes, restore, step_hash
from repro.metrics.accuracy import mean_result_error

import layers
from tracing import Tracer
from workloads import Workload, build

SETUP_REPEATS = 3
DIFFERENTIAL_SCALE = 0.1
DIFFERENTIAL_STEPS = 30

# Steps per (host-normalised) second when this benchmark was defined;
# ``--seconds`` times this is the window's step count.
NOMINAL_STEP_RATE = {
    "paper_table1": 5.6,
    "dense_eval": 16.4,
    "skew_sharded_latency": 13.4,
    "service_churn": 8.3,
    "reference_scaled": 22.5,
}
SMOKE_SCALE = 0.1
SMOKE_STEPS = 12

PROBE_ITERATIONS = 25_000
PROBE_NOMINAL_S = 0.0025


def probe() -> float:
    """Seconds the fixed kernel takes right now: the host's current speed."""
    started = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(PROBE_ITERATIONS):
        slots[i & 255] = acc
        acc += i * 0.5
    return time.perf_counter() - started


def host_factor(probes: int = 5) -> float:
    """Multiplier that turns seconds measured now into nominal-host seconds."""
    return PROBE_NOMINAL_S / statistics.median(probe() for _ in range(probes))


def window_steps(workload: Workload, seconds: float) -> int:
    return max(SMOKE_STEPS, round(NOMINAL_STEP_RATE[workload.name] * seconds))


@dataclass
class Window:
    """What one measured window recorded.  ``step_seconds`` are
    host-normalised: measured seconds times ``factors[i]``."""

    step_seconds: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    first_step: int = 0
    error_samples: list = field(default_factory=list)
    oracle_seconds: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    submitted: int = 0
    raised: bool = False

    @property
    def wall(self) -> float:
        return sum(self.step_seconds)

    @property
    def factor(self) -> float:
        """The window's typical host factor (for times taken between steps)."""
        return statistics.median(self.factors)


def run_window(driver, steps: int) -> Window:
    """Drive ``steps`` measured steps; sample the result error against the
    oracle after each, between steps (every tenth step, as first planned,
    leaves 4 to 18 samples a window and a 20-30% spread between seeds)."""
    system = driver.system
    window = Window()
    first = len(system.metrics.steps)
    submitted = len(driver.ingest.tickets) if driver.ingest is not None else 0
    window.first_step = system.clock.step + 1
    gc.collect()
    for _ in range(steps):
        before = probe()
        try:
            seconds = driver.step()
        except Exception:
            # The harness must still report: count the step as failed and
            # stop, since the system's state is no longer trustworthy.
            traceback.print_exc(file=sys.stderr)
            window.raised = True
            if not window.step_seconds:
                raise
            break
        factor = 2.0 * PROBE_NOMINAL_S / (before + probe())
        window.factors.append(factor)
        window.step_seconds.append(seconds * factor)
        started = time.perf_counter()
        error = mean_result_error(system.results(), system.oracle_results())
        window.oracle_seconds.append(time.perf_counter() - started)
        if error is not None:
            window.error_samples.append(error)
    window.stats = system.metrics.steps[first:]
    if driver.ingest is not None:
        window.submitted = len(driver.ingest.tickets) - submitted
    return window


class Checks:
    """Named pass/fail checks; every one counts as an attempted operation."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.results[name] = bool(passed)
        if not passed:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)

    def run(self, name: str, fn) -> None:
        """``fn`` passes by returning; an assertion inside it fails the check."""
        try:
            fn()
        except AssertionError as exc:
            self.record(name, False, str(exc))
        else:
            self.record(name, True)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.results.values() if not ok)


def end_of_run_checks(checks: Checks, driver, window: Window, full_size: bool) -> None:
    checks.run("invariants", driver.system.check_invariants)
    if driver.service is not None:
        checks.run("service_accounting", driver.service.check_accounting)
        rejects = driver.service.backpressure_rejects
        checks.record("service_zero_rejects", rejects == 0, f"{rejects} rejected")
    if full_size:
        # The ceilings were measured at full size; a smoke population's
        # error is several times higher and says nothing.
        ceiling = driver.workload.error_ceiling
        error = _mean(window.error_samples)
        checks.record(
            "result_error_ceiling", error <= ceiling, f"{error:.5f} > ceiling {ceiling}"
        )


def differential_prefix(checks: Checks, workload: Workload, seed: int) -> None:
    """Untimed: the workload's configuration at a tenth of its population,
    stepped on both engines; ``step_hash`` must agree at every step."""
    reference, _ = build(workload, seed, scale=DIFFERENTIAL_SCALE, engine="reference")
    vectorized, _ = build(workload, seed, scale=DIFFERENTIAL_SCALE, engine="vectorized")
    diverged_at = None
    try:
        for step in range(DIFFERENTIAL_STEPS):
            reference.step()
            vectorized.step()
            if step_hash(reference.system) != step_hash(vectorized.system):
                diverged_at = step
                break
    finally:
        reference.close()
        vectorized.close()
    checks.record(
        "differential_prefix", diverged_at is None, f"engines diverged at step {diverged_at}"
    )


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end_metrics(driver, window: Window) -> dict:
    """The end-to-end metrics one window yields, ``name -> (value, unit)``;
    the caller adds ``setup_s`` and ``failed_ops_share``."""
    stats = window.stats
    steps = len(window.step_seconds)
    server_seconds = [s.server_seconds * f for s, f in zip(stats, window.factors)]
    sim_seconds = len(stats) * driver.system.config.step_seconds
    population = len(driver.system.clients)
    uplinks = sum(s.uplink_messages for s in stats)
    downlinks = sum(s.downlink_messages for s in stats)
    energy = sum(s.energy_joules for s in stats)
    return {
        "steps_per_s": (steps / window.wall, "steps/s"),
        "step_ms_p50": (1000.0 * statistics.median(window.step_seconds), "ms"),
        "server_ms_per_step": (1000.0 * _mean(server_seconds), "ms"),
        "server_ops_per_step": (_mean([s.server_ops for s in stats]), "ops"),
        "msgs_per_sim_s": ((uplinks + downlinks) / sim_seconds, "msg/s"),
        "uplink_msgs_per_sim_s": (uplinks / sim_seconds, "msg/s"),
        "energy_mw_per_object": (1000.0 * energy / population / sim_seconds, "mW"),
        "result_error": (_mean(window.error_samples), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _tally(checks: Checks, window: Window, unaccounted: int) -> tuple[int, int]:
    """``(attempted, failed)``: measured steps + ingest operations
    submitted + checks; steps that raised + operations rejected or
    unaccounted + checks failed."""
    attempted = len(window.step_seconds) + int(window.raised) + window.submitted
    attempted += len(checks.results)
    return attempted, int(window.raised) + unaccounted + checks.failed


def _unaccounted(driver) -> int:
    return driver.ingest.unaccounted() if driver.ingest is not None else 0


def _timed_build(workload: Workload, seed: int, scale: float):
    """``build`` with its set-up seconds host-normalised."""
    before = host_factor()
    driver, seconds = build(workload, seed, scale)
    return driver, seconds * (before + host_factor()) / 2.0


def run_untraced(workload: Workload, seed: int, steps: int, scale: float) -> dict:
    """Set up, measure one window, check; the end-to-end numbers."""
    checks = Checks()
    driver, first_setup = _timed_build(workload, seed, scale)
    try:
        window = run_window(driver, steps)
        if not window.raised:
            end_of_run_checks(checks, driver, window, scale == 1.0)
        final_hash = step_hash(driver.system)
        metrics = end_to_end_metrics(driver, window)
        unaccounted = _unaccounted(driver)
    finally:
        driver.close()
    # Set-up again, after the peak-RSS reading above so that stays one
    # system's footprint; setup_s is the median of the repeats.
    setups = [first_setup]
    for _ in range(SETUP_REPEATS - 1):
        del driver
        gc.collect()
        driver, seconds = _timed_build(workload, seed, scale)
        driver.close()
        setups.append(seconds)
    differential_prefix(checks, workload, seed)
    attempted, failed = _tally(checks, window, unaccounted)
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["failed_ops_share"] = (failed / attempted, "fraction")
    return {
        "metrics": metrics,
        "checks": checks.results,
        "attempted": attempted,
        "failed": failed,
        "steps": len(window.step_seconds),
        "step_hash": final_hash,
        "host_factor": window.factor,
    }


def snapshot_roundtrip(system) -> dict:
    """One checkpoint -> bytes -> checkpoint -> system round trip, timed."""
    factor = host_factor()
    t0 = time.perf_counter()
    cp = checkpoint(system)
    t1 = time.perf_counter()
    blob = cp.to_bytes()
    t2 = time.perf_counter()
    decoded = from_bytes(blob)
    t3 = time.perf_counter()
    restored = restore(decoded)
    t4 = time.perf_counter()
    factor = (factor + host_factor()) / 2.0
    try:
        match = step_hash(restored) == step_hash(system)
    finally:
        restored.close()
    return {
        "checkpoint_s": (t1 - t0) * factor,
        "to_bytes_s": (t2 - t1) * factor,
        "from_bytes_s": (t3 - t2) * factor,
        "restore_s": (t4 - t3) * factor,
        "bytes": len(blob),
        "roundtrip_match": match,
    }


def run_traced(workload: Workload, seed: int, steps: int, scale: float, trace_path) -> dict:
    """The same set-up twice: an untraced window, then the same steps with
    spans recorded; the per-layer numbers and the tracing overhead."""
    checks = Checks()
    plain, _ = build(workload, seed, scale)
    try:
        untraced = run_window(plain, steps)
        untraced_hash = step_hash(plain.system)
    finally:
        plain.close()
    del plain
    gc.collect()

    driver, _ = build(workload, seed, scale)
    tracer = Tracer()
    try:
        shard_loads = getattr(driver.system.server, "shard_loads", None)
        loads_before = shard_loads() if shard_loads is not None else []
        applied_before = driver.service.applied if driver.service is not None else 0
        tracer.install(driver)
        try:
            traced = run_window(driver, steps)
        finally:
            tracer.uninstall()
        checks.record(
            "traced_hash_matches_untraced",
            step_hash(driver.system) == untraced_hash,
            "the wrappers changed the run",
        )
        if not traced.raised:
            end_of_run_checks(checks, driver, traced, scale == 1.0)
        # After uninstall: a checkpoint deep-copies instance attributes,
        # wrappers included.
        snapshot = snapshot_roundtrip(driver.system)
        checks.record("snapshot_roundtrip", snapshot["roundtrip_match"], "restored hash differs")
        metrics = layers.per_layer_metrics(
            driver, tracer, traced, untraced, snapshot, loads_before, applied_before
        )
        tracer.write(
            trace_path,
            {
                "workload": workload.name,
                "seed": seed,
                "engine": workload.engine,
                "steps": len(traced.step_seconds),
                "wall_s": traced.wall,
                "owned_phases": layers.owned_phases(workload.engine),
                "first_step": traced.first_step,
                "host_factors": traced.factors,
            },
        )
    finally:
        driver.close()
    attempted, failed = _tally(checks, traced, _unaccounted(driver))
    attempted += len(untraced.step_seconds)
    failed += int(untraced.raised)
    return {
        "metrics": metrics,
        "checks": checks.results,
        "attempted": attempted,
        "failed": failed,
        "steps": len(traced.step_seconds),
        "step_hash": untraced_hash,
        "host_factor": traced.factor,
    }
