"""Ablation: result staleness under modeled delivery latency.

The paper reasons about propagation delay analytically (dead reckoning
exists because velocity broadcasts take time to arrive) but simulates
instantaneous delivery.  This ablation turns the deferred message
pipeline on and sweeps the per-hop delivery delay: every uplink and
every per-receiver downlink hop takes ``L`` whole steps (plus optional
seeded jitter), so reports, installs, and broadcasts all lag reality by
the pipeline's depth.

Expected shape: zero latency reproduces the exact results (the inline
path is bit-identical to the historical transport); with positive
latency the mean result error against the instantaneous oracle grows
with the delay -- the results the server holds are a faithful snapshot
of a world ``O(RTT)`` steps old -- while staying far from total failure
because dead reckoning keeps the in-between positions predictable.  The
mean in-flight envelope count grows with the delay (Little's law: depth
is roughly rate times delay), and the measured per-envelope delivery
delay equals the configured hop latency when jitter is off.
"""

from __future__ import annotations

from repro.core import MobiEyesSystem
from repro.experiments.runner import (
    DEFAULT_STEPS,
    DEFAULT_WARMUP,
    ExperimentResult,
    default_params,
)
from repro.scenario import build_system

EXP_ID = "ablation-latency"
TITLE = "Result staleness vs per-hop delivery latency (deferred pipeline)"

LATENCY_STEPS = (0, 1, 2, 4)
JITTER_POINTS = ((2, 1),)  # (base latency, jitter) rows after the fixed sweep


def _run_one(params, steps: int, warmup: int, latency: int, jitter: int) -> MobiEyesSystem:
    system, _, _ = build_system(
        params,
        config=dict(
            uplink_latency_steps=latency,
            downlink_latency_steps=latency,
            latency_jitter_steps=jitter,
            latency_seed=params.seed,
        ),
        track_accuracy=True,
        warmup_steps=warmup,
    )
    system.run(steps)
    return system


def _row(system: MobiEyesSystem, latency: int, jitter: int) -> tuple:
    metrics = system.metrics
    delay = metrics.mean_delivery_delay_steps()
    return (
        latency,
        jitter,
        metrics.mean_result_error(),
        round(metrics.mean_inflight_messages(), 3),
        round(delay, 3) if delay is not None else 0.0,
        system.metrics.messages_per_second(),
    )


def run(
    scale: float | None = None,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
) -> ExperimentResult:
    """Run the experiment; returns the reproduced table."""
    params = default_params(scale)
    rows = []
    for latency in LATENCY_STEPS:
        system = _run_one(params, steps, warmup, latency, 0)
        rows.append(_row(system, latency, 0))
    for latency, jitter in JITTER_POINTS:
        system = _run_one(params, steps, warmup, latency, jitter)
        rows.append(_row(system, latency, jitter))
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=("latency-steps", "jitter", "error", "mean-inflight", "delivery-delay", "msgs/s"),
        rows=tuple(rows),
        notes="expected: zero latency is exact (inline path); error grows with the "
        "per-hop delay but stays bounded (dead reckoning); in-flight depth tracks "
        "the delay; measured delivery delay equals the configured hop latency at "
        "jitter 0",
    )
