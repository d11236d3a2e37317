"""Ablation: protocol robustness under wireless message loss.

The paper assumes reliable delivery.  This ablation measures the
query-result error under three failure models:

- ``iid``: independent Bernoulli loss on uplink messages and per-receiver
  downlink deliveries (the plain :class:`~repro.network.loss.LossModel`,
  which keeps control-plane messages loss-exempt).  Staleness heals at
  the next velocity-change broadcast or cell crossing, so the error
  should grow gracefully (sub-linearly) with the loss rate.
- ``burst``: Gilbert-Elliott burst channels with the *same stationary
  mean* loss rate, run through the fault-injection subsystem -- reliable
  messages are really retransmitted (and paid for) instead of exempted,
  and the recovery protocol (sequence gaps, heartbeats, resync) heals
  the bursts.
- ``disconnect``: no channel loss at all; every 7th object drops off the
  air for the middle third of the run, exercising carrier sensing, the
  server's soft-state leases, and resync-on-reconnect.
"""

from __future__ import annotations

from repro.core import MobiEyesSystem
from repro.experiments.runner import (
    DEFAULT_STEPS,
    DEFAULT_WARMUP,
    ExperimentResult,
    default_params,
)
from repro.faults import (
    DisconnectWindow,
    FaultInjector,
    FaultSchedule,
    GilbertElliottChannel,
)
from repro.network.loss import LossModel
from repro.scenario import build_system
from repro.sim.rng import SimulationRng

EXP_ID = "ablation-loss"
TITLE = "Result error vs wireless message loss (iid, burst, disconnections)"

LOSS_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)
BURST_RATES = (0.05, 0.1)


def _burst_channel(rng: SimulationRng, mean_rate: float) -> GilbertElliottChannel:
    """A Gilbert-Elliott channel whose stationary mean equals ``mean_rate``
    (10% of time in the bad state, clean good state)."""
    return GilbertElliottChannel(
        rng,
        p_good_to_bad=0.05,
        p_bad_to_good=0.45,
        loss_good=0.0,
        loss_bad=min(1.0, 10.0 * mean_rate),
    )


def _run_one(params, steps: int, warmup: int, loss, arm=None) -> MobiEyesSystem:
    system, _, _ = build_system(params, track_accuracy=True, warmup_steps=warmup, loss=loss)
    if arm is not None:
        arm()  # channels attach after installation (deployment is clean)
    system.run(steps)
    return system


def run(
    scale: float | None = None,
    steps: int = DEFAULT_STEPS,
    warmup: int = DEFAULT_WARMUP,
) -> ExperimentResult:
    """Run the experiment; returns the reproduced table."""
    params = default_params(scale)
    rows = []
    # Independent loss baseline (rows first: downstream tooling slices on
    # the "model" column, order keeps old eyeballs working too).
    for rate in LOSS_RATES:
        rng = SimulationRng(params.seed)
        loss = LossModel(rng.fork(3), uplink_loss_rate=rate, downlink_loss_rate=rate)
        system = _run_one(params, steps, warmup, loss)
        rows.append(
            (
                "iid",
                rate,
                system.metrics.mean_result_error(),
                loss.dropped_uplinks,
                loss.dropped_deliveries,
                system.metrics.messages_per_second(),
            )
        )
    # Burst loss through the fault-injection subsystem (matched means).
    for rate in BURST_RATES:
        rng = SimulationRng(params.seed)
        channel_rng = rng.fork(3)
        injector = FaultInjector(channel_rng)

        def arm(injector=injector, channel_rng=channel_rng, rate=rate):
            injector.uplink_channel = _burst_channel(channel_rng, rate)
            injector.downlink_channel = _burst_channel(channel_rng, rate)

        system = _run_one(params, steps, warmup, injector, arm=arm)
        rows.append(
            (
                "burst",
                rate,
                system.metrics.mean_result_error(),
                injector.dropped_uplinks,
                injector.dropped_deliveries,
                system.metrics.messages_per_second(),
            )
        )
    # Scheduled disconnections: every 7th object off the air for the
    # middle third of the run, no channel loss.
    schedule = FaultSchedule(
        disconnects=tuple(
            DisconnectWindow(oid=oid, start=max(1, steps // 3), end=max(2, 2 * steps // 3))
            for oid in range(0, params.num_objects, 7)  # the workload's oids are 0..N-1
        )
    )
    injector = FaultInjector(SimulationRng(params.seed).fork(3), schedule=schedule)
    system = _run_one(params, steps, warmup, injector)
    rows.append(
        (
            "disconnect",
            0.0,
            system.metrics.mean_result_error(),
            injector.dropped_uplinks,
            injector.dropped_deliveries,
            system.metrics.messages_per_second(),
        )
    )
    return ExperimentResult(
        exp_id=EXP_ID,
        title=TITLE,
        headers=("model", "loss-rate", "error", "lost-uplinks", "lost-deliveries", "msgs/s"),
        rows=tuple(rows),
        notes="expected: error grows gracefully with loss; zero loss is exact; "
        "burst/disconnect rows run through the fault-injection subsystem",
    )
