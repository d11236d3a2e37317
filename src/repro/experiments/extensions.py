"""Beyond the paper's figures: ablations of the knobs it introduces but never
sweeps, robustness runs it does not make, and checks of the analytical
models it omits.

The first three ablations and the two analyses are views over the run
table like the figures.  Loss, mobility, latency and rebalance read what a
:class:`~repro.metrics.collectors.MetricsLog` does not hold (channel drop
counters, shard loads, the policy's log) or build what ``run_mobieyes``
does not take (fault injectors, latency and shard configs), so they build
their own systems and take only the measurement window from ``runs``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import AlphaCostModel, LqtSizeModel
from repro.baselines import IndexingMode
from repro.core import MobiEyesSystem, PropagationMode
from repro.core.load import load_balance
from repro.experiments.figures import LAZY, alpha_sweep
from repro.experiments.registry import experiment
from repro.experiments.runner import RunTable, run_centralized, run_mobieyes
from repro.faults import DisconnectWindow, FaultInjector, FaultSchedule
from repro.faults.channels import mean_rate_channel
from repro.mobility import MotionModel, RandomWaypointModel
from repro.scenario import build_system, result_digest
from repro.sim.rng import SimulationRng
from repro.workload import SimulationParameters


@experiment("ablation-delta", "Dead-reckoning threshold: messages vs result error")
def ablation_delta(runs: RunTable, params: SimulationParameters):
    """Extension (paper Section 3.4 introduces delta but never sweeps it):
    a larger dead-reckoning threshold suppresses velocity-change relays
    (fewer messages) at the cost of stale focal-object predictions on the
    moving objects (higher result error).
    """
    rows = []
    for delta in (0.0, 0.25, 0.5, 1.0, 2.0):  # miles
        log = runs.mobieyes(params, dead_reckoning_threshold=delta, track_accuracy=True)
        rows.append(
            (
                delta,
                log.messages_per_second(),
                log.uplink_messages_per_second(),
                log.mean_result_error(),
            )
        )
    return ("delta", "msgs/s", "uplink/s", "error"), rows


@experiment("ablation-grouping", "Query grouping on/off under zipf focal skew")
def ablation_grouping(runs: RunTable, params: SimulationParameters):
    """Extension (paper Section 4.1 motivates grouping with skewed
    query-per-focal-object distributions): with focal objects drawn from a
    zipf, so grouping has sharing to exploit, it cuts broadcasts,
    result-report uplinks (query bitmap), and object-side containment
    evaluations.
    """
    rows = []
    for grouping in (False, True):
        log = runs.mobieyes(params, grouping=grouping, focal_skew=1.2)
        rows.append(
            (
                "on" if grouping else "off",
                log.messages_per_second(),
                log.downlink_messages_per_second(),
                log.uplink_messages_per_second(),
                log.total_evaluated_queries(),
                log.mean_lqt_size(),
            )
        )
    return ("grouping", "msgs/s", "downlink/s", "uplink/s", "evals", "lqt"), rows


@experiment("ablation-propagation", "Eager vs lazy query propagation at defaults")
def ablation_propagation(runs: RunTable, params: SimulationParameters):
    """Extension: the EQP/LQP trade that Figs. 1, 2 and 5-7 show across
    sweeps, isolated at the default operating point -- lazy saves messages
    (mostly uplink) for a small, measured error.
    """
    rows = []
    for mode in (PropagationMode.EAGER, LAZY):
        log = runs.mobieyes(params, propagation=mode, track_accuracy=True)
        rows.append(
            (
                mode.value,
                log.messages_per_second(),
                log.uplink_messages_per_second(),
                log.downlink_messages_per_second(),
                log.mean_result_error(),
            )
        )
    return ("propagation", "msgs/s", "uplink/s", "downlink/s", "error"), rows


@experiment("ablation-loss", "Result error vs wireless message loss (iid, burst, disconnections)")
def ablation_loss(runs: RunTable, params: SimulationParameters):
    """Extension (the paper assumes reliable delivery): query-result error
    under three failure models, all through the fault-injection subsystem,
    so every row runs one reliability rule: control-plane messages are
    really retransmitted (and paid for, acks and heartbeats included), and
    the recovery protocol (sequence gaps, heartbeats, resync) heals what
    is lost. ``iid``: independent Bernoulli loss on uplink messages and
    per-receiver downlink deliveries; the error grows gracefully with the
    loss rate and zero loss is exact. ``burst``: Gilbert-Elliott channels
    with the same stationary mean. ``disconnect``: no channel loss; every
    7th object drops off the air for the middle third of the run,
    exercising carrier sensing, the server's soft-state leases and
    resync-on-reconnect.
    """
    steps = runs.steps

    def run_one(injector: FaultInjector, arm=None) -> MobiEyesSystem:
        system, _, _ = build_system(
            params, track_accuracy=True, warmup_steps=runs.warmup, loss=injector
        )
        if arm is not None:
            arm()  # channels attach after installation (deployment is clean)
        system.run(steps)
        return system

    def row(model: str, rate: float, system: MobiEyesSystem, channel) -> tuple:
        return (
            model,
            rate,
            system.metrics.mean_result_error(),
            channel.dropped_uplinks,
            channel.dropped_deliveries,
            system.metrics.messages_per_second(),
        )

    rows = []
    # Channel loss on both links: independent rows first, then bursts with
    # matched means.
    for model, rates in (("iid", (0.0, 0.05, 0.1, 0.2, 0.4)), ("burst", (0.05, 0.1))):
        for rate in rates:
            channel_rng = SimulationRng(params.seed).fork(3)
            injector = FaultInjector()

            def arm(injector=injector, rng=channel_rng, rate=rate, burst=model == "burst"):
                injector.uplink_channel = mean_rate_channel(rng, rate, burst)
                injector.downlink_channel = mean_rate_channel(rng, rate, burst)

            rows.append(row(model, rate, run_one(injector, arm), injector))
    # Scheduled disconnections: every 7th object off the air for the
    # middle third of the run, no channel loss.
    schedule = FaultSchedule(
        disconnects=tuple(
            DisconnectWindow(oid=oid, start=max(1, steps // 3), end=max(2, 2 * steps // 3))
            for oid in range(0, params.num_objects, 7)  # the workload's oids are 0..N-1
        )
    )
    injector = FaultInjector(schedule=schedule)
    rows.append(row("disconnect", 0.0, run_one(injector), injector))
    return ("model", "loss-rate", "error", "lost-uplinks", "lost-deliveries", "msgs/s"), rows


@experiment("ablation-mobility", "Mobility-model robustness: velocity-change vs random waypoint")
def ablation_mobility(runs: RunTable, params: SimulationParameters):
    """Extension: the paper's random-velocity-change model vs the standard
    random-waypoint model, for MobiEyes (EQP and LQP) and the naive
    baseline -- EQP stays exact, LQP stays cheap, and MobiEyes keeps its
    messaging advantage over naive central reporting under both.
    """
    window = (runs.steps, runs.warmup)
    models = {
        "velocity-change": lambda objects, rng: MotionModel(
            objects, params.uod, rng, velocity_changes_per_step=params.velocity_changes_per_step
        ),
        "waypoint": lambda objects, rng: RandomWaypointModel(objects, params.uod, rng),
    }
    rows = []
    for kind, motion in models.items():
        naive = run_centralized(params, *window, indexing=IndexingMode.QUERIES, motion=motion)
        eqp = run_mobieyes(params, *window, track_accuracy=True, motion=motion)
        lqp = run_mobieyes(params, *window, propagation=LAZY, track_accuracy=True, motion=motion)
        rows.append(
            (
                kind,
                naive.metrics.messages_per_second(),
                eqp.metrics.messages_per_second(),
                lqp.metrics.messages_per_second(),
                eqp.metrics.mean_result_error(),
                lqp.metrics.mean_result_error(),
            )
        )
    return ("mobility", "naive", "eqp", "lqp", "eqp-error", "lqp-error"), rows


@experiment("ablation-latency", "Result staleness vs per-hop delivery latency (deferred pipeline)")
def ablation_latency(runs: RunTable, params: SimulationParameters):
    """Extension (the paper reasons about propagation delay analytically --
    dead reckoning exists because velocity broadcasts take time to arrive --
    but simulates instantaneous delivery): per-hop delivery latency through
    the deferred message pipeline. Every uplink and every per-receiver
    downlink hop takes L whole steps (plus optional seeded jitter), so
    reports, installs and broadcasts all lag reality by the pipeline's
    depth. Zero latency is exact (the inline path is bit-identical);
    positive latency makes results lag the instantaneous oracle -- the
    server holds a faithful snapshot of a world O(RTT) steps old -- with the
    error bounded by dead reckoning, the in-flight depth tracking the delay
    (Little's law) and the measured delivery delay equal to the configured
    hop latency at jitter 0.
    """
    rows = []
    # The fixed sweep, then one (base latency, jitter) row.
    for latency, jitter in ((0, 0), (1, 0), (2, 0), (4, 0), (2, 1)):
        system, _, _ = build_system(
            params,
            config=dict(
                uplink_latency_steps=latency,
                downlink_latency_steps=latency,
                latency_jitter_steps=jitter,
                latency_seed=params.seed,
            ),
            track_accuracy=True,
            warmup_steps=runs.warmup,
        )
        system.run(runs.steps)
        metrics = system.metrics
        delay = metrics.mean_delivery_delay_steps()
        rows.append(
            (
                latency,
                jitter,
                metrics.mean_result_error(),
                round(metrics.mean_inflight_messages(), 3),
                round(delay, 3) if delay is not None else 0.0,
                metrics.messages_per_second(),
            )
        )
    return (
        ("latency-steps", "jitter", "error", "mean-inflight", "delivery-delay", "msgs/s"),
        rows,
    )


@experiment(
    "ablation-rebalance", "Shard load balance vs workload skew, static vs rebalanced stripes"
)
def ablation_rebalance(runs: RunTable, params: SimulationParameters):
    """Extension (the paper's server is monolithic; this repo shards it
    into column stripes, which makes the stripe boundaries a load-balancing
    knob): workload skew (``hotspot_fraction``: the share of the population
    compressed into the left 20% x-strip) crossed with the online
    rebalancing policy (``repro.core.RebalancePolicy``, which reads the
    deterministic ``ops`` counters). On the uniform workload the static
    stripes are near-balanced and the policy stays quiet (zero moves: the
    hysteresis dead band); under a flash crowd the static split degrades
    (the leftmost shards absorb the hotspot) while the rebalanced run
    narrows the hot stripes and cuts the max/mean ops imbalance -- with
    result sets bit-identical to the static run in every row
    (repartitioning moves load, never results).
    """

    def run_one(skewed: SimulationParameters, rebalance: bool) -> MobiEyesSystem:
        system, _, _ = build_system(
            skewed,
            config=dict(shards=4, rebalance_every_steps=4 if rebalance else 0),
            warmup_steps=runs.warmup,
        )
        system.run(runs.steps)
        return system

    rows = []
    for fraction in (0.0, 0.5):
        skewed = replace(params, hotspot_fraction=fraction)
        static = run_one(skewed, rebalance=False)
        rebalanced = run_one(skewed, rebalance=True)
        for label, system in (("static", static), ("rebalanced", rebalanced)):
            balance = load_balance(system.server.shard_loads())
            rows.append(
                (
                    fraction,
                    label,
                    sum(1 for op in system.rebalance_log if op["cols_moved"]),
                    system.server.partitioner.epoch,
                    balance["imbalance"],
                    balance["max_ops"],
                    result_digest(system) == result_digest(static),
                )
            )
    return (
        ("hotspot", "stripes", "moves", "epoch", "imbalance-ops", "max-ops", "results-match-static"),
        rows,
    )


@experiment("analysis-alpha", "Analytical alpha model vs simulated messaging cost")
def analysis_alpha(runs: RunTable, params: SimulationParameters):
    """Extension (the paper omits its analytical optimal-alpha model 'for
    space restrictions'): the model reconstructed in
    ``repro.analysis.alpha_model`` -- its messages/second curve and argmin --
    versus the simulated Fig. 4 sweep.
    """
    model = AlphaCostModel.from_params(params)
    rows = [
        (
            alpha,
            log.messages_per_second(),
            model.total_rate(alpha),
            model.uplink_rate(alpha),
            model.downlink_rate(alpha),
        )
        for alpha, log in alpha_sweep(runs, params)
    ]
    best_alpha, best_rate = model.optimal_alpha()
    return (
        ("alpha", "simulated", "model-total", "model-uplink", "model-downlink"),
        rows,
        f"model argmin: alpha*={best_alpha:.2f} at {best_rate:.2f} msgs/s",
    )


@experiment("analysis-lqt", "Analytical LQT-size model vs simulated mean LQT size")
def analysis_lqt(runs: RunTable, params: SimulationParameters):
    """Extension: the closed-form expected-LQT-size model behind Figs.
    10-12 (``repro.analysis.lqt_model``: nmq * selectivity *
    (2(alpha + r))^2 / A) versus the simulated mean LQT size across the
    alpha sweep.
    """
    model = LqtSizeModel.from_params(params)
    rows = [
        (alpha, log.mean_lqt_size(), model.expected_lqt_size(alpha))
        for alpha, log in alpha_sweep(runs, params)
    ]
    return ("alpha", "simulated", "model"), rows
