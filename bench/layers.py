"""Per-layer metrics derived from one traced window.

Layer = module name under ``src/repro``.  ``*_s`` rows are span totals per
measured step (``s/step``); ``*_self_s`` rows subtract what child spans
cover; counts are per step unless their unit says otherwise.  Seconds are
host-normalised like the end-to-end times (see ``measure``).  A layer the
workload does not run (``fastpath.*`` on the reference engine, the
coordinator on one shard, the service without churn) yields no rows.
"""

from __future__ import annotations

import statistics

from repro.sim.engine import PHASE_ORDER

from tracing import PHASE_PREFIX, RECORD_KINDS, aggregate, unattributed_share

# Message types that get their own row; the rest fold into ``.other``.
DOWNLINK_TYPES = (
    "QueryInstallBroadcast",
    "QueryUpdateBroadcast",
    "QueryRemoveBroadcast",
    "VelocityChangeBroadcast",
    "QueryInstallList",
)
SEND_TYPES = ("QueryInstallList", "FocalRoleNotification")
BROADCAST_TYPES = DOWNLINK_TYPES[:4]
UPLINK_TYPES = ("ResultChangeReport", "MotionStateResponse")

PER_STEP_S = "s/step"
PER_STEP = "1/step"


def owned_phases(engine: str) -> list[str]:
    """Phases whose own code (outside any child span) is a layer's work."""
    owned = [PHASE_PREFIX + "reporting"]
    if engine == "reference":
        owned.append(PHASE_PREFIX + "evaluation")
    return owned


def per_layer_metrics(
    driver, tracer, traced, untraced, snapshot: dict, loads_before: list, applied_before: int
) -> dict:
    """``name -> (value, unit)`` for every per-layer metric of the run."""
    system = driver.system
    vectorized = system.config.engine == "vectorized"
    table = aggregate(tracer.spans(), traced.first_step, traced.factors)
    counts = tracer.counts
    steps = len(traced.step_seconds)
    stats = traced.stats
    wall = traced.wall
    out: dict[str, tuple] = {}

    def total(name: str) -> float:
        return table[name]["total"] if name in table else 0.0

    def self_time(name: str) -> float:
        return table[name]["self"] if name in table else 0.0

    def calls(name: str) -> int:
        return table[name]["calls"] if name in table else 0

    def per_step(name: str, value: float, unit: str = PER_STEP_S) -> None:
        out[name] = (value / steps, unit)

    def mean_stat(attr: str) -> float:
        return sum(getattr(s, attr) for s in stats) / len(stats)

    def by_type(metric: str, span_prefix: str, kept) -> None:
        """``<metric>_s.<type>`` / ``<metric>_calls.<type>`` rows from the
        spans named ``span_prefix + <type>``, folded onto ``kept + other``."""
        seconds = dict.fromkeys((*kept, "other"), 0.0)
        number = dict.fromkeys((*kept, "other"), 0)
        for name, row in table.items():
            if name.startswith(span_prefix):
                kind = name[len(span_prefix):]
                kind = kind if kind in kept else "other"
                seconds[kind] += row["total"]
                number[kind] += row["calls"]
        for kind in seconds:
            per_step(f"{metric}_s.{kind}", seconds[kind])
            per_step(f"{metric}_calls.{kind}", number[kind], PER_STEP)

    # sim.engine
    for phase in PHASE_ORDER:
        per_step(f"sim.engine.phase_s.{phase}", total(PHASE_PREFIX + phase))
    plain_ms = sorted(1000.0 * s for s in untraced.step_seconds)
    out["sim.engine.step_ms_p90"] = (plain_ms[int(0.9 * (len(plain_ms) - 1))], "ms")
    out["sim.engine.step_ms_max"] = (plain_ms[-1], "ms")
    out["sim.engine.unattributed_share"] = (
        unattributed_share(table, wall, owned_phases(system.config.engine)),
        "fraction",
    )

    # motion, coverage, the reporting scan, the evaluation pass
    reporting_self = self_time(PHASE_PREFIX + "reporting")
    if vectorized:
        per_step("fastpath.motion.advance_s", total("fastpath.motion.advance"))
        per_step("fastpath.coverage.rebuild_s", total("fastpath.coverage.rebuild"))
        per_step("fastpath.coverage.lookup_s", total("fastpath.coverage.lookup"))
        per_step("fastpath.coverage.lookups", calls("fastpath.coverage.lookup"), PER_STEP)
        per_step("fastpath.runtime.reporting_self_s", reporting_self)
        attempts = calls("fastpath.fanout.try_broadcast")
        accepted = counts["fastpath.fanout.accepted"]
        per_step("fastpath.fanout.try_broadcast_s", total("fastpath.fanout.try_broadcast"))
        per_step("fastpath.fanout.attempts", attempts, PER_STEP)
        per_step("fastpath.fanout.accepted", accepted, PER_STEP)
        out["fastpath.fanout.accept_ratio"] = (accepted / attempts if attempts else 0.0, "fraction")
        per_step("fastpath.evaluator.run_s", total("fastpath.evaluator.run"))
        for stat, name in (
            ("evaluated_queries", "evaluated_per_step"),
            ("skipped_by_grouping", "skipped_by_grouping_per_step"),
            ("skipped_by_safe_period", "skipped_by_safe_period_per_step"),
        ):
            out[f"fastpath.evaluator.{name}"] = (mean_stat(stat), PER_STEP)
        per_step(
            "fastpath.evaluator.lqt_changed_calls",
            counts["fastpath.evaluator.lqt_changed"],
            PER_STEP,
        )
        out["fastpath.evaluator.lqt_total"] = (
            system.transport.fanout.evaluator.lqt_total(),
            "entries",
        )
    else:
        per_step("mobility.motion.advance_s", total("mobility.motion.advance"))
        per_step("core.transport.begin_step_s", total("core.transport.begin_step"))
        per_step("core.client.report_phase_s", reporting_self)
        per_step("core.client.evaluation_phase_s", self_time(PHASE_PREFIX + "evaluation"))

    # core.client, core.reporting
    by_type("core.client.on_downlink", "core.client.on_downlink.", DOWNLINK_TYPES)
    out["core.client.mean_lqt_size"] = (mean_stat("mean_lqt_size"), "entries")
    for kind in RECORD_KINDS.values():
        per_step(f"core.reporting.records.{kind}", counts[f"core.reporting.records.{kind}"], PER_STEP)

    # core.transport
    per_step("core.transport.flush_reports_s", total("core.transport.flush_reports"))
    per_step("core.transport.flush_reports_self_s", self_time("core.transport.flush_reports"))
    per_step("core.transport.uplink_s", total("core.transport.uplink"))
    per_step("core.transport.uplink_calls", calls("core.transport.uplink"), PER_STEP)
    by_type("core.transport.send", "core.transport.send.", SEND_TYPES)
    by_type("core.transport.broadcast", "core.transport.broadcast.", BROADCAST_TYPES)
    per_step("core.transport.delivery_phase_s", total("core.transport.delivery_phase"))
    delivered = sum(s.delivered_messages for s in stats)
    per_step("core.transport.delivered_per_step", delivered, PER_STEP)
    delay = sum(s.delivery_delay_steps for s in stats)
    out["core.transport.delivery_delay_steps_mean"] = (delay / delivered if delivered else 0.0, "steps")
    out["core.transport.pending_max"] = (max(s.inflight_messages for s in stats), "count")
    out["core.transport.stale_epoch_reroutes"] = (system.transport.stale_epoch_reroutes, "count")

    # network
    per_step("network.basestation.minimal_cover_s", total("network.basestation.minimal_cover"))
    per_step(
        "network.basestation.minimal_cover_calls",
        calls("network.basestation.minimal_cover"),
        PER_STEP,
    )
    per_step("network.messaging.record_s", total("network.messaging.record"))
    out["network.messaging.uplink_bits_per_step"] = (mean_stat("uplink_bits"), "bits/step")
    out["network.messaging.downlink_bits_per_step"] = (mean_stat("downlink_bits"), "bits/step")

    # core.server
    for kind in RECORD_KINDS.values():
        name = f"core.server.apply_record.{kind}"
        per_step(f"core.server.apply_record_s.{kind}", total(name))
        per_step(f"core.server.apply_record_self_s.{kind}", self_time(name))
        per_step(f"core.server.apply_records.{kind}", calls(name), PER_STEP)
    by_type("core.server.on_uplink", "core.server.on_uplink.", UPLINK_TYPES)
    per_step("core.server.install_query_s", total("core.server.install_query"))
    per_step("core.server.remove_query_s", total("core.server.remove_query"))
    per_step("core.server.installs", calls("core.server.install_query"), PER_STEP)
    per_step("core.server.removes", calls("core.server.remove_query"), PER_STEP)
    load = sum(s.server_seconds * f for s, f in zip(stats, traced.factors))
    out["core.server.load_ms_per_step"] = (1000.0 * load / steps, "ms")

    # core.coordinator, core.shard, core.partition
    if loads_before:
        routing = sum(
            row["self"]
            for name, row in table.items()
            if name.startswith("core.coordinator.") and name != "core.coordinator.apply_rebalance"
        )
        per_step("core.coordinator.route_self_s", routing)
        per_step("core.coordinator.apply_rebalance_s", total("core.coordinator.apply_rebalance"))
        moves = [op for op in system.rebalance_log if op["cols_moved"]]
        out["core.coordinator.rebalance_moves"] = (len(moves), "count")
        out["core.coordinator.cols_moved"] = (sum(op["cols_moved"] for op in moves), "count")
        before = {row["shard"]: row for row in loads_before}
        busy = []
        ops = []
        for row in system.server.shard_loads():
            sid = row["shard"]
            busy.append((row["seconds"] - before[sid]["seconds"]) * traced.factor)
            ops.append(row["ops"] - before[sid]["ops"])
            per_step(f"core.shard.busy_s.{sid}", busy[-1])
            per_step(f"core.shard.ops.{sid}", ops[-1], "ops/step")
            width = row["columns"][1] - row["columns"][0] + 1
            out[f"core.partition.width_final.{sid}"] = (width, "columns")
        out["core.shard.imbalance_ops"] = (max(ops) * len(ops) / sum(ops), "ratio")
        out["core.shard.imbalance_s"] = (max(busy) * len(busy) / sum(busy), "ratio")
        out["core.partition.epoch_final"] = (system.server.partition_epoch, "count")

    # core.service
    service = driver.service
    if service is not None:
        per_step("core.service.admit_s", total("core.service.admit"))
        out["core.service.applied_per_s"] = ((service.applied - applied_before) / wall, "ops/s")
        out["core.service.rejected"] = (service.backpressure_rejects, "count")
        out["core.service.deferred_ops"] = (service.deferred_ops, "count")
        out["core.service.queue_depth_max"] = (counts["core.service.queue_depth_max"], "count")

    # core.snapshot: one round trip after the window, whole seconds.
    for name in ("checkpoint_s", "to_bytes_s", "from_bytes_s", "restore_s"):
        out[f"core.snapshot.{name}"] = (snapshot[name], "s")
    out["core.snapshot.bytes"] = (snapshot["bytes"], "bytes")
    out["core.snapshot.roundtrip_match"] = (int(snapshot["roundtrip_match"]), "bool")

    # the oracle sample that result_error costs, and the trace itself
    oracle = traced.oracle_seconds + untraced.oracle_seconds
    out["metrics.accuracy.oracle_s"] = (
        traced.factor * sum(oracle) / len(oracle) if oracle else 0.0,
        "s",
    )
    plain_p50 = statistics.median(untraced.step_seconds)
    out["trace.overhead_share"] = (
        statistics.median(traced.step_seconds) / plain_p50 - 1.0,
        "fraction",
    )
    out["trace.spans"] = (len(tracer.names), "count")
    return out
