#!/usr/bin/env python3
"""What CI asserts about a ``DRIVE_<tag>.json`` artifact.

usage: check_artifact.py <path>

The artifact is one report of ``python -m repro drive`` or, from
``--engine both``, ``{"engines": {name: report}}``.  What each report must
show follows from its own ``inputs``:

- always: the basis is the one the inputs choose, and the run converged
  to it; with no fault window, every step matched it (``results_match``);
  a twin-graded run on lossless channels matched its twin on every step
  before the first window opened; and the ingest accounting identity
  holds; the ``metrics`` section's message rates, times the simulated
  seconds it covers, give back the report's own per-type message counts;
- a crash window: the run was perturbed inside the window, a recovery
  basis was captured, and it is non-empty;
- scheduled fleet moves: at least one was applied and the partition
  epoch is at least the number of moves; under uplink latency,
  stale-epoch reroutes were counted;
- ingest faster than its budget: backpressure fired;
- an elastic schedule: one split and one merge, the merged slot retired,
  and the tail-window ops imbalance improved on the static twin.

Exits non-zero naming the first check that failed.
``tests/test_ci_checks.py`` runs it against reports produced in-test, so
a renamed report key fails tier-1 instead of silently passing here.
"""

from __future__ import annotations

import json
import math
import sys


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"check_artifact: {message}")


def check(name: str, run: dict) -> None:
    inputs, grading, counters, fleet = run["inputs"], run["grading"], run["counters"], run["fleet"]
    schedule, channels = inputs["faults"]["schedule"], inputs["faults"]["channels"]
    plan = inputs["fleet"]
    uplink_latency = inputs["latency"]["uplink_steps"]
    lagged = (
        uplink_latency or inputs["latency"]["downlink_steps"] or inputs["latency"]["jitter_steps"]
        or schedule["crashes"] or plan["plan"] != "static" or inputs["dead_reckoning"]
    )
    basis = "twin" if lagged else "oracle"
    require(grading["basis"] == basis, f"{name}: graded against the {grading['basis']}, "
            f"but its inputs choose the {basis}")
    require(grading["converged"], f"{name}: never realigned with the {basis}")
    if not any(schedule.values()):
        require(grading["results_match"],
                f"{name}: diverged from the {basis} at step {grading['first_divergence_step']}")
    elif basis == "twin" and not (channels["uplink_loss"] or channels["downlink_loss"]):
        # The twin carries the run's reliability layer but no channel, so
        # on lossless channels nothing but a fault window may set the two
        # apart.  A lossy channel drops from step 1.
        opens = min(window["start"] for windows in schedule.values() for window in windows)
        early = grading["first_divergence_step"]
        require(early is None or early >= opens,
                f"{name}: diverged from the twin at step {early}, before the first "
                f"fault window opened at step {opens}")
    service = counters["service"]
    ingest = inputs["ingest"]
    if 0 < ingest["budget_per_step"] < ingest["rate_per_step"]:
        require(service["backpressure_rejects"] > 0, f"{name}: backpressure never fired: {service}")
    # The no-silent-drop invariant: every submission is applied, rejected,
    # or still queued.
    require(
        service["submitted"] == service["applied"] + service["backpressure_rejects"]
        + service["invalid_rejects"] + service["queued"],
        f"{name}: ingest accounting leak: {service}",
    )
    # The paper's rates are read from the per-step log, the counts from
    # the ledger: two books of the same messages.
    metrics = run["metrics"]
    if metrics["steps"]:
        sim_seconds = metrics["steps"] * metrics["step_seconds"]
        sent = sum(counters["message_counts"].values())
        split = (metrics["uplink_msgs_per_sim_s"] + metrics["downlink_msgs_per_sim_s"]) * sim_seconds
        for label, count in (("uplink + downlink", split),
                             ("total", metrics["msgs_per_sim_s"] * sim_seconds)):
            require(math.isclose(count, sent, rel_tol=1e-9),
                    f"{name}: {label} msgs/s x {sim_seconds} s = {count}, "
                    f"but the message counts sum to {sent}")

    recovery = counters["recovery"]
    divergence = grading["per_step"]["divergence"]
    for window in schedule["crashes"]:
        require(any(divergence[window["start"] - 1 : window["end"]]),
                f"{name}: the crash never perturbed the run")
        require(recovery["checkpoints_taken"] > 0, f"{name}: no recovery checkpoint was taken")
        require(recovery["basis_bytes"] > 0, f"{name}: the recovery basis is empty")

    moves = [op for op in fleet["rebalance_log"] if op["cols_moved"]]
    if plan["rebalance_schedule"] or plan["elastic_schedule"]:
        require(bool(moves), f"{name}: no repartition was applied")
        require(fleet["partition_epoch"] >= len(moves), f"{name}: epoch behind the moves")
        # Under uplink latency the reports sent the step before a move are
        # still in flight when it lands: a zero count means the move raced
        # nothing, or the counter stopped counting.
        require(uplink_latency == 0 or fleet["stale_epoch_reroutes"] > 0,
                f"{name}: no stale-epoch reroute although uplinks were in flight across a move")
    if plan["elastic_schedule"]:
        require(fleet["splits"] >= 1 and fleet["merges"] >= 1,
                f"{name}: no split+merge lifecycle: {fleet['rebalance_log']}")
        merged = sorted(op[2] for op in plan["elastic_schedule"] if op[1] == "merge")
        require(fleet["retired_shards"] == merged,
                f"{name}: fleet retired {fleet['retired_shards']}, the schedule merged {merged}")
        # Scale-out must buy balance, not just exercise the lifecycle: over
        # the post-merge tail window the elastic fleet carries the hotspot
        # better than the static twin in the deterministic ops view.  (The
        # seconds view is printed, not asserted: a wall-clock verdict over
        # a few milliseconds of total shard time.)
        improvement = fleet["improvement"]
        require(improvement["improved_ops"], f"{name}: ops imbalance did not improve: {improvement}")
    print(name, f"converged to the {basis};", f"{len(moves)} moves,",
          f"{recovery['checkpoints_taken']} basis captures,",
          f"{service['backpressure_rejects']} backpressure rejects;",
          "clock", json.dumps(run["clock"].get("improvement")))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: check_artifact.py <path>", file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        artifact = json.load(handle)
    runs = artifact["engines"] if "engines" in artifact else {artifact["engine"]: artifact}
    for name, run in runs.items():
        check(name, run)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
