#!/usr/bin/env python3
"""What CI asserts about the artifacts the harnesses write.

usage: check_artifact.py <kind> <path>

``kind`` is one of ``chaos-crash``, ``chaos-rebalance``, ``chaos-latency``
(a ``CHAOS_<tag>.json`` from ``python -m repro chaos``, one engine or
``--engine both``) or ``soak`` (a ``SOAK_<tag>.json`` from ``python -m
repro serve``).  Exits non-zero naming the first check that failed.
``tests/test_ci_checks.py`` runs every kind against a report produced
in-test, so a renamed report key fails tier-1 instead of silently
passing here.
"""

from __future__ import annotations

import json
import sys


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"check_artifact: {message}")


def _twin_graded_runs(report: dict) -> dict:
    """The per-engine chaos reports, each recovered against its twin."""
    runs = report["engines"] if "engines" in report else {report["engine"]: report}
    for engine, run in runs.items():
        require(run["recovery_basis"] == "twin", f"{engine}: not graded against the twin")
        require(run["converged"], f"{engine}: never realigned with the fault-free twin")
    return runs


def check_chaos_crash(report: dict) -> None:
    for engine, run in _twin_graded_runs(report).items():
        crash = run["crash"]
        require(crash["checkpoints_taken"] > 0, f"{engine}: no recovery checkpoint was taken")
        require(crash["basis_bytes"] > 0, f"{engine}: the recovery basis is empty")
        (window,) = crash["windows"]
        divergence = run["per_step"]["twin_divergence"]
        require(
            any(divergence[window["start"] - 1 : window["end"]]),
            f"{engine}: the crash never perturbed the run",
        )
        print(engine, "recovered from crash window", window, "after",
              crash["checkpoints_taken"], "basis captures, the last", crash["basis_bytes"], "bytes")


def check_chaos_rebalance(report: dict) -> None:
    for engine, run in _twin_graded_runs(report).items():
        rebalance = run["rebalance"]
        moves = [op for op in rebalance["log"] if op["cols_moved"]]
        require(bool(moves), f"{engine}: no repartition was applied")
        require(rebalance["partition_epoch"] >= len(moves), f"{engine}: epoch behind the moves")
        # Under uplink latency the reports sent the step before a move are
        # still in flight when it lands: a zero count means the move raced
        # nothing, or the counter stopped counting.
        require(
            run["latency"]["uplink_steps"] == 0 or rebalance["stale_epoch_reroutes"] > 0,
            f"{engine}: no stale-epoch reroute although uplinks were in flight across a move",
        )
        print(engine, f"{len(moves)} moves, epoch {rebalance['partition_epoch']},",
              f"{rebalance['stale_epoch_reroutes']} stale-epoch reroutes, converged")


def check_chaos_latency(report: dict) -> None:
    for engine, run in _twin_graded_runs(report).items():
        print(engine, "converged, latency", run["latency"])


def check_soak(report: dict) -> None:
    require(
        report["splits"] >= 1 and report["merges"] >= 1,
        f"no split+merge lifecycle: {report['rebalance_log']}",
    )
    twin = report["twin"]
    require(twin["results_match"], f"diverged at step {twin['first_divergence_step']}")
    counters = report["ingest"]["counters"]
    require(counters["backpressure_rejects"] > 0, f"backpressure never fired: {counters}")
    # The no-silent-drop invariant: every submission is applied,
    # rejected, or still queued.
    require(
        counters["submitted"]
        == counters["applied"]
        + counters["backpressure_rejects"]
        + counters["invalid_rejects"]
        + counters["queued"],
        f"ingest accounting leak: {counters}",
    )
    # The spawned shard (slot 2) was merged back and retired.
    require(report["fleet"]["retired_shards"] == [2], f"fleet: {report['fleet']}")
    # Scale-out must buy balance, not just exercise the lifecycle: over
    # the post-merge tail window the elastic fleet carries the sustained
    # hotspot better than the static twin in the deterministic ops view.
    # (The seconds view is printed, not asserted: a wall-clock verdict
    # over a few milliseconds of total shard time.)
    improvement = report["improvement"]
    require(improvement["improved_ops"], f"ops imbalance did not improve: {improvement}")
    print("splits", report["splits"], "merges", report["merges"],
          "rejects", counters["backpressure_rejects"],
          "imbalance_seconds", improvement["static_imbalance_seconds"],
          "->", improvement["elastic_imbalance_seconds"])


CHECKS = {
    "chaos-crash": check_chaos_crash,
    "chaos-rebalance": check_chaos_rebalance,
    "chaos-latency": check_chaos_latency,
    "soak": check_soak,
}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in CHECKS:
        print(f"usage: check_artifact.py {{{','.join(CHECKS)}}} <path>", file=sys.stderr)
        return 2
    kind, path = argv
    with open(path) as handle:
        CHECKS[kind](json.load(handle))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
