#!/usr/bin/env python3
"""Compare two benchmark documents: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  One row per workload x
end-to-end metric with both medians and the ratio B/A; each metric's bound
from ``BENCHMARK.json`` decides the verdict:

- ``regression``  B is worse than A by more than the bound;
- ``unresolved``  the spread between repeats (interquartile range over the
  median, either side) exceeds the bound, so the runs cannot tell -- unless
  every run of B beats every run of A (``improved``);
- ``drift``       a deterministic metric differs between two runs of the
  same seed and window: the program's behaviour changed;
- ``ok``          otherwise.

Exit status is non-zero on a regression, a drift, or a failed check in
either document.  Smoke documents are refused: their numbers are not
measurements.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Counts the program makes: identical for identical inputs.
DETERMINISTIC = {
    "server_ops_per_step",
    "msgs_per_sim_s",
    "uplink_msgs_per_sim_s",
    "energy_mw_per_object",
    "result_error",
    "failed_ops_share",
}


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as src:
        document = json.load(src)
    if document.get("mode") != "full":
        sys.exit(f"{path}: mode {document.get('mode')!r} is not a measurement; refusing")
    if document.get("trace"):
        sys.exit(f"{path}: a traced run; end-to-end metrics come from untraced runs")
    return document


def spread(row: dict) -> float | None:
    if "q1" not in row or not row["median"]:
        return None
    return abs(row["q3"] - row["q1"]) / abs(row["median"])


def verdict(metric: dict, a: dict, b: dict, same_inputs: bool) -> str:
    lower = metric["better"] == "lower"
    if same_inputs and metric["name"] in DETERMINISTIC:
        return "ok" if a["median"] == b["median"] else "drift"
    base = a["median"]
    delta = b["median"] - base if lower else base - b["median"]
    worse_by = delta / abs(base) if base else (math.inf if delta > 0 else 0.0)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > metric["bound"]:
        if lower and max(b["values"]) < min(a["values"]):
            return "improved"
        if not lower and min(b["values"]) > max(a["values"]):
            return "improved"
        return "unresolved"
    return "regression" if worse_by > metric["bound"] else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as src:
        spec = json.load(src)
    metrics = spec["end_to_end"] + [
        {"name": "failed_ops_share", "unit": "fraction", "better": "lower", "bound": 0.0}
    ]
    doc_a, doc_b = load(argv[0]), load(argv[1])
    status = 0
    print(f"base A = {argv[0]} (commit {doc_a['host']['commit'][:12]}, seed {doc_a['seed']})")
    print(f"     B = {argv[1]} (commit {doc_b['host']['commit'][:12]}, seed {doc_b['seed']})")
    print(f"{'workload':<22}{'metric':<24}{'A':>12}{'B':>12}{'B/A':>9}  {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_entry = doc_a["workloads"].get(workload)
        b_entry = doc_b["workloads"].get(workload)
        if a_entry is None or b_entry is None:
            print(f"{workload:<22}missing from {'A' if a_entry is None else 'B'}")
            status = 1
            continue
        for side, entry in (("A", a_entry), ("B", b_entry)):
            if not entry["correct"]:
                failed = [name for name, ok in entry["checks"].items() if not ok]
                print(f"{workload:<22}{side} failed checks: {failed or 'operations failed'}")
                status = 1
        same_inputs = doc_a["seed"] == doc_b["seed"] and a_entry["steps"] == b_entry["steps"]
        for metric in metrics:
            a = a_entry["metrics"][metric["name"]]
            b = b_entry["metrics"][metric["name"]]
            outcome = verdict(metric, a, b, same_inputs)
            ratio = f"{b['median'] / a['median']:.4f}" if a["median"] else "-"
            print(
                f"{workload:<22}{metric['name']:<24}{a['median']:>12.5g}{b['median']:>12.5g}"
                f"{ratio:>9}  {metric['bound']:>6}  {outcome}"
            )
            if outcome in ("regression", "drift"):
                status = 1
    print("FAILED" if status else "no regression")
    return status


if __name__ == "__main__":
    sys.exit(main())
