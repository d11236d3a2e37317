#!/usr/bin/env python3
"""The committed benchmark trajectory: end-to-end metric x PR.

usage: bench_trajectory.py [BENCH_pr<N>.json ...]

With no argument, reads every ``BENCH_pr<N>.json`` at the repo root.
Prints one host line per document and one line per committed
``PAIRS_*.json`` (``bench_pairs.py``), then one row per workload x
end-to-end metric of ``BENCHMARK.json`` with one median column per
document, in PR order, and last the chained product of the pair
documents' median ratios (change / base) for that workload.  The median
columns are host-dependent -- measured at different times, possibly on
different hosts: read a row for its direction across PRs.  The chained
column is not: each factor compares two commits on one host in one
sitting.  Exits non-zero on a document that is not a full measurement of
the current schema (``bench/run.py --repeats N --out``).
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = 1


def pr_number(path: Path) -> int:
    match = re.fullmatch(r"BENCH_pr(\d+)\.json", path.name)
    if match is None:
        sys.exit(f"bench_trajectory: {path.name} is not named BENCH_pr<N>.json")
    return int(match.group(1))


def load(path: Path) -> dict:
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != SCHEMA:
        sys.exit(f"bench_trajectory: {path.name}: schema {document.get('schema')!r}, not {SCHEMA}")
    if document.get("mode") != "full" or document.get("trace"):
        sys.exit(f"bench_trajectory: {path.name}: not an untraced full-mode measurement")
    return document


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = [Path(arg) for arg in argv] or list(ROOT.glob("BENCH_pr*.json"))
    if not paths:
        sys.exit("bench_trajectory: no BENCH_pr<N>.json document found")
    paths.sort(key=pr_number)
    labels = [f"pr{pr_number(path)}" for path in paths]
    documents = [load(path) for path in paths]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for label, document in zip(labels, documents):
        host = document["host"]
        print(
            f"{label}: on top of {host['commit'][:12]}, seed {document['seed']}, "
            f"{document['repeats']} x {document['seconds']} s; cpus {host['affinity']}/"
            f"{host['cpu_count']}, load {host['loadavg_1m']:.2f}, python {host['python']}, "
            f"numpy {host['numpy']}"
        )
    pairs = [
        (path.stem, json.loads(path.read_text(encoding="utf-8")))
        for path in sorted(ROOT.glob("PAIRS_*.json"))
    ]
    for name, document in pairs:
        head = document["head"]
        print(
            f"{name}: {document['workload']} seed {document['seed']}, "
            f"{document['verdict']['pairs']} pairs, {document['base']['commit'][:12]} -> "
            f"{head['commit'][:12]}{' + working tree' if head['dirty'] else ''}"
        )
    print("medians pr<N>: host-dependent; pairs_x: chained same-host median ratios (PAIRS_*.json)")
    columns = "".join(f"{label:>12}" for label in labels)
    print(f"{'workload':<22}{'metric':<24}{'unit':<10}{columns}{'pairs_x':>12}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            medians = ""
            for document in documents:
                # A set whose child process died has no entry; an older
                # document predates a metric added since.
                row = document["workloads"].get(workload, {}).get("metrics", {}).get(metric["name"])
                medians += f"{row['median']:>12.5g}" if row else f"{'-':>12}"
            ratios = [
                document["verdict"]["metrics"][metric["name"]]["median_ratio"]
                for _, document in pairs
                if document["workload"] == workload
            ]
            chained = f"{math.prod(ratios):>12.4f}" if ratios else f"{'-':>12}"
            print(f"{workload:<22}{metric['name']:<24}{metric['unit']:<10}{medians}{chained}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
