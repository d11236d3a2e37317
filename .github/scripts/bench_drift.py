#!/usr/bin/env python3
"""The same-seed drift gate: protocol-visible numbers do not move unannounced.

usage: bench_drift.py

Runs ``bench/run.py --smoke --seed 42 --out <tmp>`` and compares the
deterministic metrics of every workload with the committed
``.github/bench_smoke_seed42.json``: the counts and the step hashes must be
equal, the two float totals must agree to 1e-9 relative (``bench/measure.py``
adds the per-step floats with the built-in ``sum()``, which Python 3.12
compensates and 3.11 does not).  Timings are never read.  Exits non-zero
listing every difference.  A change that moves these numbers on purpose
regenerates the document with that same command, ``--out`` naming the
committed file, and says so in its description.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = ROOT / ".github" / "bench_smoke_seed42.json"
EXACT = ("server_ops_per_step", "msgs_per_sim_s", "uplink_msgs_per_sim_s")
CLOSE = ("energy_mw_per_object", "result_error")
REL_TOL = 1e-9


def drift(committed: dict, fresh: dict) -> list[str]:
    """Every deterministic value of ``fresh`` that left ``committed``."""
    found = []
    for key in ("schema", "mode", "seed"):
        if committed[key] != fresh[key]:
            found.append(f"{key}: {committed[key]!r} -> {fresh[key]!r}")
    for name, was in committed["workloads"].items():
        now = fresh["workloads"].get(name)
        if now is None:
            found.append(f"{name}: no result")
            continue
        if was["step_hashes"] != now["step_hashes"]:
            found.append(f"{name}.step_hashes: {was['step_hashes']} -> {now['step_hashes']}")
        for metric in EXACT + CLOSE:
            old, new = was["metrics"][metric]["median"], now["metrics"][metric]["median"]
            same = old == new if metric in EXACT else math.isclose(old, new, rel_tol=REL_TOL)
            if not same:
                found.append(f"{name}.{metric}: {old!r} -> {new!r}")
    for name in fresh["workloads"].keys() - committed["workloads"].keys():
        found.append(f"{name}: not in the committed document")
    return found


def main() -> int:
    committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "smoke.json"
        command = [sys.executable, str(ROOT / "bench" / "run.py")]
        command += ["--smoke", "--seed", "42", "--out", str(out)]
        status = subprocess.run(command, check=False).returncode
        if status:
            return status
        fresh = json.loads(out.read_text(encoding="utf-8"))
    found = drift(committed, fresh)
    for line in found:
        print("bench_drift:", line)
    if found:
        print(f"bench_drift: FAILED, {len(found)} value(s) left {COMMITTED.relative_to(ROOT)}")
        return 1
    print(f"bench_drift: {len(committed['workloads'])} workloads, no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
