#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --seed 42            # all workloads, end to end
    python3 bench/run.py --seed 42 --trace    # all workloads, layer by layer
    python3 bench/run.py --workload dense_eval --seed 7 --seconds 12 --trace 0

Without ``--workload`` every workload runs in a fresh interpreter and the
collected numbers land in one JSON document (``--out``) that
``compare.py`` reads.  With ``--workload`` one workload runs in this
process and the last line of standard output is the result object
``BENCHMARK.json`` describes.  Exit status is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

SCHEMA = 1


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as src:
        return json.load(src)


def host_info() -> dict:
    """Where these numbers were taken; recorded in every output."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def warn_if_loaded(host: dict) -> None:
    if host["loadavg_1m"] > host["affinity"]:
        print(
            f"WARNING: 1-minute load average {host['loadavg_1m']:.2f} exceeds the "
            f"{host['affinity']} usable cores; timings will be noisy"
        )


def print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def run_one(args, spec: dict) -> int:
    """One workload in this interpreter; prints the contract's result line."""
    # Imported here: the bench modules need src/ importable, and a failure
    # to import must exit non-zero before any result is printed.
    import measure
    from workloads import BY_NAME

    workload = BY_NAME[args.workload]
    host = host_info()
    warn_if_loaded(host)
    if args.smoke:
        scale, steps = measure.SMOKE_SCALE, measure.SMOKE_STEPS
    else:
        scale, steps = 1.0, measure.window_steps(workload, args.seconds)
    if args.trace:
        steps //= 3  # once untraced, once traced
    mode = "smoke" if args.smoke else "full"
    print(
        f"== {workload.name} seed={args.seed} mode={mode} trace={args.trace} steps={steps} "
        f"cpus={host['affinity']}/{host['cpu_count']} load={host['loadavg_1m']:.2f} "
        f"python={host['python']} numpy={host['numpy']} commit={host['commit'][:12]}"
    )
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        result = measure.run_traced(
            workload, args.seed, steps, scale, OUT_DIR / f"trace_{workload.name}.jsonl"
        )
        declared = spec["per_layer"]
    else:
        result = measure.run_untraced(workload, args.seed, steps, scale)
        declared = spec["end_to_end"]
    metrics = result["metrics"]
    print(f"  (times x{result['host_factor']:.3f}: normalised to the nominal host speed)")
    print_metrics(metrics)
    for name, passed in result["checks"].items():
        print(f"  check {name}: {'ok' if passed else 'FAILED'}")
    correct = result["failed"] == 0

    record = {
        "schema": SCHEMA,
        "mode": mode,
        "trace": args.trace,
        "workload": workload.name,
        "seed": args.seed,
        "host": host,
        "correct": correct,
        **{
            k: result[k]
            for k in ("attempted", "failed", "steps", "step_hash", "host_factor", "checks")
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    undeclared = set(metrics) - {m["name"] for m in declared} - {"failed_ops_share"}
    if undeclared:
        sys.exit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    line = {}
    for metric in declared:
        # A per-layer metric of a layer this workload does not run reads 0.
        value, unit = metrics.get(metric["name"], (0, metric["unit"]))
        line[metric["name"]] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": line,
            }
        )
    )
    return 0 if correct else 1


def summarise(values: list) -> dict:
    summary = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def run_all(args, spec: dict) -> int:
    """Every workload, each in a fresh interpreter; ``--repeats`` sets."""
    host = host_info()
    warn_if_loaded(host)
    names = [w["name"] for w in spec["workloads"]]
    records: dict[str, list] = {name: [] for name in names}
    status = 0
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for _ in range(args.repeats):
            for name in names:
                out = Path(tmp) / "record.json"
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", name,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--out", str(out),
                ]  # fmt: skip
                if args.smoke:
                    command.append("--smoke")
                sys.stdout.flush()
                child = subprocess.run(command, check=False)
                status = status or child.returncode
                if out.exists():
                    records[name].append(json.loads(out.read_text(encoding="utf-8")))
                    out.unlink()

    document = {
        "schema": SCHEMA,
        "mode": "smoke" if args.smoke else "full",
        "trace": args.trace,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "host": host,
        "workloads": {},
    }
    for name, runs in records.items():
        if not runs:
            continue
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [run["metrics"][metric]["value"] for run in runs]
            metrics[metric] = {"unit": first["unit"], **summarise(values)}
        document["workloads"][name] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "steps": runs[0]["steps"],
            "step_hashes": sorted({run["step_hash"] for run in runs}),
            "checks": {
                check: all(run["checks"][check] for run in runs) for check in runs[0]["checks"]
            },
            "metrics": metrics,
        }
    if args.out:
        out_path = Path(args.out)
    else:
        suffix = ("_trace" if args.trace else "") + ("_smoke" if args.smoke else "")
        out_path = OUT_DIR / f"bench_seed{args.seed}{suffix}.json"
    out_path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    if args.repeats > 1:
        print(f"== medians of {args.repeats} sets [q1, q3]")
        for name, entry in document["workloads"].items():
            print(name)
            for metric, row in entry["metrics"].items():
                print(
                    f"  {metric:<40} {row['median']:>14.6g} {row['unit']} "
                    f"[{row['q1']:.6g}, {row['q3']:.6g}]"
                )
    print(f"wrote {out_path}")
    if status:
        print("FAILED: at least one workload failed a check")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, help="nominal length of the measured window")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="record spans and print the per-layer metrics instead",
    )  # fmt: skip
    parser.add_argument("--smoke", action="store_true", help="a tenth of the population, 12 steps")
    parser.add_argument("--repeats", type=int, default=1, help="sets of runs (all-workload mode)")
    parser.add_argument("--out", help="write the full JSON record/document here")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
