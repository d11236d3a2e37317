"""Command-line interface for the MobiEyes reproduction.

Usage::

    python -m repro list                         # list experiments
    python -m repro run fig04                    # reproduce one figure
    python -m repro run all --scale 0.05         # everything, custom scale
    python -m repro params [--scale 0.06]        # show Table 1 (scaled)
    python -m repro drive                        # the fault storm, graded
    python -m repro drive --faults crash --shards 2   # see docs/ROBUSTNESS.md

``run`` prints each experiment's table (the same output the
``benchmarks/`` suite produces); ``drive`` is the one way to run a single
scenario: it grades the run and writes one JSON report, whose ``metrics``
section holds the paper's per-run numbers (messages per second, LQT size,
power per object, result error).  The performance benchmark is not a
subcommand: it is ``python3 bench/run.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
import textwrap
import time
from pathlib import Path
from typing import Sequence

from repro import driver
from repro.experiments import EXPERIMENTS, TITLES, run_experiment
from repro.experiments.runner import DEFAULT_STEPS, RunTable
from repro.metrics.report import format_table
from repro.workload import paper_defaults


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [(exp_id, TITLES[exp_id]) for exp_id in EXPERIMENTS]
    print(format_table(("experiment", "title"), rows))
    for exp_id, experiment in EXPERIMENTS.items():
        print(f"\n{exp_id}")
        indent = dict(initial_indent="  ", subsequent_indent="  ", break_on_hyphens=False)
        print(textwrap.fill(experiment.paper, 78, **indent))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    exp_ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    runs = RunTable(args.steps or DEFAULT_STEPS)  # shared by 'all'
    for exp_id in exp_ids:
        started = time.perf_counter()
        result = run_experiment(exp_id, scale=args.scale, runs=runs)
        print(result.table())
        if args.save:
            from repro.experiments.io import save_result

            target = Path(args.save)
            if target.suffix:  # a file: only valid for a single experiment
                if len(exp_ids) > 1:
                    print("--save must be a directory when running 'all'", file=sys.stderr)
                    return 2
                written = save_result(result, target)
            else:
                target.mkdir(parents=True, exist_ok=True)
                written = save_result(result, target / f"{exp_id}.csv")
            print(f"  saved {written}")
        if args.chart:
            numeric = {}
            for header in result.headers[1:]:
                values = result.column(header)
                if all(isinstance(v, (int, float)) for v in values):
                    numeric[header] = values
            if numeric:
                from repro.viz import line_chart

                print()
                print(line_chart(numeric))
        print(f"  ({time.perf_counter() - started:.1f}s)")
        print()
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    params = paper_defaults() if args.scale is None else paper_defaults().scaled(args.scale)
    rows = [
        ("ts (s)", params.time_step_seconds),
        ("alpha (mi)", params.alpha),
        ("no", params.num_objects),
        ("nmq", params.num_queries),
        ("nmo", params.velocity_changes_per_step),
        ("area (mi^2)", params.area_sq_miles),
        ("uod side (mi)", round(params.side_miles, 2)),
        ("alen (mi)", params.base_station_side),
        ("qradius (mi)", str(params.radius_means)),
        ("qselect", params.query_selectivity),
        ("mospeed (mph)", str(params.max_speeds)),
    ]
    print(format_table(("parameter", "value"), rows, title="Table 1 simulation parameters"))
    return 0


def _cmd_drive(args: argparse.Namespace) -> int:
    engines = ["reference", "vectorized"] if args.engine == "both" else [args.engine]
    if "vectorized" in engines:
        try:
            import numpy  # noqa: F401
        except ImportError:
            if args.engine != "both":
                print("numpy is required for --engine vectorized", file=sys.stderr)
                return 2
            print("numpy unavailable: skipping the vectorized engine", file=sys.stderr)
            engines.remove("vectorized")
    if args.steps == 0 and len(engines) > 1:
        # Two interrupted runs stop at different steps: nothing to cross-check.
        print("--steps 0 runs one engine: pass --engine", file=sys.stderr)
        return 2
    out_dir = Path(args.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"DRIVE_{args.tag}.json"
    inputs = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "func", "engine", "steps", "tag", "output")
    }
    log = functools.partial(print, file=sys.stderr)
    reports = {
        engine: driver.run(engine=engine, steps=args.steps or None, path=path, log=log, **inputs)
        for engine in engines
    }
    failed = False
    if len(reports) == 2:
        mismatched = driver.engine_mismatch(reports)
        if mismatched:
            print(f"ENGINE MISMATCH on: {', '.join(mismatched)}", file=sys.stderr)
            failed = True
    for engine, report in reports.items():
        reason = driver.failure(report)
        if reason:
            print(f"{reason} ({engine} engine)", file=sys.stderr)
            failed = True
    artifact = reports[engines[0]] if len(reports) == 1 else {"engines": reports}
    driver.write_artifact(path, artifact)
    print(path.read_text(), end="")
    print(f"wrote {path}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    # Rendered in memory: a failure twenty minutes in must not cost the
    # previous file.
    report = io.StringIO()
    write_report(report, scale=args.scale, steps=args.steps or DEFAULT_STEPS)
    if args.output == "-":
        sys.stdout.write(report.getvalue())
        return 0
    Path(args.output).write_text(report.getvalue())
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MobiEyes (EDBT 2004) reproduction: experiments and simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. fig04, or 'all'")
    run.add_argument("--scale", type=float, default=None, help="workload scale (1.0 = paper)")
    run.add_argument("--steps", type=int, default=None, help="simulated steps per run")
    run.add_argument("--chart", action="store_true", help="draw an ASCII chart of the table")
    run.add_argument(
        "--save",
        default=None,
        help="save the table: a .csv/.json file, or a directory (one csv per experiment)",
    )
    run.set_defaults(func=_cmd_run)

    params = sub.add_parser("params", help="print the Table 1 parameters")
    params.add_argument("--scale", type=float, default=None)
    params.set_defaults(func=_cmd_params)

    drive = sub.add_parser(
        "drive",
        help="run one scenario graded against the oracle or a lockstep twin, "
        "write DRIVE_<tag>.json, exit nonzero if it fails its grade",
    )
    drive.add_argument(
        "--engine",
        choices=("reference", "vectorized", "both"),
        default="both",
        help="engine(s) to run; 'both' also cross-checks every non-clock report value",
    )
    drive.add_argument(
        "--steps", type=int, default=30, help="simulated steps (0 = until interrupted)"
    )
    drive.add_argument("--scale", type=float, default=0.015, help="workload scale (1.0 = paper)")
    drive.add_argument("--seed", type=int, default=7, help="workload, script and channel seed")
    drive.add_argument("--scenario", choices=driver.SCENARIOS, default="paper",
                       help="workload preset (skewed: the flash crowd elastic scale-out chases)")
    drive.add_argument("--shards", type=int, default=1, help="server shards (1 = monolithic)")
    drive.add_argument("--dead-reckoning", type=float, default=0.0,
                       help="dead-reckoning threshold in miles (nonzero grades against a twin)")
    drive.add_argument(
        "--faults",
        choices=driver.FAULTS,
        default="storm",
        help="storm: a station outage plus rolling disconnections; crash: the storm "
        "plus a mid-run shard crash rebuilt from the recovery basis (--shards >= 2)",
    )
    drive.add_argument("--uplink-loss", type=float, default=0.0, help="mean uplink loss rate")
    drive.add_argument("--downlink-loss", type=float, default=0.0, help="mean downlink loss rate")
    drive.add_argument("--burst", action="store_true",
                       help="Gilbert-Elliott burst channels instead of Bernoulli")
    drive.add_argument("--latency", type=int, default=0,
                       help="per-hop delivery delay in steps, uplink and downlink")
    drive.add_argument("--latency-jitter", dest="jitter", type=int, default=0,
                       help="seeded random extra delay in [0, N] steps on top of --latency")
    drive.add_argument(
        "--fleet",
        choices=driver.FLEET_PLANS,
        default="static",
        help="rebalance: repartitions racing the fault windows; policy: the load "
        "thermostat up to --max-shards; schedule: one split and one merge; both: the "
        "schedule beside a transfer-only thermostat (all need --shards >= 2)",
    )
    drive.add_argument("--max-shards", type=int, default=4, help="fleet ceiling of --fleet policy")
    drive.add_argument("--rebalance-every", type=int, default=5,
                       help="thermostat cadence in steps (--fleet policy/both)")
    drive.add_argument("--ingest-rate", type=int, default=0,
                       help="scripted external position reports submitted per step")
    drive.add_argument("--ingest-budget", type=int, default=0,
                       help="admission budget per tick (0 = drain the queue); rate > budget "
                       "exercises backpressure")
    drive.add_argument("--query-churn", type=int, default=0,
                       help="install a query every N steps, remove it half a period later")
    drive.add_argument("--report-every", type=int, default=0,
                       help="rewrite the artifact every N steps while running")
    drive.add_argument("--tag", default="local", help="artifact tag (default 'local')")
    drive.add_argument("--output", default=None, help="artifact directory (default: cwd)")
    drive.set_defaults(func=_cmd_drive)

    report = sub.add_parser(
        "report", help="run every experiment and write the EXPERIMENTS.md report"
    )
    report.add_argument("--output", default="EXPERIMENTS.md", help="output path ('-' = stdout)")
    report.add_argument("--scale", type=float, default=None)
    report.add_argument("--steps", type=int, default=None)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as error:
        # Driver and config validation (e.g. --faults crash at --shards 1).
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
