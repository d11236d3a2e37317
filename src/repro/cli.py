"""Command-line interface for the MobiEyes reproduction.

Usage::

    python -m repro list                         # list experiments
    python -m repro run fig04                    # reproduce one figure
    python -m repro run all --scale 0.05         # everything, custom scale
    python -m repro params [--scale 0.06]        # show Table 1 (scaled)
    python -m repro simulate --objects 400 --queries 40 --steps 30
    python -m repro chaos --smoke                # fault-injection harness
    python -m repro serve --steps 60             # twin-graded service soak

``run`` prints each experiment's table (the same output the
``benchmarks/`` suite produces); ``simulate`` runs a single ad-hoc MobiEyes
simulation and prints a metrics summary.  The performance benchmark is not
a subcommand: it is ``python3 bench/run.py`` (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import io
import sys
import textwrap
import time
from pathlib import Path
from typing import Sequence

from repro.core import PropagationMode
from repro.experiments import EXPERIMENTS, TITLES, run_experiment
from repro.experiments.runner import DEFAULT_STEPS, RunTable, run_mobieyes
from repro.metrics.report import format_table
from repro.workload import bench_defaults, paper_defaults


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


def _cmd_simulate(args: argparse.Namespace) -> int:
    scale = args.objects / paper_defaults().num_objects
    params = paper_defaults().scaled(scale)
    if args.queries is not None:
        from repro.experiments.runner import with_queries

        params = with_queries(params, args.queries)
    propagation = PropagationMode.LAZY if args.lazy else PropagationMode.EAGER
    started = time.perf_counter()
    system = run_mobieyes(
        params,
        steps=args.steps,
        warmup=min(args.steps // 4, 5),
        propagation=propagation,
        track_accuracy=args.accuracy,
    )
    elapsed = time.perf_counter() - started
    metrics = system.metrics
    rows = [
        ("objects", params.num_objects),
        ("queries", params.num_queries),
        ("steps", args.steps),
        ("propagation", propagation.value),
        ("messages/s", metrics.messages_per_second()),
        ("uplink/s", metrics.uplink_messages_per_second()),
        ("downlink/s", metrics.downlink_messages_per_second()),
        ("mean LQT size", metrics.mean_lqt_size()),
        ("server s/step", metrics.mean_server_seconds()),
        ("power/object (W)", metrics.mean_power_watts_per_object()),
        ("result error", metrics.mean_result_error() if args.accuracy else "-"),
        ("wall time (s)", round(elapsed, 2)),
    ]
    print(format_table(("metric", "value"), rows, title="MobiEyes simulation"))
    if args.render:
        from repro.viz import render_world

        print()
        print(render_world(system))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.faults.chaos import run_chaos

    if args.engine == "both":
        engines = ["reference", "vectorized"]
    else:
        engines = [args.engine]
    if "vectorized" in engines:
        try:
            import numpy  # noqa: F401
        except ImportError:
            if args.engine == "both":
                print("numpy unavailable: skipping the vectorized engine", file=sys.stderr)
                engines.remove("vectorized")
            else:
                print("numpy is required for --engine vectorized", file=sys.stderr)
                return 2
    steps = 30 if args.smoke and args.steps is None else (args.steps or 40)
    scale = 0.015 if args.smoke and args.scale is None else (args.scale or 0.02)

    reports = {}
    for engine in engines:
        reports[engine] = run_chaos(
            engine=engine,
            steps=steps,
            scale=scale,
            seed=args.seed,
            uplink_loss=args.uplink_loss,
            downlink_loss=args.downlink_loss,
            burst=args.burst,
            shards=args.shards,
            uplink_latency=args.latency,
            downlink_latency=args.latency,
            latency_jitter=args.latency_jitter,
            crash=args.crash,
            rebalance=args.rebalance,
        )

    failed = False
    if len(reports) == 2:
        ref, fast = reports["reference"], reports["vectorized"]
        mismatched = [
            key
            for key in ("result_hash", "drops", "message_counts", "per_step")
            if ref[key] != fast[key]
        ]
        if mismatched:
            print(f"ENGINE MISMATCH on: {', '.join(mismatched)}", file=sys.stderr)
            failed = True
    for engine, report in reports.items():
        if not report["converged"]:
            basis = report.get("recovery_basis", "oracle")
            print(
                f"NON-CONVERGENCE: {engine} engine never recovered "
                f"(basis: {basis})",
                file=sys.stderr,
            )
            failed = True

    artifact = reports[engines[0]] if len(reports) == 1 else {"engines": reports}
    text = json.dumps(artifact, sort_keys=True, indent=2)
    print(text)
    tag = args.tag or ("smoke" if args.smoke else "local")
    out_dir = Path(args.output) if args.output else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"CHAOS_{tag}.json"
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.soak import run_soak

    if args.engine == "vectorized":
        try:
            import numpy  # noqa: F401
        except ImportError:
            print("numpy is required for --engine vectorized", file=sys.stderr)
            return 2
    if args.forever and args.steps is not None:
        print("--forever and --steps are mutually exclusive", file=sys.stderr)
        return 2
    steps = None if args.forever else (args.steps if args.steps is not None else 60)
    tag = args.tag or ("forever" if args.forever else "local")
    report = run_soak(
        steps=steps,
        engine=args.engine,
        shards=args.shards,
        scenario=args.scenario,
        scale=args.scale,
        seed=args.seed,
        elastic=args.elastic,
        max_shards=args.max_shards,
        rebalance_every=args.rebalance_every,
        ingest_rate=args.ingest_rate,
        ingest_budget=args.ingest_budget,
        query_churn_every=args.query_churn,
        latency=args.latency,
        jitter=args.latency_jitter,
        twin=not args.no_twin,
        report_every=args.report_every,
        tag=tag,
        out_dir=args.output,
    )
    failed = False
    twin_block = report.get("twin")
    if twin_block is not None and not twin_block["results_match"]:
        print(
            "ELASTIC DIVERGENCE: results differ from the static-fleet twin "
            f"(first at step {twin_block['first_divergence_step']})",
            file=sys.stderr,
        )
        failed = True
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

    simulate = sub.add_parser("simulate", help="run one ad-hoc MobiEyes simulation")
    simulate.add_argument("--objects", type=int, default=bench_defaults().num_objects)
    simulate.add_argument("--queries", type=int, default=None)
    simulate.add_argument("--steps", type=int, default=30)
    simulate.add_argument("--lazy", action="store_true", help="use lazy query propagation")
    simulate.add_argument(
        "--accuracy", action="store_true", help="track result error against the oracle"
    )
    simulate.add_argument(
        "--render", action="store_true", help="draw an ASCII map of the final world state"
    )
    simulate.set_defaults(func=_cmd_simulate)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection harness, write CHAOS_<tag>.json, "
        "exit nonzero on non-convergence",
    )
    chaos.add_argument(
        "--smoke", action="store_true", help="small deterministic scenario for CI"
    )
    chaos.add_argument(
        "--engine",
        choices=("reference", "vectorized", "both"),
        default="both",
        help="engine(s) to run; 'both' also cross-checks their reports",
    )
    chaos.add_argument("--steps", type=int, default=None, help="simulated steps (default 40)")
    chaos.add_argument(
        "--scale", type=float, default=None, help="workload scale (default 0.02)"
    )
    chaos.add_argument("--seed", type=int, default=7, help="scenario seed")
    chaos.add_argument(
        "--uplink-loss", type=float, default=0.0, help="mean uplink channel loss rate"
    )
    chaos.add_argument(
        "--downlink-loss", type=float, default=0.0, help="mean downlink channel loss rate"
    )
    chaos.add_argument(
        "--burst",
        action="store_true",
        help="use Gilbert-Elliott burst channels instead of Bernoulli",
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=1,
        help="server shards behind the coordinator (default 1 = monolithic server)",
    )
    chaos.add_argument(
        "--latency",
        type=int,
        default=0,
        help="per-link delivery delay in steps applied to both uplink and "
        "downlink; recovery is then graded against a fault-free twin run",
    )
    chaos.add_argument(
        "--latency-jitter",
        type=int,
        default=0,
        help="seeded random extra delay in [0, N] steps on top of --latency",
    )
    chaos.add_argument(
        "--crash",
        action="store_true",
        help="add a mid-run shard crash window (requires --shards >= 2): the "
        "shard's soft state is erased, rebuilt from the recovery basis (the "
        "server tables) at the window end, and recovery is graded against the "
        "fault-free lockstep twin",
    )
    chaos.add_argument(
        "--rebalance",
        action="store_true",
        help="apply the canonical repartition triggers inside the fault "
        "windows (requires --shards >= 2): boundary migration races the "
        "outage, disconnections, and any --crash window, graded against "
        "the static-stripes fault-free twin",
    )
    chaos.add_argument("--tag", default=None, help="artifact tag (default: 'local'/'smoke')")
    chaos.add_argument(
        "--output", default=None, help="directory for the artifact (default: current directory)"
    )
    chaos.set_defaults(func=_cmd_chaos)

    serve = sub.add_parser(
        "serve",
        help="run the long-running service soak (queue-driven ingest, "
        "elastic scale-out, twin-graded), write SOAK_<tag>.json",
    )
    serve.add_argument(
        "--steps", type=int, default=None, help="bounded soak length (default 60)"
    )
    serve.add_argument(
        "--forever",
        action="store_true",
        help="run until interrupted; Ctrl-C finalizes and writes the report",
    )
    serve.add_argument(
        "--engine", choices=("reference", "vectorized"), default="reference"
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=2,
        help="initial server shards (elastic modes need >= 2)",
    )
    serve.add_argument(
        "--scenario",
        choices=("skewed", "dense", "paper"),
        default="skewed",
        help="workload preset (default skewed: the flash-crowd scenario "
        "elastic scale-out exists for)",
    )
    serve.add_argument(
        "--scale", type=float, default=0.02, help="workload scale (1.0 = paper)"
    )
    serve.add_argument("--seed", type=int, default=11, help="workload + script seed")
    serve.add_argument(
        "--elastic",
        choices=("policy", "schedule", "both", "off"),
        default="policy",
        help="scale-out mode: 'policy' arms the thermostat with a fleet "
        "ceiling (--max-shards), 'schedule' applies one split and one "
        "merge at fixed steps, 'both' runs the schedule beside a "
        "transfer-only thermostat, 'off' keeps the fleet fixed (no twin)",
    )
    serve.add_argument(
        "--max-shards",
        type=int,
        default=4,
        help="fleet ceiling for --elastic policy (default 4)",
    )
    serve.add_argument(
        "--rebalance-every",
        type=int,
        default=5,
        help="policy evaluation cadence in steps for --elastic policy",
    )
    serve.add_argument(
        "--ingest-rate",
        type=int,
        default=6,
        help="scripted external position reports submitted per step",
    )
    serve.add_argument(
        "--ingest-budget",
        type=int,
        default=4,
        help="admission budget per tick (0 = drain the whole queue); the "
        "queue bound derives from it, so rate > budget exercises "
        "backpressure rejects",
    )
    serve.add_argument(
        "--query-churn",
        type=int,
        default=10,
        help="install a runtime query every N steps and remove it half a "
        "period later (0 = no churn)",
    )
    serve.add_argument(
        "--latency",
        type=int,
        default=0,
        help="per-link delivery delay in steps (uplink and downlink)",
    )
    serve.add_argument(
        "--latency-jitter",
        type=int,
        default=0,
        help="seeded random extra delay in [0, N] steps on top of --latency",
    )
    serve.add_argument(
        "--no-twin",
        action="store_true",
        help="skip the static-fleet lockstep twin (faster, ungraded)",
    )
    serve.add_argument(
        "--report-every",
        type=int,
        default=0,
        help="rewrite SOAK_<tag>.json every N steps while running "
        "(progress for --forever soaks)",
    )
    serve.add_argument("--tag", default=None, help="artifact tag (default 'local')")
    serve.add_argument(
        "--output", default=None, help="directory for the artifact (default: cwd)"
    )
    serve.set_defaults(func=_cmd_serve)

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
        # Harness and config validation (e.g. --crash at --shards 1).
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
