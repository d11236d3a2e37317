#!/usr/bin/env python3
"""Same-session alternating pairs: the record of a performance claim.

usage: bench_pairs.py BASE_REF [--head REF] [--workload W] [--seed S] [--pairs 10] [--tag TAG]
       bench_pairs.py --check PAIRS_<tag>.json [...]

The first form checks ``BASE_REF`` out as a detached ``git worktree`` in a
temporary directory outside the repository (nothing is fetched; the
worktree is removed on exit) and runs each side's own
``bench/run.py --workload W --seed S --trace 0`` in a fresh interpreter,
alternating: the base runs first in odd pairs, the change first in even
ones.  The change is the working tree, or ``--head REF`` checked out the
same way (to re-run an earlier claim).  It writes ``PAIRS_<tag>.json``
at the repository root with every run record, each pair's equality of
``step_hash`` and the deterministic metrics, and the verdict.

The verdict (:func:`verdict`, a pure function of the recorded runs) gives,
per end-to-end metric of ``BENCHMARK.json``: ahead k of n (ties count for
neither side), the median of the per-pair ratios change / base, and the
gap between the two sides' medians against the base's interquartile
range.  ``--check`` recomputes every named document's verdict from its
recorded runs and exits non-zero on a mismatch; it reads no clock.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCHEMA = 1
#: Counts the program makes: equal on both sides of a pair, or the change
#: moved behaviour and the pair measures two different programs.
DETERMINISTIC = (
    "server_ops_per_step",
    "msgs_per_sim_s",
    "uplink_msgs_per_sim_s",
    "energy_mw_per_object",
    "result_error",
)


def equal_in_pair(base: dict, head: dict) -> dict:
    """Which of the step hash and the deterministic metrics agree."""
    same = {"step_hash": base["step_hash"] == head["step_hash"]}
    for name in DETERMINISTIC:
        same[name] = base["metrics"][name]["value"] == head["metrics"][name]["value"]
    return same


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(pairs: list, end_to_end: list) -> dict:
    """The verdict on ``pairs`` (each ``{"base": record, "head": record}``,
    a record being ``bench/run.py --out``'s) for the ``end_to_end``
    metrics (each ``{"name", "better"}``)."""
    equal = [all(equal_in_pair(pair["base"], pair["head"]).values()) for pair in pairs]
    metrics = {}
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        base = [pair["base"]["metrics"][name]["value"] for pair in pairs]
        head = [pair["head"]["metrics"][name]["value"] for pair in pairs]
        q1, q3 = _quartiles(base)
        base_median = statistics.median(base)
        head_median = statistics.median(head)
        # How far the change's median is better than the base's (negative:
        # worse), against the spread of the base's own runs.
        gain = sign * (head_median - base_median)
        metrics[name] = {
            "ahead": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "behind": sum(sign * (h - b) < 0 for b, h in zip(base, head)),
            "median_ratio": statistics.median(h / b if b else 1.0 for b, h in zip(base, head)),
            "base_median": base_median,
            "head_median": head_median,
            "base_iqr": q3 - q1,
            "gain": gain,
            "gain_exceeds_base_iqr": gain > q3 - q1,
        }
    return {"pairs": len(pairs), "equal_pairs": sum(equal), "metrics": metrics}


def summary_line(document: dict, name: str = "steps_per_s") -> str:
    """One sentence for one metric of a pairs document."""
    result = document["verdict"]
    row = result["metrics"][name]
    return (
        f"{document['workload']} seed {document['seed']}: {name} ahead {row['ahead']} of "
        f"{result['pairs']} (behind {row['behind']}), median ratio {row['median_ratio']:.4f}, "
        f"gain {row['gain']:.4g} {'>' if row['gain_exceeds_base_iqr'] else '<='} base IQR "
        f"{row['base_iqr']:.4g}; step hash and deterministic metrics equal in "
        f"{result['equal_pairs']} of {result['pairs']} pairs"
    )


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout.strip()


def _run_side(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    command = [
        sys.executable, str(checkout / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0", "--out", str(out),
    ]  # fmt: skip
    subprocess.run(command, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return record


def measure(base_ref: str, head_ref: str | None, workload: str, seed: int, n_pairs: int) -> dict:
    """Run the alternating pairs and return the document."""
    refs = {"base": base_ref, "head": head_ref}
    commits = {
        side: _git("rev-parse", "--verify", f"{ref}^{{commit}}")
        for side, ref in refs.items()
        if ref is not None
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [{"name": m["name"], "better": m["better"]} for m in spec["end_to_end"]]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {}  # side -> its temporary worktree, once added
        try:
            for side, commit in commits.items():
                _git("worktree", "add", "--detach", str(Path(tmp) / side), commit)
                checkouts[side] = Path(tmp) / side
            sides = {"head": ROOT, **checkouts}
            for k in range(1, n_pairs + 1):
                order = ("base", "head") if k % 2 else ("head", "base")
                pair = {"order": list(order)}
                for side in order:
                    pair[side] = _run_side(sides[side], workload, seed, Path(tmp) / "record.json")
                pair["equal"] = equal_in_pair(pair["base"], pair["head"])
                pairs.append(pair)
                print(f"pair {k}/{n_pairs}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['steps_per_s']['value']:.4g}" for side in order
                ), flush=True)
        finally:
            for checkout in checkouts.values():
                _git("worktree", "remove", "--force", str(checkout))
            _git("worktree", "prune")
    working_tree = head_ref is None
    return {
        "schema": SCHEMA,
        "workload": workload,
        "seed": seed,
        "base": {"ref": base_ref, "commit": commits["base"]},
        "head": {
            "ref": head_ref,
            "commit": _git("rev-parse", "HEAD") if working_tree else commits["head"],
            "dirty": working_tree
            and bool(_git("status", "--porcelain", "--untracked-files=no")),
        },
        "end_to_end": end_to_end,
        "pairs": pairs,
        "verdict": verdict(pairs, end_to_end),
    }


def check(paths: list) -> int:
    """Recompute each document's verdict from its runs; 1 on a mismatch."""
    status = 0
    for path in paths:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        if document.get("schema") != SCHEMA:
            print(f"{path}: schema {document.get('schema')!r}, not {SCHEMA}")
            status = 1
            continue
        pairs = document["pairs"]
        recomputed = verdict(pairs, document["end_to_end"])
        recorded_equal = [pair["equal"] for pair in pairs]
        if recomputed != document["verdict"] or recorded_equal != [
            equal_in_pair(pair["base"], pair["head"]) for pair in pairs
        ]:
            print(f"{path}: the recorded verdict does not follow from its runs")
            status = 1
            continue
        print(f"{Path(path).name}: {summary_line(document)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_ref", nargs="?", help="the commit the change is paired with")
    parser.add_argument("--head", help="a commit to pair instead of the working tree")
    parser.add_argument("--workload", default="paper_table1")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tag", help="names PAIRS_<tag>.json (default: <workload>_<seed>)")
    parser.add_argument("--check", nargs="+", metavar="PAIRS_JSON", help="recompute verdicts")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if args.base_ref is None or args.pairs < 1:
        parser.error("give BASE_REF (and --pairs >= 1), or --check")
    document = measure(args.base_ref, args.head, args.workload, args.seed, args.pairs)
    out = ROOT / f"PAIRS_{args.tag or f'{args.workload}_{args.seed}'}.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.name}: {summary_line(document)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
