#!/usr/bin/env python3
"""Where did the time go: ``report.py bench/out/trace_<workload>.jsonl``.

Prints one row per span name of a traced run -- total, self (total minus
what child spans cover), calls, and self time as a share of the traced
wall -- sorted by self time, ending with the share no layer accounts for.
Seconds are host-normalised, as in ``run.py --trace``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import aggregate, read_trace, unattributed_share  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[0])
    header, spans = read_trace(argv[0])
    table = aggregate(spans, header["first_step"], header["host_factors"])
    wall = header["wall_s"]
    steps = header["steps"]
    print(
        f"{header['workload']} seed={header['seed']} engine={header['engine']} "
        f"steps={steps} wall={wall:.3f}s ({1000.0 * wall / steps:.2f} ms/step) spans={len(spans)}"
    )
    print(f"{'span':<52}{'total s':>10}{'self s':>10}{'calls':>9}{'share':>8}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self"]):
        print(
            f"{name:<52}{row['total']:>10.4f}{row['self']:>10.4f}{row['calls']:>9}"
            f"{row['self'] / wall:>8.1%}"
        )
    for name, count in sorted(header["counts"].items()):
        print(f"{name:<52}{'':>10}{'':>10}{count:>9}")
    share = unattributed_share(table, wall, header["owned_phases"])
    print(f"sim.engine.unattributed_share {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
