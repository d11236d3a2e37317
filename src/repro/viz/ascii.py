"""Terminal line charts.

Pure-text rendering (no plotting dependencies are available offline):
:func:`line_chart` draws a small multi-series chart of experiment columns
for ``repro run --chart``.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

SERIES_MARKS = "*o+x#@%&"


def line_chart(
    series: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    logy: bool = False,
) -> str:
    """A small ASCII chart of one or more equally-long series.

    Args:
        series: label -> values (all series share the x positions 0..n-1).
        width/height: canvas size in characters.
        logy: plot on a log10 y-axis (values must be positive).
    """
    if not series:
        raise ValueError("need at least one series")
    lengths = {len(values) for values in series.values()}
    if len(lengths) != 1:
        raise ValueError("all series must have the same length")
    (n,) = lengths
    if n == 0:
        raise ValueError("series are empty")

    def transform(v: float) -> float:
        if logy:
            if v <= 0:
                raise ValueError("log-scale chart requires positive values")
            return math.log10(v)
        return v

    flat = [transform(v) for values in series.values() for v in values]
    lo, hi = min(flat), max(flat)
    span = hi - lo or 1.0

    canvas = [[" "] * width for _ in range(height)]
    for idx, (label, values) in enumerate(series.items()):
        mark = SERIES_MARKS[idx % len(SERIES_MARKS)]
        for i, value in enumerate(values):
            x = 0 if n == 1 else round(i / (n - 1) * (width - 1))
            y_frac = (transform(value) - lo) / span
            y = (height - 1) - round(y_frac * (height - 1))
            canvas[y][x] = mark
    top_label = f"{10**hi:.3g}" if logy else f"{hi:.3g}"
    bottom_label = f"{10**lo:.3g}" if logy else f"{lo:.3g}"
    lines = [f"{top_label:>10} ┤" + "".join(canvas[0])]
    for row in canvas[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{bottom_label:>10} ┤" + "".join(canvas[-1]))
    legend = "   ".join(
        f"{SERIES_MARKS[i % len(SERIES_MARKS)]} {label}" for i, label in enumerate(series)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
