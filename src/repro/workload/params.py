"""Simulation parameters (paper Table 1) and scaling for CI-sized runs.

Paper defaults: a 100,000 mi^2 square universe, 10,000 objects, 1,000
queries, 1,000 velocity-vector changes per 30 s step, grid cell side 5 mi,
base-station side 10 mi, query-radius means {3, 2, 1, 4, 5} mi picked by a
zipf(0.8) over that ordered list (std. dev. = mean / 5), query selectivity
0.75, and max speeds {100, 50, 150, 200, 250} mph picked by a zipf(0.8).

Full-scale runs are expensive in pure Python, so experiments default to a
*scaled* parameter set that preserves the paper's densities and ratios:
counts shrink by the scale factor and the area shrinks with them, keeping
objects/mi^2, queries/object, and velocity-change ratio fixed.  Set the
environment variable ``REPRO_SCALE`` (a float, or ``paper`` for 1.0) to
override the benchmark scale.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from repro.geometry import Rect

PAPER_AREA_SQ_MILES = 100_000.0
DEFAULT_BENCH_SCALE = 0.06


@dataclass(frozen=True, slots=True)
class SimulationParameters:
    """One row of Table 1 plus the derived universe of discourse."""

    time_step_seconds: float = 30.0
    alpha: float = 5.0
    num_objects: int = 10_000
    num_queries: int = 1_000
    velocity_changes_per_step: int = 1_000
    area_sq_miles: float = PAPER_AREA_SQ_MILES
    base_station_side: float = 10.0
    radius_means: tuple[float, ...] = (3.0, 2.0, 1.0, 4.0, 5.0)
    radius_zipf_exponent: float = 0.8
    radius_sigma_fraction: float = 0.2  # std dev = mean / 5
    query_selectivity: float = 0.75
    max_speeds: tuple[float, ...] = (100.0, 50.0, 150.0, 200.0, 250.0)
    speed_zipf_exponent: float = 0.8
    radius_factor: float = 1.0  # Fig. 12's multiplier on query radii
    # Flash-crowd skew: this fraction of the population is squeezed into a
    # vertical strip covering ``hotspot_width`` of the x-axis at the left
    # edge of the UoD.  0.0 (the default) is the paper's uniform placement.
    # The strip is vertical on purpose: the sharded server partitions the
    # grid into column stripes, so an x-axis hotspot lands on few shards
    # and actually skews per-shard load.
    hotspot_fraction: float = 0.0
    hotspot_width: float = 0.2
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_objects <= 0 or self.num_queries < 0:
            raise ValueError("need a positive object population")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must lie in [0, 1]")
        if not 0.0 < self.hotspot_width <= 1.0:
            raise ValueError("hotspot_width must lie in (0, 1]")
        if self.num_queries > self.num_objects:
            raise ValueError("cannot have more focal objects than objects")
        if self.velocity_changes_per_step > self.num_objects:
            raise ValueError("cannot change more velocity vectors than objects")
        if self.area_sq_miles <= 0:
            raise ValueError("area must be positive")
        if self.radius_factor <= 0:
            raise ValueError("radius_factor must be positive")

    @property
    def side_miles(self) -> float:
        """Side of the square universe of discourse."""
        return math.sqrt(self.area_sq_miles)

    @property
    def uod(self) -> Rect:
        """The universe-of-discourse rectangle."""
        side = self.side_miles
        return Rect(0.0, 0.0, side, side)

    def scaled(self, scale: float) -> "SimulationParameters":
        """Shrink counts and area together, preserving densities.

        ``scale=1`` is the paper's setup; ``scale=0.05`` yields 500 objects,
        50 queries, 50 velocity changes per step on 5,000 mi^2.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        num_objects = max(1, round(self.num_objects * scale))
        return replace(
            self,
            num_objects=num_objects,
            num_queries=min(num_objects, max(1, round(self.num_queries * scale))),
            velocity_changes_per_step=min(
                num_objects, max(1, round(self.velocity_changes_per_step * scale))
            ),
            area_sq_miles=self.area_sq_miles * scale,
        )


def paper_defaults() -> SimulationParameters:
    """Table 1 defaults, full paper scale."""
    return SimulationParameters()


def bench_scale_from_env() -> float:
    """The benchmark scale factor, from ``REPRO_SCALE`` when set."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return DEFAULT_BENCH_SCALE
    if raw.strip().lower() == "paper":
        return 1.0
    scale = float(raw)
    if scale <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {raw!r}")
    return scale


def bench_defaults() -> SimulationParameters:
    """Scaled-down Table 1 defaults used by the benchmark harness."""
    return paper_defaults().scaled(bench_scale_from_env())
