"""Analytical model of the messaging cost as a function of alpha.

Section 5.3 of the paper: "The optimal value of the alpha parameter can be
derived analytically using a simple model.  In this paper we omit the
analytical model for space restrictions."  This module reconstructs that
simple model.

Per simulated second the wireless messages break down into four terms:

1. **Cell-change uplinks.**  An object with speed ``v`` and a uniformly
   random heading crosses the vertical lines of an ``alpha`` grid at rate
   ``|v cos(theta)| / alpha`` and the horizontal lines at
   ``|v sin(theta)| / alpha``; with ``E|cos| = E|sin| = 2/pi`` the expected
   crossing rate is ``(4 / pi) * E[v] / alpha`` per hour.  Under eager
   propagation every object reports crossings; under lazy propagation only
   focal objects do.

2. **Velocity-change uplinks.**  ``nmo`` objects change velocity per step;
   a fraction ``nmq / no`` of them are focal objects, and only those
   report.

3. **Velocity-change broadcasts.**  Every reported focal velocity change is
   re-broadcast to the query's monitoring region, costing roughly
   ``ceil((alpha + 2 r + alen) / alen) ** 2`` station messages (the number
   of ``alen`` tiles the monitoring-region footprint straddles).

4. **Focal cell-change broadcasts.**  Focal-object cell crossings trigger a
   broadcast to the union of the old and new monitoring regions (one cell
   wider along the crossing axis).

Result-change reports are excluded: their rate depends on result churn, not
alpha, so they shift every curve by a constant without moving the optimum.
The model reproduces the U-shape of Figure 4 (uplinks fall as ``1/alpha``,
broadcast fan-out grows as ``alpha**2``) and its argmin locates the paper's
"ideal alpha" range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.rng import zipf_weights
from repro.workload.params import SimulationParameters

MEAN_ABS_HEADING_COMPONENT = 2.0 / math.pi  # E|cos(theta)| for uniform theta
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section step, 1/phi


@dataclass(frozen=True, slots=True)
class AlphaCostModel:
    """Closed-form expected messages/second as a function of alpha.

    Attributes mirror the Table 1 parameters that matter for messaging:
    population, query count, velocity changes per step, mean object speed
    (miles/hour), mean query radius (miles), base-station side (miles), and
    the time step (seconds).
    """

    num_objects: int
    num_queries: int
    velocity_changes_per_step: int
    mean_speed: float
    mean_radius: float
    base_station_side: float
    step_seconds: float
    lazy: bool = False

    @staticmethod
    def from_params(params: SimulationParameters, lazy: bool = False) -> "AlphaCostModel":
        """Derive the model inputs from a Table 1 parameter set.

        The mean speed is ``E[max_speed] / 2`` (speeds are re-drawn
        uniformly in ``[0, max]``); the mean radius and mean max-speed are
        zipf-weighted over the paper's candidate lists.
        """
        speed_weights = zipf_weights(len(params.max_speeds), params.speed_zipf_exponent)
        mean_max_speed = sum(w * s for w, s in zip(speed_weights, params.max_speeds))
        radius_weights = zipf_weights(len(params.radius_means), params.radius_zipf_exponent)
        mean_radius = sum(w * r for w, r in zip(radius_weights, params.radius_means))
        return AlphaCostModel(
            num_objects=params.num_objects,
            num_queries=params.num_queries,
            velocity_changes_per_step=params.velocity_changes_per_step,
            mean_speed=mean_max_speed / 2.0,
            mean_radius=mean_radius * params.radius_factor,
            base_station_side=params.base_station_side,
            step_seconds=params.time_step_seconds,
            lazy=lazy,
        )

    # ------------------------------------------------------------- pieces

    def cell_crossing_rate(self, alpha: float) -> float:
        """Expected grid-cell crossings per object per second."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        per_hour = 2.0 * MEAN_ABS_HEADING_COMPONENT * self.mean_speed / alpha
        return per_hour / 3600.0

    def focal_velocity_reports_per_second(self) -> float:
        """Focal objects reporting a velocity change, per second."""
        focal_fraction = self.num_queries / max(1, self.num_objects)
        per_step = self.velocity_changes_per_step * focal_fraction
        return per_step / self.step_seconds

    def stations_per_monitoring_region(self, alpha: float, widened: float = 0.0) -> float:
        """Broadcast messages needed to cover one monitoring region.

        The footprint is ``alpha + 2 r`` wide (+ ``widened`` for the
        old-new union after a focal cell crossing); a region of side ``s``
        placed uniformly at random straddles ``s / alen + 1`` station tiles
        per axis.
        """
        side = alpha + 2.0 * self.mean_radius + widened
        per_axis = side / self.base_station_side + 1.0
        return per_axis * per_axis

    # -------------------------------------------------------------- rates

    def uplink_rate(self, alpha: float) -> float:
        """Expected uplink messages/second."""
        reporters = self.num_queries if self.lazy else self.num_objects
        cell_uplinks = reporters * self.cell_crossing_rate(alpha)
        return cell_uplinks + self.focal_velocity_reports_per_second()

    def downlink_rate(self, alpha: float) -> float:
        """Expected downlink (broadcast) messages/second."""
        velocity_broadcasts = (
            self.focal_velocity_reports_per_second()
            * self.stations_per_monitoring_region(alpha)
        )
        focal_crossings = self.num_queries * self.cell_crossing_rate(alpha)
        update_broadcasts = focal_crossings * self.stations_per_monitoring_region(
            alpha, widened=alpha
        )
        return velocity_broadcasts + update_broadcasts

    def total_rate(self, alpha: float) -> float:
        """Expected total messages/second (excluding result churn)."""
        return self.uplink_rate(alpha) + self.downlink_rate(alpha)

    # ------------------------------------------------------------ optimum

    def optimal_alpha(self) -> tuple[float, float]:
        """``(alpha*, rate*)`` minimizing the modeled total message rate.

        A geometric scan (x1.25 steps over 0.25 .. ~200) brackets the
        minimum between the best grid point's neighbours; the model is
        smooth and unimodal, so golden-section search then narrows that
        bracket to floating-point resolution.
        """
        grid = [0.25 * 1.25**k for k in range(30)]
        rates = [self.total_rate(alpha) for alpha in grid]
        k = rates.index(min(rates))
        lo, hi = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
        a, b = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
        fa, fb = self.total_rate(a), self.total_rate(b)
        while hi - lo > 1e-9 * hi:
            if fa <= fb:
                hi, b, fb = b, a, fa
                a = hi - _INVPHI * (hi - lo)
                fa = self.total_rate(a)
            else:
                lo, a, fa = a, b, fb
                b = lo + _INVPHI * (hi - lo)
                fb = self.total_rate(b)
        # The better probe is always kept, so it is the best one evaluated.
        best_rate, best_alpha = min((rates[k], grid[k]), (fa, a), (fb, b))
        return best_alpha, best_rate
