"""Per-step metric records and aggregation.

Each system (MobiEyes and the centralized baselines) appends one
:class:`StepStats` per simulation step; :class:`MetricsLog` aggregates them
into exactly the quantities the paper's figures report:

- server load: seconds of server logic per step (Figs. 1, 3) and a
  hardware-independent operation count;
- messaging: wireless messages per second, split uplink/downlink
  (Figs. 4-8);
- power: average per-object communication power in watts (Fig. 9);
- object-side computation: mean LQT size (Figs. 10-12) and mean per-object
  query-processing seconds (Fig. 13);
- accuracy: mean missing-fraction error (Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class StepStats:
    """All measurements taken during one simulation step."""

    step: int
    server_seconds: float = 0.0
    server_ops: int = 0
    uplink_messages: int = 0
    downlink_messages: int = 0
    uplink_bits: float = 0.0
    downlink_bits: float = 0.0
    energy_joules: float = 0.0
    mean_lqt_size: float = 0.0
    evaluated_queries: int = 0
    skipped_by_safe_period: int = 0
    skipped_by_grouping: int = 0
    object_processing_seconds: float = 0.0
    # Sampled this very step (``None`` when accuracy is not tracked).
    result_error: float | None = None
    # Deferred-delivery pipeline: envelopes still in flight at the end of
    # the step, envelopes opened during the step, and their summed
    # send-to-delivery delay in steps.  All zero on the inline path.
    inflight_messages: int = 0
    delivered_messages: int = 0
    delivery_delay_steps: int = 0

    @property
    def total_messages(self) -> int:
        """Uplink plus downlink messages this step."""
        return self.uplink_messages + self.downlink_messages


@dataclass
class MetricsLog:
    """Accumulates per-step stats and derives the paper's aggregates."""

    step_seconds: float
    population: int
    steps: list[StepStats] = field(default_factory=list)
    warmup_steps: int = 0

    def append(self, stats: StepStats) -> None:
        """Record one step's measurements."""
        self.steps.append(stats)

    def _measured(self) -> list[StepStats]:
        """Steps past the warm-up window (install transients excluded)."""
        return self.steps[self.warmup_steps :]

    def _require_steps(self) -> list[StepStats]:
        measured = self._measured()
        if not measured:
            raise ValueError("no measured steps (is warmup_steps >= total steps?)")
        return measured

    # ------------------------------------------------------------- server

    def mean_server_seconds(self) -> float:
        """Mean server-logic seconds per measured step."""
        measured = self._require_steps()
        return sum(s.server_seconds for s in measured) / len(measured)

    def mean_server_ops(self) -> float:
        """Mean abstract server operations per measured step."""
        measured = self._require_steps()
        return sum(s.server_ops for s in measured) / len(measured)

    # ---------------------------------------------------------- messaging

    def messages_per_second(self) -> float:
        """Total wireless messages per simulated second."""
        measured = self._require_steps()
        total = sum(s.total_messages for s in measured)
        return total / (len(measured) * self.step_seconds)

    def uplink_messages_per_second(self) -> float:
        """Uplink messages per simulated second."""
        measured = self._require_steps()
        return sum(s.uplink_messages for s in measured) / (len(measured) * self.step_seconds)

    def downlink_messages_per_second(self) -> float:
        """Downlink messages per simulated second."""
        measured = self._require_steps()
        return sum(s.downlink_messages for s in measured) / (len(measured) * self.step_seconds)

    # -------------------------------------------------------------- power

    def mean_power_watts_per_object(self) -> float:
        """Average communication power per object (joules per simulated
        second, averaged over the whole population)."""
        measured = self._require_steps()
        energy = sum(s.energy_joules for s in measured)
        duration = len(measured) * self.step_seconds
        if self.population <= 0:
            raise ValueError("population must be positive")
        return energy / duration / self.population

    # ------------------------------------------------------- object side

    def mean_lqt_size(self) -> float:
        """Mean per-object LQT size over the measured steps."""
        measured = self._require_steps()
        return sum(s.mean_lqt_size for s in measured) / len(measured)

    def mean_object_processing_seconds(self) -> float:
        """Mean per-object, per-step time spent processing the LQT."""
        measured = self._require_steps()
        total = sum(s.object_processing_seconds for s in measured)
        return total / (len(measured) * max(1, self.population))

    def total_evaluated_queries(self) -> int:
        """Containment checks performed in the measured window."""
        return sum(s.evaluated_queries for s in self._require_steps())

    def total_skipped_by_safe_period(self) -> int:
        """Evaluations skipped by safe periods in the window."""
        return sum(s.skipped_by_safe_period for s in self._require_steps())

    # ------------------------------------------------------- in-flight

    def mean_inflight_messages(self) -> float:
        """Mean pipeline depth: envelopes in flight at the end of a step."""
        measured = self._require_steps()
        return sum(s.inflight_messages for s in measured) / len(measured)

    def max_inflight_messages(self) -> int:
        """Peak pipeline depth over the measured window."""
        return max((s.inflight_messages for s in self._require_steps()), default=0)

    def mean_delivery_delay_steps(self) -> float | None:
        """Mean send-to-delivery delay of deferred envelopes, in steps
        (weighted by deliveries; ``None`` when nothing was deferred)."""
        measured = self._require_steps()
        delivered = sum(s.delivered_messages for s in measured)
        if delivered == 0:
            return None
        return sum(s.delivery_delay_steps for s in measured) / delivered

    # ----------------------------------------------------------- accuracy

    def mean_result_error(self) -> float | None:
        """Mean missing-fraction error over the measured steps' samples, or
        None when accuracy was not tracked."""
        samples = [s.result_error for s in self._measured() if s.result_error is not None]
        if not samples:
            return None
        return sum(samples) / len(samples)
