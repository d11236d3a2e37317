"""Loss channels: per-roll stochastic processes deciding packet drops.

A channel answers one question -- "is this transmission lost?" -- and may
carry state between rolls.  :class:`BernoulliChannel` is independent
(i.i.d.) loss; :class:`GilbertElliottChannel` is the classic two-state
Markov burst-loss model (a *good* state with rare drops and a *bad* state
where most transmissions die), which is how cellular links actually fail:
in bursts, not independently.  :func:`mean_rate_channel` builds either
at a given mean rate, for side-by-side runs.

Determinism: every roll draws from the channel's seeded rng in call
order, so two runs with the same seed (and the two simulation engines,
which issue identical message sequences) see identical drop patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.rng import SimulationRng


@dataclass
class BernoulliChannel:
    """Independent loss with a fixed rate; stateless between rolls."""

    rng: SimulationRng
    rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {self.rate}")

    def roll(self) -> bool:
        """Whether this transmission is lost (consumes rng only if rate > 0)."""
        return self.rate > 0.0 and self.rng.random() < self.rate


@dataclass
class GilbertElliottChannel:
    """Two-state Markov burst-loss channel (Gilbert-Elliott).

    Each roll first moves the state machine (good -> bad with probability
    ``p_good_to_bad``, bad -> good with ``p_bad_to_good``), then drops the
    transmission with the state's loss rate.  The stationary loss average
    is ``pi_bad * loss_bad + (1 - pi_bad) * loss_good`` with
    ``pi_bad = p_good_to_bad / (p_good_to_bad + p_bad_to_good)``.
    """

    rng: SimulationRng
    p_good_to_bad: float = 0.05
    p_bad_to_good: float = 0.4
    loss_good: float = 0.01
    loss_bad: float = 0.6
    bad: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        for name in ("p_good_to_bad", "p_bad_to_good", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def with_mean_rate(cls, rng: SimulationRng, rate: float) -> "GilbertElliottChannel":
        """The burst channel whose stationary mean loss is ``rate``: a clean
        good state, and a bad state holding 10% of the time."""
        return cls(
            rng,
            p_good_to_bad=0.05,
            p_bad_to_good=0.45,
            loss_good=0.0,
            loss_bad=min(1.0, 10.0 * rate),
        )

    @property
    def mean_loss_rate(self) -> float:
        """The stationary average loss rate of the channel."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        pi_bad = self.p_good_to_bad / denom if denom > 0 else 0.0
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def roll(self) -> bool:
        """Advance the state machine, then decide this transmission's fate."""
        if self.bad:
            if self.rng.random() < self.p_bad_to_good:
                self.bad = False
        else:
            if self.rng.random() < self.p_good_to_bad:
                self.bad = True
        rate = self.loss_bad if self.bad else self.loss_good
        return rate > 0.0 and self.rng.random() < rate


def mean_rate_channel(
    rng: SimulationRng, rate: float, burst: bool
) -> BernoulliChannel | GilbertElliottChannel | None:
    """A loss channel with mean rate ``rate``: i.i.d., or Gilbert-Elliott
    bursts when ``burst`` (None when the rate is zero)."""
    if rate <= 0.0:
        return None
    if not burst:
        return BernoulliChannel(rng, rate=rate)
    return GilbertElliottChannel.with_mean_rate(rng, rate)
