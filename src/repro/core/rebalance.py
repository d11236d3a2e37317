"""Load-aware placement policy for the epoch-versioned partition map.

Every ``rebalance_every_steps`` steps the system hands the policy each live
shard's lifetime ``ops`` total (the deterministic abstract work counter of
:mod:`repro.core.load`), keyed by stable shard id, together with the stripe
widths and the left-to-right stripe order.  The policy diffs the totals
against its marks to get the *window* load and -- with hysteresis, so one
noisy window cannot thrash the boundaries -- proposes at most one placement
operation:

- ``("transfer", src, dst, cols)``: slide a column span from the hottest
  stripe into its cooler stripe-adjacent neighbor;
- ``("split", donor)``: give a persistently hot stripe a shard of its own;
- ``("merge", sid, into)``: fold a persistently idle stripe into its cooler
  stripe-adjacent neighbor and retire the slot.

Splits and merges need ``max_shards > 0``; a fixed fleet (``max_shards ==
0``) only ever transfers.  The proposal is a plain tuple; applying it
(:class:`~repro.core.coordinator.Coordinator` ``apply_rebalance`` /
``spawn_shard`` / ``retire_shard``) and broadcasting the new epoch are the
system's job, which keeps the policy checkpointable and unit-testable
without a running system.  Because it reads only ``ops``, policy-driven
runs are as reproducible as scheduled ones (``rebalance_schedule`` /
``elastic_schedule``): same seed, same decisions, on either engine.

The thresholds are constants, not configuration: no caller ever set them
(see docs/DECISIONS.md, "One placement policy").
"""

from __future__ import annotations

#: A stripe is *hot* above this multiple of the mean window load: crossing
#: it arms the transfer thermostat and extends the stripe's hot streak.
HOT_FACTOR = 1.5
#: The armed thermostat keeps moving columns until the hottest stripe's
#: ratio falls below this; between the two factors nothing starts or stops.
COOL_FACTOR = 1.2
#: Merges never shrink the fleet below this many live shards.
MIN_SHARDS = 2
#: Consecutive hot windows before a stripe is split (transfers come first).
SPLIT_AFTER = 2
#: A stripe is *cold* below this fraction of the mean window load.
MERGE_FACTOR = 0.5
#: Consecutive cold windows before a stripe is merged away.
MERGE_AFTER = 3


class RebalancePolicy:
    """Hotspot thermostat over per-shard load windows.

    The hysteresis is thermostat-style: the hottest stripe crossing
    :data:`HOT_FACTOR` x mean *arms* the policy, and while armed it
    proposes one transfer per window until the ratio cools below
    :data:`COOL_FACTOR`.  A ratio hovering in the dead band between the
    two neither starts nor continues a rebalance.

    With ``max_shards > 0`` per-shard streaks escalate past transfers: a
    stripe hot for :data:`SPLIT_AFTER` consecutive windows is split (up
    to ``max_shards`` live shards), and a stripe below
    :data:`MERGE_FACTOR` x mean for :data:`MERGE_AFTER` windows is merged
    into its cooler neighbor (down to :data:`MIN_SHARDS`).

    Marks and streaks are keyed by *stable shard id*, never by position:
    a freshly spawned shard starts from a zero mark and zero streaks
    instead of inheriting a stranger's history, and a retired shard's
    history is dropped.  Neighbor relations are a stripe-position
    question, so every evaluation takes the live ``order``.
    """

    #: Lifetime decision counters (core/load.py).
    COUNTERS = ("windows", "proposals", "splits", "merges")
    #: The decision state a checkpoint carries (see core/snapshot.py):
    #: marks, streaks, hysteresis, counters.
    CHECKPOINT_FIELDS = ("_marks", "_hot_streak", "_cold_streak", "_armed", *COUNTERS)

    def __init__(self, max_shards: int = 0) -> None:
        if max_shards != 0 and max_shards < MIN_SHARDS:
            raise ValueError(f"max_shards must be 0 (fixed fleet) or at least {MIN_SHARDS}")
        self.max_shards = max_shards
        self._marks: dict[int, float] = {}
        self._hot_streak: dict[int, int] = {}
        self._cold_streak: dict[int, int] = {}
        self._armed = False
        self.windows = 0
        self.proposals = 0
        self.splits = 0
        self.merges = 0

    # ----------------------------------------------------------- decisions

    def propose(
        self,
        totals: dict[int, float],
        widths: dict[int, int],
        order: tuple[int, ...],
    ) -> tuple | None:
        """One evaluation over the live fleet: window the loads, update
        the streaks, and return one placement op or ``None``.

        ``totals``/``widths`` are keyed by shard id; ``order`` lists the
        live ids in left-to-right stripe order.
        """
        self.windows += 1
        # Ids absent from ``totals`` (retired shards) drop their marks;
        # ids new to it (spawned shards) start from a zero mark.
        window = {sid: max(0.0, t - self._marks.get(sid, 0.0)) for sid, t in totals.items()}
        self._marks = dict(totals)
        n = len(order)
        if n < 2:
            return None
        mean = sum(window.values()) / n
        if mean <= 0.0:
            return None
        pos = {sid: p for p, sid in enumerate(order)}
        hot, cold = self._hot_streak, self._cold_streak
        self._hot_streak = {
            sid: hot.get(sid, 0) + 1 if window[sid] / mean > HOT_FACTOR else 0 for sid in order
        }
        self._cold_streak = {
            sid: cold.get(sid, 0) + 1 if window[sid] / mean < MERGE_FACTOR else 0 for sid in order
        }
        hottest = max(order, key=lambda s: (window[s], -pos[s]))
        ratio = window[hottest] / mean

        def cooler_neighbor(sid: int) -> int:
            p = pos[sid]
            neighbors = [order[q] for q in (p - 1, p + 1) if 0 <= q < n]
            return min(neighbors, key=lambda s: (window[s], pos[s]))

        # 1. Scale out: a persistent hotspot that boundary slides did not
        #    fix gets its own shard (capacity, not just placement).
        if (
            n < self.max_shards
            and self._hot_streak[hottest] >= SPLIT_AFTER
            and widths[hottest] >= 2
        ):
            self._hot_streak[hottest] = 0
            self.splits += 1
            self.proposals += 1
            return ("split", hottest)
        # 2. The transfer thermostat: arm above HOT_FACTOR, keep proposing
        #    one move per window while armed, disarm below COOL_FACTOR.
        #    The donor must keep at least one column.
        if self._armed and ratio < COOL_FACTOR:
            self._armed = False
        if self._armed or ratio > HOT_FACTOR:
            self._armed = True
            if widths[hottest] >= 2:
                recipient = cooler_neighbor(hottest)
                if window[recipient] < window[hottest]:
                    self.proposals += 1
                    return ("transfer", hottest, recipient, max(1, widths[hottest] // 4))
        # 3. Scale in: the coldest streak-qualified stripe returns its slot.
        if self.max_shards and n > MIN_SHARDS:
            idle = [sid for sid in order if self._cold_streak[sid] >= MERGE_AFTER]
            if idle:
                coldest = min(idle, key=lambda s: (window[s], pos[s]))
                self._cold_streak[coldest] = 0
                self.merges += 1
                self.proposals += 1
                return ("merge", coldest, cooler_neighbor(coldest))
        return None
