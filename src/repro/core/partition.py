"""Epoch-versioned grid-cell partitioning for the sharded server.

The coordinator splits the grid into contiguous column stripes;
:meth:`PartitionMap.shard_of_cell` is the deterministic "grid hash"
mapping any cell index to the shard that owns it.  Contiguity matters: a
monitoring region (always a rectangular :class:`CellRange`) intersects a
contiguous span of stripes, and each shard's portion of it is itself a
rectangular range, so RQI registrations and broadcast splits stay
range-shaped instead of exploding into per-cell sets.

The map is *mutable*: the stripe boundaries can shift at runtime
(:meth:`transfer`), and -- new with the elastic service runtime -- the
stripe *count* can change too.
Shard ids are **stable names**, not positions: the map keeps an explicit left-to-right
``order`` of shard ids alongside the boundary list, so every layer that
holds per-shard state keyed by id (the coordinator's slots, reliability
sequence streams, checkpoints) survives a stripe being inserted
(:meth:`insert_stripe`) or removed (:meth:`remove_stripe`) without any
renumbering.  While no stripe has ever been inserted or removed the order
is the identity permutation and ids coincide with positions exactly as
before.

A stripe may become *empty* (its two boundaries coincide);
``bisect_right`` then never maps a cell to it and ``clip``/``split`` skip
it, so an emptied shard simply stops receiving routed traffic until a
later transfer refills it -- or until :meth:`remove_stripe` retires it.

Every mutation that changes a cell's owner increments :attr:`epoch`, the
version number threaded through uplink envelopes and client directives: a
message stamped with an older epoch was routed under a boundary layout
that may no longer hold, and the transport re-resolves its destination at
delivery time instead of trusting the stale route.  Inserting or removing
a zero-width stripe moves no cells and therefore does *not* bump the
epoch; the transfer that fills (or drained) the stripe is the epoch
event.

A requested shard count larger than the number of grid columns is clamped
(an empty shard would never receive any routed traffic); the effective
count is what :attr:`num_shards` reports.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.grid import CellIndex, CellRange, Grid


class PartitionMap:
    """Mutable, epoch-versioned cell -> shard map over contiguous column
    stripes with stable shard ids."""

    def __init__(self, grid: Grid, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be at least 1, got {num_shards}")
        self.grid = grid
        count = min(num_shards, grid.n_cols)
        # Stripe boundaries by *position*: the stripe at position p owns
        # columns [bounds[p], bounds[p+1]), and order[p] names the shard id
        # that stripe belongs to.
        self._bounds = [p * grid.n_cols // count for p in range(count)]
        self._bounds.append(grid.n_cols)
        self._order = list(range(count))
        self._pos = {sid: p for p, sid in enumerate(self._order)}
        self.epoch = 0

    # ------------------------------------------------------------------
    # Identity: positions vs. stable shard ids
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """How many live stripes the map currently has."""
        return len(self._order)

    @property
    def order(self) -> tuple[int, ...]:
        """Shard ids in left-to-right stripe order (for checkpoints and
        position-based policies)."""
        return tuple(self._order)

    def is_live(self, shard: int) -> bool:
        """Whether a shard id currently owns a stripe in the map."""
        return shard in self._pos

    def position_of(self, shard: int) -> int:
        """The left-to-right stripe position of a live shard id."""
        try:
            return self._pos[shard]
        except KeyError:
            raise ValueError(f"shard {shard} has no stripe in the partition map")

    # ------------------------------------------------------------------
    # Read API (unchanged semantics; all shard arguments are stable ids)
    # ------------------------------------------------------------------

    def shard_of_cell(self, cell: CellIndex) -> int:
        """The shard owning a grid cell (pure function of the column)."""
        i = min(max(cell[0], 0), self.grid.n_cols - 1)
        return self._order[bisect_right(self._bounds, i) - 1]

    def columns_of(self, shard: int) -> tuple[int, int]:
        """The inclusive column span ``(lo, hi)`` owned by a shard.

        An empty stripe reports ``hi == lo - 1``.
        """
        p = self.position_of(shard)
        return (self._bounds[p], self._bounds[p + 1] - 1)

    def width_of(self, shard: int) -> int:
        """How many columns a shard owns (0 for an emptied stripe)."""
        p = self.position_of(shard)
        return self._bounds[p + 1] - self._bounds[p]

    def owns(self, shard: int, cell: CellIndex) -> bool:
        """Whether ``shard`` owns ``cell``."""
        lo, hi = self.columns_of(shard)
        return lo <= cell[0] <= hi and 0 <= cell[1] <= self.grid.n_rows - 1

    def shards_of_region(self, region: CellRange) -> list[int]:
        """The shard ids a cell range intersects, in stripe order.

        The span may include emptied stripes sandwiched between the
        endpoints' owners; their :meth:`clip` is ``None`` and
        :meth:`split` skips them.
        """
        first = self._pos[self.shard_of_cell((region.lo_i, region.lo_j))]
        last = self._pos[self.shard_of_cell((region.hi_i, region.lo_j))]
        return self._order[first : last + 1]

    def clip(self, region: CellRange, shard: int) -> CellRange | None:
        """A shard's rectangular portion of a cell range (None if disjoint)."""
        lo, hi = self.columns_of(shard)
        lo_i = max(region.lo_i, lo)
        hi_i = min(region.hi_i, hi)
        if lo_i > hi_i:
            return None
        return CellRange(lo_i, hi_i, region.lo_j, region.hi_j)

    def split(self, region: CellRange) -> list[tuple[int, CellRange]]:
        """``(shard, portion)`` pairs covering a range, in stripe order."""
        out: list[tuple[int, CellRange]] = []
        for shard in self.shards_of_region(region):
            portion = self.clip(region, shard)
            if portion is not None:
                out.append((shard, portion))
        return out

    # ------------------------------------------------------------------
    # Mutation API (each effective ownership change bumps the epoch)
    # ------------------------------------------------------------------

    @property
    def bounds(self) -> tuple[int, ...]:
        """The boundary list as an immutable snapshot (for checkpoints)."""
        return tuple(self._bounds)

    def restore_state(
        self, bounds: tuple[int, ...], epoch: int, order: tuple[int, ...]
    ) -> None:
        """Adopt a checkpointed boundary layout, epoch, and stripe order
        wholesale (the stripe count follows ``order``)."""
        if len(bounds) != len(order) + 1:
            raise ValueError(
                f"bounds length {len(bounds)} does not fit {len(order)} stripes"
            )
        if len(bounds) < 2:
            raise ValueError("a partition map needs at least one stripe")
        if bounds[0] != 0 or bounds[-1] != self.grid.n_cols:
            raise ValueError(f"bounds {bounds} do not span the grid")
        if any(bounds[p] > bounds[p + 1] for p in range(len(order))):
            raise ValueError(f"bounds {bounds} are not monotone")
        if len(set(order)) != len(order) or any(sid < 0 for sid in order):
            raise ValueError(f"order {order} is not a set of distinct shard ids")
        self._bounds = list(bounds)
        self._order = list(order)
        self._pos = {sid: p for p, sid in enumerate(self._order)}
        self.epoch = epoch

    def transfer(self, src: int, dst: int, cols: int) -> int:
        """Move up to ``cols`` columns from ``src``'s edge into the adjacent
        shard ``dst``; returns how many columns actually moved.

        The move clamps to ``src``'s current width (possibly emptying it)
        and is a no-op -- no epoch bump -- when ``src`` is already empty or
        ``cols`` is zero.  Only stripe-adjacent shards can trade columns:
        that is what keeps every stripe a contiguous column range.
        """
        if not self.is_live(src) or not self.is_live(dst):
            raise ValueError(f"shard out of range: transfer({src}, {dst})")
        ps, pd = self._pos[src], self._pos[dst]
        if abs(ps - pd) != 1:
            raise ValueError(f"shards must be adjacent: transfer({src}, {dst})")
        if cols < 0:
            raise ValueError(f"cols must be non-negative, got {cols}")
        moved = min(cols, self._bounds[ps + 1] - self._bounds[ps])
        if moved == 0:
            return 0
        if pd == ps + 1:
            # src donates its rightmost columns.
            self._bounds[ps + 1] -= moved
        else:
            # src donates its leftmost columns.
            self._bounds[ps] += moved
        self.epoch += 1
        return moved

    # ------------------------------------------------------------------
    # Elastic stripe lifecycle (no epoch bump: zero-width edits move no
    # cells; the transfers that fill or drain the stripe are the epoch
    # events)
    # ------------------------------------------------------------------

    def insert_stripe(self, after: int, new_id: int) -> None:
        """Insert a zero-width stripe owned by ``new_id`` immediately to
        the right of live shard ``after``.  The new stripe owns no columns
        until a subsequent :meth:`transfer` from its neighbor fills it."""
        if new_id < 0:
            raise ValueError(f"shard ids must be non-negative, got {new_id}")
        if self.is_live(new_id):
            raise ValueError(f"shard {new_id} already owns a stripe")
        p = self.position_of(after)
        self._bounds.insert(p + 1, self._bounds[p + 1])
        self._order.insert(p + 1, new_id)
        self._pos = {sid: q for q, sid in enumerate(self._order)}

    def remove_stripe(self, shard: int) -> None:
        """Retire an *empty* stripe from the map.  Drain it first with
        :meth:`transfer`; removing a stripe that still owns columns is an
        error, never a silent data loss."""
        if self.num_shards == 1:
            raise ValueError("cannot remove the last stripe")
        p = self.position_of(shard)
        if self._bounds[p + 1] - self._bounds[p] != 0:
            raise ValueError(
                f"stripe of shard {shard} still owns columns; merge it away first"
            )
        del self._bounds[p + 1]
        del self._order[p]
        self._pos = {sid: q for q, sid in enumerate(self._order)}

