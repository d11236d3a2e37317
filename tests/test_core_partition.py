"""Unit tests for the deterministic grid partitioner (cell -> shard hash)."""

from __future__ import annotations

import pytest

from repro.core import PartitionMap
from repro.geometry import Rect
from repro.grid import CellRange, Grid


def make_grid(cols=10, rows=7, alpha=5.0):
    return Grid(Rect(0, 0, cols * alpha, rows * alpha), alpha)


class TestStripeBounds:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4, 7, 10])
    def test_columns_partition_exactly(self, num_shards):
        """Every column is owned by exactly one shard, stripes are
        contiguous, and shard_of_cell agrees with columns_of."""
        grid = make_grid(cols=10)
        part = PartitionMap(grid, num_shards)
        seen = []
        for shard in range(part.num_shards):
            lo, hi = part.columns_of(shard)
            assert lo <= hi
            seen.extend(range(lo, hi + 1))
        assert seen == list(range(grid.n_cols))
        for i in range(grid.n_cols):
            for j in range(grid.n_rows):
                shard = part.shard_of_cell((i, j))
                lo, hi = part.columns_of(shard)
                assert lo <= i <= hi
                assert part.owns(shard, (i, j))

    def test_near_even_split(self):
        part = PartitionMap(make_grid(cols=10), 4)
        widths = [hi - lo + 1 for lo, hi in (part.columns_of(s) for s in range(4))]
        assert sum(widths) == 10
        assert max(widths) - min(widths) <= 1

    def test_requested_count_clamped_to_columns(self):
        grid = make_grid(cols=4)
        part = PartitionMap(grid, 64)
        assert part.num_shards == 4
        # Every shard still owns at least one column.
        assert all(part.columns_of(s)[0] <= part.columns_of(s)[1] for s in range(4))

    def test_out_of_range_cells_clamp(self):
        part = PartitionMap(make_grid(cols=10), 3)
        assert part.shard_of_cell((-5, 0)) == 0
        assert part.shard_of_cell((999, 0)) == part.num_shards - 1

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError):
            PartitionMap(make_grid(), 0)


class TestRegionSplit:
    def test_cells_of_cover_grid(self):
        grid = make_grid(cols=9, rows=5)
        part = PartitionMap(grid, 3)
        covered = set()
        for shard in range(part.num_shards):
            lo, hi = part.columns_of(shard)
            cells = {(i, j) for i in range(lo, hi + 1) for j in range(grid.n_rows)}
            assert not (cells & covered), "shard stripes overlap"
            covered |= cells
        assert len(covered) == grid.n_cols * grid.n_rows

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_split_is_exact_partition_of_region(self, num_shards):
        grid = make_grid(cols=10, rows=6)
        part = PartitionMap(grid, num_shards)
        for lo_i in range(0, 9, 2):
            for hi_i in range(lo_i, 10, 3):
                region = CellRange(lo_i, hi_i, 1, 4)
                portions = part.split(region)
                assert [s for s, _ in portions] == sorted({s for s, _ in portions}), (
                    "split not in ascending shard order"
                )
                cells = []
                for shard, portion in portions:
                    for cell in portion:
                        assert part.owns(shard, cell)
                        cells.append(cell)
                assert sorted(cells) == sorted(region), (
                    f"split of {region} is not an exact partition"
                )

    def test_clip_disjoint_is_none(self):
        part = PartitionMap(make_grid(cols=10), 2)
        region = CellRange(0, 2, 0, 3)  # entirely inside shard 0
        assert part.clip(region, 1) is None
        assert part.clip(region, 0) == region

    def test_shards_of_region_span(self):
        part = PartitionMap(make_grid(cols=10), 2)  # stripes 0-4, 5-9
        assert list(part.shards_of_region(CellRange(3, 6, 0, 0))) == [0, 1]
        assert list(part.shards_of_region(CellRange(0, 4, 0, 0))) == [0]
        assert list(part.shards_of_region(CellRange(5, 9, 0, 0))) == [1]


class TestMutation:
    """The epoch-versioned mutable side of PartitionMap."""

    def test_initial_epoch_and_bounds(self):
        part = PartitionMap(make_grid(cols=10), 4)
        assert part.epoch == 0
        assert part.bounds == (0, 2, 5, 7, 10)
        assert [part.width_of(s) for s in range(4)] == [2, 3, 2, 3]

    def test_transfer_moves_columns_and_bumps_epoch(self):
        part = PartitionMap(make_grid(cols=10), 2)  # stripes 0-4, 5-9
        moved = part.transfer(0, 1, 2)
        assert moved == 2
        assert part.epoch == 1
        assert part.columns_of(0) == (0, 2)
        assert part.columns_of(1) == (3, 9)
        assert part.shard_of_cell((3, 0)) == 1

    def test_transfer_clamps_to_donor_width(self):
        part = PartitionMap(make_grid(cols=10), 2)
        moved = part.transfer(0, 1, 99)
        assert moved == 5  # shard 0 had exactly 5 columns
        assert part.width_of(0) == 0
        assert part.width_of(1) == 10
        assert part.epoch == 1

    def test_transfer_non_adjacent_or_noop_keeps_epoch(self):
        part = PartitionMap(make_grid(cols=10), 4)
        with pytest.raises(ValueError):
            part.transfer(0, 2, 1)
        assert part.transfer(0, 1, 0) == 0
        assert part.epoch == 0

    def test_empty_stripe_receives_no_routes(self):
        part = PartitionMap(make_grid(cols=10), 2)
        part.transfer(0, 1, 5)  # shard 0 emptied
        assert part.width_of(0) == 0
        for col in range(10):
            assert part.shard_of_cell((col, 0)) == 1
        whole = CellRange(0, 9, 0, 6)
        assert part.clip(whole, 0) is None
        assert [s for s, _ in part.split(whole)] == [1]
        assert list(part.shards_of_region(whole)) == [1]

    def test_single_column_stripe_is_a_valid_donor_once(self):
        part = PartitionMap(make_grid(cols=3), 3)  # one column each
        assert [part.width_of(s) for s in range(3)] == [1, 1, 1]
        assert part.transfer(1, 2, 1) == 1
        assert part.width_of(1) == 0
        # A second donation from the now-empty stripe is a no-op.
        assert part.transfer(1, 2, 1) == 0
        assert part.epoch == 1

    def test_epoch_monotone_under_split_merge_split(self):
        part = PartitionMap(make_grid(cols=12), 3)
        epochs = [part.epoch]
        part.transfer(0, 1, part.width_of(0) // 2)  # split
        epochs.append(part.epoch)
        part.transfer(0, 1, part.width_of(0))  # merge
        epochs.append(part.epoch)
        part.transfer(1, 2, part.width_of(1) // 2)  # split
        epochs.append(part.epoch)
        assert epochs == sorted(set(epochs)), "epoch must strictly increase"
        assert sum(part.width_of(s) for s in range(3)) == 12

    def test_restore_state_roundtrip_and_validation(self):
        part = PartitionMap(make_grid(cols=10), 4)
        part.transfer(0, 1, 2)
        saved_bounds, saved_epoch = part.bounds, part.epoch
        other = PartitionMap(make_grid(cols=10), 4)
        other.restore_state(saved_bounds, saved_epoch, part.order)
        assert other.bounds == saved_bounds and other.epoch == saved_epoch
        with pytest.raises(ValueError):
            other.restore_state((0, 3, 5, 10), saved_epoch, part.order)  # wrong length
        with pytest.raises(ValueError):
            other.restore_state((0, 5, 3, 8, 10), saved_epoch, part.order)  # not monotone
        with pytest.raises(ValueError):
            other.restore_state((1, 3, 5, 8, 10), saved_epoch, part.order)  # wrong span
