"""Property tests for moving a query's monitoring region.

- ``ReverseQueryIndex.move`` walks only the two differences (it never
  walks a whole range): it leaves the buckets a remove + add leaves, and
  makes the bucket operations of a walk over both ranges in the same
  order (the dict's cell order shows it).
- A shard's ``_rqi_move`` leaves every shard's buckets as its remove +
  add leaves them, a dead shard's stripe untouched -- also where the
  query had lost cells of its old region (holes), which registering the
  whole new region restores."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.tables import ReverseQueryIndex
from repro.grid import CellRange
from tests.conftest import make_object, make_system

ranges = st.builds(
    lambda i, j, w, h: CellRange(i, i + w, j, j + h),
    st.integers(0, 12), st.integers(0, 12), st.integers(0, 5), st.integers(0, 5),
)


def walk_both(rqi, qid, old, new):
    """The walk ``move`` replaces: every cell of ``old`` not in ``new``,
    then every cell of ``new`` not in ``old``, each in range order."""
    if old == new:
        return
    cells = rqi._cells
    for cell in old:
        if not new.contains(cell):
            bucket = cells.get(cell)
            if bucket is not None:
                bucket.discard(qid)
                if not bucket:
                    del cells[cell]
    for cell in new:
        if not old.contains(cell):
            cells.setdefault(cell, set()).add(qid)


def buckets(rqi):
    return {cell: set(ids) for cell, ids in rqi._cells.items()}


@settings(deadline=None)
@given(
    old=ranges,
    new=ranges,
    others=st.lists(st.tuples(st.integers(1, 4), ranges), max_size=4),
)
def test_rqi_move_is_remove_plus_add(old, new, others):
    twins = [ReverseQueryIndex() for _ in range(3)]
    for rqi in twins:
        for qid, region in others:
            rqi.add(qid, region)
        rqi.add(0, old)
    moved, walked, redone = twins
    moved.move(0, old, new)
    walk_both(walked, 0, old, new)
    redone.remove(0, old)
    redone.add(0, new)
    assert buckets(moved) == buckets(redone)
    # The same bucket operations in the same order: equal cell order.
    assert list(moved._cells.items()) == list(walked._cells.items())


class Unwalkable(CellRange):
    """A range that refuses a cell-by-cell walk."""

    def __iter__(self):
        raise AssertionError("walked a whole range")

    def contains(self, cell):
        raise AssertionError("tested a cell against a whole range")


@settings(deadline=None)
@given(old=ranges, new=ranges)
def test_rqi_move_walks_only_the_difference(old, new):
    """The move reads the two ranges' bounds only: neither is walked or
    asked about a cell, yet the buckets are those of remove + add."""
    moved, redone = ReverseQueryIndex(), ReverseQueryIndex()
    moved.add(0, old)
    redone.add(0, old)
    wrap = lambda r: Unwalkable(r.lo_i, r.hi_i, r.lo_j, r.hi_j)  # noqa: E731
    moved.move(0, wrap(old), wrap(new))
    redone.remove(0, old)
    redone.add(0, new)
    assert buckets(moved) == buckets(redone)


@st.composite
def shard_cases(draw):
    """A 3-shard fleet over a 10 x 10 grid (moved stripe bounds included),
    a query's old and new regions, other registrations, a dead shard, and
    cells of the old region the query lost."""
    region = st.builds(
        lambda i, j, w, h: CellRange(i, min(9, i + w), j, min(9, j + h)),
        st.integers(0, 9), st.integers(0, 9), st.integers(0, 5), st.integers(0, 5),
    )
    old = draw(region)
    cells = list(old)
    return dict(
        transfer=draw(st.sampled_from([None, (0, 1, 2), (2, 1, 1), (1, 0, 2)])),
        old=old,
        new=draw(region),
        others=draw(st.lists(st.tuples(st.integers(1, 4), region), max_size=3)),
        dead=draw(st.sampled_from([None, 0, 1, 2])),
        holes=draw(st.lists(st.sampled_from(cells), max_size=4)),
    )


def fleet(case):
    objects = [make_object(oid, 5 + 4 * oid, 25) for oid in range(10)]
    system = make_system(objects, shards=3)
    coordinator = system.server
    if case["transfer"] is not None:
        coordinator.partitioner.transfer(*case["transfer"])
    shard = coordinator.shards[0]
    for qid, region in case["others"]:
        shard._rqi_add(qid, region)
    shard._rqi_add(0, case["old"])
    for cell in case["holes"]:
        for unit in coordinator.shards:
            bucket = unit.registry.rqi._cells.get(cell)
            if bucket is not None:
                bucket.discard(0)
    if case["dead"] is not None:
        coordinator._dead[case["dead"]] = set()
    return system, shard


@settings(deadline=None)
@given(case=shard_cases())
def test_a_shard_move_leaves_the_buckets_of_remove_and_add(case):
    """Also where stripes lost cells of the old region (the holes): the
    move registers all of the new region again, as remove + add does."""
    moved, mover = fleet(case)
    redone, redoer = fleet(case)
    mover._rqi_move(0, case["old"], case["new"])
    redoer._rqi_remove(0, case["old"])
    redoer._rqi_add(0, case["new"])
    for a, b in zip(moved.server.shards, redone.server.shards):
        assert buckets(a.registry.rqi) == buckets(b.registry.rqi)
    moved.close()
    redone.close()
