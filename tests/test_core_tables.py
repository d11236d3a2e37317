"""Tests for the FOT / SQT / RQI / LQT tables.

The FOT is the :class:`FocalTracker`'s own dict and the SQT the
:class:`QueryRegistry`'s (PR 19 folded the table classes into their
owners); ``TestFocalObjectTable`` / ``TestServerQueryTable`` keep their
ids and hold the owners to the table contract.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FocalTracker,
    LocalQueryTable,
    LqtEntry,
    QueryRegistry,
    ReverseQueryIndex,
    SqtEntry,
    TrueFilter,
)
from repro.geometry import Circle, Point, Vector
from repro.grid import CellRange
from repro.mobility import MotionState


def state(x=0.0, y=0.0):
    return MotionState(pos=Point(x, y), vel=Vector(0, 0), recorded_at=0.0)


def sqt_entry(qid=1, oid=10, r=2.0, region=None):
    return SqtEntry(
        qid=qid,
        oid=oid,
        region=Circle(0, 0, r),
        filter=TrueFilter(),
        curr_cell=(0, 0),
        mon_region=region or CellRange(0, 1, 0, 1),
    )


def lqt_entry(qid=1, oid=10, r=2.0):
    return LqtEntry(
        qid=qid,
        oid=oid,
        region=Circle(0, 0, r),
        filter=TrueFilter(),
        focal_state=state(),
        focal_max_speed=100.0,
        mon_region=CellRange(0, 1, 0, 1),
    )


cells = st.tuples(st.integers(0, 8), st.integers(0, 8))
cell_ranges = st.tuples(
    st.integers(0, 5), st.integers(0, 3), st.integers(0, 5), st.integers(0, 3)
).map(lambda t: CellRange(t[0], t[0] + t[1], t[2], t[2] + t[3]))


class TestFocalObjectTable:
    def test_upsert_and_get(self):
        fot = FocalTracker()
        fot.upsert(1, state(1, 1), max_speed=50.0)
        assert 1 in fot
        assert fot.get(1).state.pos == Point(1, 1)
        assert len(fot) == 1

    def test_upsert_updates_existing(self):
        fot = FocalTracker()
        fot.upsert(1, state(1, 1), 50.0)
        fot.upsert(1, state(2, 2), 60.0)
        assert fot.get(1).state.pos == Point(2, 2)
        assert fot.get(1).max_speed == 60.0
        assert len(fot) == 1

    def test_update_state(self):
        fot = FocalTracker()
        fot.upsert(1, state(1, 1), 50.0)
        fot.update_state(1, state(3, 3))
        assert fot.get(1).state.pos == Point(3, 3)

    def test_remove(self):
        fot = FocalTracker()
        fot.upsert(1, state(), 50.0)
        fot.remove(1)
        assert 1 not in fot


class TestServerQueryTable:
    def test_add_and_get(self):
        sqt = QueryRegistry()
        sqt.add(sqt_entry(qid=1))
        assert 1 in sqt
        assert sqt.get(1).oid == 10

    def test_duplicate_qid_rejected(self):
        sqt = QueryRegistry()
        sqt.add(sqt_entry(qid=1))
        with pytest.raises(ValueError):
            sqt.add(sqt_entry(qid=1))

    def test_queries_of_focal_sorted(self):
        sqt = QueryRegistry()
        sqt.add(sqt_entry(qid=3, oid=10))
        sqt.add(sqt_entry(qid=1, oid=10))
        sqt.add(sqt_entry(qid=2, oid=20))
        assert [e.qid for e in sqt.queries_of_focal(10)] == [1, 3]

    def test_is_focal(self):
        sqt = QueryRegistry()
        sqt.add(sqt_entry(qid=1, oid=10))
        assert sqt.is_focal(10)
        assert not sqt.is_focal(11)

    def test_remove_clears_focal_when_last(self):
        sqt = QueryRegistry()
        sqt.add(sqt_entry(qid=1, oid=10))
        sqt.add(sqt_entry(qid=2, oid=10))
        sqt.remove(1)
        assert sqt.is_focal(10)
        sqt.remove(2)
        assert not sqt.is_focal(10)
        assert len(sqt) == 0


class TestRegistryOwnership:
    """What the coordinator's ownership lookups rely on: ``add``,
    ``release`` and ``remove`` keep the SQT and the focal grouping exact."""

    def test_release_keeps_subscriptions_and_remove_drops_them(self):
        book = {}
        source, target = QueryRegistry(book), QueryRegistry(book)
        source.add(sqt_entry(qid=1))
        seen = []
        source.subscribe(1, lambda qid, oid, entered: seen.append((qid, oid, entered)))
        target.add(source.release(1))  # a cross-shard handoff
        assert 1 not in source and 1 in target
        target.notify(1, 7, True)
        assert seen == [(1, 7, True)]
        target.remove(1)
        assert 1 not in book
        target.notify(1, 7, False)
        assert seen == [(1, 7, True)]

    def test_duplicate_add_raises_before_any_callback_or_index_write(self):
        registry = QueryRegistry()
        first = sqt_entry(qid=1, oid=10)
        registry.add(first)
        with pytest.raises(ValueError, match="duplicate query id 1"):
            registry.add(sqt_entry(qid=1, oid=20))
        assert registry.get(1) is first
        assert not registry.is_focal(20)
        assert [e.qid for e in registry.queries_of_focal(10)] == [1]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "release", "remove"]),
                st.integers(1, 6),  # qid
                st.sampled_from([None, 10, 20, 30]),  # focal of an add
            ),
            max_size=40,
        )
    )
    def test_any_sequence_matches_a_plain_dict_model(self, ops):
        registry = QueryRegistry()
        model = {}  # qid -> entry
        for op, qid, oid in ops:
            if op == "add":
                if qid in model:
                    with pytest.raises(ValueError):
                        registry.add(sqt_entry(qid=qid, oid=oid))
                else:
                    model[qid] = sqt_entry(qid=qid, oid=oid)
                    registry.add(model[qid])
            elif qid not in model:
                with pytest.raises(KeyError):
                    getattr(registry, op)(qid)
            else:
                entry = model.pop(qid)
                focal_left = entry.oid is None or any(e.oid == entry.oid for e in model.values())
                out = getattr(registry, op)(qid)
                assert out == ((entry, focal_left) if op == "remove" else entry)
            assert len(registry) == len(model)
            assert list(registry.ids()) == sorted(model)
            assert list(registry.entries()) == [model[q] for q in sorted(model)]
            for focal in (10, 20, 30):
                owned = [model[q] for q in sorted(model) if model[q].oid == focal]
                assert registry.queries_of_focal(focal) == owned
                assert registry.is_focal(focal) == bool(owned)
            assert list(registry.focal_ids()) == sorted(
                {e.oid for e in model.values() if e.oid is not None}
            )
            for q in range(1, 7):
                assert (q in registry) == (q in model)


class TestReverseQueryIndex:
    def test_add_registers_all_cells(self):
        rqi = ReverseQueryIndex()
        rqi.add(1, CellRange(0, 1, 0, 1))
        for cell in CellRange(0, 1, 0, 1):
            assert 1 in rqi.queries_at(cell)

    def test_queries_at_empty_cell(self):
        assert ReverseQueryIndex().queries_at((5, 5)) == frozenset()

    def test_remove(self):
        rqi = ReverseQueryIndex()
        rqi.add(1, CellRange(0, 1, 0, 1))
        rqi.remove(1, CellRange(0, 1, 0, 1))
        assert rqi.queries_at((0, 0)) == frozenset()
        assert list(rqi.nonempty_cells()) == []

    def test_move(self):
        rqi = ReverseQueryIndex()
        rqi.add(1, CellRange(0, 0, 0, 0))
        rqi.move(1, CellRange(0, 0, 0, 0), CellRange(3, 3, 3, 3))
        assert rqi.queries_at((0, 0)) == frozenset()
        assert rqi.queries_at((3, 3)) == frozenset({1})

    def test_multiple_queries_per_cell(self):
        rqi = ReverseQueryIndex()
        rqi.add(1, CellRange(0, 0, 0, 0))
        rqi.add(2, CellRange(0, 0, 0, 0))
        assert rqi.queries_at((0, 0)) == frozenset({1, 2})

    def test_fresh_ids_between_is_new_minus_prev_ascending(self):
        rqi = ReverseQueryIndex()
        for qid in (9, 3, 7):
            rqi.add(qid, CellRange(1, 1, 0, 0))
        rqi.add(7, CellRange(0, 0, 0, 0))
        assert rqi.fresh_ids_between((0, 0), (1, 0)) == [3, 9]
        assert rqi.fresh_ids_between((5, 5), (1, 0)) == [3, 7, 9]  # empty prev cell
        assert rqi.fresh_ids_between((1, 0), (0, 0)) == []
        assert rqi.fresh_ids_between((1, 0), (5, 5)) == []  # empty new cell


class TestLocalQueryTable:
    def test_install_and_lookup(self):
        lqt = LocalQueryTable()
        lqt.install(lqt_entry(qid=1))
        assert 1 in lqt
        assert lqt.get(1).oid == 10
        assert len(lqt) == 1

    def test_remove_returns_entry(self):
        lqt = LocalQueryTable()
        entry = lqt_entry(qid=1)
        lqt.install(entry)
        assert lqt.remove(1) is entry
        assert lqt.remove(1) is None

    def test_by_focal_groups_and_sorts_by_radius_desc(self):
        lqt = LocalQueryTable()
        lqt.install(lqt_entry(qid=1, oid=10, r=1.0))
        lqt.install(lqt_entry(qid=2, oid=10, r=5.0))
        lqt.install(lqt_entry(qid=3, oid=20, r=2.0))
        groups = lqt.by_focal()
        assert set(groups) == {10, 20}
        assert [e.qid for e in groups[10]] == [2, 1]  # radius 5 before 1

    def test_from_descriptor(self):
        from repro.core.messages import QueryDescriptor

        desc = QueryDescriptor(
            qid=4,
            oid=9,
            region=Circle(0, 0, 1.5),
            filter=TrueFilter(),
            focal_state=state(2, 2),
            focal_max_speed=80.0,
            mon_region=CellRange(1, 2, 1, 2),
        )
        entry = LqtEntry.from_descriptor(desc)
        assert entry.qid == 4
        assert entry.focal_max_speed == 80.0
        assert entry.is_target is False
        assert entry.ptm == 0.0

    def test_a_pickled_entry_leaves_its_arena_handles_behind(self):
        """A checkpoint carries every field of an entry but the batch
        evaluator's handles: restore re-places each entry, so an unpickled
        one comes back unplaced (-1) and otherwise equal."""
        entry = lqt_entry(qid=3, oid=7, r=2.5)
        entry.is_target, entry.ptm = True, 1.25
        entry.arena_slot = 11
        copy = pickle.loads(pickle.dumps(entry, pickle.HIGHEST_PROTOCOL))
        assert copy == entry and copy.reach == entry.reach == 2.5
        assert (copy.is_target, copy.ptm) == (True, 1.25)
        assert copy.arena_slot == -1
        assert b"arena" not in pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)

    def test_by_focal_keeps_table_order_among_equal_reaches(self):
        lqt = LocalQueryTable()
        for qid, r in ((1, 2.0), (2, 5.0), (3, 2.0), (4, 5.0), (5, 1.0)):
            lqt.install(lqt_entry(qid=qid, oid=10, r=r))
        assert [e.qid for e in lqt.by_focal()[10]] == [2, 4, 1, 3, 5]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("install"), st.integers(1, 5), cell_ranges),
                st.tuples(st.just("remove"), st.integers(1, 5)),
                st.tuples(st.just("refresh"), st.integers(1, 5), cell_ranges),
                st.tuples(st.just("set_focal_state"), st.integers(1, 5), st.integers(0, 9)),
                # What evaluation writes: a safe period and a result flag.
                st.tuples(st.just("evaluate"), st.integers(1, 5), st.booleans()),
                st.tuples(st.just("void_safe_periods")),
                st.tuples(st.just("drop_uncovered"), cells),
            ),
            max_size=40,
        )
    )
    def test_any_sequence_matches_a_plain_dict_model(self, ops):
        """Installs, removes, the in-place rewrites and the drop scan
        against a plain dict: the entries, the hull, the drops and their
        leaves, the voided ``ptm`` and the watcher calls all agree."""
        from repro.core.messages import QueryDescriptor

        lqt = LocalQueryTable()
        calls = []
        lqt.watch(RecordingWatcher(calls), 7)
        model = {}  # qid -> (mon_region, focal x, ptm, is_target), install order
        for op in ops:
            kind, args = op[0], op[1:]
            entry = lqt.find(args[0]) if args and kind != "drop_uncovered" else None
            expected = []
            if kind == "install":
                qid, region = args
                fresh = lqt_entry(qid=qid)
                fresh.mon_region = region
                if qid in model:
                    # A held query is refused: no watcher call, no change.
                    with pytest.raises(ValueError):
                        lqt.install(fresh)
                else:
                    expected = [("lqt_changed", qid, 1)]
                    lqt.install(fresh)
                    model[qid] = (region, 0.0, 0.0, False)
            elif kind == "remove":
                if args[0] in model:
                    expected = [("lqt_changed", args[0], -1)]
                    del model[args[0]]
                lqt.remove(args[0])
            elif entry is not None and kind == "refresh":
                qid, region = args
                desc = QueryDescriptor(
                    qid=qid,
                    oid=entry.oid,
                    region=entry.region,
                    filter=entry.filter,
                    focal_state=state(9.0),
                    focal_max_speed=entry.focal_max_speed,
                    mon_region=region,
                )
                expected = [("state_changed", qid)]
                lqt.refresh(entry, desc)
                model[qid] = (region, 9.0, 0.0, model[qid][3])
            elif entry is not None and kind == "set_focal_state":
                qid, x = args
                expected = [("state_changed", qid)]
                lqt.set_focal_state(entry, state(x))
                model[qid] = (model[qid][0], x, 0.0, model[qid][3])
            elif entry is not None and kind == "evaluate":
                qid, flag = args
                entry.ptm, entry.is_target = 0.5, flag
                model[qid] = (model[qid][0], model[qid][1], 0.5, flag)
            elif kind == "void_safe_periods":
                expected = [("state_changed", qid) for qid, m in model.items() if m[2]]
                lqt.void_safe_periods()
                model = {qid: (m[0], m[1], 0.0, m[3]) for qid, m in model.items()}
            elif kind == "drop_uncovered":
                (cell,) = args
                dropped = [qid for qid, m in model.items() if not m[0].contains(cell)]
                expected = [("lqt_changed", qid, -1) for qid in dropped]
                leaves = {qid: False for qid in dropped if model[qid][3]}
                assert lqt.drop_uncovered(cell) == leaves
                for qid in dropped:
                    del model[qid]
            assert calls == expected, op
            calls.clear()
            if entry is not None and kind in ("refresh", "set_focal_state"):
                assert entry.ptm == 0.0
            assert {
                e.qid: (e.mon_region, e.focal_state.pos.x, e.ptm, e.is_target)
                for e in lqt.entries()
            } == model
            assert lqt.ids() == list(model)
            # The hull lies inside every live entry's bounds.
            for region, *_ in model.values():
                assert region.lo_i <= lqt.hull_lo_i and lqt.hull_hi_i <= region.hi_i
                assert region.lo_j <= lqt.hull_lo_j and lqt.hull_hi_j <= region.hi_j


class RecordingWatcher:
    """An LQT watcher that records every hook call, in order."""

    def __init__(self, calls):
        self.calls = calls

    def lqt_changed(self, oid, entry, delta):
        assert oid == 7
        self.calls.append(("lqt_changed", entry.qid, delta))

    def state_changed(self, entry):
        self.calls.append(("state_changed", entry.qid))
