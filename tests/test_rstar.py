"""Unit tests for the R*-tree."""

import pytest

from repro.geometry import Point, Rect
from repro.spatial import RStarTree


def rect_at(x, y, w=0.0, h=0.0):
    return Rect(float(x), float(y), w, h)


class TestConstruction:
    def test_empty_tree(self):
        tree = RStarTree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.search(Rect(0, 0, 100, 100)) == []

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=3)

    def test_invalid_min_fill(self):
        with pytest.raises(ValueError):
            RStarTree(min_fill=0.6)
        with pytest.raises(ValueError):
            RStarTree(min_fill=0.0)


class TestInsertSearch:
    def test_single_item(self):
        tree = RStarTree()
        tree.insert(rect_at(5, 5), "a")
        assert tree.search(Rect(0, 0, 10, 10)) == ["a"]
        assert len(tree) == 1

    def test_point_helpers(self):
        tree = RStarTree()
        tree.insert_point(Point(3, 4), "p")
        assert tree.search_point(Point(3, 4)) == ["p"]
        assert tree.search_point(Point(3.1, 4)) == []

    def test_search_misses_disjoint(self):
        tree = RStarTree()
        tree.insert(rect_at(5, 5), "a")
        assert tree.search(Rect(6, 6, 1, 1)) == []

    def test_search_boundary_touch_hits(self):
        tree = RStarTree()
        tree.insert(Rect(0, 0, 5, 5), "a")
        assert tree.search(Rect(5, 5, 1, 1)) == ["a"]

    def test_many_inserts_split_root(self):
        tree = RStarTree(max_entries=4)
        for i in range(50):
            tree.insert(rect_at(i, i), i)
        assert tree.height > 1
        assert len(tree) == 50
        tree.check_invariants()
        assert sorted(tree.search(Rect(0, 0, 49, 49))) == list(range(50))

    def test_duplicate_rects_different_items(self):
        tree = RStarTree(max_entries=4)
        for i in range(20):
            tree.insert(rect_at(1, 1), i)
        assert sorted(tree.search_point(Point(1, 1))) == list(range(20))

    def test_items_iterates_everything(self):
        tree = RStarTree(max_entries=4)
        for i in range(30):
            tree.insert(rect_at(i, 2 * i), i)
        assert sorted(item for _, item in tree.items()) == list(range(30))

    def test_contains(self):
        tree = RStarTree()
        tree.insert(rect_at(1, 1), "x")
        assert "x" in tree
        assert "y" not in tree


class TestDelete:
    def test_delete_existing(self):
        tree = RStarTree()
        tree.insert(rect_at(1, 1), "a")
        assert tree.delete(rect_at(1, 1), "a")
        assert len(tree) == 0
        assert tree.search_point(Point(1, 1)) == []

    def test_delete_missing_returns_false(self):
        tree = RStarTree()
        tree.insert(rect_at(1, 1), "a")
        assert not tree.delete(rect_at(2, 2), "b")
        assert len(tree) == 1

    def test_delete_shrinks_tree(self):
        tree = RStarTree(max_entries=4)
        rects = {i: rect_at(i % 10, i // 10) for i in range(60)}
        for i, r in rects.items():
            tree.insert(r, i)
        tall = tree.height
        for i in list(rects)[:55]:
            assert tree.delete(rects[i], i)
        tree.check_invariants()
        assert len(tree) == 5
        assert tree.height <= tall
        assert sorted(tree.search(Rect(0, 0, 10, 10))) == list(range(55, 60))

    def test_delete_all_then_reuse(self):
        tree = RStarTree(max_entries=4)
        for i in range(25):
            tree.insert(rect_at(i, 0), i)
        for i in range(25):
            assert tree.delete(rect_at(i, 0), i)
        assert len(tree) == 0
        tree.insert(rect_at(1, 1), "fresh")
        assert tree.search_point(Point(1, 1)) == ["fresh"]

    def test_update_moves_item(self):
        tree = RStarTree()
        tree.insert(rect_at(1, 1), "m")
        tree.update(rect_at(1, 1), rect_at(9, 9), "m")
        assert tree.search_point(Point(1, 1)) == []
        assert tree.search_point(Point(9, 9)) == ["m"]

    def test_update_missing_raises(self):
        tree = RStarTree()
        with pytest.raises(KeyError):
            tree.update(rect_at(0, 0), rect_at(1, 1), "ghost")


class TestStructure:
    def test_invariants_after_mixed_workload(self):
        tree = RStarTree(max_entries=6)
        live = {}
        for i in range(200):
            r = rect_at((i * 37) % 100, (i * 61) % 100, (i % 5) * 0.5, (i % 3) * 0.5)
            tree.insert(r, i)
            live[i] = r
            if i % 3 == 0 and i > 10:
                victim = i - 7
                assert tree.delete(live.pop(victim), victim)
        tree.check_invariants()
        assert len(tree) == len(live)

    def test_search_equals_brute_force_on_grid_workload(self):
        tree = RStarTree(max_entries=8)
        live = {}
        for i in range(150):
            r = rect_at((i * 13) % 40, (i * 29) % 40, 1.0, 1.0)
            tree.insert(r, i)
            live[i] = r
        for probe in (Rect(0, 0, 10, 10), Rect(15, 15, 10, 10), Rect(35, 0, 5, 40)):
            got = sorted(tree.search(probe))
            want = sorted(i for i, r in live.items() if r.intersects(probe))
            assert got == want

    def test_height_grows_logarithmically(self):
        tree = RStarTree(max_entries=8)
        for i in range(500):
            tree.insert(rect_at(i % 50, i // 50), i)
        # 500 items at fanout >= 4 must fit in a handful of levels.
        assert tree.height <= 6


class TestNodeVisits:
    """The clock-free cost the centralized baselines report as server ops."""

    def test_an_empty_search_reads_the_root_only(self):
        tree = RStarTree()
        tree.search(rect_at(0, 0, 1, 1))
        assert tree.node_visits == 1

    def test_searches_and_updates_read_nodes_and_the_count_only_goes_up(self):
        tree = RStarTree(max_entries=8)
        for i in range(300):
            tree.insert(rect_at(i % 20, i // 20), i)
        seen = [tree.node_visits]
        tree.search(Rect(0, 0, 3, 3))
        seen.append(tree.node_visits)
        assert seen[-1] - seen[-2] >= tree.height  # root to a leaf at least
        tree.search(Rect(0, 0, 20, 15))  # everything: every node
        seen.append(tree.node_visits)
        assert seen[-1] - seen[-2] > seen[-2] - seen[-3]
        tree.update(rect_at(0, 0), rect_at(19, 14), 0)  # a delete and an insert descent
        seen.append(tree.node_visits)
        assert seen[-1] - seen[-2] >= 2 * tree.height
        tree.nearest(Point(5, 5), k=3)
        seen.append(tree.node_visits)
        assert seen == sorted(set(seen))

    def test_the_count_repeats_exactly(self):
        def build():
            tree = RStarTree(max_entries=6)
            for i in range(120):
                tree.insert(rect_at((i * 37) % 50, (i * 61) % 50), i)
            for i in range(0, 120, 3):
                tree.update(rect_at((i * 37) % 50, (i * 61) % 50), rect_at(i % 50, i % 7), i)
            tree.search(Rect(10, 10, 20, 20))
            return tree.node_visits

        assert build() == build()
