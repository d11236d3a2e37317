"""An R*-tree (Beckmann, Kriegel, Schneider, Seeger; SIGMOD 1990).

The paper's two centralized baselines both index with an R*-tree: the
*object index* approach indexes object positions (points), the *query index*
approach indexes query regions (rectangles).  This is a from-scratch,
dependency-free implementation of the classic algorithm:

- **ChooseSubtree** picks the child needing least *overlap* enlargement at
  the level just above the leaves and least *area* enlargement higher up.
- **OverflowTreatment** performs *forced reinsertion* of the 30% of entries
  farthest from the node's MBR center the first time a node overflows at a
  given level during one insertion, and splits otherwise.
- **Split** chooses the split axis by minimum margin sum over all
  distributions and the distribution by minimum overlap (ties: minimum area).
- **Delete** condenses the tree, reinserting orphaned subtrees at their
  original level.

The tree stores ``(rect, item)`` pairs; ``item`` may be any hashable handle
(object id, query id).  Degenerate rectangles (points) are fine.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Iterator

from repro.geometry import Point, Rect

DEFAULT_MAX_ENTRIES = 32
REINSERT_FRACTION = 0.3


class _Entry:
    """A slot in a node: either an item (leaf) or a child node (internal)."""

    __slots__ = ("rect", "child", "item")

    def __init__(self, rect: Rect, child: "_Node | None" = None, item: Hashable = None) -> None:
        self.rect = rect
        self.child = child
        self.item = item


class _Node:
    __slots__ = ("leaf", "entries")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries: list[_Entry] = []

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of this node's entries."""
        rect = self.entries[0].rect
        for entry in self.entries[1:]:
            rect = rect.union(entry.rect)
        return rect


def _enlargement(rect: Rect, other: Rect) -> float:
    """Area growth of ``rect`` needed to also cover ``other``."""
    return rect.union(other).area - rect.area


def _overlap(rect: Rect, others: list[Rect]) -> float:
    """Total intersection area of ``rect`` with each rect in ``others``."""
    total = 0.0
    for other in others:
        inter = rect.intersection(other)
        if inter is not None:
            total += inter.area
    return total


class RStarTree:
    """R*-tree over ``(Rect, item)`` pairs.

    Args:
        max_entries: node capacity ``M`` (>= 4).
        min_fill: minimum fill ratio ``m / M`` in ``(0, 0.5]``.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES, min_fill: float = 0.4) -> None:
        if max_entries < 4:
            raise ValueError(f"max_entries must be >= 4, got {max_entries}")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError(f"min_fill must be in (0, 0.5], got {min_fill}")
        self.max_entries = max_entries
        self.min_entries = max(2, int(math.floor(max_entries * min_fill)))
        self._root = _Node(leaf=True)
        self._height = 1  # number of levels; leaves are level 0
        self._size = 0
        #: Nodes read by searches and by the descents of inserts and deletes,
        #: over the tree's lifetime: the usual clock-free CPU-cost proxy.
        self.node_visits = 0

    # ------------------------------------------------------------------ API

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: Hashable) -> bool:
        return any(stored == item for _, stored in self.items())

    def insert(self, rect: Rect, item: Hashable) -> None:
        """Insert ``item`` with bounding rectangle ``rect``."""
        self._insert_entry(_Entry(rect, item=item), level=0, reinserted_levels=set())
        self._size += 1

    def insert_point(self, point: Point, item: Hashable) -> None:
        """Insert a point item (degenerate rectangle)."""
        self.insert(Rect(point.x, point.y, 0.0, 0.0), item)

    def delete(self, rect: Rect, item: Hashable) -> bool:
        """Remove the entry for ``item`` whose stored rect intersects ``rect``.

        Returns True when an entry was found and removed.
        """
        found = self._find_leaf(self._root, rect, item)
        if found is None:
            return False
        leaf, path = found
        leaf.entries = [e for e in leaf.entries if e.item != item]
        self._size -= 1
        self._condense(leaf, path)
        return True

    def update(self, old_rect: Rect, new_rect: Rect, item: Hashable) -> None:
        """Move ``item`` from ``old_rect`` to ``new_rect`` (delete + insert)."""
        if not self.delete(old_rect, item):
            raise KeyError(f"item {item!r} with rect {old_rect!r} not in tree")
        self.insert(new_rect, item)

    def search(self, rect: Rect) -> list[Hashable]:
        """All items whose stored rects intersect ``rect``."""
        out: list[Hashable] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self.node_visits += 1
            if node.leaf:
                for entry in node.entries:
                    if entry.rect.intersects(rect):
                        out.append(entry.item)
            else:
                for entry in node.entries:
                    if entry.rect.intersects(rect):
                        stack.append(entry.child)  # type: ignore[arg-type]
        return out

    def search_point(self, point: Point) -> list[Hashable]:
        """All items whose stored rects contain ``point``."""
        return self.search(Rect(point.x, point.y, 0.0, 0.0))

    def nearest(self, point: Point, k: int = 1) -> list[tuple[float, Hashable]]:
        """The ``k`` stored items nearest to ``point``.

        Classic best-first branch-and-bound over node MBRs: a priority
        queue ordered by minimum possible distance; a node is only expanded
        when no unexpanded entry can beat the current k-th best.  Returns
        ``(distance, item)`` pairs ordered by distance (fewer than ``k``
        when the tree is smaller).  Distance to a rectangle item is the
        minimum distance to the rectangle (0 inside).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if self._size == 0:
            return []
        heap: list[tuple[float, int, _Node | None, Hashable]] = []
        counter = 0  # tie-breaker: heap entries must never compare nodes
        heapq.heappush(heap, (0.0, counter, self._root, None))
        out: list[tuple[float, Hashable]] = []
        while heap and len(out) < k:
            dist, _tie, node, item = heapq.heappop(heap)
            if node is None:
                out.append((dist, item))
                continue
            self.node_visits += 1
            for entry in node.entries:
                counter += 1
                entry_dist = entry.rect.distance_to_point(point)
                if node.leaf:
                    heapq.heappush(heap, (entry_dist, counter, None, entry.item))
                else:
                    heapq.heappush(heap, (entry_dist, counter, entry.child, None))
        return out

    def items(self) -> Iterator[tuple[Rect, Hashable]]:
        """Iterate over all stored ``(rect, item)`` pairs."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                for entry in node.entries:
                    yield entry.rect, entry.item
            else:
                stack.extend(e.child for e in node.entries)  # type: ignore[misc]

    @property
    def height(self) -> int:
        """Number of levels in the tree (1 when only the root leaf exists)."""
        return self._height

    def check_invariants(self) -> None:
        """Validate structural invariants; raises AssertionError on violation.

        Used by the test suite: uniform leaf depth, MBR containment, and fill
        bounds on non-root nodes.
        """
        leaf_depths: set[int] = set()

        def visit(node: _Node, depth: int, is_root: bool) -> None:
            if not is_root:
                assert len(node.entries) >= self.min_entries, "underfull node"
            assert len(node.entries) <= self.max_entries, "overfull node"
            if node.leaf:
                leaf_depths.add(depth)
                return
            for entry in node.entries:
                assert entry.child is not None
                child_mbr = entry.child.mbr()
                assert entry.rect.contains_rect(child_mbr), "stale MBR"
                visit(entry.child, depth + 1, is_root=False)

        if self._size > 0 or self._root.entries:
            visit(self._root, 0, is_root=True)
            assert len(leaf_depths) <= 1, "non-uniform leaf depth"

    # ------------------------------------------------------------ insertion

    def _node_level(self, path_len: int) -> int:
        """Level of a node reached by a root path of ``path_len`` edges."""
        return self._height - 1 - path_len

    def _insert_entry(self, new_entry: _Entry, level: int, reinserted_levels: set[int]) -> None:
        node, path = self._choose_path(new_entry.rect, level)
        node.entries.append(new_entry)
        self._adjust_path_rects(path, new_entry.rect)
        if len(node.entries) > self.max_entries:
            self._overflow(node, path, level, reinserted_levels)

    def _choose_path(self, rect: Rect, level: int) -> tuple[_Node, list[tuple[_Node, _Entry]]]:
        """Descend from the root to a node at ``level``, recording the path.

        Returns the target node and the list of ``(parent, entry)`` hops
        taken, ordered from root downward.
        """
        node = self._root
        path: list[tuple[_Node, _Entry]] = []
        current_level = self._height - 1
        while current_level > level:
            entry = self._pick_child(node, rect, target_is_leaf=(current_level - 1 == 0))
            path.append((node, entry))
            node = entry.child  # type: ignore[assignment]
            current_level -= 1
        self.node_visits += len(path) + 1
        return node, path

    def _pick_child(self, node: _Node, rect: Rect, target_is_leaf: bool) -> _Entry:
        entries = node.entries
        if target_is_leaf:
            # Minimum overlap enlargement; ties by area enlargement then area.
            best = None
            best_key = None
            sibling_rects = [e.rect for e in entries]
            for idx, entry in enumerate(entries):
                enlarged = entry.rect.union(rect)
                others = sibling_rects[:idx] + sibling_rects[idx + 1 :]
                overlap_growth = _overlap(enlarged, others) - _overlap(entry.rect, others)
                key = (overlap_growth, _enlargement(entry.rect, rect), entry.rect.area)
                if best_key is None or key < best_key:
                    best, best_key = entry, key
            return best  # type: ignore[return-value]
        best = None
        best_key = None
        for entry in entries:
            key = (_enlargement(entry.rect, rect), entry.rect.area)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best  # type: ignore[return-value]

    def _adjust_path_rects(self, path: list[tuple[_Node, _Entry]], rect: Rect) -> None:
        for _parent, entry in path:
            entry.rect = entry.rect.union(rect)

    def _overflow(
        self,
        node: _Node,
        path: list[tuple[_Node, _Entry]],
        level: int,
        reinserted_levels: set[int],
    ) -> None:
        is_root = not path
        if not is_root and level not in reinserted_levels:
            reinserted_levels.add(level)
            self._reinsert(node, path, level, reinserted_levels)
        else:
            self._split(node, path, level, reinserted_levels)

    def _reinsert(
        self,
        node: _Node,
        path: list[tuple[_Node, _Entry]],
        level: int,
        reinserted_levels: set[int],
    ) -> None:
        center = node.mbr().center
        node.entries.sort(key=lambda e: e.rect.center.distance_squared_to(center))
        count = max(1, int(round(len(node.entries) * REINSERT_FRACTION)))
        evicted = node.entries[-count:]
        del node.entries[-count:]
        self._refresh_path_rects(path)
        # Reinsert farthest-first ("far reinsert" variant of the paper).
        for entry in evicted:
            self._insert_entry(entry, level, reinserted_levels)

    def _refresh_path_rects(self, path: list[tuple[_Node, _Entry]]) -> None:
        """Recompute exact MBRs bottom-up along a root path."""
        for _parent, entry in reversed(path):
            entry.rect = entry.child.mbr()  # type: ignore[union-attr]

    def _split(
        self,
        node: _Node,
        path: list[tuple[_Node, _Entry]],
        level: int,
        reinserted_levels: set[int],
    ) -> None:
        group_a, group_b = self._choose_split(node.entries)
        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b

        if not path:
            # Root split: grow the tree by one level.
            new_root = _Node(leaf=False)
            new_root.entries = [
                _Entry(node.mbr(), child=node),
                _Entry(sibling.mbr(), child=sibling),
            ]
            self._root = new_root
            self._height += 1
            return

        parent, entry = path[-1]
        entry.rect = node.mbr()
        parent.entries.append(_Entry(sibling.mbr(), child=sibling))
        self._refresh_path_rects(path[:-1])
        if len(parent.entries) > self.max_entries:
            self._overflow(parent, path[:-1], level + 1, reinserted_levels)

    def _choose_split(self, entries: list[_Entry]) -> tuple[list[_Entry], list[_Entry]]:
        """R* split: pick axis by min margin-sum, distribution by min overlap."""
        m = self.min_entries
        best_axis_entries: list[_Entry] | None = None
        best_margin = math.inf

        for axis in ("x", "y"):
            if axis == "x":
                by_lower = sorted(entries, key=lambda e: (e.rect.lx, e.rect.ux))
                by_upper = sorted(entries, key=lambda e: (e.rect.ux, e.rect.lx))
            else:
                by_lower = sorted(entries, key=lambda e: (e.rect.ly, e.rect.uy))
                by_upper = sorted(entries, key=lambda e: (e.rect.uy, e.rect.ly))
            for ordering in (by_lower, by_upper):
                margin = 0.0
                for k in range(m, len(entries) - m + 1):
                    left = _mbr_of(ordering[:k])
                    right = _mbr_of(ordering[k:])
                    margin += left.perimeter + right.perimeter
                if margin < best_margin:
                    best_margin = margin
                    best_axis_entries = ordering

        assert best_axis_entries is not None
        best_split = None
        best_key = None
        for k in range(m, len(entries) - m + 1):
            left = best_axis_entries[:k]
            right = best_axis_entries[k:]
            left_mbr = _mbr_of(left)
            right_mbr = _mbr_of(right)
            inter = left_mbr.intersection(right_mbr)
            overlap_area = inter.area if inter is not None else 0.0
            key = (overlap_area, left_mbr.area + right_mbr.area)
            if best_key is None or key < best_key:
                best_key = key
                best_split = (list(left), list(right))
        assert best_split is not None
        return best_split

    # ------------------------------------------------------------- deletion

    def _find_leaf(
        self, node: _Node, rect: Rect, item: Hashable, path: list[tuple[_Node, _Entry]] | None = None
    ) -> tuple[_Node, list[tuple[_Node, _Entry]]] | None:
        if path is None:
            path = []
        self.node_visits += 1
        if node.leaf:
            for entry in node.entries:
                if entry.item == item and entry.rect.intersects(rect):
                    return node, list(path)
            return None
        for entry in node.entries:
            if entry.rect.intersects(rect):
                path.append((node, entry))
                found = self._find_leaf(entry.child, rect, item, path)  # type: ignore[arg-type]
                if found is not None:
                    return found
                path.pop()
        return None

    def _condense(self, node: _Node, path: list[tuple[_Node, _Entry]]) -> None:
        # Collect orphaned entries (with the level they must re-enter at)
        # while removing underfull nodes bottom-up.
        orphans: list[tuple[_Entry, int]] = []
        current = node
        current_path = list(path)
        while current_path:
            parent, entry = current_path[-1]
            level = self._node_level(len(current_path))
            if len(current.entries) < self.min_entries:
                parent.entries.remove(entry)
                orphans.extend((e, level) for e in current.entries)
            else:
                entry.rect = current.mbr() if current.entries else entry.rect
            current = parent
            current_path.pop()
            # refresh the parent's own entry rect on the next loop turn
        # Shrink the root if it lost all but one child.
        while not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child  # type: ignore[assignment]
            self._height -= 1
        if not self._root.leaf and not self._root.entries:
            self._root = _Node(leaf=True)
            self._height = 1
        # Reinsert orphans at their original levels (deepest first so the
        # tree height is stable while higher orphans go back in).
        orphans.sort(key=lambda pair: pair[1])
        for entry, level in orphans:
            if entry.child is not None:
                self._reinsert_subtree(entry, level)
            else:
                self._insert_entry(entry, 0, reinserted_levels=set())

    def _reinsert_subtree(self, entry: _Entry, level: int) -> None:
        if level >= self._height - 1:
            # The tree shrank below this subtree's level; reinsert its leaves.
            for rect, item in _subtree_items(entry.child):  # type: ignore[arg-type]
                self._insert_entry(_Entry(rect, item=item), 0, reinserted_levels=set())
        else:
            self._insert_entry(entry, level, reinserted_levels=set())


def _mbr_of(entries: list[_Entry]) -> Rect:
    rect = entries[0].rect
    for entry in entries[1:]:
        rect = rect.union(entry.rect)
    return rect


def _subtree_items(node: _Node) -> Iterator[tuple[Rect, Hashable]]:
    stack = [node]
    while stack:
        current = stack.pop()
        if current.leaf:
            for entry in current.entries:
                yield entry.rect, entry.item
        else:
            stack.extend(e.child for e in current.entries)  # type: ignore[misc]
