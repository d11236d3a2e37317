"""Centralized baseline 1: indexing objects (paper Section 5.2).

A spatial index (R*-tree) is built over object positions.  As new object
positions arrive, the index is updated; periodically *all* queries are
evaluated against the object index.  The dominant cost is the per-object
index update, which is why the paper observes an almost constant server
load that only slightly increases with the number of queries.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.query import MovingQuery, QueryId
from repro.geometry import Point, Rect
from repro.mobility.model import MovingObject, ObjectId
from repro.spatial import RStarTree


class ObjectIndexEngine:
    """R*-tree over object positions with full periodic query evaluation."""

    name = "object-index"

    def __init__(self) -> None:
        self._tree = RStarTree()
        self._indexed_pos: dict[ObjectId, Point] = {}

    def apply_position(self, oid: ObjectId, pos: Point) -> None:
        """Ingest a (new) position for an object, updating the index."""
        old = self._indexed_pos.get(oid)
        if old is not None:
            if old == pos:
                return
            self._tree.update(_point_rect(old), _point_rect(pos), oid)
        else:
            self._tree.insert(_point_rect(pos), oid)
        self._indexed_pos[oid] = pos

    def evaluate(
        self,
        queries: Mapping[QueryId, MovingQuery],
        positions: Mapping[ObjectId, Point],
        objects: Mapping[ObjectId, MovingObject],
    ) -> dict[QueryId, set[ObjectId]]:
        """Evaluate every query against the object index."""
        results: dict[QueryId, set[ObjectId]] = {}
        for qid, query in queries.items():
            if query.oid is None:
                region = query.region  # static query
            else:
                focal_pos = positions.get(query.oid)
                if focal_pos is None:
                    results[qid] = set()
                    continue
                region = query.region_at(focal_pos)
            members: set[ObjectId] = set()
            for oid in self._tree.search(region.bounding_rect()):
                if oid == query.oid:
                    continue
                if region.contains(self._indexed_pos[oid]) and query.filter.matches(
                    objects[oid].props
                ):
                    members.add(oid)
            results[qid] = members
        return results

    @property
    def node_visits(self) -> int:
        """Lifetime R*-tree nodes read by this engine's updates and searches."""
        return self._tree.node_visits

    def __len__(self) -> int:
        return len(self._tree)


def _point_rect(pos: Point) -> Rect:
    return Rect(pos.x, pos.y, 0.0, 0.0)
