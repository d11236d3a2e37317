"""Centralized baseline 2: indexing queries (paper Section 5.2).

A spatial index (R*-tree) is built over the queries' spatial regions
(bounding rectangles of the circles centered at the focal objects' current
positions).  When a focal object's position changes, the query index is
updated.  When an object position arrives, it is *probed* through the query
index to find the queries it now contributes to, enabling differential
result maintenance.  The dominant cost is the query-index update on focal
movement, which grows with the number of queries.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.query import MovingQuery, QueryId
from repro.geometry import Point, Rect
from repro.mobility.model import MovingObject, ObjectId
from repro.spatial import RStarTree


class QueryIndexEngine:
    """R*-tree over query regions with differential result maintenance."""

    name = "query-index"

    def __init__(self) -> None:
        self._tree = RStarTree()
        self._query_rects: dict[QueryId, Rect] = {}
        self._queries: dict[QueryId, MovingQuery] = {}
        self._focal_pos: dict[ObjectId, Point] = {}
        self._queries_of_focal: dict[ObjectId, set[QueryId]] = {}
        # Differential state: which queries currently include each object.
        self._memberships: dict[ObjectId, set[QueryId]] = {}
        self._results: dict[QueryId, set[ObjectId]] = {}

    # ---------------------------------------------------------- queries

    def add_query(self, query: MovingQuery, focal_pos: Point | None) -> None:
        """Register a query in the index."""
        rect = query.region_at(focal_pos).bounding_rect()
        self._tree.insert(rect, query.qid)
        self._query_rects[query.qid] = rect
        self._queries[query.qid] = query
        if query.oid is not None:
            if focal_pos is None:
                raise ValueError("a moving query needs a focal position")
            self._focal_pos[query.oid] = focal_pos
            self._queries_of_focal.setdefault(query.oid, set()).add(query.qid)
        self._results[query.qid] = set()

    def remove_query(self, qid: QueryId) -> None:
        """Uninstall a query everywhere it is known."""
        query = self._queries.pop(qid)
        self._tree.delete(self._query_rects.pop(qid), qid)
        if query.oid is not None:
            group = self._queries_of_focal[query.oid]
            group.discard(qid)
            if not group:
                del self._queries_of_focal[query.oid]
                self._focal_pos.pop(query.oid, None)
        self._results.pop(qid, None)
        for membership in self._memberships.values():
            membership.discard(qid)

    # --------------------------------------------------------- positions

    def update_focal(self, oid: ObjectId, pos: Point) -> None:
        """Move the rects of the queries bound to a focal object.

        Call this for every focal position change *before* probing object
        positions for the step, so probes see consistent query regions.
        """
        qids = self._queries_of_focal.get(oid)
        if not qids:
            return
        self._focal_pos[oid] = pos
        for qid in qids:
            new_rect = self._queries[qid].region_at(pos).bounding_rect()
            self._tree.update(self._query_rects[qid], new_rect, qid)
            self._query_rects[qid] = new_rect

    def is_focal(self, oid: ObjectId) -> bool:
        """Whether this object is the focal object of some query."""
        return oid in self._queries_of_focal

    def probe(self, oid: ObjectId, pos: Point, obj: MovingObject) -> None:
        """Run an object position through the query index, differentially
        updating the results of the queries it enters or leaves."""
        self._probe(oid, pos, obj)

    def _probe(self, oid: ObjectId, pos: Point, obj: MovingObject) -> None:
        hits: set[QueryId] = set()
        for qid in self._tree.search_point(pos):
            query = self._queries[qid]
            if query.oid == oid:
                continue
            if query.oid is None:
                region = query.region  # static query
            else:
                region = query.region_at(self._focal_pos[query.oid])
            if region.contains(pos) and query.filter.matches(obj.props):
                hits.add(qid)
        previous = self._memberships.get(oid, set())
        for qid in previous - hits:
            self._results[qid].discard(oid)
        for qid in hits - previous:
            self._results[qid].add(oid)
        self._memberships[oid] = hits

    # ------------------------------------------------------------ results

    def evaluate(
        self,
        queries: Mapping[QueryId, MovingQuery],
        positions: Mapping[ObjectId, Point],
        objects: Mapping[ObjectId, MovingObject],
    ) -> dict[QueryId, set[ObjectId]]:
        """Return the differentially maintained results.

        The signature matches :class:`ObjectIndexEngine.evaluate`, but no
        work happens here: results were maintained during the probes.
        """
        return {qid: set(self._results.get(qid, set())) for qid in queries}

    @property
    def node_visits(self) -> int:
        """Lifetime R*-tree nodes read by this engine's updates and probes."""
        return self._tree.node_visits

    def __len__(self) -> int:
        return len(self._tree)
