"""Vectorized object movement: array operations on the
:class:`~repro.fastpath.store.ObjectStateStore` columns, with the few objects
that left the universe of discourse reflected by the scalar
:func:`~repro.mobility.motion.reflect_into`, bit for bit as the reference.
Zero-velocity objects keep their position *and* ``recorded_at``.  Velocity
re-randomization draws its random stream in the base
:meth:`~repro.mobility.motion.MotionModel.advance` and writes the picked
rows as columns; ``apply_update`` is the base code, assigning through the
store's row views.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.fastpath.store import ObjectStateStore
from repro.geometry import Point, Vector
from repro.mobility.model import MovingObject
from repro.mobility.motion import MotionModel, reflect_into


class VectorizedMotionModel(MotionModel):
    """Array-backed drop-in for :class:`~repro.mobility.motion.MotionModel`
    whose ``objects`` are row views over a store seeded from ``objects``."""

    def __init__(self, objects: Sequence[MovingObject], *args, **kwargs) -> None:
        self.store = ObjectStateStore(objects)
        super().__init__(self.store.objects, *args, **kwargs)

    def _move(self, step_hours: float, now_hours: float) -> None:
        """Vectorized equivalent of ``MotionModel._move``."""
        store = self.store
        uod = self.uod
        moved = (store.vx != 0.0) | (store.vy != 0.0)
        nx = store.x + store.vx * step_hours
        ny = store.y + store.vy * step_hours
        out = moved & ((nx < uod.lx) | (nx > uod.ux) | (ny < uod.ly) | (ny > uod.uy))
        store.advance(moved, nx, ny, now_hours)

        # The reference kernel itself reflects the few objects that crossed
        # the boundary: its float-modulo fold is then identical for free.
        for row in store.np.flatnonzero(out).tolist():
            old = Vector(store.vx.item(row), store.vy.item(row))
            pos, vel = reflect_into(uod, Point(nx.item(row), ny.item(row)), old)
            store.set_pos(row, pos)
            if vel != old:  # like the reference, keep an unchanged vector
                store.set_vel(row, vel)

    def _assign_velocities(
        self,
        picked: list[MovingObject],
        draws: list[tuple[float, float]],
        now_hours: float,
    ) -> None:
        """Column-write equivalent of ``MotionModel._assign_velocities``.

        ``math.cos`` / ``math.sin`` times the speed, as ``Vector.from_polar``
        computes them (numpy's need not round the same)."""
        cos, sin = math.cos, math.sin
        row_of = self.store.row_of
        self.store.set_velocities(
            [row_of[obj.oid] for obj in picked],
            [cos(heading) * speed for speed, heading in draws],
            [sin(heading) * speed for speed, heading in draws],
            now_hours,
        )
