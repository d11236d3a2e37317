"""Structure-of-arrays owner of the moving-object population.

On the vectorized engine the store is the one owner of each object's
position, velocity and ``recorded_at``: columns filled once from the
caller's :class:`~repro.mobility.model.MovingObject` instances.  Everyone
else holds :class:`ObjectRow` views (``store.objects``); a view's setter and
the vectorized move write a row only through the store's methods.

Grid-cell and lattice-tile indices are derived arrays recomputed once per
step (:meth:`refresh_derived`); their arithmetic mirrors
:meth:`repro.grid.Grid.cell_index` and
:meth:`repro.network.basestation.BaseStationLayout.tile_of_point` exactly
(same IEEE division, same truncation, same clamping), so a vectorized cell
index always equals the scalar one.
"""

from __future__ import annotations

from typing import Sequence

from repro.fastpath import require_numpy
from repro.geometry import Point, Vector
from repro.grid import Grid
from repro.mobility.model import MovingObject, ObjectId
from repro.network.basestation import BaseStationLayout


class ObjectRow:
    """A :class:`~repro.mobility.model.MovingObject` look-alike over one
    store row.  A ``Point`` / ``Vector`` read is built from the row and kept
    until the row is written, so reads share one object as a field's do
    (pickle memoizes by identity: checkpoint bytes match the reference's)."""

    __slots__ = ("oid", "max_speed", "props", "_store", "_row")

    def __init__(self, store: "ObjectStateStore", row: int, obj: MovingObject) -> None:
        self.oid, self.max_speed, self.props = obj.oid, obj.max_speed, obj.props
        self._store, self._row = store, row

    @property
    def pos(self) -> Point:
        store, row = self._store, self._row
        pos = store.built_pos[row]
        if pos is None:
            pos = store.built_pos[row] = Point(store.x.item(row), store.y.item(row))
        return pos

    @pos.setter
    def pos(self, pos: Point) -> None:
        self._store.set_pos(self._row, pos)

    @property
    def vel(self) -> Vector:
        store, row = self._store, self._row
        vel = store.built_vel[row]
        if vel is None:
            vel = store.built_vel[row] = Vector(store.vx.item(row), store.vy.item(row))
        return vel

    @vel.setter
    def vel(self, vel: Vector) -> None:
        self._store.set_vel(self._row, vel)

    @property
    def recorded_at(self) -> float:
        return self._store.recorded_at.item(self._row)

    @recorded_at.setter
    def recorded_at(self, now_hours: float) -> None:
        self._store.recorded_at[self._row] = now_hours

    speed = MovingObject.speed
    snapshot = MovingObject.snapshot

    def detached(self) -> MovingObject:
        """A plain ``MovingObject`` holding the row's current state."""
        return MovingObject(
            self.oid, self.pos, self.vel, self.max_speed, self.props, self.recorded_at
        )


class ObjectStateStore:
    """SoA columns x / y / vx / vy / recorded_at / max_speed / cell / tile."""

    def __init__(self, objects: Sequence[MovingObject]) -> None:
        np = require_numpy()
        self.np = np
        n = self.n = len(objects)
        f64 = np.float64
        self.oids = np.fromiter((o.oid for o in objects), np.int64, n)
        self.x = np.fromiter((o.pos.x for o in objects), f64, n)
        self.y = np.fromiter((o.pos.y for o in objects), f64, n)
        self.vx = np.fromiter((o.vel.x for o in objects), f64, n)
        self.vy = np.fromiter((o.vel.y for o in objects), f64, n)
        self.recorded_at = np.fromiter((o.recorded_at for o in objects), f64, n)
        self.max_speed = np.fromiter((o.max_speed for o in objects), f64, n)
        # Each row's current Point / Vector, or None until a view builds it.
        self.built_pos, self.built_vel = np.empty((2, n), dtype=object)
        self.built_pos[:] = [o.pos for o in objects]
        self.built_vel[:] = [o.vel for o in objects]
        self.cell_i, self.cell_j, self.tile_i, self.tile_j = np.zeros((4, n), dtype=np.int64)
        self.objects: list[ObjectRow] = [ObjectRow(self, k, o) for k, o in enumerate(objects)]
        self.row_of: dict[ObjectId, int] = {o.oid: k for k, o in enumerate(objects)}

    def set_pos(self, row: int, pos: Point) -> None:
        self.x[row], self.y[row], self.built_pos[row] = pos.x, pos.y, pos

    def set_vel(self, row: int, vel: Vector) -> None:
        self.vx[row], self.vy[row], self.built_vel[row] = vel.x, vel.y, vel

    def set_velocities(
        self, rows: list[int], vx: list[float], vy: list[float], now_hours: float
    ) -> None:
        """Give the distinct ``rows`` the velocities ``(vx, vy)``, recorded
        at ``now_hours``: one fancy-index assignment per column.  Their
        cached ``Vector`` is dropped, so a read rebuilds it from the
        columns."""
        at = self.np.array(rows, dtype=self.np.int64)
        self.vx[at], self.vy[at] = vx, vy
        self.recorded_at[at], self.built_vel[at] = now_hours, None

    def advance(self, moved, nx, ny, now_hours: float) -> None:
        """Move the ``moved`` rows to ``nx`` / ``ny`` at ``now_hours``."""
        self.x[moved], self.y[moved] = nx[moved], ny[moved]
        self.recorded_at[moved], self.built_pos[moved] = now_hours, None

    def refresh_derived(self, grid: Grid, layout: BaseStationLayout) -> None:
        """Recompute the grid-cell and lattice-tile index arrays.

        Mirrors the scalar mappings exactly:

        - ``Grid.cell_index``: ``min(int((x - lx) / alpha), n_cols - 1)``
          (positions are inside the UoD, so the truncation equals ``int``).
        - ``BaseStationLayout.tile_of_point``: same with the tile pitch and
          an additional lower clamp at 0.
        """
        np = self.np
        uod = grid.uod
        fx = (self.x - uod.lx) / grid.alpha
        fy = (self.y - uod.ly) / grid.alpha
        np.minimum(fx.astype(np.int64), grid.n_cols - 1, out=self.cell_i)
        np.minimum(fy.astype(np.int64), grid.n_rows - 1, out=self.cell_j)
        tx = (self.x - uod.lx) / layout.side_length
        ty = (self.y - uod.ly) / layout.side_length
        np.clip(tx.astype(np.int64), 0, layout.tile_cols - 1, out=self.tile_i)
        np.clip(ty.astype(np.int64), 0, layout.tile_rows - 1, out=self.tile_j)
