"""Structure-of-arrays mirror of the moving-object population.

The protocol layer keeps :class:`~repro.mobility.model.MovingObject`
instances authoritative (clients read ``obj.pos`` when building messages),
while the store mirrors the kinematic state in contiguous arrays for the
vectorized kernels.  The mirror is filled once at construction
(:meth:`ObjectStateStore.sync_from_objects`) and maintained incrementally
by the vectorized motion model from then on.

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
from repro.grid import Grid
from repro.mobility.model import MovingObject, ObjectId
from repro.network.basestation import BaseStationLayout


class ObjectStateStore:
    """SoA arrays for x / y / vx / vy / max_speed plus cell and tile ids."""

    def __init__(self, objects: Sequence[MovingObject]) -> None:
        np = require_numpy()
        self.np = np
        self.objects: list[MovingObject] = list(objects)
        n = len(self.objects)
        self.n = n
        self.oids = np.fromiter((o.oid for o in self.objects), dtype=np.int64, count=n)
        self.row_of: dict[ObjectId, int] = {o.oid: k for k, o in enumerate(self.objects)}
        self.x = np.empty(n, dtype=np.float64)
        self.y = np.empty(n, dtype=np.float64)
        self.vx = np.empty(n, dtype=np.float64)
        self.vy = np.empty(n, dtype=np.float64)
        self.max_speed = np.fromiter(
            (o.max_speed for o in self.objects), dtype=np.float64, count=n
        )
        self.cell_i = np.zeros(n, dtype=np.int64)
        self.cell_j = np.zeros(n, dtype=np.int64)
        self.tile_i = np.zeros(n, dtype=np.int64)
        self.tile_j = np.zeros(n, dtype=np.int64)
        self.sync_from_objects()

    # ------------------------------------------------------------- syncing

    def sync_from_objects(self) -> None:
        """Refresh the kinematic arrays from the MovingObject instances."""
        for k, obj in enumerate(self.objects):
            pos = obj.pos
            vel = obj.vel
            self.x[k] = pos.x
            self.y[k] = pos.y
            self.vx[k] = vel.x
            self.vy[k] = vel.y

    def sync_velocity_row(self, row: int) -> None:
        """Refresh one object's velocity (after a scalar re-assignment)."""
        vel = self.objects[row].vel
        self.vx[row] = vel.x
        self.vy[row] = vel.y

    # ------------------------------------------------------- derived state

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
