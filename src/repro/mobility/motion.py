"""Object motion: per-step advancement and random velocity re-assignment.

The paper's movement model (Section 5.1): every time step a fixed number of
objects (``nmo``) is picked at random; each picked object gets a fresh
uniform-random direction and a speed uniform in ``[0, max_speed]``.  All
other objects continue with unchanged velocity vectors.  Objects stay inside
the universe of discourse; we reflect them off the UoD boundary (the paper
does not specify a boundary rule -- reflection keeps density uniform, which
matches the paper's uniform workload).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.geometry import Point, Rect, Vector
from repro.mobility.model import MovingObject, ObjectId
from repro.sim.rng import SimulationRng


def reflect_into(rect: Rect, pos: Point, vel: Vector) -> tuple[Point, Vector]:
    """Reflect a position (and its velocity) back inside ``rect``.

    Handles multiple bounces for fast objects by folding the coordinate into
    the doubled-period interval, exactly as a billiard reflection.
    """
    x, vx = _reflect_axis(pos.x, vel.x, rect.lx, rect.ux)
    y, vy = _reflect_axis(pos.y, vel.y, rect.ly, rect.uy)
    return Point(x, y), Vector(vx, vy)


def _reflect_axis(coord: float, vel: float, lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span <= 0:
        return lo, -vel
    if lo <= coord <= hi:
        return coord, vel
    # Fold into the triangle wave of period 2*span: the ascending half keeps
    # the velocity sign (even number of bounces), the descending half flips it.
    offset = (coord - lo) % (2.0 * span)
    if offset <= span:
        return lo + offset, vel
    return hi - (offset - span), -vel


class MotionModel:
    """Advances a population of moving objects step by step."""

    def __init__(
        self,
        objects: Sequence[MovingObject],
        uod: Rect,
        rng: SimulationRng,
        velocity_changes_per_step: int = 0,
    ) -> None:
        self.objects = list(objects)
        self._by_id: dict[ObjectId, MovingObject] = {o.oid: o for o in self.objects}
        if len(self._by_id) != len(self.objects):
            raise ValueError("duplicate object ids in population")
        self.uod = uod
        self.rng = rng
        self.velocity_changes_per_step = velocity_changes_per_step
        #: object ids whose velocity vector changed during the last step
        self.changed_last_step: list[ObjectId] = []

    def __len__(self) -> int:
        return len(self.objects)

    def get(self, oid: ObjectId) -> MovingObject:
        """Look up a stored entry by its identifier."""
        return self._by_id[oid]

    def ids(self) -> Iterable[ObjectId]:
        """Iterate over the stored identifiers."""
        return self._by_id.keys()

    def advance(self, step_hours: float, now_hours: float) -> None:
        """Move every object along its velocity for one step, then randomly
        re-assign velocity vectors to ``velocity_changes_per_step`` objects.
        """
        self._move(step_hours, now_hours)
        count = min(self.velocity_changes_per_step, len(self.objects))
        if count <= 0:
            self.changed_last_step = []
            return
        # The one definition of the random stream: the sample, then a
        # ``(speed, heading)`` pair per picked object, in sample order.
        rng = self.rng
        picked = rng.sample(self.objects, count)
        draws = [(rng.uniform(0.0, obj.max_speed), rng.direction()) for obj in picked]
        self._assign_velocities(picked, draws, now_hours)
        self.changed_last_step = [obj.oid for obj in picked]

    def _move(self, step_hours: float, now_hours: float) -> None:
        """Move every moving object one step, reflecting at the boundary.

        An object that stays inside the UoD takes its new position as is,
        velocity unchanged -- what ``reflect_into`` returns for it -- so
        only the few that leave it are folded back (the rule
        ``VectorizedMotionModel._move`` uses too).  A zero-width UoD axis
        flips even an in-bounds velocity, so there every object reflects.
        """
        uod = self.uod
        lx, ly, ux, uy = uod.lx, uod.ly, uod.ux, uod.uy
        open_box = lx < ux and ly < uy
        for obj in self.objects:
            vel = obj.vel
            vx, vy = vel.x, vel.y
            if vx == 0.0 and vy == 0.0:
                continue
            pos = obj.pos
            x = pos.x + vx * step_hours
            y = pos.y + vy * step_hours
            if open_box and lx <= x <= ux and ly <= y <= uy:
                obj.pos = Point(x, y)
            else:
                obj.pos, new_vel = reflect_into(uod, Point(x, y), vel)
                if new_vel != vel:
                    obj.vel = new_vel
            # Objects continuously re-record their own state (GPS + clock).
            obj.recorded_at = now_hours

    def apply_update(
        self, oid: ObjectId, pos: Point, vel: Vector, now_hours: float
    ) -> MovingObject:
        """Adopt an externally reported position/velocity for one object.

        The service runtime's ingest path: a device reports where it
        *actually* is, overriding the simulated trajectory.  The position
        is folded into the universe of discourse by the same billiard
        reflection ordinary motion uses, so an out-of-bounds report can
        never corrupt the grid invariants.  Applied between steps (the
        clock's current boundary), it is indistinguishable from the
        object having moved there itself.
        """
        obj = self._by_id[oid]
        pos, vel = reflect_into(self.uod, pos, vel)
        obj.pos = pos
        obj.vel = vel
        obj.recorded_at = now_hours
        return obj

    def _assign_velocities(
        self,
        picked: list[MovingObject],
        draws: list[tuple[float, float]],
        now_hours: float,
    ) -> None:
        """Give each picked object the velocity of its ``(speed, heading)``
        draw, re-recorded at ``now_hours``."""
        for obj, (speed, heading) in zip(picked, draws):
            obj.vel = Vector.from_polar(heading, speed)
            obj.recorded_at = now_hours
