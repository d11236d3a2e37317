"""Batched LQT evaluation (vectorized engine).

The reference engine evaluates each object's local query table entry by
entry inside :meth:`~repro.core.client.MobiEyesClient.evaluation_phase`.
The :class:`BatchEvaluator` instead keeps *every* LQT entry system-wide in
one persistent structure-of-arrays **arena**, computes the geometry --
dead-reckoned focal positions, ``dist^2`` against ``reach^2``, circle
containment, safe-period bounds, and enter/leave deltas -- as flat array
expressions once per evaluation step, and dispatches the resulting
differential reports through the unchanged client/transport message path.

An entry's arena slot never moves.  Every client's
:class:`~repro.core.tables.LocalQueryTable` passes each install and
removal to the evaluator's table hook (``lqt_changed``), which keeps the
system-wide entry count (``lqt_total``) and the fan-out's ``holders``
index, and gives a new entry its slot there and then: a slot from the
free list, or the next one past the end.  The entry keeps that slot until
it is removed; the next refresh then tombstones the slot (``alive``
cleared, ``ptm`` 0, no entry) and puts it back on the free list.  The
entry holds its slot itself (``LqtEntry.arena_slot``, which only this
module touches).

Each slot stores its entry's columns -- reach, focal max speed, whether
the region is a reach-sized circle, ``is_target``, the owner's store row,
its focal object's id, and an install sequence number -- and, as one column of
the ``(6, cap)`` block ``e_state``, the focal state ``(x, y, vx, vy,
recorded_at)`` and ``ptm``.  The refresh before each evaluation writes the
slots installed since the last one, images the slots rewritten in place,
then tombstones the removed ones, each with one fancy-index assignment
per column.

A **group** is the entries one client holds for one focal object under
grouping (paper Section 4.1), or one entry when grouping is off.  Groups
are not kept between passes: each batch pass finds them from the slots'
``(owner row, focal)`` keys, and only when two unmasked slots share a key
(see ``_groups``).  Members may sit in any slots: the reference in-group
order, ``LocalQueryTable.by_focal`` (reach descending, then table order),
is ``(-reach, install sequence)``, because a table refuses to install a
qid it already holds, so its order is install order.

Every in-place rewrite goes through the table (``refresh``,
``set_focal_state``, ``void_safe_periods``), which fires
``state_changed``; the hook marks the entry's slot, and the next refresh
images the marked slots from their entries before the tombstones.  The
batch pass writes each ``ptm`` it computes to the column and to the
entry, which stays the record the reference engine, leave reports and
checkpoints read; ``is_target`` is dual-written by the delta pass itself.
``focal_max_speed`` rewrites always carry the focal object's immutable
``max_speed``, and ``mon_region`` is not consulted by evaluation.

Exactness contract (checked by the differential test suite): for any
configuration the batch pass produces the same per-entry ``is_target`` and
``ptm`` updates and the same uplink messages in the same order as running
the reference ``evaluation_phase`` client by client.  The key observations
that make a system-wide batch legal:

- evaluation-phase uplinks (``ResultChangeReport``) never trigger downlink
  traffic, so one client's reports cannot influence another client's
  evaluation within the same phase;
- the safe-period skip is the lane mask ``ptm > now`` (empty with safe
  periods off, which never write ``ptm``); within a group the reference
  predicts the focal position from the *first unmasked* member and reuses
  it for the group.  A group with one unmasked member predicts from its
  own slot; for the others two scatter reductions over their slots find
  each group's lead, its first member by ``(-reach, install sequence)``;
- members are visited by reach descending, so the grouping short-circuit
  ("beyond a larger region's reach implies outside all smaller ones")
  only moves entries from *checked* to *implied*: every member beyond
  reach is outside either way, and a group skips all its unmasked
  beyond-reach members but the first, so it counts their number minus
  one in ``skipped_by_grouping``;
- reports are dispatched per client in ascending object id -- the
  reference processing order -- so loss-model draws consume the random
  stream identically.

The evaluation counters (``evaluated_queries``,
``skipped_by_safe_period``, ``skipped_by_grouping``) go to the system's
one :class:`~repro.core.client.EvalCounters`, the object the reference
engine's clients -- and this engine's static entries -- increment too.

Static (fixed-region) entries stay out of the arena and take the scalar
``_process_static_entries`` path; their regions are arbitrary shapes and
there are typically few of them.  Report dispatch reads the reference
emission order off the client's table, so the arena's slot order is never
observable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fastpath import require_numpy
from repro.geometry import Circle, Point

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.client import EvalCounters, MobiEyesClient
    from repro.core.config import MobiEyesConfig
    from repro.core.tables import LqtEntry
    from repro.fastpath.store import ObjectStateStore
    from repro.mobility.model import ObjectId


_ENTRY_COLUMNS = (
    "e_reach", "e_fmax", "e_circ", "e_targ", "e_alive", "e_row", "e_focal", "e_seq", "e_state"
)
# ``e_state`` rows: the focal state ``(x, y, vx, vy, recorded_at)``, then
# the safe period ``ptm``.
_PTM = 5


def _state_column(entry: "LqtEntry") -> list:
    """``entry``'s ``e_state`` column."""
    state = entry.focal_state
    return [state.pos.x, state.pos.y, state.vel.x, state.vel.y, state.recorded_at, entry.ptm]


class BatchEvaluator:
    """One-shot batched evaluation of all clients' local query tables."""

    def __init__(
        self, config: "MobiEyesConfig", store: "ObjectStateStore", stats: "EvalCounters"
    ) -> None:
        np = require_numpy()
        self.np = np
        self.config = config
        self.store = store
        self.grouping = config.grouping
        self.sp_on = config.safe_period
        # The system's evaluation counters (the clients hold the same object).
        self.stats = stats
        # Slot columns (amortized-doubling capacity).
        cap = 1024
        f64 = np.float64
        i64 = np.int64
        self.e_reach = np.empty(cap, f64)
        self.e_fmax = np.empty(cap, f64)
        self.e_circ = np.empty(cap, bool)
        self.e_targ = np.empty(cap, bool)
        self.e_alive = np.empty(cap, bool)
        self.e_row = np.empty(cap, i64)  # owner's store row
        self.e_focal = np.empty(cap, i64)  # focal object id (must fit int64)
        self.e_seq = np.empty(cap, i64)  # install sequence number
        # The entry's focal state and safe period, one column per slot
        # (component-major: each component is one contiguous row).
        self.e_state = np.empty((6, cap), f64)
        # LqtEntry per slot, from its install; None once tombstoned.
        self.e_refs: list = []
        self.n_ent = 0  # slots handed out, free ones included
        self.n_lqt = 0  # LQT entries system-wide, static ones included
        self._seq = 0  # the next install sequence number
        self._clients: dict = {}
        # Tombstoned slots, handed out again before the arena grows.
        self._free: list = []
        # The changes since the last refresh, kept in flat lists of ints:
        # the hook fires inside the reporting phase, where garbage-collector
        # passes would be billed to whichever server section happens to
        # trip them.  ``_installed`` holds one (slot, client oid) record
        # per install, in install order; ``_dead`` the slots to
        # tombstone; ``_rewritten`` the slots rewritten in place.
        self._installed: list = []
        self._dead: list = []
        self._rewritten: list = []
        # Static entries stay out of the arena: client oid -> its static
        # entries in table order, and the clients whose list is out of date.
        self._statics: dict = {}
        self._static_stale: set = set()
        # qid -> {holder oid -> that holder's LqtEntry}, statics included:
        # the index the broadcast fan-out resolves its receivers' entries by.
        self.holders: dict = {}

    # ----------------------------------------------------------- watching

    def attach(self, clients: "list[MobiEyesClient]") -> None:
        """Register as watcher of every client's LQT.

        Entries a client already holds (installed before attachment) are
        replayed through the install hook, in table order, so the first
        evaluation picks them up.
        """
        for client in clients:
            oid = client.oid
            self._clients[oid] = client
            client.lqt.watch(self, oid)
            for entry in client.lqt.entries():
                self.lqt_changed(oid, entry, 1)

    def lqt_changed(self, oid: "ObjectId", entry: "LqtEntry", delta: int) -> None:
        """Table hook: ``entry`` was installed into (``delta`` 1) or removed
        from (``delta`` -1) the client's table.

        The ``holders`` index is brought up to date here.  An installed
        entry takes its slot -- a free one, or the next past the end --
        recorded on the entry; the refresh writes the slot.  A removed
        entry's slot is tombstoned and freed by the refresh.
        """
        self.n_lqt += delta
        qid = entry.qid
        bucket = self.holders.get(qid)
        if delta > 0:
            if bucket is None:
                self.holders[qid] = {oid: entry}
            else:
                bucket[oid] = entry
        else:
            del bucket[oid]
            if not bucket:
                del self.holders[qid]
        if entry.oid is None:
            self._static_stale.add(oid)
        elif delta < 0:
            self._dead.append(entry.arena_slot)
        else:
            if self._free:
                slot = self._free.pop()
                self.e_refs[slot] = entry
            else:
                slot = self.n_ent
                self.n_ent += 1
                self.e_refs.append(entry)
            entry.arena_slot = slot
            self._installed += (slot, oid)

    def state_changed(self, entry: "LqtEntry") -> None:
        """Table hook: ``entry`` was rewritten in place (its focal state
        replaced or its safe period voided).  Its slot is marked for the
        next refresh to image from the entry; a static entry has no slot."""
        if entry.oid is not None:
            self._rewritten.append(entry.arena_slot)

    def lqt_total(self) -> int:
        """Total LQT entries system-wide (kept current by the table hook)."""
        return self.n_lqt

    # -------------------------------------------------- arena maintenance

    def _reserve(self, need: int) -> None:
        """Make every slot column hold ``need`` slots (capacity doubles, so
        appends stay amortized O(1))."""
        np = self.np
        cap = self.e_reach.shape[0]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in _ENTRY_COLUMNS:
            old = getattr(self, name)
            new = np.empty(old.shape[:-1] + (cap,), old.dtype)
            new[..., : old.shape[-1]] = old
            setattr(self, name, new)

    def _refresh(self) -> None:
        """Absorb the pending LQT changes.

        Writes every slot installed since the last refresh, images the
        slots rewritten in place, then tombstones the removed entries'
        slots and puts them on the free list -- in that order, so a slot
        installed or rewritten and then removed ends dead.
        """
        clients = self._clients
        for oid in self._static_stale:
            statics = [e for e in clients[oid].lqt.entries() if e.oid is None]
            if statics:
                self._statics[oid] = statics
            else:
                self._statics.pop(oid, None)
        self._static_stale.clear()
        self._reserve(self.n_ent)
        np = self.np
        e_refs = self.e_refs
        installed = self._installed
        if installed:
            slots = installed[::2]
            refs = [e_refs[i] for i in slots]
            row_of = self.store.row_of
            rows = [row_of[oid] for oid in installed[1::2]]
            # Index with one array: numpy converts a list index anew per column.
            at = np.array(slots)
            self.e_focal[at] = [e.oid for e in refs]
            installed.clear()
            self.e_reach[at] = [e.reach for e in refs]
            self.e_fmax[at] = [e.focal_max_speed for e in refs]
            # Within-reach implies inside only when the reach IS the circle
            # radius (the origin-bound circles the query layer validates);
            # anything else takes the scalar containment fallback.
            self.e_circ[at] = [type(e.region) is Circle and e.reach == e.region.r for e in refs]
            self.e_targ[at] = [e.is_target for e in refs]
            self.e_alive[at] = True
            self.e_row[at] = rows
            seq = self._seq
            self._seq = seq + len(slots)
            self.e_seq[at] = np.arange(seq, self._seq)
            self._image_states(at, refs)
        rewritten = self._rewritten
        if rewritten:
            self._image_states(np.array(rewritten), [e_refs[i] for i in rewritten])
            rewritten.clear()
        dead = self._dead
        if dead:
            at = np.array(dead)
            self.e_alive[at] = False
            # A dead slot is never masked by its safe period.
            self.e_state[_PTM, at] = 0.0
            for i in dead:
                e_refs[i] = None
            self._free += dead
            dead.clear()

    def _image_states(self, slots, refs: list) -> None:
        """Write ``refs``' focal states and ``ptm`` into the ``e_state``
        columns ``slots`` (an index array aligned with ``refs``).  A run of
        entries sharing one focal state -- one broadcast's receivers --
        reads it once."""
        basis: list = []  # (x, y, vx, vy, recorded_at) per run, flat
        lens: list[int] = []
        last = None
        for entry in refs:
            state = entry.focal_state
            if state is last:
                lens[-1] += 1
            else:
                last = state
                pos = state.pos
                vel = state.vel
                basis += (pos.x, pos.y, vel.x, vel.y, state.recorded_at)
                lens.append(1)
        runs = self.np.array(basis).reshape(-1, 5)
        self.e_state[:_PTM, slots] = runs.repeat(lens, axis=0).T
        self.e_state[_PTM, slots] = [entry.ptm for entry in refs]

    def check_invariants(self) -> None:
        """Arena <-> LQT consistency, for the test suite and the bench.

        Absorbs the pending changes first; that is unobservable, since
        nothing outside the arena reads its slots.  Reads the columns slot
        by slot: the bench runs it on full-size worlds before it reads
        the peak RSS.
        """
        self._refresh()
        n = self.n_ent
        clients = self._clients
        e_refs = self.e_refs
        assert self.n_lqt == sum(len(c.lqt) for c in clients.values()), "lqt_total drifted"
        assert len(e_refs) == n
        dead = ~self.e_alive[:n]
        assert all((ref is None) == gone for ref, gone in zip(e_refs, dead.tolist())) and not (
            self.e_state[_PTM, :n][dead].any()
        ), "a dead slot holds an entry or a safe period"
        assert sorted(self._free) == self.np.flatnonzero(dead).tolist(), (
            "the free list differs from the dead slots"
        )
        row_of = self.store.row_of
        held = 0
        for oid, client in clients.items():
            lqt = client.lqt
            statics = self._statics.get(oid, [])
            assert len(statics) == sum(e.is_static for e in lqt.entries())
            assert all(lqt.find(e.qid) is e and e.is_static for e in statics)
            for entry in lqt.entries():
                if entry.is_static:
                    continue
                slot = entry.arena_slot
                assert 0 <= slot < n and e_refs[slot] is entry, f"client {oid}: {entry.qid}"
                assert self.e_focal.item(slot) == entry.oid, f"client {oid}: {entry.qid}"
                assert self.e_row.item(slot) == row_of[oid]
                assert self.e_targ.item(slot) == entry.is_target
                assert _state_column(entry) == self.e_state[:, slot].tolist(), (
                    f"client {oid} query {entry.qid}: stale focal state or ptm"
                )
                held += 1
            for focal, members in lqt.by_focal().items() if self.grouping else ():
                if focal is None:
                    continue
                slots = [e.arena_slot for e in members]
                order = sorted(slots, key=lambda i: (-self.e_reach.item(i), self.e_seq.item(i)))
                assert order == slots, f"client {oid} group {focal}: not in install order"
        assert held == n - len(self._free), "a live slot owned by no entry"
        # Every held entry is its holder's table entry, by identity, and
        # the index holds as many as the tables do: the two are equal.
        assert all(
            bucket and all(clients[oid].lqt.find(qid) is entry for oid, entry in bucket.items())
            for qid, bucket in self.holders.items()
        ) and sum(map(len, self.holders.values())) == self.n_lqt, (
            "the fan-out's holders index differs from the tables"
        )

    # --------------------------------------------------------------- run

    def run(self, now: float) -> None:
        """Evaluate every client's LQT and uplink differential reports."""
        self._refresh()

        clients = self._clients
        # client oid -> {qid: flag} for this evaluation's result changes.
        changes: dict = {}
        # Static (fixed-region) entries: scalar path, every evaluation.
        for oid, statics in self._statics.items():
            changed = clients[oid]._process_static_entries(statics, now)
            if changed:
                changes[oid] = changed
        if self.n_ent:
            self._batch(now, changes)

        # ---------------------------------------------------- dispatch
        # Reference emission, per client in ascending oid: one report per
        # focal group in ``by_focal`` order (grouping), or one per query
        # ordered by focal key -- first *changed* appearance in the table --
        # then table position (no grouping).  The order is read off the
        # table here; only clients reporting several changes need it.
        grouping = self.grouping
        for oid in sorted(changes):
            changed = changes[oid]
            client = clients[oid]
            if len(changed) == 1:
                client._send_result_changes(changed)
            elif grouping:
                for group in client.lqt.by_focal().values():
                    report = {e.qid: changed[e.qid] for e in group if e.qid in changed}
                    if report:
                        client._send_result_changes(report)
            else:
                by_focal: dict = {}
                for entry in client.lqt.entries():
                    if entry.qid in changed:
                        by_focal.setdefault(entry.oid, {})[entry.qid] = changed[entry.qid]
                for report in by_focal.values():
                    for qid, flag in report.items():
                        client._send_result_changes({qid: flag})

    # ------------------------------------------------------------- batch

    def _groups(self, valid, rows):
        """The unmasked slots that share their ``(owner row, focal)`` pair
        with another unmasked slot, their groups' dense ids ``0 .. k-1``
        and ``k``; None when every pair is distinct (no group has two
        unmasked members).

        A pair is keyed as one int, ``focal * n + row``, wrapped to 32 bits
        (it sorts fast): equal pairs have equal keys, so distinct keys
        end the pass.  Two equal keys -- a group, or a focal id far from
        the other's -- send it to the exact order of the pairs.  Focal ids
        are stored as int64 (``e_focal``), as the store's object ids are."""
        np = self.np
        focal = self.e_focal[: rows.size]
        check = (focal * self.store.n + rows).astype(np.int32)[valid]
        check.sort()
        if not (check[1:] == check[:-1]).any():
            return None
        live = np.flatnonzero(valid)
        live = live[np.lexsort((rows[live], focal[live]))]
        row, of_focal = rows[live], focal[live]
        same = (row[1:] == row[:-1]) & (of_focal[1:] == of_focal[:-1])
        if not same.any():
            return None
        # Runs of equal pairs in sorted order; a run of one is no group.
        start = np.concatenate(([True], ~same))
        multi = ~(start & np.concatenate((~same, [True])))
        of = np.cumsum(start[multi]) - 1
        return live[multi], of, int(of[-1]) + 1

    def _batch(self, now: float, changes: dict) -> None:
        """Array pass over the arena; applies entry updates in place and
        adds the result flips to ``changes`` (client oid -> {qid: flag})."""
        np = self.np
        n = self.n_ent
        reach = self.e_reach[:n]
        rows = self.e_row[:n]
        ox = self.store.x[rows]
        oy = self.store.y[rows]

        # Safe-period skips are a lane mask; dead slots hold ``ptm`` 0.
        state = self.e_state
        valid = self.e_alive[:n]
        skip = state[_PTM, :n] > now
        n_skip = int(np.count_nonzero(skip))
        if n_skip:
            self.stats.skipped_by_safe_period += n_skip
            valid = valid & ~skip
        # Every slot's dead-reckoned focal position, in the exact reference
        # operation order (dt = now - tm, then pos + vel * dt, elementwise in
        # float64).
        x, y, vx, vy, recorded_at = state[:5, :n]
        dt = now - recorded_at
        fx = x + vx * dt
        fy = y + vy * dt
        groups = self._groups(valid, rows) if self.grouping else None
        if groups is not None:
            # The unmasked members of groups with more than one: each such
            # group predicts from its first by (-reach, install sequence),
            # the member of lowest sequence among those of largest reach.
            # (Two scatter reductions: sorting the members by reach and
            # sequence as well read ~2.5x slower.)
            multi, of, n_groups = groups
            top = np.full(n_groups, -np.inf)
            np.maximum.at(top, of, reach[multi])
            at_top = reach[multi] == top[of]
            tied, tied_of = multi[at_top], of[at_top]
            seq = self.e_seq[tied]
            first = np.full(n_groups, self._seq)
            np.minimum.at(first, tied_of, seq)
            is_lead = seq == first[tied_of]
            lead_of = np.empty(n_groups, np.int64)
            lead_of[tied_of[is_lead]] = tied[is_lead]
            fx[multi] = fx[lead_of[of]]
            fy[multi] = fy[lead_of[of]]
        dx = ox - fx
        dy = oy - fy
        dist_sq = dx * dx + dy * dy
        beyond = dist_sq > reach * reach

        # Grouping skips every unmasked beyond-reach member of a group but
        # the first (members are visited by reach descending); only groups
        # with more than one unmasked member can skip any.
        implied = 0
        if groups is not None:
            hit = of[beyond[multi]]
            implied = hit.size - int(np.count_nonzero(np.bincount(hit)))
            self.stats.skipped_by_grouping += implied

        # Containment: for origin-bound circles (the paper's default) the
        # reach equals the radius, so an entry within reach is inside by
        # the same squared-space comparison the reference makes.
        inside = valid & ~beyond
        noncircle = inside & ~self.e_circ[:n]
        if noncircle.any():
            idxs = np.nonzero(noncircle)[0]
            oids = self.store.oids[rows[idxs]].tolist()
            e_refs = self.e_refs
            clients = self._clients
            for i, px, py, oid in zip(idxs.tolist(), fx[idxs].tolist(), fy[idxs].tolist(), oids):
                inside[i] = clients[oid]._contains(e_refs[i], Point(px, py))

        self.stats.evaluated_queries += int(np.count_nonzero(valid)) - implied

        if self.sp_on:
            outside = ~inside & valid
            if outside.any():
                gap = np.sqrt(dist_sq) - reach
                closing = self.store.max_speed[rows] + self.e_fmax[:n]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    sp = np.where(
                        gap <= 0.0,
                        0.0,
                        np.where(closing == 0.0, np.inf, gap / closing),
                    )
                write = outside & (sp > self.config.eval_period_hours)
                if write.any():
                    idxs = np.nonzero(write)[0]
                    values = now + sp[idxs]
                    state[_PTM, idxs] = values
                    refs = self.e_refs
                    for i, value in zip(idxs.tolist(), values.tolist()):
                        refs[i].ptm = value

        delta = (inside != self.e_targ[:n]) & valid
        if delta.any():
            idxs = np.nonzero(delta)[0]
            flags = inside[idxs]
            self.e_targ[idxs] = flags
            oids = self.store.oids[rows[idxs]].tolist()
            e_refs = self.e_refs
            for i, flag, oid in zip(idxs.tolist(), flags.tolist(), oids):
                entry = e_refs[i]
                entry.is_target = flag
                changed = changes.get(oid)
                if changed is None:
                    changes[oid] = {entry.qid: flag}
                else:
                    changed[entry.qid] = flag
