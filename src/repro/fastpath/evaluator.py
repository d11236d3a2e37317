"""Batched LQT evaluation (vectorized engine).

The reference engine evaluates each object's local query table entry by
entry inside :meth:`~repro.core.client.MobiEyesClient.evaluation_phase`.
The :class:`BatchEvaluator` instead keeps *every* LQT entry system-wide in
one persistent structure-of-arrays **arena**, computes the geometry --
dead-reckoned focal positions, ``dist^2`` against ``reach^2``, circle
containment, safe-period bounds, and enter/leave deltas -- as flat array
expressions once per evaluation step, and dispatches the resulting
differential reports through the unchanged client/transport message path.

The arena is maintained event-driven rather than rebuilt per evaluation,
and its unit of allocation and invalidation is one **group**: the entries
of one client bound to one focal object (one entry when grouping is off),
stored as a contiguous run in ``LocalQueryTable.by_focal`` order.

How a table change reaches the arena:

- every client's :class:`~repro.core.tables.LocalQueryTable` passes each
  installed/removed entry to the evaluator (``lqt_changed``), which keeps
  the system-wide entry count (``lqt_total``) and sorts the change as it
  happens.  An install that creates a group is *staged* as an append: it
  reserves the next slot past the written ones, and the entry is held
  until the refresh writes it.  A removal that empties a written
  one-entry group *tombstones* its slot (``alive`` mask cleared at the
  next refresh).  Any other change -- a group that has or gets a second
  entry, a same-qid replacement -- marks the group for *re-imaging* from
  the table.  A staged group that empties or grows before the refresh
  hands its reserved slot to the last staged group, so no slot is wasted.
- the next evaluation's refresh writes the staged groups into their
  reserved slots and the re-imaged groups (one Python pass over their
  clients' tables) after them, tombstones the retired slots, and writes
  every arena column with one slice assignment.  A client's untouched
  groups -- and untouched clients -- cost nothing.
- a ``(client, group) -> slot`` map of plain ints finds a group's run; no
  Python object exists per group.  Every slot holds its entry's focal
  state ``(x, y, vx, vy, recorded_at)`` and ``ptm`` as one column of the
  ``(6, cap)`` block ``e_state``, written by the refresh and the
  compaction; a dead slot holds None in place of its entry.
- when more than ``compact_threshold`` slots are dead and the dead exceed
  half the live entries, the arena is compacted in place (one
  boolean-index copy per column; the slot map is renumbered in a single
  pass).
- every in-place rewrite goes through the table (``refresh``,
  ``set_focal_state``, ``void_safe_periods``), which fires
  ``state_changed``; the hook marks a written entry's slot, and the next
  refresh images the marked slots -- focal state and the voided ``ptm``
  -- from their entries with the helper that images new slots, before
  the tombstones, so a marked slot retired since ends dead.  An entry of
  a staged or re-image-pending group needs no mark.  The batch pass
  writes each ``ptm`` it computes to the column and to the entry, which
  stays the record the reference engine, leave reports and checkpoints
  read; ``is_target`` is dual-written by the delta pass itself.
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
- within a focal group the reference predicts the focal position from the
  *first non-skipped* entry's motion state and reuses it for the group;
  the safe-period skip is the lane mask ``ptm > now`` (empty with safe
  periods off, which never write ``ptm``), and a segmented minimum over
  the unmasked slots finds that entry;
- entries are sorted by reach descending, so the grouping short-circuit
  ("beyond a larger region's reach implies outside all smaller ones") is a
  prefix property computable with a segmented cumulative sum;
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

from itertools import compress
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
    "e_reach", "e_fmax", "e_circ", "e_targ", "e_alive", "e_row", "e_group", "e_state"
)
_GROUP_COLUMNS = ("g_start", "g_len", "g_alive", "g_oid")
# ``e_state`` rows: the focal state ``(x, y, vx, vy, recorded_at)``, then
# the safe period ``ptm``.
_PTM = 5
# The slot-map state of a group awaiting re-imaging (``BatchEvaluator._slot``).
_REIMAGE = -1


def _neg_reach(entry: "LqtEntry") -> float:
    return -entry.reach


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
        # Entry-dimension arena columns (amortized-doubling capacity).
        ecap = 1024
        gcap = 512
        f64 = np.float64
        i64 = np.int64
        self.e_reach = np.empty(ecap, f64)
        self.e_fmax = np.empty(ecap, f64)
        self.e_circ = np.empty(ecap, bool)
        self.e_targ = np.empty(ecap, bool)
        self.e_alive = np.empty(ecap, bool)
        self.e_row = np.empty(ecap, i64)  # owner's store row
        self.e_group = np.empty(ecap, i64)
        # The entry's focal state and safe period, one column per slot
        # (component-major: each component is one contiguous row).
        self.e_state = np.empty((6, ecap), f64)
        # LqtEntry per slot (None once tombstoned), aligned with the columns.
        self.e_refs: list = []
        # Group-dimension columns: one slot per (client, focal) group -- per
        # (client, query) when grouping is off -- whose entries are the
        # contiguous run ``g_start .. g_start + g_len``.
        self.g_start = np.empty(gcap, i64)
        self.g_len = np.empty(gcap, i64)
        self.g_alive = np.empty(gcap, bool)
        self.g_oid = np.empty(gcap, i64)  # owning client's object id
        self.n_ent = 0
        self.n_grp = 0
        self.dead_ent = 0
        self.n_lqt = 0  # LQT entries system-wide, static ones included
        # Compact once more than this many slots are tombstoned *and* the
        # dead exceed half the live entries; tests lower it to force
        # compaction on tiny workloads.
        self.compact_threshold = 2048
        self._clients: dict = {}
        # client oid -> {group key -> group slot}; the key is the focal
        # object id, or the query id when grouping is off.  A slot below
        # ``n_grp`` holds a written group whose run images the table; a slot
        # from ``n_grp`` on is reserved for a staged one-entry group, which
        # the next refresh writes there; _REIMAGE marks a group awaiting
        # re-imaging.
        self._slot: dict = {}
        # The changes since the last refresh, kept in flat lists: the hook
        # fires inside the reporting phase, where garbage-collector passes
        # would be billed to whichever server section happens to trip
        # them.  ``_staged`` holds one (client's slot map, group key,
        # client oid, entry) record per reserved slot, in slot order;
        # ``_touched`` one (client oid, group key) pair per group to
        # re-image; ``_dead`` the group slots to tombstone; ``_rewritten``
        # the entry slots rewritten in place, to image from their entries.
        self._staged: list = []
        self._touched: list = []
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
        replayed through the install hook so the first evaluation picks
        them up.
        """
        for client in clients:
            oid = client.oid
            self._clients[oid] = client
            self._slot[oid] = {}
            client.lqt.watch(self, oid)
            for entry in client.lqt.entries():
                self.lqt_changed(oid, entry, 1)

    def lqt_changed(self, oid: "ObjectId", entry: "LqtEntry", delta: int) -> None:
        """Table hook: ``entry`` was installed into (``delta`` 1, or 0 when
        it replaced an entry of the same query) or removed from (``delta``
        -1) the client's table.

        The fan-out's ``holders`` index is brought up to date here, and the
        change is sorted for the next refresh: an install that creates a
        group is staged as an append, a removal that empties a written
        one-entry group tombstones its slot, and any other change -- a
        group that has or gets a second entry, a same-qid replacement --
        marks the group for re-imaging from the table.
        """
        self.n_lqt += delta
        qid = entry.qid
        if delta >= 0:
            bucket = self.holders.get(qid)
            if bucket is None:
                self.holders[qid] = {oid: entry}
            else:
                bucket[oid] = entry
        else:
            bucket = self.holders[qid]
            del bucket[oid]
            if not bucket:
                del self.holders[qid]
        focal = entry.oid
        if focal is None:
            self._static_stale.add(oid)
            return
        key = focal if self.grouping else qid
        slots = self._slot[oid]
        g = slots.get(key)
        if g is None:  # a new group (a removed entry always has one)
            staged = self._staged
            slots[key] = self.n_grp + len(staged) // 4
            staged += (slots, key, oid, entry)
            return
        if g >= self.n_grp:  # a staged group: its entry goes, or it grows
            self._unstage(g)
            if delta < 0:
                del slots[key]
                return
        elif g == _REIMAGE:
            return
        elif delta < 0 and self.g_len[g] == 1:  # a written group empties
            del slots[key]
            self._dead.append(g)
            return
        else:
            self._dead.append(g)
        slots[key] = _REIMAGE
        self._touched += (oid, key)

    def _unstage(self, g: int) -> None:
        """Cancel the staged group reserved at slot ``g``: the last staged
        group moves into its slot, so the reserved slots stay contiguous
        and a staged group that empties or grows wastes none."""
        staged = self._staged
        i = 4 * (g - self.n_grp)
        if i + 4 < len(staged):
            staged[i : i + 4] = staged[-4:]
            staged[i][staged[i + 1]] = g
        del staged[-4:]

    def state_changed(self, oid: "ObjectId", entry: "LqtEntry") -> None:
        """Table hook: ``entry``, one of client ``oid``'s, was rewritten in
        place (its focal state replaced or its safe period voided).  Its
        slot in a written group is marked for the next refresh to image
        from the entry; a static entry, or one of a staged group or of a
        group awaiting re-imaging, has its column read off the entry when
        the group is written."""
        g = self._slot[oid].get(entry.oid if self.grouping else entry.qid)
        if g is not None and 0 <= g < self.n_grp:
            # A written group's run holds every entry of the group.
            i = self.g_start.item(g)
            refs = self.e_refs
            while refs[i] is not entry:
                i += 1
            self._rewritten.append(i)

    def lqt_total(self) -> int:
        """Total LQT entries system-wide (kept current by the table hook)."""
        return self.n_lqt

    # -------------------------------------------------- arena maintenance

    def _reserve(self, names: tuple, live: int, need: int) -> None:
        """Make the named columns hold ``need`` slots (their last axis),
        keeping the first ``live`` (capacity doubles, so appends stay
        amortized O(1))."""
        np = self.np
        cap = getattr(self, names[0]).shape[-1]
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        for name in names:
            old = getattr(self, name)
            new = np.empty(old.shape[:-1] + (cap,), old.dtype)
            new[..., :live] = old[..., :live]
            setattr(self, name, new)

    def _refresh(self) -> None:
        """Absorb the pending LQT changes.

        Writes every staged group into its reserved slot, re-images every
        group marked for it into the slots after those -- its members in
        table order, reach-descending (stable), exactly
        ``LocalQueryTable.by_focal`` -- images the slots rewritten in
        place, and tombstones the slots the hook retired.  One Python pass
        over the re-imaged groups' tables collects their runs; each arena
        column is then written with a single slice assignment.
        """
        clients = self._clients
        for oid in self._static_stale:
            statics = [e for e in clients[oid].lqt.entries() if e.oid is None]
            if statics:
                self._statics[oid] = statics
            else:
                self._statics.pop(oid, None)
        self._static_stale.clear()
        np = self.np
        i64 = np.int64
        grouping = self.grouping
        lo = self.n_ent
        g_lo = self.n_grp
        # The staged groups hold the reserved slots g_lo, g_lo + 1, ...
        staged = self._staged
        refs: list = staged[3::4]  # the new runs, concatenated
        counts: list[int] = [1] * len(refs)  # per new group: its length ...
        owners: list = staged[2::4]  # ... and its client's oid
        staged.clear()
        pending = self._touched
        if pending:
            touched: dict = {}  # client oid -> its groups to re-image
            for oid, key in zip(pending[::2], pending[1::2]):
                keys = touched.get(oid)
                if keys is None:
                    touched[oid] = [key]
                else:
                    keys.append(key)
            pending.clear()
            for oid, keys in touched.items():
                lqt = clients[oid].lqt
                if grouping:
                    members: dict = {key: [] for key in keys}
                    for entry in lqt.entries():
                        group = members.get(entry.oid)
                        if group is not None:
                            group.append(entry)
                else:
                    members = {}
                    for qid in keys:
                        entry = lqt.find(qid)
                        members[qid] = () if entry is None else (entry,)
                slots = self._slot[oid]
                for key, group in members.items():
                    if not group:
                        del slots[key]
                        continue
                    if len(group) > 1:
                        group.sort(key=_neg_reach)
                    slots[key] = g_lo + len(counts)
                    counts.append(len(group))
                    refs += group
                    owners.append(oid)
        rewritten = self._rewritten
        if rewritten:
            # Before the tombstones: a marked slot may have died since.
            e_refs = self.e_refs
            self._image_states(rewritten, [e_refs[i] for i in rewritten])
            rewritten.clear()
        dead = self._dead
        if dead:
            d = np.asarray(dead, dtype=i64)
            dead.clear()
            lens = self.g_len[d]
            ends = np.cumsum(lens)
            total = int(ends[-1])
            # Every slot of every dead run: the run's start, repeated over
            # its length, plus the offset within the run.
            idx = np.repeat(self.g_start[d] - (ends - lens), lens) + np.arange(total)
            self.e_alive[idx] = False
            # A dead slot is never masked by its safe period.
            self.e_state[_PTM, idx] = 0.0
            self.g_alive[d] = False
            self.dead_ent += total
            e_refs = self.e_refs
            for i in idx.tolist():
                e_refs[i] = None

        n = len(refs)
        if not n:
            return
        n_g = len(counts)
        hi = lo + n
        gh = g_lo + n_g
        self._reserve(_ENTRY_COLUMNS, lo, hi)
        self._reserve(_GROUP_COLUMNS, g_lo, gh)
        carr = np.asarray(counts, dtype=i64)
        self.e_reach[lo:hi] = [e.reach for e in refs]
        self.e_fmax[lo:hi] = [e.focal_max_speed for e in refs]
        # Within-reach implies inside only when the reach IS the circle
        # radius (the origin-bound circles the query layer validates);
        # anything else takes the scalar containment fallback.
        self.e_circ[lo:hi] = [type(e.region) is Circle and e.reach == e.region.r for e in refs]
        self.e_targ[lo:hi] = [e.is_target for e in refs]
        self.e_alive[lo:hi] = True
        self.e_group[lo:hi] = np.repeat(np.arange(g_lo, gh, dtype=i64), carr)
        row_of = self.store.row_of
        rows = [row_of[oid] for oid in owners]
        self.e_row[lo:hi] = np.repeat(np.asarray(rows, dtype=i64), carr)
        self.g_start[g_lo:gh] = lo + np.cumsum(carr) - carr
        self.g_len[g_lo:gh] = carr
        self.g_alive[g_lo:gh] = True
        self.g_oid[g_lo:gh] = owners
        self._image_states(slice(lo, hi), refs)
        self.e_refs += refs
        self.n_ent = hi
        self.n_grp = gh

    def _image_states(self, where, refs: list) -> None:
        """Write ``refs``' focal states and ``ptm`` into the ``e_state``
        columns ``where`` (a slice or a list of slots, aligned with
        ``refs``).  A run of entries sharing one focal state -- one
        broadcast's receivers -- reads it once."""
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
        self.e_state[:_PTM, where] = runs.repeat(lens, axis=0).T
        self.e_state[_PTM, where] = [entry.ptm for entry in refs]

    def _compact(self) -> None:
        """Squeeze tombstoned slots out of the arena (order-preserving)."""
        np = self.np
        n = self.n_ent
        g = self.n_grp
        ea = self.e_alive[:n]
        ga = self.g_alive[:g]
        ecum = np.cumsum(ea)
        gcum = np.cumsum(ga)
        new_n = int(ecum[-1]) if n else 0
        new_g = int(gcum[-1]) if g else 0
        for name in ("e_reach", "e_fmax", "e_circ", "e_targ", "e_row", "e_state"):
            arr = getattr(self, name)
            arr[..., :new_n] = arr[..., :n][..., ea]
        compact_groups = self.e_group[:n][ea]
        self.e_group[:new_n] = gcum[compact_groups] - 1
        alive_starts = self.g_start[:g][ga]
        self.g_start[:new_g] = ecum[alive_starts] - 1
        for name in ("g_len", "g_oid"):
            arr = getattr(self, name)
            arr[:new_g] = arr[:g][ga]
        # ``ea``/``ga`` are *views* of the alive columns: consume them
        # before the flags are reset below, or the compress masks are
        # corrupted.
        self.e_refs = list(compress(self.e_refs, ea.tolist()))
        new_slot = (gcum - 1).tolist()  # valid at alive group slots
        for slots in self._slot.values():
            for key, slot in slots.items():
                slots[key] = new_slot[slot]
        self.e_alive[:new_n] = True
        self.g_alive[:new_g] = True
        self.n_ent = new_n
        self.n_grp = new_g
        self.dead_ent = 0

    def check_invariants(self) -> None:
        """Arena <-> LQT consistency, for the test suite and the bench.

        Absorbs the pending deltas first; that is unobservable, since
        nothing outside the arena depends on its slot order.
        """
        self._refresh()
        n = self.n_ent
        clients = self._clients
        assert self.n_lqt == sum(len(c.lqt) for c in clients.values()), "lqt_total drifted"
        assert int(self.e_alive[:n].sum()) == n - self.dead_ent, "dead-entry count drifted"
        assert len(self.e_refs) == n
        e_alive = self.e_alive
        e_group = self.e_group
        e_targ = self.e_targ[:n].tolist()
        e_refs = self.e_refs
        dead = ~e_alive[:n]
        assert all((ref is None) == gone for ref, gone in zip(e_refs, dead.tolist())) and not (
            self.e_state[_PTM, :n][dead].any()
        ), "a dead slot holds an entry or a safe period"
        live_entries = live_groups = 0
        for oid, slots in self._slot.items():
            lqt = clients[oid].lqt
            statics = self._statics.get(oid, [])
            held = len(statics)
            assert len(statics) == sum(e.is_static for e in lqt.entries())
            assert all(lqt.find(e.qid) is e and e.is_static for e in statics)
            if self.grouping:
                expected = lqt.by_focal()
                expected.pop(None, None)
            else:
                expected = {e.qid: [e] for e in lqt.entries() if not e.is_static}
            assert slots.keys() == expected.keys(), f"client {oid}: groups out of date"
            for key, g in slots.items():
                assert g >= 0 and self.g_alive[g] and int(self.g_oid[g]) == oid
                lo = int(self.g_start[g])
                hi = lo + int(self.g_len[g])
                run = e_refs[lo:hi]
                group = expected[key]
                assert len(run) == len(group) and all(a is b for a, b in zip(run, group)), (
                    f"client {oid} group {key}: arena run differs from the table"
                )
                assert e_alive[lo:hi].all() and (e_group[lo:hi] == g).all()
                assert [e.is_target for e in run] == e_targ[lo:hi]
                assert [_state_column(e) for e in run] == self.e_state[:, lo:hi].T.tolist(), (
                    f"client {oid} group {key}: stale focal state or ptm"
                )
                held += hi - lo
            assert held == len(lqt), f"client {oid}: entries outside every group"
            live_entries += held - len(statics)
            live_groups += len(slots)
        assert live_entries == n - self.dead_ent, "live slot owned by no client"
        assert live_groups == int(self.g_alive[: self.n_grp].sum())
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
        if (
            self.dead_ent > self.compact_threshold
            and self.dead_ent * 2 > self.n_ent - self.dead_ent
        ):
            self._compact()

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

    def _batch(self, now: float, changes: dict) -> None:
        """Array pass over the arena; applies entry updates in place and
        adds the result flips to ``changes`` (client oid -> {qid: flag})."""
        np = self.np
        i64 = np.int64
        n = self.n_ent
        n_g = self.n_grp
        alive = self.e_alive[:n]
        reach = self.e_reach[:n]
        e_group = self.e_group[:n]
        g_start = self.g_start[:n_g]
        rows = self.e_row[:n]
        ox = self.store.x[rows]
        oy = self.store.y[rows]

        # Safe-period skips are a lane mask; each group predicts its focal
        # position from its first unmasked slot (the group start when nothing
        # is masked; a wholly masked group's prediction is never read).
        state = self.e_state
        starts = g_start[e_group]  # per slot: its group's first slot
        skip = state[_PTM, :n] > now
        n_skip = int(np.count_nonzero(skip))
        if n_skip:
            self.stats.skipped_by_safe_period += n_skip
            valid = alive & ~skip
            first = np.minimum.reduceat(np.where(skip, n - 1, np.arange(n)), g_start)
            lead = first[e_group]  # per slot: the slot its group predicts from
        else:
            valid = alive
            lead = starts
        # Every slot's dead-reckoned focal position, in the exact reference
        # operation order (dt = now - tm, then pos + vel * dt, elementwise in
        # float64), then one gather per coordinate.
        x, y, vx, vy, recorded_at = state[:5, :n]
        dt = now - recorded_at
        fx = (x + vx * dt).take(lead)
        fy = (y + vy * dt).take(lead)
        dx = ox - fx
        dy = oy - fy
        dist_sq = dx * dx + dy * dy
        beyond = dist_sq > reach * reach

        if self.grouping:
            # Segmented prefix count of (non-skipped) `beyond` strictly
            # before each entry within its group: any hit latches every
            # later (smaller-reach) entry of the group as implied-outside.
            # Tombstoned groups compute garbage that never escapes their
            # own segment and is masked out below.
            b = (beyond & valid).astype(i64)
            excl = np.cumsum(b) - b
            before = excl - excl[starts]
            implied = (before > 0) & valid
        else:
            implied = np.zeros(n, dtype=bool)
        checked = valid & ~implied

        # Containment: for origin-bound circles (the paper's default) the
        # reach equals the radius, so a checked entry within reach is
        # inside by the same squared-space comparison the reference makes.
        inside = checked & ~beyond
        noncircle = inside & ~self.e_circ[:n]
        if noncircle.any():
            idxs = np.nonzero(noncircle)[0]
            oids = self.g_oid[e_group[idxs]].tolist()
            e_refs = self.e_refs
            clients = self._clients
            for i, px, py, oid in zip(idxs.tolist(), fx[idxs].tolist(), fy[idxs].tolist(), oids):
                inside[i] = clients[oid]._contains(e_refs[i], Point(px, py))

        self.stats.evaluated_queries += int(checked.sum())
        if self.grouping:
            self.stats.skipped_by_grouping += int(implied.sum())

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
            oids = self.g_oid[e_group[idxs]].tolist()
            e_refs = self.e_refs
            for i, flag, oid in zip(idxs.tolist(), flags.tolist(), oids):
                entry = e_refs[i]
                entry.is_target = flag
                changed = changes.get(oid)
                if changed is None:
                    changes[oid] = {entry.qid: flag}
                else:
                    changed[entry.qid] = flag
