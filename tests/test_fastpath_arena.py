"""Property tests for the batch evaluator's arena.

Random interleavings of LQT installs, removes, in-place ``focal_state``
rewrites, object moves and evaluations are applied to a handful of
clients on a vectorized system and on a reference twin.  After every
evaluation the arena must image the tables exactly
(``BatchEvaluator.check_invariants``: every entry's slot, its focal state
and ``ptm``, ``is_target``, its focal, and the install order that
reproduces ``lqt.by_focal()``'s in-group order), and the reports the batch
pass dispatched must equal the reference ``evaluation_phase`` reports in
content and order.  Every entry keeps its slot from install to removal,
and the arena grows only when no freed slot is left.  A group is found
from its members' ``(client, focal)`` key at each evaluation and predicts
from its lead, and an entry arriving with another evaluator's handle
(restored or attached) is placed anew.  Skipped without numpy."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import TrueFilter
from repro.core.messages import QueryDescriptor, QueryUpdateBroadcast, VelocityChangeBroadcast
from repro.core.snapshot import checkpoint, restore, step_hash
from repro.core.tables import LqtEntry
from repro.fastpath import numpy_available
from repro.fastpath.evaluator import BatchEvaluator
from repro.geometry import Circle, Point, Rect, Vector
from repro.grid import CellRange
from repro.mobility.model import MotionState
from tests.conftest import make_object, make_system, paper_system

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")

N_CLIENTS = 4
# qid -> (focal oid or None for a static query, region).  Focal 100 carries
# five queries: three of equal radius (the in-group tie, broken by install
# order) and a rectangle (the scalar containment fallback).
CATALOGUE = {
    0: (100, Circle(0, 0, 3.0)),
    1: (100, Circle(0, 0, 3.0)),
    2: (100, Circle(0, 0, 1.5)),
    3: (100, Rect(-2, -1, 4, 2)),
    4: (101, Circle(0, 0, 2.0)),
    5: (101, Circle(0, 0, 4.0)),
    6: (102, Circle(0, 0, 2.5)),
    7: (None, Rect(24, 24, 3, 3)),
    8: (None, Circle(26, 26, 2.0)),
    9: (100, Circle(0, 0, 3.0)),
}
MON_REGION = CellRange(0, 0, 9, 9)
# The whole grid: an update broadcast over it covers every client.
GRID = CellRange(0, 9, 0, 9)

clients = st.integers(0, N_CLIENTS - 1)
qids = st.sampled_from(sorted(CATALOGUE))
coords = st.floats(20.0, 30.0, allow_nan=False).map(lambda v: round(v, 1))
speeds = st.floats(-40.0, 40.0, allow_nan=False).map(lambda v: round(v, 1))
operations = st.one_of(
    # Weighted towards installs so tables fill up; installing a held qid is
    # skipped (a table refuses it).
    st.tuples(st.just("install"), clients, qids, coords, coords),
    st.tuples(st.just("install"), clients, qids, coords, coords),
    st.tuples(st.just("remove"), clients, qids),
    st.tuples(st.just("state"), clients, qids, coords, coords, speeds),
    st.tuples(st.just("move"), clients, coords, coords),
    st.tuples(st.just("evaluate")),
)


class Twin:
    """One engine's system, stripped to its clients' tables and evaluation."""

    def __init__(self, engine, grouping, safe_period):
        objects = [make_object(oid, 25 + oid, 25, max_speed=50.0) for oid in range(N_CLIENTS)]
        self.system = make_system(
            objects, engine=engine, grouping=grouping, safe_period=safe_period
        )
        self.clients = [self.system.clients[oid] for oid in range(N_CLIENTS)]
        self.sent: list = []
        for client in self.clients:
            client._send_result_changes = self._recorder(client.oid)
        runtime = self.system._fastpath
        self.evaluator = runtime.evaluator if runtime is not None else None
        self.fanout = runtime.fanout if runtime is not None else None

    def _recorder(self, oid):
        return lambda changes: self.sent.append((oid, list(changes.items())))

    def apply(self, op, now):
        kind = op[0]
        if kind == "install":
            _, c, qid, x, y = op
            if qid in self.clients[c].lqt:
                return
            focal, region = CATALOGUE[qid]
            state = None if focal is None else MotionState(Point(x, y), Vector(1.0, -2.0), now)
            entry = LqtEntry(
                qid=qid,
                oid=focal,
                region=region,
                filter=TrueFilter(),
                focal_state=state,
                focal_max_speed=60.0,
                mon_region=MON_REGION,
            )
            self.clients[c].lqt.install(entry)
        elif kind == "remove":
            self.clients[op[1]].lqt.remove(op[2])
        elif kind == "state":
            _, c, qid, x, y, v = op
            lqt = self.clients[c].lqt
            entry = lqt.find(qid)
            if entry is not None and not entry.is_static:
                lqt.set_focal_state(entry, MotionState(Point(x, y), Vector(v, -v), now))
        elif kind == "move":
            _, c, x, y = op
            # On the vectorized twin the client's object is a row view, so
            # the assignment is the store write the evaluator reads.
            self.clients[c].obj.pos = Point(x, y)
        elif kind in ("update", "velocity"):
            # A focal-crossing or velocity-change broadcast to one covered
            # receiver: the reference client's handler, or the vectorized
            # fan-out.
            _, c, qid, x, y = op
            focal, region = CATALOGUE[qid]
            state = MotionState(Point(x, y), Vector(3.0, 1.0), now)
            if kind == "velocity":
                message = VelocityChangeBroadcast(oid=focal, state=state, qids=(qid,))
            else:
                desc = QueryDescriptor(
                    qid=qid,
                    oid=focal,
                    region=region,
                    filter=TrueFilter(),
                    focal_state=state,
                    focal_max_speed=60.0,
                    mon_region=GRID,
                )
                message = QueryUpdateBroadcast(queries=(desc,))
            client = self.clients[c]
            if self.fanout is None:
                client.on_downlink(message)
            else:
                self.fanout.apply(message, {client.oid})

    def evaluate(self, now):
        """Run one evaluation; returns the reports it sent, in order."""
        self.sent = []
        if self.evaluator is not None:
            self.evaluator.run(now)
        else:
            clock = SimpleNamespace(now_hours=now)
            for client in self.clients:
                client.evaluation_phase(clock)
        return self.sent

    def entry_state(self):
        return [
            [(e.qid, e.is_target, e.ptm) for e in client.lqt.entries()]
            for client in self.clients
        ]

    def eval_counts(self):
        """(evaluated, skipped by safe period, skipped by grouping) so far."""
        stats = self.system.eval_counters
        return [stats.evaluated_queries, stats.skipped_by_safe_period, stats.skipped_by_grouping]



class SlotLedger:
    """What the arena promises about its slots, checked op by op: an
    entry keeps the slot it was installed into until it is removed, and
    ``n_ent`` is the peak of (arena entries at the last refresh + installs
    since) -- a freed slot is handed out before the arena grows."""

    def __init__(self, twin):
        self.twin = twin
        self.ev = twin.evaluator
        self.slots = {}  # (client oid, qid) -> (entry, its slot)
        self.live = 0  # arena entries at the last refresh
        self.pending = 0  # installs since
        self.peak = 0

    def check(self):
        ev = self.ev
        held = {
            (c.oid, e.qid): e for c in self.twin.clients for e in c.lqt.entries() if not e.is_static
        }
        for key, (entry, _) in list(self.slots.items()):
            if held.get(key) is not entry:
                del self.slots[key]
        for key, entry in held.items():
            if key not in self.slots:
                self.slots[key] = (entry, entry.arena_slot)
                self.pending += 1
            slot = self.slots[key][1]
            assert entry.arena_slot == slot and ev.e_refs[slot] is entry, key
        self.peak = max(self.peak, self.live + self.pending)
        assert ev.n_ent == self.peak

    def refreshed(self):
        self.live, self.pending = len(self.slots), 0


# The example count is the active profile's: 100 in tier-1, 2000 under the
# long profile CI runs.
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(operations, min_size=1, max_size=60), safe_period=st.booleans())
@pytest.mark.parametrize("grouping", [True, False], ids=["grouping", "no-grouping"])
def test_arena_images_tables_under_random_interleavings(grouping, ops, safe_period):
    ref = Twin("reference", grouping, safe_period)
    vec = Twin("vectorized", grouping, safe_period)
    ledger = SlotLedger(vec)
    now = 0.0
    for op in ops + [("evaluate",)]:
        if op[0] != "evaluate":
            ref.apply(op, now)
            vec.apply(op, now)
            ledger.check()
            continue
        now += 1.0 / 120.0
        assert vec.evaluate(now) == ref.evaluate(now)
        assert vec.entry_state() == ref.entry_state()
        assert vec.eval_counts() == ref.eval_counts()
        vec.evaluator.check_invariants()
        ledger.refreshed()
        assert vec.evaluator.lqt_total() == sum(len(c.lqt) for c in vec.clients)


ARENA_QIDS = sorted(qid for qid, (focal, _) in CATALOGUE.items() if focal is not None)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(
        st.integers(0, N_CLIENTS * len(ARENA_QIDS) - 1), min_size=1100, max_size=1100
    ),
    every=st.integers(1, 12),
    grouping=st.booleans(),
)
def test_an_entry_keeps_its_slot_over_many_install_remove_cycles(keys, every, grouping):
    """1,100 toggles of (client, query) keys -- an install when the client
    does not hold the query, else a removal, so at least 532 complete
    install/remove cycles -- with an evaluation every ``every`` toggles."""
    vec = Twin("vectorized", grouping, False)
    ledger = SlotLedger(vec)
    now = 0.0
    cycles = 0
    for k, key in enumerate(keys, 1):
        c, qid = divmod(key, len(ARENA_QIDS))
        qid = ARENA_QIDS[qid]
        if qid in vec.clients[c].lqt:
            vec.apply(("remove", c, qid), now)
            cycles += 1
        else:
            vec.apply(("install", c, qid, 20.0 + k % 100 / 10, 25.0), now)
        ledger.check()
        if k % every == 0:
            now += 1.0 / 120.0
            vec.evaluate(now)
            ledger.refreshed()
    vec.evaluator.check_invariants()
    assert cycles >= 500


def _stepper(safe_period=False):
    """A reference twin, a vectorized twin (grouping on), and a
    ``play(*ops)`` that applies the ops to both and then runs one
    evaluation on each, checking that the reports, the entries, the
    evaluation counters and the arena image agree."""
    ref = Twin("reference", True, safe_period)
    vec = Twin("vectorized", True, safe_period)
    clock = [0.0]

    def play(*script):
        for op in script:
            ref.apply(op, clock[0])
            vec.apply(op, clock[0])
        clock[0] += 1.0 / 120.0
        assert vec.evaluate(clock[0]) == ref.evaluate(clock[0])
        assert vec.entry_state() == ref.entry_state()
        assert vec.eval_counts() == ref.eval_counts()
        vec.evaluator.check_invariants()
        return ref.sent

    return vec.evaluator, play


def _entry(ev, oid, qid):
    return ev._clients[oid].lqt.find(qid)


def _slot(ev, oid, qid):
    """The arena slot of client ``oid``'s entry of ``qid``."""
    return _entry(ev, oid, qid).arena_slot


def _rewrite(how, oid, qid, x, y):
    """The op rewriting client ``oid``'s entry of ``qid`` in place, its
    focal now at ``(x, y)``: by the table method (``set_focal_state``), an
    update broadcast (``fanout``) or a velocity broadcast (``velocity``),
    each broadcast applied by the fan-out or the reference handler."""
    if how == "set_focal_state":
        return ("state", oid, qid, x, y, 0.0)
    return ("update" if how == "fanout" else how, oid, qid, x, y)


@pytest.mark.parametrize("written", [False, True], ids=["staged", "written"])
def test_install_remove_install_of_one_group_between_evaluations(written):
    """The same (client, focal) group comes, goes and comes back between two
    evaluations (``written``: its first entry was evaluated before); the
    arena holds the last entry, once, and a slot freed by a removal is
    handed out only after the refresh that tombstones it."""
    ev, play = _stepper()
    play(("install", 1, 4, 25.0, 26.0))
    if written:
        play(("install", 0, 0, 25.0, 25.0))
    play(
        ("remove", 0, 0),
        ("install", 0, 0, 30.0, 25.0),
        ("install", 2, 6, 26.0, 25.0),  # another client's group, created after
        ("remove", 0, 0),
        ("install", 0, 0, 26.0, 25.0),
    )
    # Three entries live; the removed ones' slots are free.
    freed = [1, 2] if written else [1]
    assert ev.n_ent == 3 + len(freed) and sorted(ev._free) == freed
    # The basis is the last install's: the focal sits on the client.
    assert ev.e_state[:2, _slot(ev, 0, 0)].tolist() == [26.0, 25.0]
    play(("install", 3, 5, 25.0, 25.0))
    assert ev.n_ent == 3 + len(freed) and _slot(ev, 3, 5) in freed


@pytest.mark.parametrize("how", ["set_focal_state", "fanout", "velocity"])
def test_a_staged_entry_rewritten_in_place_is_evaluated_on_its_new_state(how):
    """An in-place ``focal_state`` rewrite of an entry installed since the
    last evaluation (its slot not yet written): the next evaluation
    predicts from the new state."""
    ev, play = _stepper()
    assert play(("install", 0, 4, 25.0, 25.0)) == [(0, [(4, True)])]
    rewrite = _rewrite(how, 0, 6, 40.0, 40.0)
    # Installed on the client, then moved away before any evaluation: no
    # report, where the installed state alone would report an enter.
    assert play(("install", 0, 6, 25.0, 25.0), rewrite) == []
    assert ev.e_state[:2, _slot(ev, 0, 6)].tolist() == [40.0, 40.0]


@pytest.mark.parametrize("how", ["set_focal_state", "fanout", "velocity"])
def test_a_written_second_entry_rewritten_in_place_is_evaluated_on_its_new_state(how):
    """Safe periods on: the first entry of a two-entry group is skipped by
    its safe period, so the group predicts from the second -- whose
    ``focal_state`` was just rewritten in place."""
    ev, play = _stepper(safe_period=True)
    # Both far from the client: both set a safe period.
    assert play(("install", 0, 0, 40.0, 40.0), ("install", 0, 2, 40.0, 40.0)) == []
    qid0, qid2 = _entry(ev, 0, 0), _entry(ev, 0, 2)
    assert qid0.ptm > 0.0 and qid2.ptm > 0.0
    rewrite = _rewrite(how, 0, 2, 25.0, 25.0)
    # The focal now sits on the client: qid 2 enters; qid 0 stays skipped.
    before = (ev.stats.skipped_by_safe_period, ev.stats.skipped_by_grouping)
    assert play(rewrite) == [(0, [(2, True)])]
    i, j = _slot(ev, 0, 2), _slot(ev, 0, 0)
    # One group key, whose skipped first member left the second to lead.
    assert (ev.e_row[i], ev.e_focal[i]) == (ev.e_row[j], ev.e_focal[j])
    assert (ev.stats.skipped_by_safe_period, ev.stats.skipped_by_grouping) == (
        before[0] + 1, before[1]
    )
    assert ev.e_state[:2, i].tolist() == [25.0, 25.0]
    assert not qid0.is_target


@pytest.mark.parametrize("how", ["set_focal_state", "fanout", "velocity"])
@pytest.mark.parametrize("retire", ["remove", "regroup"])
def test_a_rewritten_slot_retired_before_the_refresh_ends_dead(how, retire):
    """Safe periods on: a one-entry group's entry is rewritten in place
    (its slot marked for the next refresh), then, before that refresh,
    the entry is removed -- its slot ends dead with ``ptm`` 0 -- or its
    group grows to two entries, which no longer retires the slot: it keeps
    the entry, imaged with the rewritten state."""
    ev, play = _stepper(safe_period=True)
    assert play(("install", 0, 0, 40.0, 40.0)) == []  # far away: a safe period
    i = _slot(ev, 0, 0)
    assert ev.e_state[5, i] > 0.0
    entry = _entry(ev, 0, 0)
    rewrite = _rewrite(how, 0, 0, 40.0, 40.0)
    retirement = ("remove", 0, 0) if retire == "remove" else ("install", 0, 2, 25.0, 25.0)
    play(rewrite, retirement)
    if retire == "remove":
        assert not ev.e_alive[i] and ev.e_refs[i] is None and ev.e_state[5, i] == 0.0
        assert ev._free == [i]
    else:
        assert _slot(ev, 0, 0) == i and ev.e_alive[i] and ev.e_refs[i] is entry
    ev.check_invariants()


def test_the_group_lead_follows_install_order_not_slot_order():
    """Safe periods on: three equal-reach entries of one group.  The
    earliest is masked by its safe period; of the other two, the later
    one takes a lower slot, freed by a removal.  The group predicts from
    the earlier of the two -- the table's order -- whose focal sits on the
    client, so the later one enters; a lead chosen by slot would predict
    from the later one's far focal and report the earlier one leaving."""
    ev, play = _stepper(safe_period=True)
    assert play(("install", 0, 4, 25.0, 25.0), ("install", 0, 0, 40.0, 40.0)) == [
        (0, [(4, True)])
    ]
    assert _entry(ev, 0, 0).ptm > 0.0  # far away: masked from now on
    assert play(("remove", 0, 4), ("install", 0, 1, 25.0, 25.0)) == [(0, [(1, True)])]
    assert play(("install", 0, 9, 40.0, 40.0)) == [(0, [(9, True)])]
    assert _slot(ev, 0, 9) < _slot(ev, 0, 1) and _entry(ev, 0, 0).ptm > 0.0


def test_a_group_counts_its_beyond_reach_members_but_the_first_as_skipped():
    """A three-member group whose two smaller members lie beyond reach:
    the first of those is checked, the second implied outside -- exactly
    one ``skipped_by_grouping``."""
    ev, play = _stepper()
    # Radii 3.0 and 1.5 and a rectangle of reach sqrt(5): the client
    # stands 2.5 from the focal, inside the first only.
    assert play(
        ("install", 0, 0, 22.5, 25.0),
        ("install", 0, 2, 22.5, 25.0),
        ("install", 0, 3, 22.5, 25.0),
    ) == [(0, [(0, True)])]
    assert (ev.stats.evaluated_queries, ev.stats.skipped_by_grouping) == (2, 1)


def test_a_group_keeps_its_lead_until_it_empties():
    """A (client, focal) group is found from its members' keys at every
    evaluation: while it has two members it predicts from its lead, a
    member left behind by a removed lead predicts for itself, a newcomer of
    the same client and focal joins it, and another client's entry of the
    same focal does not."""
    ev, play = _stepper()
    # The lead (qid 0, radius 3) has its focal on the client, qid 2 an
    # older far state: the group predicts from the lead, so both enter.
    assert play(("install", 0, 0, 25.0, 25.0), ("install", 0, 2, 40.0, 40.0)) == [
        (0, [(0, True), (2, True)])
    ]
    # Alone, qid 2 predicts from its own far state and leaves.
    assert play(("remove", 0, 0)) == [(0, [(2, False)])]
    # A newcomer of radius 3 leads the group again; client 1's entry of the
    # same focal, far from it, is a group of its own and stays outside.
    assert play(("install", 0, 1, 25.0, 25.0), ("install", 1, 9, 40.0, 40.0)) == [
        (0, [(1, True), (2, True)])
    ]
    # The lead's focal moves away: the lead is checked, qid 2 implied.
    assert play(("state", 0, 1, 40.0, 40.0, 0.0)) == [(0, [(1, False), (2, False)])]
    assert ev.stats.skipped_by_grouping == 1
    play(("remove", 0, 1), ("remove", 0, 2), ("install", 0, 2, 25.0, 25.0))
    assert ev.stats.skipped_by_grouping == 1


@pytest.mark.parametrize(
    "focal", [100, 2**30 + 100, 2**62 + 100, -(2**62) + 100, 2**63 - 1, -(2**63)]
)
def test_groups_stay_apart_when_their_one_int_keys_collide(focal):
    """Client 0 holds two entries of focal 100 and one of ``focal``.  With
    the world's four objects the pair key is ``focal * 4 + row``: a focal
    2**30 away shares focal 100's key wrapped to 32 bits (no store object
    need carry a focal's id; any id that fits int64 is exact).  A
    collision sends the pass on to the exact order of the pairs.  The
    focal-100 group predicts from its lead, on the client, so both its
    members enter; the other focal's entry, far away, stays out unless it
    is one group with them (``focal`` 100 itself)."""
    twins = [Twin("reference", True, False), Twin("vectorized", True, False)]
    for twin in twins:
        for qid, oid, r, x in [(0, 100, 3.0, 25.0), (1, focal, 1.5, 40.0), (2, 100, 1.5, 40.0)]:
            state = MotionState(Point(x, x), Vector(0.0, 0.0), 0.0)
            entry = LqtEntry(
                qid=qid, oid=oid, region=Circle(0, 0, r), filter=TrueFilter(),
                focal_state=state, focal_max_speed=60.0, mon_region=MON_REGION,
            )
            twin.clients[0].lqt.install(entry)
    ref, vec = (twin.evaluate(1.0 / 120.0) for twin in twins)
    assert vec == ref
    if focal == 100:
        assert ref == [(0, [(0, True), (1, True), (2, True)])]
    else:
        assert ref == [(0, [(0, True), (2, True)])]
    assert twins[1].eval_counts() == twins[0].eval_counts()
    twins[1].evaluator.check_invariants()


def test_an_entry_holding_another_evaluators_handles_joins_its_live_sibling():
    """An entry arrives holding the slot another evaluator gave it -- here
    it names another client's entry -- next to a live sibling (same
    client, same focal): it takes a slot of its own and joins the
    sibling's group, which predicts from the sibling, its lead."""
    vec = Twin("vectorized", True, False)
    other = Twin("vectorized", True, False)
    ev = vec.evaluator
    vec.apply(("install", 1, 4, 26.0, 25.0), 0.0)
    vec.apply(("install", 0, 0, 25.0, 25.0), 0.0)
    other.apply(("install", 0, 1, 40.0, 40.0), 0.0)
    arrival = other.clients[0].lqt.remove(1)
    bystander = _entry(ev, 1, 4)
    assert arrival.arena_slot == bystander.arena_slot == 0
    vec.clients[0].lqt.install(arrival)
    assert ev.e_refs[arrival.arena_slot] is arrival and arrival.arena_slot == 2
    # The arrival's own focal state is far from the client; the lead's is
    # on it, so both of client 0's entries enter.
    assert vec.evaluate(1.0 / 120.0) == [(0, [(0, True), (1, True)]), (1, [(4, True)])]
    ev.check_invariants()


def test_attach_replays_entries_holding_another_evaluators_handles():
    """A second evaluator attached to tables whose entries hold the first
    one's handles.  The replay places client 0's group in table order; when
    it places the first member, the second still holds slot 0 -- in range,
    but now the first member's.  Each takes a slot of its own, and the two
    stay one group: the second, its focal state far away, predicts from
    the first and enters."""
    vec = Twin("vectorized", True, False)
    first = vec.evaluator
    vec.apply(("install", 1, 4, 26.0, 25.0), 0.0)
    vec.apply(("install", 0, 0, 25.0, 25.0), 0.0)
    vec.apply(("remove", 1, 4), 0.0)
    assert vec.evaluate(1.0 / 120.0) == [(0, [(0, True)])]  # frees slot 0
    vec.apply(("install", 0, 1, 40.0, 40.0), 0.0)
    lead, second = _entry(first, 0, 0), _entry(first, 0, 1)
    assert (lead.arena_slot, second.arena_slot) == (1, 0)
    fresh = BatchEvaluator(first.config, first.store, first.stats)
    fresh.attach(vec.clients)
    assert (lead.arena_slot, second.arena_slot) == (0, 1)
    vec.sent = []
    fresh.run(2.0 / 120.0)
    assert vec.sent == [(0, [(1, True)])]
    fresh.check_invariants()


def test_one_checkpoint_restored_twice_at_focal_skew():
    """Zipf focal skew 1.2, where many groups have several members: a
    mid-run checkpoint is restored twice.  The restored entries carry the
    original's arena handles; each restored system's arena images its
    tables, and both replay the original's next ten step hashes."""
    system = paper_system("vectorized", shards=1, focal_skew=1.2)
    system.run(6)
    sizes = [
        len(members)
        for client in system.clients.values()
        for focal, members in client.lqt.by_focal().items()
        if focal is not None
    ]
    assert sum(size > 1 for size in sizes) > 10
    cp = checkpoint(system)
    hashes = []
    for _ in range(10):
        system.step()
        hashes.append(step_hash(system))
    system.close()
    for _ in range(2):
        resumed = restore(cp)
        resumed.check_invariants()
        for want in hashes:
            resumed.step()
            assert step_hash(resumed) == want
        resumed.check_invariants()
        resumed.close()
