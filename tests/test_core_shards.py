"""The grid-partitioned server: coordinator routing, focal handoff, and
exactness guarantees.

Three layers of evidence that sharding is a pure refactor of the server
tier, not a behavior change:

1. a one-shard :class:`~repro.core.coordinator.Coordinator` is
   *bit-identical* to the monolithic server (results, message counts,
   ledger bits) on both engines;
2. multi-shard deployments stay bit-identical to the monolith and exact
   against the oracle on the dense bench scenario;
3. the cross-shard mechanics (focal handoff, boundary-spanning RQI
   registrations, removal racing a handoff) keep every directory and
   per-shard table consistent.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import MobiEyesConfig
from repro.core import system as system_module
from repro.core.coordinator import Coordinator
from repro.core.messages import CellChangeReport
from repro.fastpath import numpy_available
from repro.fastpath.bench import dense_params, skewed_params
from repro.geometry import Point

from tests.conftest import circle_query, make_object, make_system, observe, paper_system

ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])


def build_system(
    engine="reference",
    shards=1,
    params=None,
    thresh=0.0,
    one_shard_coordinator=False,
    latency=0,
):
    """A Table-1 workload system, optionally sharded, with accuracy
    tracking on."""
    with pytest.MonkeyPatch.context() as patch:
        if one_shard_coordinator:
            # The full coordinator/shard stack at ``num_shards=1`` -- what
            # the bit-identity tests compare against the monolith.  No
            # config reaches it (``MobiEyesSystem`` engages the coordinator
            # only for ``shards > 1``: +30% server time at one shard, ROADMAP
            # item E "settled"), so the system's monolith constructor is
            # swapped for the duration of the build.
            patch.setattr(
                system_module,
                "MobiEyesServer",
                lambda grid, transport, config: Coordinator(grid, transport, config, num_shards=1),
            )
        return paper_system(
            engine=engine,
            shards=shards,
            params=params,
            latency=latency,
            track_accuracy=True,
            dead_reckoning_threshold=thresh,
        )


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_shard_coordinator_equals_monolith(self, engine):
        mono = build_system(engine, thresh=1.0)
        coord = build_system(engine, thresh=1.0, one_shard_coordinator=True)
        assert isinstance(coord.server, Coordinator)
        assert coord.server.num_shards == 1
        for step in range(14):
            mono.step()
            coord.step()
            assert observe(mono) == observe(coord), (
                f"coordinator diverged from monolith at step {step + 1}"
            )
            if step % 5 == 0:
                mono.check_invariants()
                coord.check_invariants()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_multishard_equals_monolith(self, shards):
        mono = build_system(thresh=1.0)
        multi = build_system(shards=shards, thresh=1.0)
        assert multi.server.num_shards == shards
        for step in range(12):
            mono.step()
            multi.step()
            # Cross-shard focal handoffs are real extra server work the
            # monolith never performs; everything else must match.
            assert observe(mono, ops=False) == observe(multi, ops=False), (
                f"{shards}-shard deployment diverged at step {step + 1}"
            )
        multi.check_invariants()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_multishard_matches_exact_oracle_on_dense_scenario(self, shards):
        # With continuous dead reckoning (threshold 0) and per-step
        # evaluation the protocol is exact; sharding must preserve that.
        params = dataclasses.replace(dense_params(0.015), seed=42)
        system = build_system(shards=shards, params=params, thresh=0.0)
        for _ in range(10):
            system.step()
            assert system.results() == system.oracle_results()
        system.check_invariants()

    @pytest.mark.parametrize("latency", [0, 2])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_subscriber_order_across_shard_counts(self, engine, latency):
        """Result-change callbacks fire in the same ``(qid, oid, entered)``
        order however the grid is partitioned."""
        sequences = []
        for shards in (1, 2, 4):
            system = build_system(engine, shards=shards, latency=latency)
            events = []
            for qid in sorted(system.results()):
                system.subscribe(qid, lambda q, o, entered: events.append((q, o, entered)))
            system.run(12)
            sequences.append(events)
        assert sequences[0], "scenario produced no membership events"
        assert sequences[0] == sequences[1] == sequences[2]


def sharded_world(shards=2):
    """Ten grid columns split into two stripes (0-4 and 5-9); the focal
    candidate sits in column 4, one cell west of the boundary."""
    objects = [
        make_object(0, 24, 25),  # cell (4, 5): last column of shard 0
        make_object(1, 26, 25),  # cell (5, 5): first column of shard 1
        make_object(2, 22, 24),  # cell (4, 4): shard 0
        make_object(3, 45, 45),  # far away, shard 1
    ]
    return make_system(objects, shards=shards)


class TestCrossShardMechanics:
    def test_install_query_spanning_shard_boundary(self):
        system = sharded_world()
        coord = system.server
        qid = system.install_query(circle_query(0, 2.0))
        entry = coord.sqt.get(qid)
        portions = coord.partitioner.split(entry.mon_region)
        assert len(portions) == 2, "monitoring region should straddle the boundary"
        # Each shard's RQI answers for exactly its own portion ...
        for shard_id, portion in portions:
            registry = coord.shards[shard_id].registry
            for cell in portion:
                assert qid in registry.queries_at(cell)
        # ... and foreign-cell lookups route through the coordinator.
        assert qid in coord.shards[1]._queries_at((4, 5))
        assert qid in coord.shards[0]._queries_at((5, 5))
        # Clients on both sides of the boundary installed the query.
        assert qid in system.client(1).lqt
        assert qid in system.client(2).lqt
        coord.check_invariants()

    def test_focal_handoff_then_remove_query(self):
        system = sharded_world()
        coord = system.server
        qid = system.install_query(circle_query(0, 2.0))
        assert coord.owner(qid) == 0
        assert coord._home_of(0) == 0
        assert 0 in coord.shards[0].tracker

        # The focal crosses the stripe boundary: its report routes to
        # shard 1, which acquires the focal before handling the change.
        client0 = system.client(0)
        client0.obj.pos = Point(27.0, 25.0)
        system.transport.uplink(
            CellChangeReport(
                oid=0, prev_cell=(4, 5), new_cell=(5, 5), state=client0.obj.snapshot()
            )
        )
        assert coord.owner(qid) == 1
        assert coord._home_of(0) == 1
        assert 0 not in coord.shards[0].tracker
        assert 0 in coord.shards[1].tracker
        assert qid not in coord.shards[0].registry
        assert qid in coord.shards[1].registry
        assert coord.sqt.get(qid).curr_cell == (5, 5)
        coord.check_invariants()

        # Removal right on the heels of the handoff must clean up every
        # shard and every directory.
        system.remove_query(qid)
        assert qid not in coord.sqt
        assert 0 not in coord.fot
        assert coord.owner(qid) is None
        assert coord._home_of(0) is None
        for shard in coord.shards:
            assert qid not in shard.registry
            assert 0 not in shard.tracker
        assert not system.client(0).has_mq
        coord.check_invariants()

        # A stale in-flight report from the ex-focal must not resurrect
        # any state.
        system.transport.uplink(
            CellChangeReport(oid=0, prev_cell=(5, 5), new_cell=(6, 5))
        )
        assert 0 not in coord.fot
        assert not coord.sqt.is_focal(0)
        coord.check_invariants()

    def test_remove_query_wins_race_against_handoff_report(self):
        """The removal lands first; the already-in-flight boundary-crossing
        report from the ex-focal arrives afterwards."""
        system = sharded_world()
        coord = system.server
        qid = system.install_query(circle_query(0, 2.0))
        client0 = system.client(0)
        client0.obj.pos = Point(27.0, 25.0)
        system.remove_query(qid)
        system.transport.uplink(
            CellChangeReport(
                oid=0, prev_cell=(4, 5), new_cell=(5, 5), state=client0.obj.snapshot()
            )
        )
        assert 0 not in coord.fot
        assert not len(coord.sqt)
        assert not coord.sqt.is_focal(0)
        for shard in coord.shards:
            assert 0 not in shard.tracker
        coord.check_invariants()

    def test_handoff_preserves_results_and_subscriptions(self):
        system = sharded_world()
        coord = system.server
        qid = system.install_query(circle_query(0, 2.0))
        events = []
        system.subscribe(qid, lambda q, o, entered: events.append((q, o, entered)))
        system.run(2)  # object 1 sits inside the region: a result arrives
        assert 1 in system.result(qid)
        assert (qid, 1, True) in events
        client0 = system.client(0)
        client0.obj.pos = Point(27.0, 25.0)
        system.transport.uplink(
            CellChangeReport(
                oid=0, prev_cell=(4, 5), new_cell=(5, 5), state=client0.obj.snapshot()
            )
        )
        assert coord.owner(qid) == 1
        # The result set and the subscription survived the migration.
        assert 1 in system.result(qid)
        before = len(events)
        system.transport.uplink(CellChangeReport(oid=0, prev_cell=(5, 5), new_cell=(5, 6)))
        assert len(events) == before  # no spurious callbacks from routing
        coord.check_invariants()


class TestTheShardsAreTheDirectory:
    """Ownership is read off the shards, so ``check_invariants()`` states
    the rule every lookup depends on: at most one shard holds any query,
    anchors any focal, or tracks any FOT entry.  Each doctored table below
    breaks it once."""

    def test_a_query_registered_in_two_shards_fails(self):
        system = sharded_world()
        coord = system.server
        qid = system.install_query(circle_query(0, 2.0))
        coord.shards[1].registry.add(coord.shards[0].registry.get(qid))
        with pytest.raises(AssertionError, match=f"query {qid} held by shards 0 and 1"):
            coord.check_invariants()

    def test_an_object_in_two_trackers_fails(self):
        system = sharded_world()
        coord = system.server
        system.install_query(circle_query(0, 2.0))
        fot = coord.shards[0].tracker.get(0)
        coord.shards[1].tracker.upsert(0, fot.state, fot.max_speed)
        with pytest.raises(AssertionError, match="FOT entry 0 held by shards 0 and 1"):
            coord.check_invariants()

    def test_one_focals_queries_split_across_two_shards_fails(self):
        system = sharded_world()
        coord = system.server
        system.install_query(circle_query(0, 2.0))
        second = system.install_query(circle_query(0, 1.0))
        coord.shards[1].registry.add(coord.shards[0].registry.release(second))
        with pytest.raises(AssertionError, match="focal 0 held by shards 0 and 1"):
            coord.check_invariants()

    def test_retired_slots_are_the_slots_missing_from_the_stripe_order(self):
        """spawn -> retire -> spawn (recycling the slot), each followed by a
        checkpoint round trip: the retired slots are derived from the map
        on the live system and on every restored one."""
        from repro.core.snapshot import checkpoint, from_bytes, restore, step_hash

        def retired_checks(system):
            server = system.server
            missing = set(range(len(server.shards))) - set(server.partitioner.order)
            assert server.retired_shards == tuple(sorted(missing))
            system.check_invariants()
            return server.retired_shards

        with paper_system(shards=2) as system:
            system.run(2)
            assert retired_checks(system) == ()
            for op, retired in (
                (("split", 0), ()),
                (("merge", 2, 0), (2,)),
                (("split", 1), ()),
            ):
                system.apply_op(op, "test", system.clock.step)
                assert retired_checks(system) == retired
                with restore(from_bytes(checkpoint(system).to_bytes())) as resumed:
                    assert retired_checks(resumed) == retired
                    system.run(2)
                    resumed.run(2)
                    assert step_hash(resumed) == step_hash(system)
                    assert retired_checks(resumed) == retired_checks(system)
            assert system.server.partitioner.order == (0, 1, 2)


class TestCoordinatorFacade:
    def test_shard_count_clamped_to_grid_columns(self):
        objects = [make_object(0, 24, 25), make_object(1, 26, 25)]
        system = make_system(objects, shards=64)
        assert isinstance(system.server, Coordinator)
        assert system.server.num_shards == 10  # 50-mile UoD / alpha 5
        system.install_query(circle_query(0, 2.0))
        system.run(3)
        system.check_invariants()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            make_system([make_object(0, 24, 25)], shards=0)

    def test_pooled_executor_options_are_gone(self):
        with pytest.raises(ValueError, match="pooled shard executors were removed"):
            make_system([make_object(0, 24, 25)], shards=2, shard_workers=1)
        # No executor-flavor field either: these are the only shard options.
        fields = {f.name for f in dataclasses.fields(MobiEyesConfig)}
        assert {n for n in fields if n.startswith("shard")} == {"shards", "shard_workers"}

    def test_load_aggregation_and_shard_loads(self):
        system = sharded_world()
        coord = system.server
        system.install_query(circle_query(0, 2.0))
        total_ops = sum(shard.load.ops for shard in coord.shards)
        assert total_ops > 0
        seconds, ops = coord.load_totals()
        assert ops == total_ops
        assert seconds == sum(shard.load.seconds for shard in coord.shards) >= 0.0
        rows = coord.shard_loads()
        assert [row["shard"] for row in rows] == [0, 1]
        assert [tuple(row["columns"]) for row in rows] == [(0, 4), (5, 9)]
        # The rows are the accounts' lifetime totals: a step's sample takes
        # nothing away from them.
        assert [row["ops"] for row in rows] == [shard.load.ops for shard in coord.shards]
        system.step()
        assert system.metrics.steps[-1].server_ops == coord.load_totals()[1] >= total_ops
        assert sum(row["ops"] for row in coord.shard_loads()) == coord.load_totals()[1]
        assert sum(row["queries"] for row in rows) == 1
        assert sum(row["focals"] for row in rows) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_idle_shard_under_the_flash_crowd(self, engine):
        # Half the population sits in the left fifth; the stripes on the
        # right still carry work (the deleted CI shard step's check).
        system = build_system(engine, shards=4, params=skewed_params(0.02), thresh=1.0)
        system.run(33)
        rows = system.server.shard_loads()
        assert len(rows) == 4
        assert min(row["ops"] for row in rows) > 0, rows

    def test_chaos_converges_with_two_shards(self):
        from repro.driver import run

        baseline = run(engine="reference", steps=20, scale=0.01, shards=1)
        sharded = run(engine="reference", steps=20, scale=0.01, shards=2)
        assert sharded["grading"]["converged"]
        assert sharded["result_hash"] == baseline["result_hash"]
        assert sharded["counters"]["message_counts"] == baseline["counters"]["message_counts"]
