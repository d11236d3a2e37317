"""Elastic shard scale-out: stripe insertion/retirement, the elastic
policy, and the online spawn/retire lifecycle graded end to end.

Evidence layers:

1. :class:`~repro.core.partition.PartitionMap` stripe surgery -- a
   zero-width insert or removal changes no cell's owner, so neither
   bumps the epoch; the filling/draining transfer does;
2. :class:`~repro.core.RebalancePolicy` with a fleet ceiling -- id-keyed
   streaks, split/merge/transfer decision order, fleet bounds, checkpoint
   state;
3. coordinator spawn/retire/recycle keeps invariants and drains retired
   slots completely;
4. scheduled splits and merges are deterministic, engine-agnostic, and
   **oracle-exact** against a static-fleet lockstep twin (scale-out
   moves state, never results);
5. the policy path actually splits a persistent flash-crowd hotspot, and
   stays stripe-adjacent when a schedule has reordered the ids;
6. a checkpoint restores a mutated fleet (order, retired slots, epoch)
   and resumes bit-identically.
"""

from __future__ import annotations

import copy

import pytest

from repro import scenario
from repro.core import MobiEyesConfig, RebalancePolicy
from repro.core.snapshot import (
    _decode,
    checkpoint,
    export_state,
    from_bytes,
    import_state,
    restore,
    step_hash,
)
from repro.core.partition import PartitionMap
from repro.fastpath import numpy_available
from repro.fastpath.bench import skewed_params
from repro.geometry import Rect
from repro.grid import Grid
from repro.workload import paper_defaults
from tests.conftest import SOAK_INPUTS, paper_system

ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])

# One split a third in, the spawned shard merged back two thirds in: the
# full spawn -> migrate -> retire lifecycle inside ten steps.
SCHEDULE = ((3, "split", 0), (7, "merge", 2, 0))


def make_grid(cols=8, rows=8, alpha=1.0):
    return Grid(Rect(0, 0, cols * alpha, rows * alpha), alpha)


def results_of(system):
    return sorted(
        (qid, tuple(sorted(oids))) for qid, oids in system.results().items()
    )


class TestStripeSurgery:
    def test_insert_is_zero_width_and_free(self):
        part = PartitionMap(make_grid(cols=8), 2)  # stripes 0-3, 4-7
        epoch = part.epoch
        part.insert_stripe(0, 2)
        assert part.order == (0, 2, 1)
        assert part.num_shards == 3
        assert part.width_of(2) == 0
        assert part.epoch == epoch  # no cell changed owner
        assert part.is_live(2)

    def test_filling_transfer_bumps_epoch(self):
        part = PartitionMap(make_grid(cols=8), 2)
        part.insert_stripe(0, 2)
        epoch = part.epoch
        moved = part.transfer(0, 2, 2)
        assert moved == 2
        assert part.epoch == epoch + 1
        assert part.width_of(0) == 2 and part.width_of(2) == 2

    def test_remove_requires_empty_stripe(self):
        part = PartitionMap(make_grid(cols=8), 2)
        with pytest.raises(ValueError, match="still owns"):
            part.remove_stripe(1)
        part.insert_stripe(0, 2)
        epoch = part.epoch
        part.remove_stripe(2)
        assert part.order == (0, 1)
        assert part.epoch == epoch
        assert not part.is_live(2)
        with pytest.raises(ValueError):
            part.position_of(2)

    def test_adjacency_is_positional_after_insert(self):
        part = PartitionMap(make_grid(cols=8), 2)
        part.insert_stripe(0, 2)
        part.transfer(0, 2, 2)
        # Shards 0 and 1 are ids 0,1 but positions 0,2: no longer adjacent.
        with pytest.raises(ValueError, match="adjacent"):
            part.transfer(0, 1, 1)
        assert part.transfer(2, 1, 1) == 1  # positions 1,2: adjacent

    def test_insert_validates_ids(self):
        part = PartitionMap(make_grid(cols=8), 2)
        with pytest.raises(ValueError, match="already owns"):
            part.insert_stripe(0, 1)
        with pytest.raises(ValueError, match="non-negative"):
            part.insert_stripe(0, -1)

    def test_restore_state_with_order_changes_count(self):
        part = PartitionMap(make_grid(cols=8), 2)
        part.restore_state((0, 2, 3, 8), 5, (0, 2, 1))
        assert part.num_shards == 3
        assert part.order == (0, 2, 1)
        assert part.shard_of_cell((2, 0)) == 2

    def test_restore_state_rejects_bounds_order_length_mismatch(self):
        part = PartitionMap(make_grid(cols=8), 2)
        with pytest.raises(ValueError, match="does not fit 2 stripes"):
            part.restore_state((0, 2, 3, 8), 5, (0, 1))  # three stripes, two ids
        assert part.order == (0, 1) and part.epoch == 0  # nothing adopted


class TestElasticPolicy:
    """The policy with a fleet ceiling: split after 2 hot windows, merge
    after 3 cold ones (the constants in ``core/rebalance.py``)."""

    def policy(self, max_shards=4):
        return RebalancePolicy(max_shards=max_shards)

    def test_split_after_hot_streak(self):
        policy = self.policy()
        order = (0, 1)
        widths = {0: 4, 1: 4}
        # Window 1: shard 0 hot (streak 1) -> transfer proposed first.
        op = policy.propose({0: 10.0, 1: 1.0}, widths, order)
        assert op == ("transfer", 0, 1, 1)
        # Window 2: still hot (streak 2) -> escalate to a split.
        op = policy.propose({0: 20.0, 1: 2.0}, widths, order)
        assert op == ("split", 0)
        assert policy.splits == 1

    def test_split_respects_max_shards(self):
        policy = self.policy(max_shards=2)
        order = (0, 1)
        widths = {0: 4, 1: 4}
        policy.propose({0: 10.0, 1: 1.0}, widths, order)
        op = policy.propose({0: 20.0, 1: 2.0}, widths, order)
        assert op is not None and op[0] == "transfer"  # capped: no split

    def test_split_needs_splittable_width(self):
        policy = self.policy()
        order = (0, 1)
        widths = {0: 1, 1: 7}
        policy.propose({0: 10.0, 1: 1.0}, widths, order)
        op = policy.propose({0: 20.0, 1: 2.0}, widths, order)
        assert op is None or op[0] != "split"

    def test_merge_after_cold_streak(self):
        policy = self.policy()
        order = (0, 1, 2)
        widths = {0: 3, 1: 3, 2: 2}
        # Shard 2 idles below the merge factor x mean for three windows;
        # the fleet is otherwise calm (no hot shard).
        assert policy.propose({0: 5.0, 1: 5.0, 2: 0.1}, widths, order) is None
        assert policy.propose({0: 10.0, 1: 10.0, 2: 0.2}, widths, order) is None
        op = policy.propose({0: 15.0, 1: 15.0, 2: 0.3}, widths, order)
        assert op == ("merge", 2, 1)
        assert policy.merges == 1

    def test_merge_respects_min_shards(self):
        policy = self.policy()
        order = (0, 1)
        widths = {0: 4, 1: 4}
        for window in (1, 2, 3, 4):
            op = policy.propose({0: 5.0 * window, 1: 0.1 * window}, widths, order)
            assert op is None or op[0] != "merge"
        assert policy.merges == 0

    def test_streaks_keyed_by_id_not_position(self):
        """A freshly spawned shard starts cold-zero even when it occupies
        a position whose previous occupant had a streak."""
        policy = self.policy()
        policy.propose({0: 5.0, 1: 0.1, 2: 0.1}, {0: 4, 1: 2, 2: 2}, (0, 1, 2))
        # Shard 1 retires; shard 3 spawns into the middle position.
        policy.propose({0: 10.0, 3: 0.2, 2: 0.2}, {0: 4, 3: 2, 2: 2}, (0, 3, 2))
        # Shard 2 kept its cold streak (now 2); shard 3 -- occupying the
        # retired shard 1's old position -- starts fresh at 1.
        assert policy._cold_streak[2] == 2
        assert policy._cold_streak[3] == 1
        assert 1 not in policy._cold_streak  # retired history dropped
        assert 1 not in policy._hot_streak
        assert 1 not in policy._marks

    def test_state_roundtrip(self):
        policy = self.policy()
        policy.propose({0: 10.0, 1: 1.0}, {0: 4, 1: 4}, (0, 1))
        clone = self.policy()
        import_state(clone, copy.deepcopy(export_state(policy)))
        assert export_state(clone) == export_state(policy)
        assert clone._hot_streak == {0: 1, 1: 0}
        # Both halves now make the same next decision.
        totals = {0: 20.0, 1: 2.0}
        widths = {0: 4, 1: 4}
        assert policy.propose(totals, widths, (0, 1)) == clone.propose(
            totals, widths, (0, 1)
        )

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(max_shards=1)  # a ceiling below the merge floor
        with pytest.raises(ValueError):
            RebalancePolicy(max_shards=-1)


class TestSpawnRetireLifecycle:
    def test_spawn_retire_recycle(self):
        system = paper_system(shards=2)
        with system:
            system.run(2)
            server = system.server
            summary = server.spawn_shard(0)
            spawned = summary["spawned"]
            assert spawned == 2
            assert server.partitioner.order == (0, 2, 1)
            assert server.partitioner.width_of(2) > 0
            server.check_invariants()
            system.run(2)
            summary = server.retire_shard(2, 0)
            assert summary["retired"] == 2
            assert server.partitioner.order == (0, 1)
            assert server.retired_shards == (2,)
            # The retired slot is fully drained.
            shard = server.shards[2]
            assert not list(shard.registry.ids())
            server.check_invariants()
            system.run(2)
            # Respawn recycles the lowest retired slot.
            summary = server.spawn_shard(1)
            assert summary["spawned"] == 2
            assert server.retired_shards == ()
            server.check_invariants()
            system.run(2)

    def test_spawn_requires_live_wide_donor(self):
        system = paper_system(shards=2)
        with system:
            server = system.server
            with pytest.raises(ValueError):
                server.spawn_shard(7)
            server.retire_shard(1, 0)
            with pytest.raises(ValueError):
                server.retire_shard(0, 0)  # cannot retire the last shard

    @staticmethod
    def crash_injector(start, end):
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import CrashWindow, FaultSchedule

        schedule = FaultSchedule(crashes=(CrashWindow(shard=1, start=start, end=end),))
        return FaultInjector(schedule=schedule)

    def test_crash_windows_reject_elastic(self):
        """A crash window and a scheduled split / merge both name shard ids
        by hand; either can name a slot the other retired, recycled or
        killed, so that mix is refused (docs/ROBUSTNESS.md)."""
        with pytest.raises(ValueError, match="elastic_schedule"):
            paper_system(
                shards=2,
                elastic_schedule=SCHEDULE,
                checkpoint_every_steps=2,
                loss=self.crash_injector(3, 5),
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_crash_window_under_the_thermostat(self, engine):
        """The load-driven fleet takes a crash window: the policy holds
        while the shard is down (its frozen ops would read as a cold stripe
        to hand columns to), recovery re-adopts what the crash erased, and
        the run realigns with the oracle."""
        system = paper_system(
            engine,
            shards=2,
            params=skewed_params(0.03),
            rebalance_every_steps=5,
            elastic_max_shards=4,
            checkpoint_every_steps=4,
            loss=self.crash_injector(12, 18),
        )
        with system:
            for _ in range(45):
                system.step()
                system.check_invariants()
            erased, rebuilt = system.crash_log
            assert erased["queries_lost"] and (erased["step"], rebuilt["step"]) == (12, 18)
            assert rebuilt["queries_recovered"] <= erased["queries_lost"]
            acted = [op["step"] for op in system.rebalance_log]
            assert acted and not any(12 <= step < 18 for step in acted)
            assert any(op["trigger"] == "policy-split" for op in system.rebalance_log)
            assert system.results() == system.oracle_results()


class TestScheduledElastic:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_oracle_exact_vs_static_twin(self, engine):
        elastic = paper_system(engine=engine, shards=2, elastic_schedule=SCHEDULE)
        static = paper_system(engine=engine, shards=2)
        with elastic, static:
            for step in range(10):
                elastic.step()
                static.step()
                assert results_of(elastic) == results_of(static), f"step {step}"
            log = elastic.rebalance_log
            assert sum(1 for op in log if op["trigger"] == "schedule-split") == 1
            assert sum(1 for op in log if op["trigger"] == "schedule-merge") == 1
            assert elastic.server.partitioner.order == (0, 1)
            assert elastic.server.retired_shards == (2,)
            elastic.server.check_invariants()

    def test_deterministic_across_runs(self):
        a = paper_system(shards=2, elastic_schedule=SCHEDULE)
        b = paper_system(shards=2, elastic_schedule=SCHEDULE)
        with a, b:
            for _ in range(10):
                a.step()
                b.step()
                assert step_hash(a) == step_hash(b)

    @pytest.mark.skipif(len(ENGINES) < 2, reason="numpy not installed")
    def test_engines_bit_identical(self):
        ref = paper_system(engine="reference", shards=2, elastic_schedule=SCHEDULE)
        vec = paper_system(engine="vectorized", shards=2, elastic_schedule=SCHEDULE)
        with ref, vec:
            for _ in range(10):
                ref.step()
                vec.step()
                assert step_hash(ref) == step_hash(vec)

    def test_survives_latency(self):
        """Stale-epoch uplinks in flight across a split/merge reroute."""
        elastic = paper_system(shards=2, elastic_schedule=SCHEDULE, latency=2)
        static = paper_system(shards=2, latency=2)
        with elastic, static:
            for _ in range(12):
                elastic.step()
                static.step()
            assert results_of(elastic) == results_of(static)


class TestPolicyElastic:
    def test_flash_crowd_triggers_split(self):
        system = paper_system(
            shards=2,
            hotspot=0.6,
            elastic_max_shards=4,
            rebalance_every_steps=2,
            scale=0.02,
        )
        static = paper_system(shards=2, hotspot=0.6, scale=0.02)
        with system, static:
            for _ in range(16):
                system.step()
                static.step()
                assert results_of(system) == results_of(static)
            splits = [
                op for op in system.rebalance_log if op["trigger"] == "policy-split"
            ]
            assert splits, "the hotspot never split"
            assert system.server.partitioner.num_shards > 2
            system.server.check_invariants()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_policy_stays_stripe_adjacent_after_scheduled_split(self, engine):
        """A scheduled split leaves the stripe order (0, 2, 1); the fixed-
        fleet policy armed beside it must pick neighbors by stripe
        position.  (The list-indexed policy took ``hottest +- 1`` in id
        order and raised ``shards must be adjacent: transfer(0, 1)`` out
        of ``step()`` at step 4.)"""
        system, _, _ = scenario.build_system(
            skewed_params(0.02),
            11,
            config=dict(
                engine=engine,
                shards=2,
                rebalance_every_steps=2,
                elastic_schedule=((3, "split", 0),),
            ),
        )
        with system:
            for _ in range(40):
                order = system.server.partitioner.order
                logged = len(system.rebalance_log)
                system.step()
                system.check_invariants()
                for op in system.rebalance_log[logged:]:
                    if op["trigger"] == "policy":
                        assert abs(order.index(op["src"]) - order.index(op["dst"])) == 1
            triggers = [op["trigger"] for op in system.rebalance_log]
            assert triggers.count("schedule-split") == 1
            assert "policy" in triggers
            assert set(triggers) <= {"schedule-split", "policy"}  # fixed fleet


class TestElasticCheckpoint:
    def test_roundtrip_mid_fleet_mutation(self):
        """Checkpoint between the split and the merge: the restored system
        carries the grown fleet and replays the merge bit-identically."""
        system = paper_system(shards=2, elastic_schedule=SCHEDULE, checkpoint_every_steps=5)
        with system:
            system.run(4)  # past the split (step 3), before the cadence (step 5)
            cp = checkpoint(system)
            assert tuple(_decode(cp.blob)["partition"]["order"]) == (0, 2, 1)
            system.run(2)
            with restore(from_bytes(cp.to_bytes())) as resumed:
                assert resumed.server.partitioner.order == (0, 2, 1)
                resumed.run(system.clock.step - resumed.clock.step)
                assert resumed.checkpoints_taken == system.checkpoints_taken == 1
                assert step_hash(resumed) == step_hash(system)
                # Lockstep through the merge at step 7 and beyond.
                for _ in range(5):
                    system.step()
                    resumed.step()
                    assert step_hash(resumed) == step_hash(system)
                assert resumed.server.retired_shards == (2,)
                resumed.server.check_invariants()

    def test_retired_slot_restores(self):
        system = paper_system(shards=2, elastic_schedule=SCHEDULE)
        with system:
            system.run(9)  # past both the split and the merge
            assert system.server.retired_shards == (2,)
            cp = checkpoint(system)
            with restore(cp) as resumed:
                assert resumed.server.retired_shards == (2,)
                assert len(resumed.server.shards) == 3
                resumed.server.check_invariants()
                for _ in range(3):
                    system.step()
                    resumed.step()
                    assert step_hash(resumed) == step_hash(system)


class TestSoakHarness:
    def test_bounded_soak_schedule_mode(self, tmp_path):
        from repro.driver import run

        report = run(
            steps=15,
            shards=2,
            scale=0.012,
            fleet="schedule",
            ingest_rate=5,
            ingest_budget=2,
            query_churn=6,
            path=tmp_path / "DRIVE_test.json",
            report_every=5,
            log=lambda *_: None,
            **SOAK_INPUTS,
        )
        assert (tmp_path / "DRIVE_test.json").exists()
        fleet = report["fleet"]
        assert fleet["splits"] >= 1 and fleet["merges"] >= 1
        assert report["grading"]["results_match"]
        counters = report["counters"]["service"]
        assert counters["backpressure_rejects"] > 0
        assert counters["submitted"] == (
            counters["applied"]
            + counters["backpressure_rejects"]
            + counters["queued"]
        )
        assert fleet["improvement"] is not None

    def test_bounded_soak_both_mode_improves_balance(self):
        """CI's soak shape: the schedule guarantees the split/merge
        lifecycle, the (transfer-only) thermostat chases the sustained
        hotspot, and over the post-merge tail window the elastic fleet
        beats the static twin in the deterministic ops view."""
        from repro.driver import run

        report = run(
            steps=40,
            shards=2,
            scale=0.02,
            fleet="both",
            ingest_rate=6,
            ingest_budget=3,
            query_churn=8,
            **SOAK_INPUTS,
        )
        fleet = report["fleet"]
        assert fleet["splits"] >= 1 and fleet["merges"] >= 1
        assert report["grading"]["results_match"]
        assert report["counters"]["service"]["backpressure_rejects"] > 0
        imp = fleet["improvement"]
        assert imp["window"] == "tail:26"
        assert imp["improved_ops"], imp
        # Only policy transfers and scheduled ops appear: the schedule
        # owns membership in "both" mode, so no policy-split/-merge.
        triggers = {op["trigger"] for op in fleet["rebalance_log"]}
        assert "policy-split" not in triggers
        assert "policy-merge" not in triggers
        assert fleet["retired_shards"] == [2]

    def test_soak_rejects_bad_modes(self):
        from repro.driver import run

        with pytest.raises(ValueError, match="fleet"):
            run(steps=2, fleet="nope")
        with pytest.raises(ValueError, match="shards"):
            run(steps=2, shards=1, fleet="policy")
        with pytest.raises(ValueError, match="steps must be at least 1"):
            run(steps=-3)


class TestConfigValidation:
    def _base(self, **kw):
        params = paper_defaults().scaled(0.012)
        return MobiEyesConfig(
            uod=params.uod,
            alpha=params.alpha,
            base_station_side=params.base_station_side,
            **kw,
        )

    def test_elastic_needs_multiple_shards(self):
        with pytest.raises(ValueError):
            self._base(shards=1, elastic_max_shards=3, rebalance_every_steps=2)

    def test_elastic_policy_needs_cadence(self):
        with pytest.raises(ValueError):
            self._base(shards=2, elastic_max_shards=3)

    def test_elastic_ceiling_below_two_rejected(self):
        with pytest.raises(ValueError, match="elastic_max_shards"):
            self._base(shards=2, elastic_max_shards=1, rebalance_every_steps=2)

    def test_elastic_excludes_rebalance_schedule(self):
        with pytest.raises(ValueError):
            self._base(
                shards=2,
                elastic_schedule=((3, "split", 0),),
                rebalance_schedule=((2, 0, 1, 1),),
            )

    def test_schedule_shape_validated(self):
        with pytest.raises(ValueError):
            self._base(shards=2, elastic_schedule=((0, "split", 0),))
        with pytest.raises(ValueError):
            self._base(shards=2, elastic_schedule=((3, "merge", 1, 1),))
        with pytest.raises(ValueError):
            self._base(shards=2, elastic_schedule=((3, "nope", 0),))
