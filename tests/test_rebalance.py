"""Online repartitioning: the policy, the migration protocol, and the
epoch machinery end to end.

Evidence layers:

1. :class:`~repro.core.RebalancePolicy` unit behavior -- window diffing,
   thermostat hysteresis, donor/recipient selection, checkpoint state
   (the split/merge decisions are in ``test_elastic.py``);
2. scheduled repartitions are *bit-identical* across engines and shard
   counts (the broadcast-always design), and never change results
   relative to a static-stripes twin;
3. stale-epoch uplinks survive boundary moves under latency (rerouted by
   the live map, counted, never dropped);
4. checkpoints taken before a scheduled move restore and replay it
   bit-identically, including the mutated bounds;
5. the policy actually fixes a flash-crowd imbalance, and does so
   deterministically: same decisions across runs and engines.
"""

from __future__ import annotations

import copy

import pytest

from repro import scenario
from repro.core import MobiEyesConfig, MobiEyesSystem, RebalancePolicy
from repro.core.messages import RebalanceDirective
from repro.core.snapshot import checkpoint, export_state, import_state, restore, step_hash
from repro.fastpath import numpy_available
from repro.fastpath.bench import skewed_params
from repro.workload import paper_defaults
from tests.conftest import observe, paper_system

ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])

# Two boundary moves: columns right at step 3, partially back at step 7.
SCHEDULE = ((3, 0, 1, 1), (7, 1, 0, 2))

RESULTS = MobiEyesSystem.results  # a run_trace view: the result sets only


def run_trace(system, steps, view=observe):
    """``view(system)`` after each of ``steps`` steps."""
    trace = []
    for _ in range(steps):
        system.step()
        trace.append(view(system))
    return trace


def by_id(*values):
    """Per-shard figures keyed by shard id 0..n-1 (a fixed fleet)."""
    return dict(enumerate(values))


class TestPolicy:
    def test_window_diffs_lifetime_totals(self):
        policy = RebalancePolicy()
        widths, order = by_id(4, 4), (0, 1)
        assert policy.propose(by_id(10.0, 1.0), widths, order) == ("transfer", 0, 1, 1)
        # Lifetime totals are level now, but the *window* (1 vs 10) says
        # shard 1 carried the load since the last evaluation.
        assert policy.propose(by_id(11.0, 11.0), widths, order) == ("transfer", 1, 0, 1)

    def test_quiet_below_hot_factor(self):
        policy = RebalancePolicy()
        assert policy.propose(by_id(1.0, 1.2, 1.1), by_id(3, 3, 3), (0, 1, 2)) is None
        assert policy.proposals == 0

    def test_proposes_move_to_cooler_neighbor(self):
        policy = RebalancePolicy()
        # Shard 1 is hot; shard 2 is the cooler of its two neighbors.
        op = policy.propose(by_id(4.0, 10.0, 1.0), by_id(4, 4, 4), (0, 1, 2))
        assert op == ("transfer", 1, 2, 1)

    def test_neighbors_follow_stripe_order_not_ids(self):
        policy = RebalancePolicy()
        # Stripe order 0, 2, 1: shard 0's only neighbor is shard 2.
        op = policy.propose(by_id(10.0, 0.0, 1.0), by_id(4, 2, 2), (0, 2, 1))
        assert op == ("transfer", 0, 2, 1)

    def test_thermostat_keeps_proposing_until_cool(self):
        policy = RebalancePolicy()
        order = (0, 1, 2)
        assert policy.propose(by_id(0.0, 10.0, 1.0), by_id(4, 4, 4), order) is not None
        # Still far above the cool factor next window: keep rebalancing.
        assert policy.propose(by_id(0.0, 20.0, 2.0), by_id(3, 5, 4), order) is not None
        # Cooled below the cool factor: disarm and go quiet.
        assert policy.propose(by_id(1.0, 21.1, 3.1), by_id(3, 5, 4), order) is None
        # Dead band (ratio ~1.29, between cool and hot) does not re-arm.
        assert policy.propose(by_id(2.0, 22.6, 4.1), by_id(3, 5, 4), order) is None

    def test_fixed_fleet_never_splits_or_merges(self):
        policy = RebalancePolicy()  # max_shards == 0
        widths, order = by_id(4, 4, 4), (0, 1, 2)
        for window in range(1, 6):
            # Shard 0 persistently hot, shard 2 persistently idle.
            op = policy.propose(by_id(10.0 * window, 1.0 * window, 0.0), widths, order)
            assert op == ("transfer", 0, 1, 1)
        assert (policy.splits, policy.merges) == (0, 0)

    def test_no_move_from_single_column_donor(self):
        policy = RebalancePolicy()
        assert policy.propose(by_id(0.0, 10.0), by_id(4, 1), (0, 1)) is None

    def test_no_move_when_neighbor_as_hot(self):
        policy = RebalancePolicy()
        # Shard 0 is hot (2x the mean) but its only neighbor is as hot.
        op = policy.propose(by_id(10.0, 10.0, 0.0, 0.0), by_id(4, 4, 4, 4), (0, 1, 2, 3))
        assert op is None
        assert policy.proposals == 0

    def test_degenerate_inputs(self):
        policy = RebalancePolicy()
        assert policy.propose(by_id(7.0), by_id(8), (0,)) is None
        assert policy.propose(by_id(0.0, 0.0), by_id(4, 4), (0, 1)) is None

    def test_state_roundtrip(self):
        policy = RebalancePolicy()
        order = (0, 1, 2)
        policy.propose(by_id(0.0, 10.0, 1.0), by_id(4, 4, 4), order)
        clone = RebalancePolicy()
        import_state(clone, copy.deepcopy(export_state(policy)))
        assert export_state(clone) == export_state(policy)
        # Both continue identically from the restored marks.
        totals, widths = by_id(1.0, 12.0, 2.0), by_id(3, 5, 4)
        assert clone.propose(totals, widths, order) == policy.propose(totals, widths, order)

    def test_config_schedule_validation(self):
        params = paper_defaults().scaled(0.012)
        base = dict(uod=params.uod, alpha=params.alpha)
        with pytest.raises(ValueError):
            MobiEyesConfig(**base, rebalance_schedule=((0, 0, 1, 1),))  # step < 1
        with pytest.raises(ValueError):
            MobiEyesConfig(**base, rebalance_schedule=((3, 0, 2, 1),))  # not adjacent


class TestScheduledBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_identical_across_shard_counts(self, engine):
        """The broadcast-always design: a fixed trigger schedule produces
        the same results, message counts, and bits at 1, 2, and 4 shards."""
        traces = {
            shards: run_trace(
                paper_system(engine=engine, shards=shards, rebalance_schedule=SCHEDULE),
                10,
                lambda system: observe(system, ops=False),
            )
            for shards in (1, 2, 4)
        }
        assert traces[1] == traces[2] == traces[4]

    @pytest.mark.skipif(len(ENGINES) < 2, reason="needs numpy")
    def test_identical_across_engines(self):
        ref = run_trace(paper_system(engine="reference", shards=4, rebalance_schedule=SCHEDULE), 10)
        vec = run_trace(paper_system(engine="vectorized", shards=4, rebalance_schedule=SCHEDULE), 10)
        assert ref == vec

    def test_schedule_mutates_bounds_and_logs(self):
        system = paper_system(shards=2, rebalance_schedule=SCHEDULE)
        before = system.server.partitioner.bounds
        run_trace(system, 10)
        part = system.server.partitioner
        assert part.epoch == 2
        assert part.bounds != before
        assert [op["step"] for op in system.rebalance_log] == [3, 7]
        assert all(op["trigger"] == "schedule" for op in system.rebalance_log)
        system.server.check_invariants()

    def test_results_match_static_twin(self):
        """Repartitioning moves load, never results.  Only the result
        sets compare here: the rebalanced run legitimately sends more
        downlinks (the directive broadcasts)."""
        moving = paper_system(shards=4, rebalance_schedule=SCHEDULE)
        static = paper_system(shards=4)
        assert run_trace(moving, 10, RESULTS) == run_trace(static, 10, RESULTS)

    def test_clients_adopt_broadcast_epoch(self):
        system = paper_system(shards=2, rebalance_schedule=SCHEDULE)
        run_trace(system, 10)
        epochs = {client.partition_epoch for client in system.clients.values()}
        assert epochs == {2}

    def test_stale_directive_is_ignored(self):
        system = paper_system(shards=2)
        client = next(iter(system.clients.values()))
        client.on_downlink(RebalanceDirective(epoch=3))
        assert client.partition_epoch == 3
        client.on_downlink(RebalanceDirective(epoch=1))
        assert client.partition_epoch == 3


class TestStaleEpochReroute:
    def test_inflight_uplinks_rerouted_not_dropped(self):
        """With delivery latency, uplinks enqueued before a boundary move
        arrive stamped with the old epoch; the live map reroutes them."""
        moving = paper_system(shards=4, rebalance_schedule=SCHEDULE, latency=2)
        static = paper_system(shards=4, latency=2)
        assert run_trace(moving, 10, RESULTS) == run_trace(static, 10, RESULTS)
        assert moving.transport.stale_epoch_reroutes > 0
        assert static.transport.stale_epoch_reroutes == 0

    def test_zero_latency_has_no_stale_deliveries(self):
        system = paper_system(shards=4, rebalance_schedule=SCHEDULE)
        run_trace(system, 10)
        assert system.transport.stale_epoch_reroutes == 0


class TestCheckpointRebalance:
    def test_restore_before_trigger_replays_move(self):
        """A checkpoint taken before a scheduled move must replay the move
        on resume and end bit-identical to the uninterrupted run."""
        straight = paper_system(shards=2, rebalance_schedule=SCHEDULE)
        tail = run_trace(straight, 10)[4:]
        original = paper_system(shards=2, rebalance_schedule=SCHEDULE)
        run_trace(original, 4)
        resumed = restore(checkpoint(original))
        assert resumed.server.partitioner.epoch == 1  # step-3 move captured
        assert run_trace(resumed, 6) == tail
        assert resumed.server.partitioner.bounds == straight.server.partitioner.bounds
        assert resumed.server.partitioner.epoch == straight.server.partitioner.epoch

    def test_restore_after_all_triggers_keeps_bounds(self):
        original = paper_system(shards=2, rebalance_schedule=SCHEDULE)
        straight = paper_system(shards=2, rebalance_schedule=SCHEDULE)
        run_trace(original, 8)
        tail = run_trace(straight, 10)[8:]
        resumed = restore(checkpoint(original))
        assert resumed.server.partitioner.bounds == original.server.partitioner.bounds
        assert resumed.server.partitioner.epoch == 2
        assert run_trace(resumed, 2) == tail

    def test_policy_state_survives_restore(self):
        system = paper_system(shards=2, hotspot=0.5, rebalance_every_steps=3)
        run_trace(system, 7)
        resumed = restore(checkpoint(system))
        assert resumed._rebalance_policy is not None
        assert export_state(resumed._rebalance_policy) == export_state(system._rebalance_policy)
        assert resumed.rebalance_log == system.rebalance_log


class TestPolicyMode:
    def test_ops_policy_fixes_flash_crowd(self):
        """On the hotspot workload the policy must move columns off the
        hot stripes and strictly cut the ops imbalance -- without changing
        a single result relative to the static twin."""
        static = paper_system(shards=4, hotspot=0.5, scale=0.02)
        moving = paper_system(shards=4, hotspot=0.5, scale=0.02, rebalance_every_steps=3)
        assert run_trace(moving, 12, RESULTS) == run_trace(static, 12, RESULTS)
        assert any(op["cols_moved"] for op in moving.rebalance_log)

        def imbalance(system):
            ops = [row["ops"] for row in system.server.shard_loads()]
            return max(ops) / (sum(ops) / len(ops))

        assert imbalance(moving) < imbalance(static)
        moving.server.check_invariants()

    def test_uniform_workload_stays_quiet(self):
        system = paper_system(shards=4, scale=0.02, rebalance_every_steps=4)
        run_trace(system, 16)
        assert system.rebalance_log == []
        assert system.server.partitioner.epoch == 0

    @pytest.mark.parametrize("shards", [2, 4])
    def test_policy_mode_is_deterministic(self, shards):
        """The policy reads only the ops counters, so a fixed-fleet policy
        run makes the same moves at the same steps -- and hashes the same
        after every step -- on every run and on both engines."""
        runs = []
        for engine in ENGINES + ENGINES[:1]:  # every engine, the first one twice
            system, _, _ = scenario.build_system(
                skewed_params(0.02),
                11,
                config=dict(engine=engine, shards=shards, rebalance_every_steps=3),
            )
            hashes = []
            for _ in range(20):
                system.step()
                hashes.append(step_hash(system))
            runs.append((hashes, system.rebalance_log))
        assert any(op["cols_moved"] for op in runs[0][1])
        assert all(run == runs[0] for run in runs[1:])
