"""Online repartitioning: the policy, the migration protocol, and the
epoch machinery end to end.

Evidence layers:

1. :class:`~repro.core.RebalancePolicy` unit behavior -- window diffing,
   thermostat hysteresis, donor/recipient selection, checkpoint state;
2. scheduled repartitions are *bit-identical* across engines and shard
   counts (the broadcast-always design), and never change results
   relative to a static-stripes twin;
3. stale-epoch uplinks survive boundary moves under latency (rerouted by
   the live map, counted, never dropped);
4. checkpoints taken before a scheduled move restore and replay it
   bit-identically, including the mutated bounds;
5. the ops-metric policy actually fixes a flash-crowd imbalance.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import MobiEyesConfig, MobiEyesSystem, RebalancePolicy
from repro.core.messages import RebalanceDirective
from repro.core.snapshot import checkpoint, restore
from repro.fastpath import numpy_available
from repro.sim.rng import SimulationRng
from repro.workload import generate_workload, paper_defaults

ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])

# Two boundary moves: columns right at step 3, partially back at step 7.
SCHEDULE = ((3, 0, 1, 1), (7, 1, 0, 2))


def build_system(
    engine="reference",
    shards=2,
    scale=0.012,
    seed=42,
    hotspot=0.0,
    latency=0,
    schedule=(),
    rebalance_every=0,
    rebalance_metric="seconds",
    checkpoint_every=0,
):
    params = dataclasses.replace(
        paper_defaults(), seed=seed, hotspot_fraction=hotspot
    ).scaled(scale)
    rng = SimulationRng(params.seed)
    workload = generate_workload(params, rng.fork(1))
    config = MobiEyesConfig(
        uod=params.uod,
        alpha=params.alpha,
        base_station_side=params.base_station_side,
        engine=engine,
        shards=shards,
        uplink_latency_steps=latency,
        downlink_latency_steps=latency,
        latency_seed=seed,
        rebalance_schedule=schedule,
        rebalance_every_steps=rebalance_every,
        rebalance_metric=rebalance_metric,
        checkpoint_every_steps=checkpoint_every,
    )
    system = MobiEyesSystem(
        config,
        list(workload.objects),
        rng.fork(2),
        velocity_changes_per_step=params.velocity_changes_per_step,
    )
    system.install_queries(workload.query_specs)
    return system


def step_snapshot(system):
    ledger = system.ledger.snapshot()
    return (
        sorted((qid, tuple(sorted(oids))) for qid, oids in system.results().items()),
        ledger.uplink_count,
        ledger.downlink_count,
        ledger.uplink_bits,
        ledger.downlink_bits,
    )


def run_trace(system, steps):
    trace = []
    for _ in range(steps):
        system.step()
        trace.append(step_snapshot(system))
    return trace


class TestPolicy:
    def test_window_diffs_lifetime_totals(self):
        policy = RebalancePolicy()
        assert policy.window_loads([3.0, 1.0]) == [3.0, 1.0]
        assert policy.window_loads([5.0, 4.0]) == [2.0, 3.0]

    def test_quiet_below_hot_factor(self):
        policy = RebalancePolicy(hot_factor=1.5, cool_factor=1.2)
        assert policy.propose([1.0, 1.2, 1.1], [3, 3, 3]) is None
        assert policy.proposals == 0

    def test_proposes_move_to_cooler_neighbor(self):
        policy = RebalancePolicy(hot_factor=1.5, cool_factor=1.2)
        # Shard 1 is hot; shard 2 is the cooler of its two neighbors.
        assert policy.propose([4.0, 10.0, 1.0], [4, 4, 4]) == (1, 2, 1)

    def test_thermostat_keeps_proposing_until_cool(self):
        policy = RebalancePolicy(hot_factor=1.5, cool_factor=1.2)
        assert policy.propose([0.0, 10.0, 1.0], [4, 4, 4]) is not None
        # Still far above cool_factor next window: keep rebalancing.
        assert policy.propose([0.0, 20.0, 2.0], [3, 5, 4]) is not None
        # Cooled below cool_factor: disarm and go quiet.
        assert policy.propose([1.0, 21.1, 3.1], [3, 5, 4]) is None
        # Dead band (between cool and hot) does not re-arm.
        assert policy.propose([2.0, 22.4, 4.1], [3, 5, 4]) is None

    def test_no_move_from_single_column_donor(self):
        policy = RebalancePolicy()
        assert policy.propose([0.0, 10.0], [4, 1]) is None

    def test_no_move_when_neighbor_as_hot(self):
        policy = RebalancePolicy(hot_factor=1.0, cool_factor=1.0)
        assert policy.propose([5.0, 5.0], [4, 4]) is None

    def test_degenerate_inputs(self):
        policy = RebalancePolicy()
        assert policy.propose([7.0], [8]) is None
        assert policy.propose([0.0, 0.0], [4, 4]) is None

    def test_state_roundtrip(self):
        policy = RebalancePolicy(hot_factor=1.5, cool_factor=1.2)
        policy.propose([0.0, 10.0, 1.0], [4, 4, 4])
        clone = RebalancePolicy(hot_factor=1.5, cool_factor=1.2)
        clone.restore_state(policy.state())
        assert clone.state() == policy.state()
        # Both continue identically from the restored marks.
        totals = [1.0, 12.0, 2.0]
        assert clone.propose(totals, [3, 5, 4]) == policy.propose(totals, [3, 5, 4])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RebalancePolicy(hot_factor=0.5)
        with pytest.raises(ValueError):
            RebalancePolicy(hot_factor=1.5, cool_factor=1.6)
        with pytest.raises(ValueError):
            RebalancePolicy(metric="watts")

    def test_config_schedule_validation(self):
        params = paper_defaults().scaled(0.012)
        base = dict(uod=params.uod, alpha=params.alpha)
        with pytest.raises(ValueError):
            MobiEyesConfig(**base, rebalance_schedule=((0, 0, 1, 1),))  # step < 1
        with pytest.raises(ValueError):
            MobiEyesConfig(**base, rebalance_schedule=((3, 0, 2, 1),))  # not adjacent
        with pytest.raises(ValueError):
            MobiEyesConfig(**base, rebalance_metric="watts")


class TestScheduledBitIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_identical_across_shard_counts(self, engine):
        """The broadcast-always design: a fixed trigger schedule produces
        the same results, message counts, and bits at 1, 2, and 4 shards."""
        traces = {
            shards: run_trace(build_system(engine=engine, shards=shards, schedule=SCHEDULE), 10)
            for shards in (1, 2, 4)
        }
        assert traces[1] == traces[2] == traces[4]

    @pytest.mark.skipif(len(ENGINES) < 2, reason="needs numpy")
    def test_identical_across_engines(self):
        ref = run_trace(build_system(engine="reference", shards=4, schedule=SCHEDULE), 10)
        vec = run_trace(build_system(engine="vectorized", shards=4, schedule=SCHEDULE), 10)
        assert ref == vec

    def test_schedule_mutates_bounds_and_logs(self):
        system = build_system(shards=2, schedule=SCHEDULE)
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
        moving = build_system(shards=4, schedule=SCHEDULE)
        static = build_system(shards=4)
        moving_trace = run_trace(moving, 10)
        static_trace = run_trace(static, 10)
        assert [r for r, *_ in moving_trace] == [r for r, *_ in static_trace]

    def test_clients_adopt_broadcast_epoch(self):
        system = build_system(shards=2, schedule=SCHEDULE)
        run_trace(system, 10)
        epochs = {client.partition_epoch for client in system.clients.values()}
        assert epochs == {2}

    def test_stale_directive_is_ignored(self):
        system = build_system(shards=2)
        client = next(iter(system.clients.values()))
        client.on_downlink(RebalanceDirective(epoch=3))
        assert client.partition_epoch == 3
        client.on_downlink(RebalanceDirective(epoch=1))
        assert client.partition_epoch == 3


class TestStaleEpochReroute:
    def test_inflight_uplinks_rerouted_not_dropped(self):
        """With delivery latency, uplinks enqueued before a boundary move
        arrive stamped with the old epoch; the live map reroutes them."""
        moving = build_system(shards=4, schedule=SCHEDULE, latency=2)
        static = build_system(shards=4, latency=2)
        moving_trace = run_trace(moving, 10)
        static_trace = run_trace(static, 10)
        assert [r for r, *_ in moving_trace] == [r for r, *_ in static_trace]
        assert moving.transport.stale_epoch_reroutes > 0
        assert static.transport.stale_epoch_reroutes == 0

    def test_zero_latency_has_no_stale_deliveries(self):
        system = build_system(shards=4, schedule=SCHEDULE)
        run_trace(system, 10)
        assert system.transport.stale_epoch_reroutes == 0


class TestCheckpointRebalance:
    def test_restore_before_trigger_replays_move(self):
        """A checkpoint taken before a scheduled move must replay the move
        on resume and end bit-identical to the uninterrupted run."""
        straight = build_system(shards=2, schedule=SCHEDULE)
        tail = run_trace(straight, 10)[4:]
        original = build_system(shards=2, schedule=SCHEDULE)
        run_trace(original, 4)
        resumed = restore(checkpoint(original))
        assert resumed.server.partitioner.epoch == 1  # step-3 move captured
        assert run_trace(resumed, 6) == tail
        assert resumed.server.partitioner.bounds == straight.server.partitioner.bounds
        assert resumed.server.partitioner.epoch == straight.server.partitioner.epoch

    def test_restore_after_all_triggers_keeps_bounds(self):
        original = build_system(shards=2, schedule=SCHEDULE)
        straight = build_system(shards=2, schedule=SCHEDULE)
        run_trace(original, 8)
        tail = run_trace(straight, 10)[8:]
        resumed = restore(checkpoint(original))
        assert resumed.server.partitioner.bounds == original.server.partitioner.bounds
        assert resumed.server.partitioner.epoch == 2
        assert run_trace(resumed, 2) == tail

    def test_policy_state_survives_restore(self):
        system = build_system(shards=2, hotspot=0.5, rebalance_every=3, rebalance_metric="ops")
        run_trace(system, 7)
        resumed = restore(checkpoint(system))
        assert resumed._rebalance_policy is not None
        assert resumed._rebalance_policy.state() == system._rebalance_policy.state()
        assert resumed.rebalance_log == system.rebalance_log


class TestPolicyMode:
    def test_ops_policy_fixes_flash_crowd(self):
        """On the hotspot workload the ops-metric policy must move columns
        off the hot stripes and strictly cut the ops imbalance -- without
        changing a single result relative to the static twin."""
        static = build_system(shards=4, hotspot=0.5, scale=0.02)
        moving = build_system(
            shards=4, hotspot=0.5, scale=0.02, rebalance_every=3, rebalance_metric="ops"
        )
        static_trace = run_trace(static, 12)
        moving_trace = run_trace(moving, 12)
        assert [r for r, *_ in moving_trace] == [r for r, *_ in static_trace]
        assert any(op["cols_moved"] for op in moving.rebalance_log)

        def imbalance(system):
            ops = [row["ops"] for row in system.server.shard_loads()]
            return max(ops) / (sum(ops) / len(ops))

        assert imbalance(moving) < imbalance(static)
        moving.server.check_invariants()

    def test_uniform_workload_stays_quiet(self):
        system = build_system(shards=4, scale=0.02, rebalance_every=4, rebalance_metric="ops")
        run_trace(system, 16)
        assert system.rebalance_log == []
        assert system.server.partitioner.epoch == 0
