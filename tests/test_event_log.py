"""The system's one event log.

Every system keeps a :class:`~repro.sim.trace.TraceLog`: decisions
(crash, recover, transfer, split, merge) always go in, and ``crash_log`` /
``rebalance_log`` read them back; message events go in only when the log
was passed as ``trace``, written by the ledger call that charges each
message.  So a trace must change no hash and no fan-out path, both engines
must log the same events each step, and a traced system checkpoints like
any other.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core.snapshot import checkpoint, from_bytes, restore, step_hash
from repro.faults.channels import BernoulliChannel
from repro.faults.injector import FaultInjector
from repro.faults.policy import ReliabilityPolicy
from repro.faults.schedule import CrashWindow, FaultSchedule
from repro.fastpath import numpy_available
from repro.sim import SimulationRng, TraceLog
from tests.conftest import paper_system

ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])
needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy not installed")


def inline_takes(system) -> list[bool]:
    """Every ``takes_inline`` answer the system's fan-out gives from here
    on, in order (an empty list forever on the reference engine)."""
    answers: list[bool] = []
    fanout = system.transport.fanout
    if fanout is not None:
        takes = fanout.takes_inline

        def recorded(message):
            answers.append(takes(message))
            return answers[-1]

        fanout.takes_inline = recorded
    return answers


def events_by_step(log: TraceLog) -> Counter:
    """The log as a multiset of ``(step, kind, details)``."""
    return Counter((e.step, e.kind, json.dumps(e.details, sort_keys=True)) for e in log)


def assert_one_event_per_charge(system) -> None:
    ledger, log = system.ledger, system.log
    assert log.count("uplink") == ledger.uplink_count
    assert sum(e.details["messages"] for e in log.of_kind("downlink")) == ledger.downlink_count


@pytest.mark.parametrize("latency", [0, 2])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("engine", ENGINES)
def test_a_trace_changes_no_hash_and_no_fanout_path(engine, shards, latency):
    """With the log passed as ``trace``, every step hashes as it does
    untraced, and the fan-out takes exactly the messages it takes untraced
    (the ledger writes the events, so no path declines for them)."""
    schedule = ((3, 0, 1, 1),) if shards > 1 else ()
    traced, plain = (
        paper_system(engine, shards, latency=latency, trace=trace, rebalance_schedule=schedule)
        for trace in (TraceLog(), None)
    )
    answers = inline_takes(traced), inline_takes(plain)
    for step in range(1, 9):
        traced.step()
        plain.step()
        assert step_hash(traced) == step_hash(plain), step
    assert answers[0] == answers[1]
    if engine == "vectorized" and latency == 0:
        assert sum(answers[0]) > 0  # the fan-out took messages, traced too
    assert traced.rebalance_log == plain.rebalance_log and len(plain.rebalance_log) == len(schedule)
    assert_one_event_per_charge(traced)
    assert {e.kind for e in plain.log} <= {"transfer"}  # decisions only
    traced.close()
    plain.close()


@needs_numpy
@pytest.mark.parametrize(
    "shards, latency, lossy", [(1, 0, False), (2, 0, False), (1, 2, False), (2, 1, True)]
)
def test_the_engines_log_the_same_events_each_step(shards, latency, lossy):
    """Compared as a multiset per step: within a step the engines charge
    in different orders (the fan-out applies a broadcast in bulk)."""
    logs = {}
    for engine in ("reference", "vectorized"):
        loss = None
        if lossy:
            rng = SimulationRng(5)
            loss = FaultInjector(
                policy=ReliabilityPolicy(heartbeat_steps=2),
                uplink_channel=BernoulliChannel(rng, rate=0.1),
                downlink_channel=BernoulliChannel(rng, rate=0.1),
            )
        log = TraceLog()
        with paper_system(engine, shards=shards, latency=latency, loss=loss, trace=log) as system:
            system.run(8)
            assert_one_event_per_charge(system)
        logs[engine] = log
    reference, vectorized = logs.values()
    assert len(reference) > 0
    assert events_by_step(reference) == events_by_step(vectorized)
    if lossy:
        assert any(e.details["type"] == "Ack" for e in reference.of_kind("uplink"))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_traced_system_checkpoints_and_its_logs_keep_extending(engine):
    """Restored mid-run, between a transfer and a crash window, the
    restored system's log holds what happened before the cut and keeps
    taking both decisions and message events after it, as its twin's does."""

    def build():
        crash = CrashWindow(shard=1, start=6, end=9)
        loss = FaultInjector(schedule=FaultSchedule(crashes=(crash,)))
        return paper_system(
            engine,
            shards=2,
            loss=loss,
            trace=TraceLog(),
            checkpoint_every_steps=3,
            rebalance_schedule=((4, 0, 1, 1), (11, 1, 0, 1)),
        )

    system, twin = build(), build()
    system.run(5)
    twin.run(5)
    assert len(system.rebalance_log) == 1 and system.crash_log == []
    resumed = restore(from_bytes(checkpoint(system).to_bytes()))
    system.close()
    assert resumed.ledger.trace is resumed.log
    assert resumed.log.events == twin.log.events
    for step in range(6, 13):
        resumed.step()
        twin.step()
        assert resumed.log.events == twin.log.events, step
        assert step_hash(resumed) == step_hash(twin), step
    assert [op["step"] for op in resumed.rebalance_log] == [4, 11]
    assert [op["step"] for op in resumed.crash_log] == [6, 9]
    assert resumed.rebalance_log == twin.rebalance_log
    assert resumed.crash_log == twin.crash_log
    assert_one_event_per_charge(resumed)
    resumed.close()
    twin.close()


def test_the_decision_views_are_read_only():
    with paper_system(shards=2, rebalance_schedule=((2, 0, 1, 1),)) as system:
        system.run(3)
        with pytest.raises(AttributeError):
            system.rebalance_log = []
        system.rebalance_log.clear()  # a fresh list each read
        (op,) = system.rebalance_log
        assert op["trigger"] == "schedule" and op["step"] == 2
        assert system.ledger.trace is None and len(system.log) == 1
