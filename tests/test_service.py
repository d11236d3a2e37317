"""Service runtime: queue-driven ingest, admission control, backpressure.

The load-bearing contract is the determinism bar from the service module
docstring: a service run whose ingest script is replayed at fixed steps
is **bit-identical** (``step_hash``) to a plain simulation that makes the
same ``apply_external_update`` / ``install_query`` / ``remove_query``
calls between the same steps -- across both engines and 1/2/4 shards.
The service adds scheduling (queues, budgets, deferral, rejection),
never behavior.

Backpressure is graded by accounting: every submission ends applied,
rejected, or still queued; nothing is silently dropped.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import MobiEyesConfig, MobiEyesService
from repro.core.query import QuerySpec
from repro.core.service import OP_INSTALL, OP_REMOVE, OP_UPDATE
from repro.core.snapshot import _decode, checkpoint, restore, step_hash
from repro.driver import ingest_script_stream
from repro.fastpath import numpy_available
from repro.geometry import Circle, Point, Rect, Vector
from repro.sim.rng import SimulationRng
from repro.workload import generate_workload, paper_defaults
from tests.conftest import paper_system

ENGINES = ["reference"] + (["vectorized"] if numpy_available() else [])


def build_params(scale=0.012, seed=42, hotspot=0.0):
    return dataclasses.replace(
        paper_defaults(), seed=seed, hotspot_fraction=hotspot
    ).scaled(scale)


def build_system(
    engine="reference",
    shards=1,
    scale=0.012,
    seed=42,
    latency=0,
    jitter=0,
    ingest_budget=0,
):
    params = build_params(scale=scale, seed=seed)
    system = paper_system(
        engine=engine,
        shards=shards,
        latency=latency,
        params=params,
        latency_jitter_steps=jitter,
        ingest_budget_per_step=ingest_budget,
    )
    # paper_system keeps its workload; the scripts below read only object
    # ids off it, so the same draw (fork 1 of the seed) made again serves.
    workload = generate_workload(params, SimulationRng(params.seed).fork(1))
    return system, workload, params


def scripted_steps(params, workload, steps, rate=4, churn_every=3, salt=9):
    """A finite deterministic ingest script: ``steps`` lists of ops."""
    stream = ingest_script_stream(
        params, workload, SimulationRng(params.seed).fork(salt), rate, churn_every
    )
    return [next(stream) for _ in range(steps)]


class TestScriptedBitIdentity:
    """Service scheduling is invisible: replaying the same script through
    the queue or as direct calls yields the same hash at every step."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_service_matches_plain_sim(self, engine, shards):
        steps = 8
        system, workload, params = build_system(engine=engine, shards=shards)
        plain, _, _ = build_system(engine=engine, shards=shards)
        script = scripted_steps(params, workload, steps)
        installs: dict[int, object] = {}  # script id -> service ticket
        plain_qids: dict[int, object] = {}  # script id -> plain-sim qid
        with MobiEyesService(system) as service, plain:
            for ops in script:
                for op in ops:
                    if op[0] == OP_UPDATE:
                        _, oid, pos, vel = op
                        service.submit_update(oid, pos, vel)
                        plain.apply_external_update(oid, pos, vel)
                    elif op[0] == OP_INSTALL:
                        _, script_id, spec = op
                        installs[script_id] = service.install_query(spec)
                        plain_qids[script_id] = plain.install_query(spec)
                    else:
                        _, script_id = op
                        service.remove_query(installs[script_id])
                        plain.remove_query(plain_qids[script_id])
                service.tick()
                plain.step()
                assert step_hash(service.system) == step_hash(plain)
            service.check_accounting()
            assert service.backpressure_rejects == 0  # unbounded: no budget

    @pytest.mark.parametrize("shards", [1, 2])
    def test_engines_agree_under_service(self, shards):
        if len(ENGINES) < 2:
            pytest.skip("numpy not installed")
        steps = 6
        hashes = {}
        for engine in ENGINES:
            system, workload, params = build_system(engine=engine, shards=shards)
            script = scripted_steps(params, workload, steps)
            installs = {}
            with MobiEyesService(system) as service:
                trace = []
                for ops in script:
                    for op in ops:
                        if op[0] == OP_UPDATE:
                            service.submit_update(op[1], op[2], op[3])
                        elif op[0] == OP_INSTALL:
                            installs[op[1]] = service.install_query(op[2])
                        else:
                            service.remove_query(installs[op[1]])
                    service.tick()
                    trace.append(step_hash(service.system))
            hashes[engine] = trace
        assert hashes["reference"] == hashes["vectorized"]

    def test_budgeted_admission_still_deterministic(self):
        """A budget spreads the same ops over later ticks -- and a plain
        sim applying them at those (later) steps matches bit for bit.  Hop
        latency deepens the pipeline, so the derived bound (2 x 5) holds
        every op."""
        system, workload, params = build_system(ingest_budget=2, latency=2)
        plain, _, _ = build_system(latency=2)
        ops = scripted_steps(params, workload, 1, rate=5, churn_every=0)[0]
        with MobiEyesService(system) as service, plain:
            tickets = [service.submit_update(op[1], op[2], op[3]) for op in ops]
            applied = 0
            for _ in range(4):
                service.tick()
                # Mirror exactly the FIFO prefix the service admitted.
                newly = sum(1 for t in tickets if t.applied) - applied
                for op in ops[applied : applied + newly]:
                    plain.apply_external_update(op[1], op[2], op[3])
                applied += newly
                plain.step()
                assert step_hash(service.system) == step_hash(plain)
            assert applied == len(ops)
            assert service.deferred_ops > 0  # the budget actually deferred


class TestBackpressure:
    def test_queue_full_rejects_and_accounts(self):
        system, workload, params = build_system(ingest_budget=2)
        # Derived bound: budget x pipeline depth (no latency -> depth 1).
        with MobiEyesService(system) as service:
            assert service.queue_limit == 2
            ops = scripted_steps(params, workload, 1, rate=7, churn_every=0)[0]
            tickets = [service.submit_update(op[1], op[2], op[3]) for op in ops]
            statuses = [t.status for t in tickets]
            assert statuses.count("queued") == 2
            assert statuses.count("rejected") == 5
            assert service.backpressure_rejects == 5
            service.check_accounting()
            service.tick()
            assert sum(1 for t in tickets if t.applied) == 2
            service.check_accounting()
            assert service.counters()["submitted"] == 7

    def test_saturated_uplink_accounting(self):
        """Sustained over-rate traffic under uplink/downlink latency:
        rejects accumulate, accounting never leaks, ticks keep advancing."""
        system, workload, params = build_system(
            latency=2, ingest_budget=2, shards=2
        )
        script = scripted_steps(params, workload, 10, rate=6, churn_every=0)
        with MobiEyesService(system) as service:
            assert service.queue_limit == 2 * (1 + 2 + 2)  # budget x depth
            for ops in script:
                for op in ops:
                    service.submit_update(op[1], op[2], op[3])
                service.tick()
                service.check_accounting()
            counters = service.counters()
            assert counters["backpressure_rejects"] > 0
            assert counters["submitted"] == 60
            assert counters["submitted"] == (
                counters["applied"]
                + counters["backpressure_rejects"]
                + counters["invalid_rejects"]
                + counters["queued"]
            )
            assert service.system.clock.step == 10

    def test_no_budget_means_unbounded(self):
        system, _, _ = build_system()
        with MobiEyesService(system) as service:
            assert service.queue_limit == 0


class TestTickets:
    def test_remove_by_ticket_same_tick(self):
        system, workload, params = build_system()
        with MobiEyesService(system) as service:
            oid = workload.objects[0].oid
            spec = QuerySpec(oid=oid, region=Circle(0.0, 0.0, 0.5))
            install = service.install_query(spec)
            remove = service.remove_query(install)
            service.tick()
            assert install.applied and install.qid is not None
            assert remove.applied and remove.qid == install.qid

    def test_remove_of_never_applied_install_is_rejected(self):
        # The install is refused at submission (the queue is full); a
        # removal by its ticket has nothing to remove.
        system, workload, params = build_system(ingest_budget=2)
        with MobiEyesService(system) as service:
            ops = scripted_steps(params, workload, 1, rate=2, churn_every=0)[0]
            for op in ops:  # fill the (derived, ==2) queue
                service.submit_update(op[1], op[2], op[3])
            oid = workload.objects[0].oid
            rejected = service.install_query(QuerySpec(oid=oid, region=Circle(0, 0, 0.5)))
            assert rejected.rejected
            service.tick()
            remove = service.remove_query(rejected)
            service.tick()
            assert remove.rejected and remove.qid is None
            assert service.invalid_rejects == 1
            service.check_accounting()

    @pytest.mark.parametrize("shards", [1, 3])
    def test_remove_queued_behind_an_install_rejected_at_admission(self, shards):
        # The removal must not raise out of tick() ("references an install
        # that was never applied"): that lost its ticket and left the
        # accounting one short (submitted=2 != applied=0 + rejects=1 +
        # queued=0).
        system, _, _ = build_system(shards=shards, scale=0.01, seed=3)
        with MobiEyesService(system) as service:
            install = service.install_query(QuerySpec(oid=10**6, region=Circle(0, 0, 0.5)))
            remove = service.remove_query(install)
            service.tick()
            assert install.rejected and remove.rejected and remove.qid is None
            assert service.invalid_rejects == 2
            service.check_accounting()
            system.check_invariants()


class TestInvalidTargets:
    """Ops naming an object or query that does not exist at admission are
    rejected and counted; the rest of the slot still applies."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_update_for_unknown_object_is_rejected(self, shards):
        system, workload, _ = build_system(shards=shards)
        with MobiEyesService(system) as service:
            known = workload.objects[0].oid
            bad = service.submit_update(10**6, Point(1.0, 1.0), Vector(0.0, 0.0))
            good = service.submit_update(known, Point(2.0, 3.0), Vector(0.0, 0.0))
            service.tick()
            assert bad.rejected and good.applied
            assert service.counters()["invalid_rejects"] == 1
            service.check_accounting()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_second_remove_of_same_query_is_rejected(self, shards):
        system, workload, _ = build_system(shards=shards)
        with MobiEyesService(system) as service:
            qid = sorted(system.results())[0]
            first = service.remove_query(qid)
            second = service.remove_query(qid)
            spec = QuerySpec(oid=workload.objects[0].oid, region=Circle(0.0, 0.0, 0.5))
            install = service.install_query(spec)
            service.tick()
            assert first.applied and second.rejected and install.applied
            assert qid not in system.results()
            assert service.invalid_rejects == 1
            service.check_accounting()

    def test_install_for_unknown_focal_is_rejected(self):
        system, _, _ = build_system()
        with MobiEyesService(system) as service:
            ticket = service.install_query(
                QuerySpec(oid=10**6, region=Circle(0.0, 0.0, 0.5))
            )
            service.tick()
            assert ticket.rejected and ticket.qid is None
            service.check_accounting()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=str)
    def test_non_finite_update_or_install_is_rejected(self, engine, bad):
        """A NaN/inf coordinate never reaches the world: the next tick used
        to raise out of the step loop (a NaN position has no grid cell)."""
        system, workload, _ = build_system(engine=engine)
        with MobiEyesService(system) as service:
            oid = workload.objects[0].oid
            still = Vector(0.0, 0.0)
            rejected = [
                service.submit_update(oid, Point(bad, 1.0), still),
                service.submit_update(oid, Point(1.0, bad), still),
                service.submit_update(oid, Point(1.0, 1.0), Vector(bad, 0.0)),
                service.submit_update(oid, Point(1.0, 1.0), Vector(0.0, bad)),
                service.install_query(QuerySpec(oid=oid, region=Circle(0.0, 0.0, abs(bad)))),
                service.install_query(QuerySpec.static(Rect(bad, 0.0, 1.0, 1.0))),
            ]
            good = service.submit_update(oid, Point(2.0, 3.0), still)
            service.run(3)
            assert all(ticket.rejected for ticket in rejected) and good.applied
            assert service.counters()["invalid_rejects"] == len(rejected)
            service.check_accounting()
            system.check_invariants()

    def test_out_of_universe_update_is_rejected(self):
        """A finite position outside ``config.uod`` is a bad report, not a
        bounce: the service used to count it applied after ``reflect_into``
        mirrored it to a different in-universe point.  Direct
        ``apply_external_update`` callers keep the reflection."""
        system, workload, params = build_system()
        uod = params.uod
        with MobiEyesService(system) as service:
            first, second = workload.objects[0].oid, workload.objects[1].oid
            still = Vector(0.0, 0.0)
            before = system.clients[first].obj.pos
            rejected = [
                service.submit_update(first, Point(uod.ux + 1.0, uod.ly), still),
                service.submit_update(first, Point(uod.lx, uod.ly - 1e-9), still),
            ]
            edge = service.submit_update(second, Point(uod.ux, uod.uy), still)
            service.admit()
            assert all(ticket.rejected for ticket in rejected) and edge.applied
            assert system.clients[first].obj.pos == before
            assert system.clients[second].obj.pos == Point(uod.ux, uod.uy)
            assert service.counters()["invalid_rejects"] == len(rejected)
            service.check_accounting()
        system.apply_external_update(first, Point(uod.ux + 1.0, uod.ly), still)
        assert system.clients[first].obj.pos == Point(uod.ux - 1.0, uod.ly)

    def test_invalid_rejects_survive_checkpoint(self):
        system, _, _ = build_system()
        with MobiEyesService(system) as service:
            service.submit_update(10**6, Point(1.0, 1.0), Vector(0.0, 0.0))
            service.tick()
            with MobiEyesService(restore(checkpoint(system))) as resumed:
                assert resumed.invalid_rejects == 1
                assert resumed.counters() == service.counters()
                resumed.check_accounting()


class TestServiceCheckpoint:
    def test_queue_survives_checkpoint_roundtrip(self):
        """A checkpoint taken mid-service carries the ingest queue; the
        restored service drains it identically (hash-lockstep)."""
        system, workload, params = build_system(ingest_budget=2, latency=2)
        script = scripted_steps(params, workload, 1, rate=3, churn_every=0)[0]
        with MobiEyesService(system) as service:
            service.tick()
            for op in script:
                service.submit_update(op[1], op[2], op[3])
            oid = workload.objects[0].oid
            install = service.install_query(QuerySpec(oid=oid, region=Circle(0, 0, 0.5)))
            service.remove_query(install)  # queued remove -> queued install link
            cp = checkpoint(system)
            with MobiEyesService(restore(cp)) as resumed:
                assert resumed.queue_depth == service.queue_depth == 5
                assert resumed.counters() == service.counters()
                for _ in range(6):
                    service.tick()
                    resumed.tick()
                    assert step_hash(service.system) == step_hash(resumed.system)
                resumed.check_accounting()
                assert resumed.queue_depth == 0

    def test_unserviced_system_checkpoints_none(self):
        system, _, _ = build_system()
        with system:
            system.step()
            cp = checkpoint(system)
            assert _decode(cp.blob)["service"] is None


class TestConfigValidation:
    def _config(self, **kw):
        params = build_params()
        return MobiEyesConfig(
            uod=params.uod,
            alpha=params.alpha,
            base_station_side=params.base_station_side,
            **kw,
        )

    def test_negative_ingest_knobs_rejected(self):
        with pytest.raises(ValueError):
            self._config(ingest_budget_per_step=-1)

    def test_run_method_drives_ticker(self):
        system, _, _ = build_system()
        with MobiEyesService(system) as service:
            assert service.run(3) == 3
            assert service.ticks == 3
