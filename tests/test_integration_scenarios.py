"""Cross-module integration scenarios exercising the whole stack at once."""

import copy

import pytest

from repro.baselines import CentralizedConfig, CentralizedSystem, IndexingMode, ReportingMode
from repro.core import MobiEyesConfig, MobiEyesSystem, PropagationMode
from repro.sim import SimulationRng, TraceLog
from repro.workload import generate_workload, paper_defaults

from tests.conftest import circle_query


def build_workload(scale=0.01, seed=21, focal_skew=None):
    params = paper_defaults().scaled(scale)
    return params, generate_workload(params, SimulationRng(seed), focal_skew=focal_skew)


def build_mobieyes(params, workload, seed=22, **config_kwargs):
    config = MobiEyesConfig(
        uod=params.uod,
        alpha=params.alpha,
        base_station_side=params.base_station_side,
        **config_kwargs,
    )
    objects = [copy.deepcopy(o) for o in workload.objects]
    system = MobiEyesSystem(
        config,
        objects,
        SimulationRng(seed),
        velocity_changes_per_step=params.velocity_changes_per_step,
        track_accuracy=True,
    )
    system.install_queries(workload.query_specs)
    return system


class TestFullWorkloadScenario:
    def test_table1_workload_runs_exact(self):
        params, workload = build_workload()
        system = build_mobieyes(params, workload)
        for _ in range(12):
            system.step()
        assert system.metrics.mean_result_error() == 0.0
        system.check_invariants()

    def test_all_optimizations_under_skew(self):
        params, workload = build_workload(focal_skew=1.2)
        system = build_mobieyes(params, workload, grouping=True, safe_period=True)
        for _ in range(12):
            system.step()
        assert system.results() == system.oracle_results()
        # The skewed workload actually produced groupable queries.
        focals = [s.oid for s in workload.query_specs]
        assert len(set(focals)) < len(focals)

    def test_mobieyes_agrees_with_centralized_naive(self):
        """Two completely different architectures, identical answers."""
        params, workload = build_workload()
        mobieyes = build_mobieyes(params, workload)
        central = CentralizedSystem(
            CentralizedConfig(
                uod=params.uod,
                reporting=ReportingMode.NAIVE,
                indexing=IndexingMode.OBJECTS,
                oracle_alpha=params.alpha,
            ),
            [copy.deepcopy(o) for o in workload.objects],
            SimulationRng(22),
            velocity_changes_per_step=params.velocity_changes_per_step,
        )
        central.install_queries(workload.query_specs)
        for _ in range(8):
            mobieyes.step()
            central.step()
        # qids are assigned in install order by both systems.
        assert mobieyes.results() == central.results()

    def test_determinism(self):
        params, workload = build_workload()
        a = build_mobieyes(params, workload)
        b = build_mobieyes(params, workload)
        a.run(10)
        b.run(10)
        assert a.results() == b.results()
        assert a.ledger.total_count == b.ledger.total_count
        assert [s.total_messages for s in a.metrics.steps] == [
            s.total_messages for s in b.metrics.steps
        ]

    def test_trace_captures_protocol_events(self):
        params, workload = build_workload()
        trace = TraceLog()
        config = MobiEyesConfig(
            uod=params.uod, alpha=params.alpha, base_station_side=params.base_station_side
        )
        system = MobiEyesSystem(
            config,
            [copy.deepcopy(o) for o in workload.objects],
            SimulationRng(22),
            velocity_changes_per_step=params.velocity_changes_per_step,
            trace=trace,
        )
        system.install_queries(workload.query_specs)
        system.run(5)
        assert system.log is trace
        # One event per charged message, written by the ledger.
        downlinks = trace.of_kind("downlink")
        assert sum(e.details["messages"] for e in downlinks) == system.ledger.downlink_count
        assert trace.count("uplink") == system.ledger.uplink_count > 0
        assert any(e.details["receivers"] > 1 for e in downlinks)  # broadcasts


class TestChurnScenario:
    def test_rolling_query_churn(self):
        """Install and remove queries continuously; the system never leaks
        state and stays exact."""
        params, workload = build_workload()
        system = build_mobieyes(params, workload)
        installed = list(system.server.sqt.ids())
        rng = SimulationRng(33)
        for step in range(12):
            # Churn first: results converge at the step's evaluation phase.
            if installed and step % 2 == 0:
                victim = installed.pop(rng.randint(0, len(installed) - 1))
                system.remove_query(victim)
            if step % 3 == 0:
                focal = rng.randint(0, params.num_objects - 1)
                installed.append(system.install_query(circle_query(focal, 2.0)))
            system.step()
            assert system.results() == system.oracle_results()
            system.check_invariants()
        # Every removed query is gone from every LQT.
        live = set(system.server.sqt.ids())
        for client in system.clients.values():
            assert set(client.lqt.ids()) <= live

    def test_remove_all_queries_quiesces_traffic(self):
        params, workload = build_workload()
        system = build_mobieyes(params, workload)
        system.run(3)
        for qid in list(system.server.sqt.ids()):
            system.remove_query(qid)
        before = system.ledger.downlink_count
        system.run(5)
        # No queries -> no focal objects -> no velocity or result traffic.
        # (Cell-change reports remain: objects still report crossings under
        # eager propagation.)
        assert system.ledger.counts_by_type.get("VelocityChangeReport", 0) >= 0
        for client in system.clients.values():
            assert len(client.lqt) == 0
            assert not client.has_mq
        assert system.ledger.downlink_count == before


class TestLongHorizon:
    @pytest.mark.parametrize("propagation", [PropagationMode.EAGER, PropagationMode.LAZY])
    def test_fifty_steps_stable(self, propagation):
        params, workload = build_workload(scale=0.005)
        system = build_mobieyes(params, workload, propagation=propagation)
        system.run(50)
        # LQT sizes stay bounded (no leak of stale queries).
        assert system.metrics.mean_lqt_size() < 20
        if propagation is PropagationMode.EAGER:
            assert system.metrics.mean_result_error() == 0.0
