"""Tests for Table 1 parameters and workload generation."""

import math
from dataclasses import replace

import pytest

from repro.sim import SimulationRng
from repro.workload import (
    CLASS_PROPERTY,
    SimulationParameters,
    bench_defaults,
    bench_scale_from_env,
    generate_objects,
    generate_queries,
    generate_workload,
    paper_defaults,
)


class TestParameters:
    def test_paper_defaults_match_table1(self):
        p = paper_defaults()
        assert p.time_step_seconds == 30.0
        assert p.alpha == 5.0
        assert p.num_objects == 10_000
        assert p.num_queries == 1_000
        assert p.velocity_changes_per_step == 1_000
        assert p.area_sq_miles == 100_000.0
        assert p.base_station_side == 10.0
        assert p.radius_means == (3.0, 2.0, 1.0, 4.0, 5.0)
        assert p.max_speeds == (100.0, 50.0, 150.0, 200.0, 250.0)
        assert p.query_selectivity == 0.75

    def test_uod_square(self):
        p = paper_defaults()
        assert math.isclose(p.uod.w, math.sqrt(100_000.0))
        assert math.isclose(p.uod.w, p.uod.h)

    def test_scaled_preserves_density_and_ratios(self):
        p = paper_defaults().scaled(0.1)
        assert p.num_objects == 1000
        assert p.num_queries == 100
        assert p.velocity_changes_per_step == 100
        density_before = paper_defaults().num_objects / paper_defaults().area_sq_miles
        density_after = p.num_objects / p.area_sq_miles
        assert math.isclose(density_before, density_after, rel_tol=0.01)

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            paper_defaults().scaled(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationParameters(num_queries=20_000)
        with pytest.raises(ValueError):
            SimulationParameters(velocity_changes_per_step=20_000)
        with pytest.raises(ValueError):
            SimulationParameters(radius_factor=0)

    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert bench_scale_from_env() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert bench_scale_from_env() == 1.0
        monkeypatch.delenv("REPRO_SCALE")
        assert bench_scale_from_env() == 0.06
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            bench_scale_from_env()

    def test_bench_defaults_uses_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        assert bench_defaults().num_objects == 100


class TestObjectGeneration:
    def make(self, seed=1):
        params = paper_defaults().scaled(0.05)
        return params, generate_objects(params, SimulationRng(seed))

    def test_population_size(self):
        params, objects = self.make()
        assert len(objects) == params.num_objects

    def test_positions_inside_uod(self):
        params, objects = self.make()
        for obj in objects:
            assert params.uod.contains(obj.pos)

    def test_speeds_bounded_by_max(self):
        params, objects = self.make()
        for obj in objects:
            assert obj.speed <= obj.max_speed + 1e-9
            assert obj.max_speed in params.max_speeds

    def test_zipf_speed_distribution_prefers_first(self):
        params, objects = self.make()
        counts = {}
        for obj in objects:
            counts[obj.max_speed] = counts.get(obj.max_speed, 0) + 1
        assert counts.get(100.0, 0) > counts.get(250.0, 0)

    def test_class_property_assigned(self):
        _params, objects = self.make()
        assert all(0 <= o.props[CLASS_PROPERTY] < 100 for o in objects)

    def test_deterministic_from_seed(self):
        _p1, a = self.make(seed=9)
        _p2, b = self.make(seed=9)
        assert [o.pos for o in a] == [o.pos for o in b]
        _p3, c = self.make(seed=10)
        assert [o.pos for o in a] != [o.pos for o in c]


class TestQueryGeneration:
    def make(self, seed=1, **kwargs):
        params = paper_defaults().scaled(0.05)
        return params, generate_queries(params, SimulationRng(seed), **kwargs)

    def test_count(self):
        params, specs = self.make()
        assert len(specs) == params.num_queries

    def test_distinct_focals_by_default(self):
        _params, specs = self.make()
        focals = [s.oid for s in specs]
        assert len(set(focals)) == len(focals)

    def test_skewed_focals_repeat(self):
        _params, specs = self.make(focal_skew=1.5)
        focals = [s.oid for s in specs]
        assert len(set(focals)) < len(focals)

    def test_radii_positive(self):
        _params, specs = self.make()
        assert all(s.region.r > 0 for s in specs)

    def test_radius_factor_scales(self):
        params = replace(paper_defaults().scaled(0.05), radius_factor=2.0)
        base = generate_queries(replace(params, radius_factor=1.0), SimulationRng(1))
        doubled = generate_queries(params, SimulationRng(1))
        for b, d in zip(base, doubled):
            assert math.isclose(d.region.r, 2.0 * b.region.r)

    def test_selectivity_realized(self):
        """~75% of a uniform population passes a generated query filter."""
        params, objects = TestObjectGeneration().make()
        _p, specs = self.make()
        matched = sum(1 for o in objects if specs[0].filter.matches(o.props))
        assert 0.6 <= matched / len(objects) <= 0.9


class TestWorkloadBundle:
    def test_generate_workload_consistent(self):
        params = paper_defaults().scaled(0.02)
        workload = generate_workload(params)
        assert len(workload.objects) == params.num_objects
        assert len(workload.query_specs) == params.num_queries
        oids = {o.oid for o in workload.objects}
        assert all(s.oid in oids for s in workload.query_specs)

    def test_same_seed_same_workload(self):
        params = paper_defaults().scaled(0.02)
        a = generate_workload(params)
        b = generate_workload(params)
        assert [o.pos for o in a.objects] == [o.pos for o in b.objects]
        assert [s.region.r for s in a.query_specs] == [s.region.r for s in b.query_specs]
