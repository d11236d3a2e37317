"""Tests for the analytical optimal-alpha messaging model."""

import math

import pytest

from repro.analysis import AlphaCostModel
from repro.workload import paper_defaults


@pytest.fixture
def model():
    return AlphaCostModel.from_params(paper_defaults())


class TestModelPieces:
    def test_cell_crossing_rate_inverse_in_alpha(self, model):
        assert model.cell_crossing_rate(2.0) == pytest.approx(
            2.0 * model.cell_crossing_rate(4.0)
        )

    def test_cell_crossing_rate_formula(self, model):
        # (4/pi) * E[v] / alpha per hour, converted to seconds.
        alpha = 5.0
        expected = (4.0 / math.pi) * model.mean_speed / alpha / 3600.0
        assert model.cell_crossing_rate(alpha) == pytest.approx(expected)

    def test_invalid_alpha(self, model):
        with pytest.raises(ValueError):
            model.cell_crossing_rate(0.0)

    def test_focal_velocity_reports(self, model):
        # nmo * (nmq / no) / ts = 1000 * 0.1 / 30
        assert model.focal_velocity_reports_per_second() == pytest.approx(100.0 / 30.0)

    def test_stations_grow_with_alpha(self, model):
        assert model.stations_per_monitoring_region(16.0) > model.stations_per_monitoring_region(2.0)

    def test_widened_region_needs_more_stations(self, model):
        assert model.stations_per_monitoring_region(
            5.0, widened=5.0
        ) > model.stations_per_monitoring_region(5.0)


class TestModelShape:
    def test_uplink_decreasing_in_alpha(self, model):
        alphas = [0.5, 1, 2, 4, 8, 16]
        rates = [model.uplink_rate(a) for a in alphas]
        assert rates == sorted(rates, reverse=True)

    def test_downlink_increasing_for_large_alpha(self, model):
        assert model.downlink_rate(32.0) > model.downlink_rate(8.0)

    def test_total_is_u_shaped(self, model):
        alphas = [0.5 * 1.3**k for k in range(16)]
        totals = [model.total_rate(a) for a in alphas]
        best = totals.index(min(totals))
        assert 0 < best < len(alphas) - 1  # interior minimum

    def test_optimal_alpha_in_reasonable_range(self, model):
        alpha, rate = model.optimal_alpha()
        assert 2.0 <= alpha <= 20.0  # the paper reports an ideal range [4, 6]
        assert rate > 0

    def test_optimal_alpha_is_the_true_minimum(self, model):
        # A coarse scan alone returned alpha 11.10 at 75.685 msgs/s while
        # total_rate(10) is 75.526; the refined optimum beats every point
        # of a 0.001 grid over [1, 50].
        alpha, rate = model.optimal_alpha()
        assert 10.2 < alpha < 10.4
        assert rate < model.total_rate(10.0)
        for k in range(49_001):
            assert rate <= model.total_rate(1.0 + k / 1000)

    def test_lazy_mode_cheaper_uplink(self):
        params = paper_defaults()
        eager = AlphaCostModel.from_params(params, lazy=False)
        lazy = AlphaCostModel.from_params(params, lazy=True)
        assert lazy.uplink_rate(5.0) < eager.uplink_rate(5.0)
        assert lazy.downlink_rate(5.0) == eager.downlink_rate(5.0)

    def test_more_queries_move_optimum_left(self):
        """With more queries the broadcast term grows, favoring smaller
        monitoring regions (smaller alpha) -- the trend behind Fig. 4's
        per-curve minima."""
        from dataclasses import replace

        few = AlphaCostModel.from_params(replace(paper_defaults(), num_queries=100))
        many = AlphaCostModel.from_params(replace(paper_defaults(), num_queries=1000))
        assert many.optimal_alpha()[0] <= few.optimal_alpha()[0]


class TestFromParams:
    def test_mean_speed_is_half_zipf_mean_max(self):
        params = paper_defaults()
        model = AlphaCostModel.from_params(params)
        # zipf(0.8) over (100, 50, 150, 200, 250) weights the head most.
        assert 50.0 <= model.mean_speed <= 125.0

    def test_radius_factor_respected(self):
        from dataclasses import replace

        base = AlphaCostModel.from_params(paper_defaults())
        doubled = AlphaCostModel.from_params(replace(paper_defaults(), radius_factor=2.0))
        assert doubled.mean_radius == pytest.approx(2.0 * base.mean_radius)
