import dataclasses
import math

import numpy as np
import pytest

from tclgrid.design import (
    DesignError,
    allocate_thresholds,
    verify_design_condition,
    zeta,
)
from tclgrid.tcl import Population, PopulationSpec, duty_cycle, sample_population


def dense_grid_verdict(pop, l_hat, delta, n_points=10_000):
    """Independent check of the design inequality on a dense level grid that
    includes every threshold breakpoint."""
    thresholds = np.array([p.omega1 for p in pop])
    weights = np.array([zeta(p) * p.d_bar for p in pop])
    top = 1.1 * thresholds.max()
    grid = np.union1d(np.linspace(0.0, top, n_points - len(pop)), thresholds)
    # responsive magnitude at level w: all loads with threshold <= w
    lhs = np.array([weights[thresholds <= w].sum() for w in grid])
    rhs = np.maximum((grid - delta) / l_hat, 0.0)
    gap = lhs - rhs
    # the worst breakpoint is read off the same dense samples, restricted to
    # the grid points that sit on a threshold
    on_bp = np.isin(grid, thresholds)
    worst_bp = float(grid[on_bp][np.argmax(gap[on_bp])])
    return bool(np.all(gap <= 0)), worst_bp


class TestVerifier:
    def test_single_load_threshold_cases(self):
        pop = sample_population(PopulationSpec(1, 0.01, seed=1))
        p = dataclasses.replace(pop, omega1=np.array([0.1]))
        l_hat = 0.5
        # responsive magnitude zeta*d_bar ~ 0.005-ish, bound (0.1-delta)/0.5
        report = verify_design_condition(p, l_hat, delta=0.001)
        assert report.satisfied
        # push the bound below the load by shrinking the threshold
        tight = dataclasses.replace(p, omega1=np.array([0.0011]))
        report2 = verify_design_condition(tight, l_hat, delta=0.001)
        assert not report2.satisfied
        assert len(report2.violations) == 1

    def test_delta_at_or_above_min_threshold_cannot_hold(self):
        pop = dataclasses.replace(sample_population(PopulationSpec(3, 0.03, seed=2)), omega1=np.full(3, 0.05))
        report = verify_design_condition(pop, 0.5, delta=0.05)
        assert not report.satisfied
        assert "cannot hold" in report.note

    def test_empty_population_trivially_satisfied(self):
        report = verify_design_condition(Population.of([]), 0.5, 0.001)
        assert report.satisfied
        assert report.worst_point is None

    def test_invalid_inputs_rejected(self):
        pop = sample_population(PopulationSpec(2, 0.01, seed=3))
        with pytest.raises(DesignError):
            verify_design_condition(pop, -1.0, 0.001)
        with pytest.raises(DesignError):
            verify_design_condition(pop, 0.5, 0.0)

    @pytest.mark.parametrize("l_hat, delta", [(math.nan, 0.001), (0.5, math.nan)])
    def test_nan_inputs_rejected(self, l_hat, delta):
        pop = sample_population(PopulationSpec(2, 0.01, seed=3))
        with pytest.raises(DesignError):
            verify_design_condition(pop, l_hat, delta)
        with pytest.raises(DesignError):
            allocate_thresholds(pop, l_hat, delta)

    def test_agrees_with_dense_grid(self, default_l_hat):
        rng = np.random.default_rng(12345)
        for trial in range(30):
            n = int(rng.integers(3, 30))
            gamma = float(rng.uniform(0.05, 1.5))
            pop = sample_population(PopulationSpec(n, gamma, seed=trial))
            report = verify_design_condition(pop, default_l_hat, 0.001)
            dense_ok, dense_worst = dense_grid_verdict(pop, default_l_hat, 0.001)
            assert report.satisfied == dense_ok
            assert report.worst_point[0] == pytest.approx(dense_worst)

    def test_scaling_monotonicity(self, default_l_hat):
        # doubling every magnitude can only hurt the margin
        pop = sample_population(PopulationSpec(10, 0.2, seed=7))
        base = verify_design_condition(pop, default_l_hat, 0.001)
        heavier = verify_design_condition(pop, 2 * default_l_hat, 0.001)
        base_gap = base.worst_point[1] - base.worst_point[2]
        heavy_gap = heavier.worst_point[1] - heavier.worst_point[2]
        assert heavy_gap >= base_gap


class TestZeta:
    def test_zeta_at_least_half(self):
        pop = sample_population(PopulationSpec(50, 0.2, seed=11))
        for p in pop:
            alpha = duty_cycle(p)
            assert zeta(p) == pytest.approx(max(alpha, 1 - alpha))
            assert zeta(p) >= 0.5


class TestAllocator:
    def test_output_reverifies(self, default_l_hat):
        for seed in range(8):
            pop = sample_population(PopulationSpec(60, 0.5, seed=seed))
            result = allocate_thresholds(pop, default_l_hat, 0.001, margin=0.2)
            assert result.report.satisfied
            assert result.report.margin_used == 0.2

    def test_thresholds_ascend_with_cumulative_magnitude(self, default_l_hat):
        pop = sample_population(PopulationSpec(40, 0.4, seed=4))
        result = allocate_thresholds(pop, default_l_hat, 0.001)
        thresholds = [p.omega1 for p in result.population]
        assert thresholds == sorted(thresholds)

    def test_oversized_population_reports_inactive_loads(self, default_l_hat):
        pop = sample_population(PopulationSpec(100, 3.0, seed=6))
        result = allocate_thresholds(pop, default_l_hat, 0.001, margin=0.2)
        assert result.inactive
        # pinned loads sit exactly at the range top
        for i in result.inactive:
            assert result.population[i].omega1 == 0.26

    def test_margin_zero_tighter_than_margin_twenty(self, default_l_hat):
        pop = sample_population(PopulationSpec(30, 0.3, seed=8))
        loose = allocate_thresholds(pop, default_l_hat, 0.001, margin=0.0)
        tight = allocate_thresholds(pop, default_l_hat, 0.001, margin=0.2)
        for a, b in zip(loose.population, tight.population):
            assert a.omega1 <= b.omega1

    def test_invalid_settings_rejected(self, default_l_hat):
        pop = sample_population(PopulationSpec(5, 0.05, seed=9))
        with pytest.raises(DesignError):
            allocate_thresholds(pop, default_l_hat, 0.001, margin=1.0)
        with pytest.raises(DesignError):
            allocate_thresholds(pop, default_l_hat, 0.3, threshold_range=(0.01, 0.26))
        with pytest.raises(DesignError):
            allocate_thresholds(pop, default_l_hat, 0.001, threshold_range=(0.3, 0.2))

    def test_report_text_renders(self, default_l_hat):
        pop = sample_population(PopulationSpec(10, 0.1, seed=10))
        result = allocate_thresholds(pop, default_l_hat, 0.001)
        text = result.report.to_text()
        assert "satisfied: True" in text
        assert "worst_point" in text
