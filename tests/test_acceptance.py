"""Acceptance gate: one test per headline claim, run against the shipped
`paper-vi-desk` scenario and independent closed-form oracles.

The heavy simulator runs are shared through module-scoped fixtures so the
whole gate stays within a few minutes of wall time.
"""

import dataclasses
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from tclgrid.design import allocate_thresholds, verify_design_condition, zeta
from tclgrid.grid_model import GenDynamics, build_combined_system, one_norm
from tclgrid.hybrid_sim import dwell_time_report, ripple_envelope, simulate
from tclgrid.stats import (
    aggregate_demand_series,
    cross_term_oracle,
    theoretical_variance,
    time_variance,
)
from tclgrid.tcl import (
    PopulationSpec,
    Scheme,
    duty_cycle,
    on_off_durations,
    sample_initial_states,
    sample_population,
)
from tests.conftest import SHIPPED_SCENARIO
from tests.reference import temp_flow


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def shipped_scenario(shipped_file):
    sc, allocation = shipped_file.build_scenario()
    assert allocation is not None and allocation.report.satisfied
    return sc


@pytest.fixture(scope="module")
def run_deterministic(shipped_scenario):
    return simulate(shipped_scenario)


@pytest.fixture(scope="module")
def run_conventional(shipped_scenario):
    return simulate(dataclasses.replace(shipped_scenario, scheme=Scheme.conventional()))


@pytest.fixture(scope="module")
def run_randomized(shipped_scenario):
    return simulate(dataclasses.replace(shipped_scenario, scheme=Scheme.randomized()))


@pytest.fixture(scope="module")
def run_randomized_high_gain(shipped_scenario):
    return simulate(
        dataclasses.replace(shipped_scenario, scheme=Scheme.randomized_high_gain())
    )


@pytest.fixture(scope="module")
def run_zero_disturbance(shipped_scenario):
    return simulate(dataclasses.replace(shipped_scenario, disturbance=[(0.0, 0.0)]))


@pytest.fixture(scope="module")
def run_deterministic_4x(shipped_file, shipped_scenario):
    """Same aggregate capacity split over four times as many loads."""
    big_spec = dataclasses.replace(shipped_file.population, n_loads=2000)
    l_hat = one_norm(shipped_scenario.grid).value
    allocation = allocate_thresholds(
        sample_population(big_spec),
        l_hat,
        shipped_file.design.delta,
        margin=shipped_file.design.margin,
        threshold_range=shipped_file.population.ranges()["omega1"],
    )
    assert allocation.report.satisfied
    sc = dataclasses.replace(shipped_scenario, population=allocation.population)
    return simulate(sc), allocation.population


def assert_confined(trace, population):
    lo = np.array([p.t_lo for p in population])
    hi = np.array([p.t_hi for p in population])
    assert np.all(trace.temp_min >= lo - 1e-9)
    assert np.all(trace.temp_max <= hi + 1e-9)


# ---------------------------------------------------------------------------
# duty-cycle closed form vs bisection oracle

def test_duty_cycle_closed_form_matches_bisection_oracle():
    start = time.monotonic()
    pop = sample_population(PopulationSpec(n_loads=1000, gamma=10.0, seed=7))
    for p in pop:
        pi_on, pi_off = on_off_durations(p)
        for sigma, expected in ((1, pi_on), (0, pi_off)):
            origin = p.t_hi if sigma else p.t_lo
            threshold = p.t_lo if sigma else p.t_hi
            t_a, t_b = 0.0, 2.0 * expected
            for _ in range(80):
                mid = 0.5 * (t_a + t_b)
                temp = temp_flow(p, origin, sigma, mid)
                crossed = temp <= threshold if sigma else temp >= threshold
                if crossed:
                    t_b = mid
                else:
                    t_a = mid
            oracle = 0.5 * (t_a + t_b)
            assert expected == pytest.approx(oracle, rel=1e-9)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 1-norm analytic case: no generation states, gain 1/D

def test_one_norm_pure_damping_equals_inverse_damping():
    start = time.monotonic()
    gen = GenDynamics(a_hat=np.zeros((0, 0)), b_hat=np.zeros(0), c_hat=np.zeros(0))
    for d in (0.1, 1.0, 10.0):
        ss = build_combined_system(gen, m=4.0, d=d)
        assert one_norm(ss).value == pytest.approx(1.0 / d, abs=1e-6 / d)
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# aggregate demand variance: bound, closed form, and 1/N scaling

def test_variance_bound_and_quarter_scaling():
    start = time.monotonic()
    horizon = 2e5

    def measured_variance(n_loads, seed):
        pop = sample_population(PopulationSpec(n_loads, gamma=1.0, seed=seed))
        temps, sigmas = sample_initial_states(pop, seed=seed)
        series = aggregate_demand_series(pop, temps, sigmas, horizon)
        return pop, time_variance(series, (0.0, horizon))

    pop200, v200 = measured_variance(200, seed=31)
    gamma = sum(p.d_bar for p in pop200)
    bound = gamma**2 / len(pop200)
    closed_form = theoretical_variance(pop200)
    assert v200 < bound
    assert abs(v200 / closed_form - 1.0) <= 0.25

    _, v800 = measured_variance(800, seed=31)
    assert 0.15 <= v800 / v200 <= 0.40
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# cross term factors for incommensurate loads

def test_cross_term_factors_for_root_two_period_ratio():
    start = time.monotonic()
    pop = sample_population(PopulationSpec(2, gamma=0.02, seed=13))
    p_i = pop[0]
    # identical thermal envelope, insulation slowed by sqrt(2): periods in
    # exact ratio sqrt(2)
    p_j = dataclasses.replace(p_i, k=p_i.k / math.sqrt(2))
    measured = cross_term_oracle(p_i, p_j, horizon=1e6)
    expected = duty_cycle(p_i) * duty_cycle(p_j) * p_i.d_bar * p_j.d_bar
    assert abs(measured / expected - 1.0) <= 0.02
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# breakpoint verifier vs dense grid; allocator output re-verifies

def test_design_verifier_agrees_with_dense_grid(default_l_hat):
    start = time.monotonic()
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(3, 40))
        gamma = float(rng.uniform(0.05, 2.0))
        pop = sample_population(PopulationSpec(n, gamma, seed=1000 + trial))
        report = verify_design_condition(pop, default_l_hat, delta=0.001)

        thresholds = np.array([p.omega1 for p in pop])
        weights = np.array([zeta(p) * p.d_bar for p in pop])
        grid = np.union1d(
            np.linspace(0.0, 1.1 * thresholds.max(), 10_000 - n), thresholds
        )
        lhs = np.array([weights[thresholds <= w].sum() for w in grid])
        rhs = np.maximum((grid - 0.001) / default_l_hat, 0.0)
        gap = lhs - rhs
        dense_ok = bool(np.all(gap <= 0))
        on_bp = np.isin(grid, thresholds)
        dense_worst = float(grid[on_bp][np.argmax(gap[on_bp])])

        assert report.satisfied == dense_ok
        assert report.worst_point[0] == dense_worst
    for seed in range(5):
        pop = sample_population(PopulationSpec(80, 0.6, seed=seed))
        result = allocate_thresholds(pop, default_l_hat, 0.001, margin=0.2)
        assert result.report.satisfied
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# no Zeno behavior, positive dwell time on the shipped scenario

def test_no_zeno_and_positive_dwell_time(run_deterministic):
    metrics = dwell_time_report(run_deterministic)
    assert run_deterministic.meta["jump_count"] < 10 * 500
    assert metrics.min_interswitch_gap >= 1e-3
    # no self-loop storms: every jump instant settles in a handful of rounds
    assert run_deterministic.meta["max_jump_instants"] <= 4


# ---------------------------------------------------------------------------
# temperature confinement on every acceptance run

def test_temperature_confinement_all_runs(
    shipped_scenario,
    run_deterministic,
    run_conventional,
    run_randomized,
    run_randomized_high_gain,
    run_zero_disturbance,
):
    for trace in (
        run_deterministic,
        run_conventional,
        run_randomized,
        run_randomized_high_gain,
        run_zero_disturbance,
    ):
        assert_confined(trace, shipped_scenario.population)


def test_temperature_confinement_large_population(run_deterministic_4x):
    trace, population = run_deterministic_4x
    assert_confined(trace, population)


# ---------------------------------------------------------------------------
# quiet frequency windows appear and lengthen with population size

def test_quiet_window_grows_with_population(
    run_zero_disturbance, run_deterministic, run_deterministic_4x
):
    envelope = ripple_envelope(
        run_zero_disturbance.times, run_zero_disturbance.omega
    )
    eps = 2.0 * envelope
    trace_big, _ = run_deterministic_4x
    window_base = dwell_time_report(run_deterministic).longest_window_within(eps)
    window_big = dwell_time_report(trace_big).longest_window_within(eps)
    assert window_base >= 100.0
    assert window_big >= 1.5 * window_base


# ---------------------------------------------------------------------------
# peak-frequency ordering of the four control cases

# Scenario seeds over which the randomized scheme is compared with the
# conventional one. The frequency nadir falls at t ~ 3.5 s at each of them, so
# a 10 s horizon reproduces the peaks of the 600 s runs.
PEAK_SEEDS = (17, 1, 2, 3, 4, 5, 6, 7, 8)


def test_scheme_peak_ordering(
    shipped_scenario, run_conventional, run_randomized, run_randomized_high_gain, run_deterministic
):
    peak = lambda tr: float(np.max(np.abs(tr.omega)))
    conv = peak(run_conventional)
    rand = peak(run_randomized)
    rand_hg = peak(run_randomized_high_gain)
    det = peak(run_deterministic)
    tol = 0.01 * conv
    assert det <= rand_hg - tol
    assert rand_hg <= rand - tol
    # one seed's randomized peak is one draw: the rand/conv ratio spreads
    # with sd 0.003 over these seeds (mean 0.990), so the scheme is judged on
    # all of them, each below 1 and their mean at most 0.995
    ratios = []
    for seed in PEAK_SEEDS:
        sc = dataclasses.replace(shipped_scenario, seed=seed, horizon=10.0)
        conv_s = peak(simulate(dataclasses.replace(sc, scheme=Scheme.conventional())))
        rand_s = peak(simulate(dataclasses.replace(sc, scheme=Scheme.randomized())))
        ratios.append(rand_s / conv_s)
    assert max(ratios) < 1.0, ratios
    assert np.mean(ratios) <= 0.995, ratios


# ---------------------------------------------------------------------------
# byte-identical reruns, independent of BLAS thread count

@pytest.mark.parametrize("scheme", ["deterministic", "randomized"])
def test_cli_runs_byte_identical_across_thread_counts(tmp_path, scheme):
    import os

    outs = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / name
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [
                sys.executable, "-m", "tclgrid.cli", "run",
                "--scenario", str(SHIPPED_SCENARIO),
                "--out", str(out), "--horizon", "15", "--scheme", scheme,
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    a, b = outs
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "switch_events.csv").read_bytes() == (b / "switch_events.csv").read_bytes()
    assert (a / "metrics.txt").read_bytes() == (b / "metrics.txt").read_bytes()


# ---------------------------------------------------------------------------
# the frequency-responsive scheme reduces to the thermostat scheme
# when no load's frequency threshold is ever reached

def test_unreachable_threshold_reduction(shipped_scenario):
    pop = shipped_scenario.population
    out_of_reach = dataclasses.replace(
        shipped_scenario,
        population=dataclasses.replace(pop, omega1=np.full(len(pop), 1e3)),
        horizon=120.0,
    )
    tr_det = simulate(out_of_reach)
    tr_conv = simulate(dataclasses.replace(out_of_reach, scheme=Scheme.conventional()))
    assert np.max(np.abs(tr_det.omega)) < 1.0
    assert tr_det.switch_times.size > 0
    np.testing.assert_array_equal(tr_det.switch_loads, tr_conv.switch_loads)
    np.testing.assert_array_equal(tr_det.switch_new_sigma, tr_conv.switch_new_sigma)
    assert tr_det.switch_causes == tr_conv.switch_causes
    np.testing.assert_allclose(tr_det.switch_times, tr_conv.switch_times, rtol=0, atol=1e-9)
    # the deterministic run took its own path: passes that end at a branch opening
    assert tr_det.meta["loop_iterations"] > tr_conv.meta["loop_iterations"]
