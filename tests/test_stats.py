import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclgrid import stats
from tclgrid.stats import (
    StatsError,
    TimeSeries,
    aggregate_demand_series,
    cross_term_oracle,
    demand_series,
    free_run_events,
    phase_uniformity,
    star_discrepancy,
    switch_offset_sequence,
    theoretical_variance,
    time_average,
    time_variance,
)
from tclgrid.tcl import (
    Population,
    PopulationSpec,
    TclParams,
    duty_cycle,
    next_thermostat_event,
    on_off_durations,
    sample_initial_states,
    sample_population,
)

REFERENCE = TclParams(
    d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=20.0,
    omega1=0.1, eps=0.005,
)


class TestTimeSeries:
    def test_square_wave_average_and_variance(self):
        # value 1 on [0,1), 0 on [1,2), 1 on [2,3) ... over [0, 4]
        ts = TimeSeries(times=np.array([0.0, 1.0, 2.0, 3.0]),
                        values=np.array([1.0, 0.0, 1.0, 0.0]))
        assert time_average(ts, (0.0, 4.0)) == pytest.approx(0.5)
        assert time_variance(ts, (0.0, 4.0)) == pytest.approx(0.25)

    def test_partial_window(self):
        ts = TimeSeries(times=np.array([0.0, 2.0]), values=np.array([3.0, 5.0]))
        assert ts.integral(1.0, 3.0) == pytest.approx(3.0 + 5.0)
        assert time_average(ts, (1.5, 2.5)) == pytest.approx(4.0)

    def test_constant_series_zero_variance(self):
        ts = TimeSeries(times=np.array([0.0]), values=np.array([2.5]))
        assert time_variance(ts, (0.0, 100.0)) == pytest.approx(0.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(StatsError):
            TimeSeries(times=np.array([0.0, 0.0]), values=np.array([1.0, 2.0]))
        with pytest.raises(StatsError):
            TimeSeries(times=np.array([]), values=np.array([]))
        ts = TimeSeries(times=np.array([0.0]), values=np.array([1.0]))
        with pytest.raises(StatsError):
            ts.integral(3.0, 2.0)
        with pytest.raises(StatsError):
            ts.integral(-1.0, 2.0)


def reference_switch_times(p, temperature, sigma, horizon):
    """Reference for the kernel: one load's switch instants by a 1-D running sum."""
    pi_on, pi_off = on_off_durations(p)
    first = float(next_thermostat_event(p, temperature, sigma))
    n_cycles = max(int((horizon - first) // (pi_on + pi_off)), 0) + 2
    steps = np.empty(2 * n_cycles + 1)
    steps[0] = first
    steps[1::2], steps[2::2] = (pi_off, pi_on) if sigma else (pi_on, pi_off)
    times = np.cumsum(steps)
    return times[: np.searchsorted(times, horizon, side="right")]


def reference_demand_series(p, temperature, sigma, horizon):
    switches = reference_switch_times(p, temperature, sigma, horizon)
    if switches.size and switches[0] == 0.0:
        sigma = 1 - sigma
        switches = switches[1:]
    times = np.concatenate([[0.0], switches])
    states = sigma ^ (np.arange(times.size) & 1)
    return TimeSeries(times=times, values=states * p.d_bar)


def reference_aggregate(pop, temperatures, sigmas, horizon):
    event_times = [np.array([0.0])]
    event_deltas = [np.array([0.0])]
    for p, temp, sig in zip(pop, temperatures, sigmas):
        series = reference_demand_series(p, float(temp), int(sig), horizon)
        event_times.append(series.times)
        event_deltas.append(np.diff(series.values, prepend=0.0))
    times = np.concatenate(event_times)
    deltas = np.concatenate(event_deltas)
    order = np.argsort(times, kind="stable")
    times = times[order]
    levels = np.cumsum(deltas[order])
    keep = np.concatenate([times[1:] != times[:-1], [True]])
    return TimeSeries(times=times[keep], values=levels[keep])


@st.composite
def free_run_cases(draw):
    """A sampled population, with each load starting mid-band, exactly on a
    threshold (so it may switch at t = 0) or anywhere in its band, and a
    horizon of zero, short or long."""
    n = draw(st.integers(1, 12))
    pop = sample_population(PopulationSpec(n, 0.05, seed=draw(st.integers(0, 2**32 - 1))))
    temps, sigmas = [], []
    for p in pop:
        start = draw(st.sampled_from(["t_lo", "t_hi", "mid", "any"]))
        if start == "any":
            temps.append(draw(st.floats(p.t_lo, p.t_hi)))
        else:
            temps.append((p.t_lo + p.t_hi) / 2 if start == "mid" else getattr(p, start))
        sigmas.append(draw(st.integers(0, 1)))
    horizon = draw(st.one_of(st.sampled_from([0.0, 50.0, 2e5]), st.floats(0.0, 3e4)))
    return pop, np.array(temps), np.array(sigmas, dtype=np.int8), horizon


class TestFreeRun:
    def test_switch_cadence_matches_strokes(self):
        pi_on, pi_off = on_off_durations(REFERENCE)
        times, deltas = free_run_events(
            Population.of([REFERENCE]), [REFERENCE.t_hi], [1], horizon=5000.0
        )
        # starting ON at the top: first switch after a full ON stroke
        assert times[0] == 0.0 and deltas[0] == REFERENCE.d_bar
        assert times[1] == pytest.approx(pi_on)
        assert times[2] - times[1] == pytest.approx(pi_off)
        assert times[3] - times[2] == pytest.approx(pi_on)
        assert deltas[1:4].tolist() == [-REFERENCE.d_bar, REFERENCE.d_bar, -REFERENCE.d_bar]

    @pytest.mark.parametrize("horizon", [0.0, 50.0, 5e3, 2e5])
    def test_switch_times_match_sequential_loop(self, horizon, monkeypatch):
        """The kernel's switch instants equal adding one stroke at a time, bit
        for bit, for every load of the population in one call, whether the
        loads fit one block or span several."""
        pop = sample_population(PopulationSpec(60, 0.3, seed=8))
        temps, sigmas = sample_initial_states(pop, seed=8)
        # every load twice, once per initial state, plus two starting on a threshold
        pop = Population.of([*pop, *pop, REFERENCE, REFERENCE])
        temps = np.concatenate([temps, temps, [REFERENCE.t_hi, REFERENCE.t_lo]])
        sigmas = np.concatenate([sigmas, 1 - sigmas, [0, 1]]).astype(np.int8)
        times, deltas = free_run_events(pop, temps, sigmas, horizon)
        monkeypatch.setattr(stats, "SWITCH_BLOCK", 7)
        blocked = free_run_events(pop, temps, sigmas, horizon)
        assert np.array_equal(times, blocked[0]) and np.array_equal(deltas, blocked[1])
        # each load's events open with its level at t = 0; its switches follow
        starts = np.flatnonzero(times == 0.0)
        assert starts.size == len(pop)
        for p, temp, sig, t, d in zip(
            pop, temps, sigmas, np.split(times, starts[1:]), np.split(deltas, starts[1:])
        ):
            pi_on, pi_off = on_off_durations(p)
            expected, state = [], int(sig)
            s = float(next_thermostat_event(p, float(temp), state))
            while s <= horizon:
                expected.append(s)
                state = 1 - state
                s += pi_on if state else pi_off
            level = int(sig)
            if expected and expected[0] == 0.0:
                level = 1 - level  # already at the active threshold
                expected = expected[1:]
            assert t[1:].tolist() == expected
            assert d[0] == level * p.d_bar
            # steps alternate in sign, starting from the level at t = 0
            signs = np.where(np.arange(len(expected)) % 2 == 0, 1 - 2 * level, 2 * level - 1)
            assert d[1:].tolist() == (signs * p.d_bar).tolist()

    @settings(max_examples=80, deadline=None)
    @given(case=free_run_cases())
    def test_series_bit_exact_against_per_load_loop(self, case):
        pop, temps, sigmas, horizon = case
        got = aggregate_demand_series(pop, temps, sigmas, horizon)
        want = reference_aggregate(pop, temps, sigmas, horizon)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)
        # the same loads rebuilt from their per-load records give the same series
        assert np.array_equal(
            aggregate_demand_series(Population.of(list(pop)), temps, sigmas, horizon).values,
            want.values,
        )
        for p, temp, sig in zip(pop, temps, sigmas):
            got = demand_series(p, float(temp), int(sig), horizon)
            want = reference_demand_series(p, float(temp), int(sig), horizon)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.values, want.values)

    def test_demand_series_level_alternates(self):
        series = demand_series(REFERENCE, REFERENCE.t_hi, 1, horizon=3000.0)
        assert series.values[0] == pytest.approx(REFERENCE.d_bar)
        assert series.values[1] == 0.0
        assert series.values[2] == pytest.approx(REFERENCE.d_bar)

    def test_demand_series_switch_at_time_zero(self):
        # starting OFF exactly at the upper threshold: switches ON immediately
        series = demand_series(REFERENCE, REFERENCE.t_hi, 0, horizon=3000.0)
        assert series.times[0] == 0.0
        assert series.values[0] == pytest.approx(REFERENCE.d_bar)

    def test_long_run_average_converges_to_duty_cycle(self):
        series = demand_series(REFERENCE, 4.5, 0, horizon=2e6)
        avg = time_average(series, (0.0, 2e6))
        assert avg == pytest.approx(duty_cycle(REFERENCE) * REFERENCE.d_bar, rel=1e-3)

    def test_aggregate_equals_sum_of_parts(self):
        pop = sample_population(PopulationSpec(5, 0.05, seed=21))
        temps, sigmas = sample_initial_states(pop, seed=4)
        agg = aggregate_demand_series(pop, temps, sigmas, horizon=1e4)
        for t_probe in (0.0, 123.4, 5432.1, 9999.0):
            total = sum(
                demand_series(p, float(tp), int(sg), 1e4).values[
                    np.searchsorted(demand_series(p, float(tp), int(sg), 1e4).times, t_probe, side="right") - 1
                ]
                for p, tp, sg in zip(pop, temps, sigmas)
            )
            idx = np.searchsorted(agg.times, t_probe, side="right") - 1
            assert agg.values[idx] == pytest.approx(total, abs=1e-12)


class TestVarianceTheory:
    def test_theoretical_variance_formula(self):
        pop = sample_population(PopulationSpec(10, 0.1, seed=2))
        expected = sum(duty_cycle(p) * (1 - duty_cycle(p)) * p.d_bar**2 for p in pop)
        # a sum of 10 terms in another order: a few ulps apart at most
        assert theoretical_variance(pop) == pytest.approx(expected, rel=1e-14)

    def test_warns_on_unequal_magnitudes(self):
        import dataclasses

        pop = sample_population(PopulationSpec(2, 0.02, seed=2))
        uneven = Population.of([pop[0], dataclasses.replace(pop[1], d_bar=pop[1].d_bar * 2)])
        messages = []
        theoretical_variance(uneven, warn=messages.append)
        assert messages


class TestCrossTerm:
    def test_converges_to_product_of_averages(self):
        import dataclasses

        p_i = REFERENCE
        p_j = dataclasses.replace(REFERENCE, k=REFERENCE.k / math.sqrt(2))
        measured = cross_term_oracle(p_i, p_j, horizon=1e6)
        expected = duty_cycle(p_i) * duty_cycle(p_j) * p_i.d_bar * p_j.d_bar
        assert measured == pytest.approx(expected, rel=0.01)

    def test_identical_loads_in_phase_do_not_factor(self):
        # perfectly synchronized loads: E(d_i d_j) = alpha d^2 != alpha^2 d^2
        init = (REFERENCE.t_hi, 1)
        measured = cross_term_oracle(REFERENCE, REFERENCE, 1e6, init_i=init, init_j=init)
        alpha = duty_cycle(REFERENCE)
        assert measured == pytest.approx(alpha * REFERENCE.d_bar**2, rel=1e-3)


class TestEquidistribution:
    def test_star_discrepancy_uniform_grid(self):
        # centered uniform grid attains the minimal discrepancy 1/(2n)
        n = 100
        pts = (np.arange(n) + 0.5) / n
        assert star_discrepancy(pts) == pytest.approx(1 / (2 * n))

    def test_star_discrepancy_clustered(self):
        pts = np.full(50, 0.5)
        assert star_discrepancy(pts) == pytest.approx(0.5, abs=0.02)

    def test_golden_rotation_has_low_discrepancy(self):
        golden = (math.sqrt(5) - 1) / 2
        pts = (np.arange(1, 2001) * golden) % 1.0
        assert star_discrepancy(pts) < 5e-3

    def test_offset_sequence_in_unit_interval(self):
        import dataclasses

        p_j = dataclasses.replace(REFERENCE, k=REFERENCE.k * 1.7)
        seq = switch_offset_sequence(REFERENCE, p_j, 500)
        assert seq.shape == (500,)
        assert np.all((0 <= seq) & (seq < 1))

    def test_incommensurate_pair_equidistributes(self):
        import dataclasses

        p_j = dataclasses.replace(REFERENCE, k=REFERENCE.k / math.sqrt(2))
        assert phase_uniformity(REFERENCE, p_j, 4000) < 0.05

    def test_commensurate_pair_does_not(self):
        # equal periods: offsets never move, discrepancy stays order one
        assert phase_uniformity(REFERENCE, REFERENCE, 4000) > 0.5
