import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclgrid import stats, tcl
from tclgrid.stats import (
    StatsError,
    TimeSeries,
    aggregate_demand_series,
    cross_term_oracle,
    free_run_events,
    theoretical_variance,
    time_average,
    time_variance,
)
from tclgrid.tcl import (
    Population,
    PopulationSpec,
    duty_cycle,
    next_thermostat_event,
    on_off_durations,
    period,
    run_index,
    sample_initial_states,
    sample_population,
)

REFERENCE = Population(
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

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=30),
        constant=st.booleans(),
        t0=st.floats(0.0, 1e3),
        width=st.floats(1e-3, 1e4),
    )
    def test_variance_is_never_negative(self, pieces, constant, t0, width):
        # the one-pass moments of a constant series cancel to a rounding
        # error of either sign; the variance is clamped at 0
        gaps, values = zip(*pieces)
        ts = TimeSeries(
            times=np.cumsum((0.0,) + gaps[:-1]),
            values=np.full(len(values), values[0]) if constant else np.array(values),
        )
        assert time_variance(ts, (t0, t0 + width)) >= 0.0

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

    @pytest.mark.parametrize(
        "window", [(0.0, math.inf), (0.0, math.nan), (math.nan, 1.0), (0.5, 1e308)]
    )
    def test_window_rule(self, window):
        """A window end that is not finite, and a moment sum that overflows,
        raise StatsError, not nan, a numpy error or an overflow warning."""
        ts = TimeSeries(times=np.array([0.0, 1.0, 2.0]), values=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(StatsError):
            time_variance(ts, window)
        with pytest.raises(StatsError):
            time_average(ts, window)
        if not all(map(math.isfinite, window)):
            with pytest.raises(StatsError):
                ts.pieces(*window)

    def test_subnormal_window_rejected(self):
        """A window narrower than the normal range raises StatsError naming
        it: its width and moments would round by absolute steps, outside
        time_variance's bound (a constant read 2.71 here, not 0). A window
        of the smallest normal width still gives the variance 0."""
        ts = TimeSeries(times=np.array([0.0]), values=np.array([174.31551625]))
        with pytest.raises(StatsError, match=r"window \[0\.0, 5e-323\]"):
            time_variance(ts, (0.0, 5e-323))
        assert time_variance(ts, (0.0, np.finfo(float).smallest_normal)) == 0.0

    @pytest.mark.parametrize(
        "times, values",
        [
            ([0.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
            ([math.nan], [1.0]),
            ([0.0, 1.0, math.inf], [1.0, 2.0, 3.0]),
            ([-math.inf, 0.0], [1.0, 2.0]),
            ([0.0, 1.0], [1.0, math.inf]),
            ([0.0, 1.0], [math.nan, 2.0]),
        ],
    )
    def test_non_finite_series_rejected(self, times, values):
        with pytest.raises(StatsError):
            TimeSeries(times=np.array(times), values=np.array(values))


def reference_switch_times(p, temperature, sigma, horizon):
    """Reference for the kernel: one load's switch instants by a 1-D running
    sum. A load at or past its active threshold switches at t = 0 and then
    flows from its actual temperature."""
    pi_on, pi_off = on_off_durations(p)
    lead = [float(next_thermostat_event(p, temperature, sigma))]
    if lead[0] == 0.0:
        sigma = 1 - sigma
        lead.append(float(next_thermostat_event(p, temperature, sigma)))
    n_cycles = max(int((horizon - lead[-1]) // (pi_on + pi_off)), 0) + 2
    strokes = [pi_off, pi_on] if sigma else [pi_on, pi_off]
    times = np.cumsum(lead + strokes * n_cycles)
    return times[: np.searchsorted(times, horizon, side="right")]


def reference_demand_series(p, temperature, sigma, horizon):
    """One load's demand: its state (0 or 1) from t = 0 and after each
    switch, with scale d_bar."""
    switches = reference_switch_times(p, temperature, sigma, horizon)
    if switches.size and switches[0] == 0.0:
        sigma = 1 - sigma
        switches = switches[1:]
    times = np.concatenate([[0.0], switches])
    states = sigma ^ (np.arange(times.size) & 1)
    return TimeSeries(times=times, values=states, scale=p.d_bar)


def reference_aggregate(pop, temperatures, sigmas, horizon):
    """The merge by its definition, from the per-load series: every event (a
    load's state at t = 0, then +-1 at each switch) in a stable sort of the
    times, the running sum, and each run of exact ties merged into its last
    event. Where every load has one magnitude d the steps are integers, the
    sum is the count k of loads ON, and the scale is d; otherwise the steps
    are +-d_bar, summed as floats in load order at each tie."""
    d_bar = np.ravel(pop.d_bar)
    one = bool(np.all(d_bar == d_bar[0]))
    event_times, event_steps = [], []
    for p, temp, sig in zip(pop, temperatures, sigmas):
        series = reference_demand_series(p, float(temp), int(sig), horizon)
        event_times.append(series.times)
        steps = np.diff(series.values, prepend=0)
        event_steps.append(steps if one else steps * p.d_bar)
    times = np.concatenate(event_times)
    order = np.argsort(times, kind="stable")
    times = times[order]
    levels = np.cumsum(np.concatenate(event_steps)[order])
    keep = np.concatenate([times[1:] != times[:-1], [True]])
    return TimeSeries(times=times[keep], values=levels[keep], scale=d_bar[0] if one else 1.0)


def recount(pop, temperatures, sigmas, horizon, times):
    """The count of loads ON on the piece starting at each of times, each
    load's state looked up in its own series."""
    k = np.zeros(times.size, dtype=np.int64)
    for p, temp, sig in zip(pop, temperatures, sigmas):
        series = reference_demand_series(p, float(temp), int(sig), horizon)
        k += series.values[np.searchsorted(series.times, times, side="right") - 1]
    return k


def narrowest_count_type(n):
    """The narrowest signed integer type whose range holds n."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= n)


def assert_same_series(got, want):
    assert np.array_equal(got.times, want.times)
    assert got.values.dtype.kind == want.values.dtype.kind
    assert np.array_equal(got.values, want.values) and got.scale == want.scale


@st.composite
def free_run_cases(draw):
    """A sampled population, with each load starting mid-band, exactly on a
    threshold, anywhere in its band or up to 1 C past either threshold (so
    it may switch at t = 0), and a horizon of zero, short or long."""
    n = draw(st.integers(1, 12))
    pop = sample_population(PopulationSpec(n, 0.05, seed=draw(st.integers(0, 2**32 - 1))))
    temps, sigmas = [], []
    for p in pop:
        spans = {
            "any": (p.t_lo, p.t_hi), "below": (p.t_lo - 1.0, p.t_lo), "above": (p.t_hi, p.t_hi + 1.0),
        }
        start = draw(st.sampled_from(["t_lo", "t_hi", "mid", *spans]))
        if start in spans:
            temps.append(draw(st.floats(*spans[start])))
        else:
            temps.append((p.t_lo + p.t_hi) / 2 if start == "mid" else getattr(p, start))
        sigmas.append(draw(st.integers(0, 1)))
    horizon = draw(st.one_of(st.sampled_from([0.0, 50.0, 2e5]), st.floats(0.0, 3e4)))
    return pop, np.array(temps), np.array(sigmas, dtype=np.int8), horizon


# (t_lo, t_hi, k, cop_scale, t_amb) of the fastest and slowest loads of the
# default range box, periods 118 s and 7,489 s: a population holding both
# spans the shipped population's 30x range of periods (144-4,327 s at 8,000
# loads)
RANGE_CORNERS = [(4.0, 5.0, 1e-3, 35.0, 25.0), (2.0, 7.0, 2e-4, 25.0, 25.0)]


@st.composite
def multi_block_cases(draw):
    """20-300 sampled loads with the RANGE_CORNERS among them, each starting
    on a threshold, mid-band, anywhere in its band or anywhere within 1 C of
    it (so it may switch at t = 0), and a horizon from zero, where no load
    switches after t = 0, to 2e4 s, thousands of switches. The corners have
    the sampled loads' magnitude, or three times it."""
    n = draw(st.integers(20, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    loads = list(sample_population(PopulationSpec(n - 2, 0.05, seed=seed)))
    d_bar = loads[0].d_bar * draw(st.sampled_from([1, 3]))
    for t_lo, t_hi, k, cop_scale, t_amb in RANGE_CORNERS:
        load = Population(
            d_bar=d_bar, t_lo=t_lo, t_hi=t_hi, k=k, cop=cop_scale / d_bar, t_amb=t_amb,
            omega1=0.1, eps=0.005,
        )
        loads.insert(rng.integers(0, len(loads) + 1), load)
    pop = Population.of(loads)
    mid = (pop.t_lo + pop.t_hi) / 2
    temps = np.choose(rng.integers(0, 5, n), [
        pop.t_lo, pop.t_hi, mid, rng.uniform(pop.t_lo, pop.t_hi), rng.uniform(pop.t_lo - 1, pop.t_hi + 1)
    ])
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    horizon = draw(st.one_of(st.sampled_from([0.0, 60.0]), st.floats(0.0, 2e4)))
    return pop, temps, sigmas, horizon


class TestTimeOrder:
    """The merge orders events by their time bits shifted left by one,
    which drops the sign bit, so no time with it set may reach the keys."""

    @pytest.mark.parametrize(
        "times", [[-0.0], [1.0, -0.0, 2.0], [-1.0], [3.0, 0.0, -1e-300], [-5e-324, 0.0]]
    )
    def test_sign_bit_rejected(self, times, monkeypatch):
        # each time the lead of a load of one magnitude, patched in as in
        # TestFreeRun.test_negative_lead_rejected; +0.0 switches at t = 0
        def lead_is_temperature(p, temperature, sigma):
            return np.array(temperature, dtype=float)

        monkeypatch.setattr(stats, "next_thermostat_event", lead_is_temperature)
        pop = Population.of([REFERENCE] * len(times))
        with pytest.raises(StatsError, match="non-negative"):
            aggregate_demand_series(pop, np.array(times), np.zeros(len(times), dtype=np.int8), 1e4)


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
        # every load twice, once per initial state, plus two starting on a
        # threshold and two past one
        pop = Population.of([*pop, *pop, *[REFERENCE] * 4])
        temps = np.concatenate([
            temps, temps, [REFERENCE.t_hi, REFERENCE.t_lo, REFERENCE.t_hi + 0.5, REFERENCE.t_lo - 0.5]
        ])
        sigmas = np.concatenate([sigmas, 1 - sigmas, [0, 1, 0, 1]]).astype(np.int8)
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
            level = int(sig)
            s = float(next_thermostat_event(p, float(temp), level))
            if s == 0.0:
                # at or past the active threshold: a switch at t = 0, then
                # the flow from the actual temperature
                level = 1 - level
                s = float(next_thermostat_event(p, float(temp), level))
            expected, state = [], level
            while s <= horizon:
                expected.append(s)
                state = 1 - state
                s += pi_on if state else pi_off
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
        assert_same_series(got, want)
        # the same loads rebuilt from their per-load records give the same series
        assert_same_series(
            aggregate_demand_series(Population.of(list(pop)), temps, sigmas, horizon), want
        )
        for p, temp, sig in zip(pop, temps, sigmas):
            got = aggregate_demand_series(p, [float(temp)], [int(sig)], horizon)
            assert_same_series(got, reference_demand_series(p, float(temp), int(sig), horizon))

    @pytest.mark.parametrize("block", [1, 3, 64])
    @settings(max_examples=25, deadline=None)
    @given(case=multi_block_cases())
    def test_multi_block_series_bit_exact(self, block, case):
        """Loads of mixed cycle counts over many blocks: the series is bit for
        bit the per-load loop's, and the events keep each load's run in load
        order however the blocks group the loads."""
        pop, temps, sigmas, horizon = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "SWITCH_BLOCK", block)
            times, deltas = free_run_events(pop, temps, sigmas, horizon)
            got = aggregate_demand_series(pop, temps, sigmas, horizon)
        assert_same_series(got, reference_aggregate(pop, temps, sigmas, horizon))
        # only a load's first event lies at t = 0, so the zeros split the runs
        starts = np.flatnonzero(times == 0.0)
        assert starts.size == len(pop)
        for p, temp, sig, t, d in zip(
            pop, temps, sigmas, np.split(times, starts[1:]), np.split(deltas, starts[1:])
        ):
            series = reference_demand_series(p, float(temp), int(sig), horizon)
            assert np.array_equal(t, series.times)
            assert np.array_equal(d, np.diff(series.values, prepend=0) * p.d_bar)

    @pytest.mark.parametrize("copies", [2, 3, 8])
    def test_series_ties_across_duplicated_loads(self, copies):
        # each load repeated in one state: all its copies switch at the same
        # instants, so every switch after t = 0 is tied across them
        pop = sample_population(PopulationSpec(5, 0.05, seed=13))
        temps, sigmas = sample_initial_states(pop, seed=13)
        pop = Population.of([p for p in pop for _ in range(copies)])
        temps = np.repeat(temps, copies)
        sigmas = np.repeat(sigmas, copies)
        horizon = 2e4
        got = aggregate_demand_series(pop, temps, sigmas, horizon)
        assert_same_series(got, reference_aggregate(pop, temps, sigmas, horizon))
        switches, _ = free_run_events(pop, temps, sigmas, horizon)
        assert np.count_nonzero(switches > 0) == copies * (got.times.size - 1)

    @pytest.mark.parametrize("block", [1, 256])
    def test_series_ties_against_block_order(self, block, monkeypatch):
        """Loads whose rows run against their index order (a slower load's
        row comes first) take their steps in load order at t = 0 and at each
        exact switch instant they share after it, so each merged level is the
        per-load loop's bit for bit: 0.1 + 0.2 + 0.3 at t = 0, where buffer
        order sums 0.2 + 0.3 + 0.1. The leads and strokes are exact binary
        fractions, patched into the kernel and the reference alike: the lead
        is the temperature, and both strokes last 1 / k."""

        def lead(p, temperature, sigma):
            return np.asarray(temperature, dtype=float) + 0.0 * np.asarray(sigma)

        def strokes(p):
            return 1.0 / p.k, 1.0 / p.k

        monkeypatch.setattr(stats, "SWITCH_BLOCK", block)
        monkeypatch.setattr(stats, "next_thermostat_event", lead)
        monkeypatch.setitem(globals(), "next_thermostat_event", lead)
        monkeypatch.setitem(globals(), "on_off_durations", strokes)
        monkeypatch.setattr(tcl, "on_off_durations", strokes)
        # loads 0, 1 and 2 switch every 1, 8 and 2 s from t = 1, 2 and 2, so
        # rows run 1, 2, 0 in the buffer, and ties fall at every even second
        pop = Population.of([
            Population(d_bar=d_bar, t_lo=3.0, t_hi=6.0, k=k, cop=1e3, t_amb=20.0, omega1=0.1, eps=0.005)
            for d_bar, k in [(0.1, 1.0), (0.2, 0.125), (0.3, 0.5)]
        ])
        temps, sigmas = np.array([1.0, 2.0, 2.0]), np.ones(3, dtype=np.int8)
        got = aggregate_demand_series(pop, temps, sigmas, 100.0)
        want = reference_aggregate(pop, temps, sigmas, 100.0)
        assert want.times[:4].tolist() == [0.0, 1.0, 2.0, 3.0] and want.values[0] == 0.1 + 0.2 + 0.3
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("lead", [-1.0, -5e-324, -0.0])
    @pytest.mark.parametrize("d_bars", [(0.1, 0.1, 0.1), (0.1, 0.2, 0.3)], ids=["one-magnitude", "mixed"])
    def test_negative_lead_rejected(self, d_bars, lead, monkeypatch):
        """A lead with its sign bit set makes its load's switch times negative
        (or the first one -0.0, which sums to a second cell at t = 0). The
        one-magnitude merge shifts the sign bit out of its keys, so the lead
        is refused before any key is made, on either merge path. The lead is
        the temperature, patched in as in test_series_ties_against_block_order,
        and only load 1 starts with the sign bit set."""

        def lead_is_temperature(p, temperature, sigma):
            return np.array(temperature, dtype=float)  # -0.0 + 0.0 would be +0.0

        monkeypatch.setattr(stats, "next_thermostat_event", lead_is_temperature)
        pop = Population.of([
            Population(d_bar=d_bar, t_lo=3.0, t_hi=6.0, k=5e-4, cop=1e3, t_amb=20.0, omega1=0.1, eps=0.005)
            for d_bar in d_bars
        ])
        temps, sigmas = np.array([1.0, lead, 2.0]), np.array([1, 0, 1], dtype=np.int8)
        with pytest.raises(StatsError, match="non-negative"):
            aggregate_demand_series(pop, temps, sigmas, 1e4)

    def test_demand_series_level_alternates(self):
        series = aggregate_demand_series(REFERENCE, [REFERENCE.t_hi], [1], horizon=3000.0)
        assert series.values[:3].tolist() == [1, 0, 1] and series.scale == REFERENCE.d_bar

    def test_demand_series_switch_at_time_zero(self):
        # starting OFF exactly at the upper threshold: switches ON immediately
        series = aggregate_demand_series(REFERENCE, [REFERENCE.t_hi], [0], horizon=3000.0)
        assert series.times[0] == 0.0
        assert series.values[0] == 1 and series.scale == REFERENCE.d_bar

    @settings(max_examples=60, deadline=None)
    @given(case=free_run_cases(), copies=st.sampled_from([1, 2, 3]), mixed=st.booleans())
    def test_levels_are_exact_counts(self, case, copies, mixed):
        """A one-magnitude population's series is d * k exactly, k the count
        of loads ON recounted load by load at every series time, also where
        duplicated loads tie at every switch after t = 0. With the first
        load's magnitude tripled the series is the definition's: a stable
        sort of the events of free_run_events, the running sum of their
        steps, each run of exact ties merged into its last event."""
        pop, temps, sigmas, horizon = case
        pop = Population.of([p for p in pop for _ in range(copies)])
        temps, sigmas = np.repeat(temps, copies), np.repeat(sigmas, copies)
        if mixed:
            pop = Population.of([dataclasses.replace(pop[0], d_bar=3 * pop[0].d_bar), *list(pop)[1:]])
        series = aggregate_demand_series(pop, temps, sigmas, horizon)
        if np.any(pop.d_bar != pop.d_bar[0]):
            times, steps = free_run_events(pop, temps, sigmas, horizon)
            order = np.argsort(times, kind="stable")
            times, levels = times[order], np.cumsum(steps[order])
            last = run_index(times, last=True)
            assert np.array_equal(series.times, times[last])
            assert np.array_equal(series.values, levels[last]) and series.scale == 1.0
            return
        d = float(pop.d_bar[0])
        k = recount(pop, temps, sigmas, horizon, series.times)
        assert series.values.dtype == narrowest_count_type(len(pop)) and series.scale == d
        assert np.array_equal(series.scale * series.values, d * k)
        # and its times are the loads' event times, each once
        times = np.sort(free_run_events(pop, temps, sigmas, horizon)[0])
        assert np.array_equal(series.times, times[run_index(times)])

    @pytest.mark.parametrize(
        "n, dtype", [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)]
    )
    def test_count_type_is_narrowest_holding_n(self, n, dtype):
        """The counts are of the narrowest signed type holding N, and d * k
        is exact at both edges of int8 and of int16, over a few cycles of the
        fastest loads: k recounted load by load, each load's steps added at
        its own event times, which are series times."""
        pop = sample_population(PopulationSpec(n, 0.05, seed=n))
        temps, sigmas = sample_initial_states(pop, seed=n)
        horizon = 2e3
        series = aggregate_demand_series(pop, temps, sigmas, horizon)
        assert series.values.dtype == dtype
        k = np.zeros(series.times.size, dtype=np.int64)
        for p, temp, sig in zip(pop, temps, sigmas):
            own = reference_demand_series(p, float(temp), int(sig), horizon)
            at = np.searchsorted(series.times, own.times)
            assert np.array_equal(series.times[at], own.times)
            k[at] += np.diff(own.values, prepend=0)
        np.cumsum(k, out=k)
        assert 0 <= k.min() and k.max() <= n
        d = float(pop.d_bar[0])
        assert series.scale == d and np.array_equal(series.scale * series.values, d * k)

    def test_long_run_average_converges_to_duty_cycle(self):
        series = aggregate_demand_series(REFERENCE, [4.5], [0], horizon=2e6)
        avg = time_average(series, (0.0, 2e6))
        assert avg == pytest.approx(duty_cycle(REFERENCE) * REFERENCE.d_bar, rel=1e-3)

    def test_aggregate_equals_sum_of_parts(self):
        pop = sample_population(PopulationSpec(5, 0.05, seed=21))
        temps, sigmas = sample_initial_states(pop, seed=4)
        agg = aggregate_demand_series(pop, temps, sigmas, horizon=1e4)
        parts = [
            aggregate_demand_series(p, [float(tp)], [int(sg)], 1e4)
            for p, tp, sg in zip(pop, temps, sigmas)
        ]
        for t_probe in (0.0, 123.4, 5432.1, 9999.0):
            total = sum(
                part.values[np.searchsorted(part.times, t_probe, side="right") - 1]
                for part in parts
            )
            idx = np.searchsorted(agg.times, t_probe, side="right") - 1
            assert agg.values[idx] == pytest.approx(total, abs=1e-12)


def variance_shift(values):
    """time_variance's k0 for the pieces' values: for integers, the mean of
    about 1,024 evenly spaced values, cast to their type; 0.0 for floats."""
    if values.dtype.kind not in "iu":
        return values.dtype.type(0.0)
    return values[:: max(1, (values.size - 1) // 1024)].mean().astype(values.dtype)


def full_length_variance(ts, t0, t1):
    """time_variance by its definition over full-length arrays: the moments
    of c = values - k0 by np.sum of c w and (c w) c, and scale**2 applied
    last."""
    vals, widths = ts.pieces(t0, t1)
    c = np.subtract(vals, variance_shift(vals), dtype=float)
    mean = float(np.sum(c * widths)) / (t1 - t0)
    mean_sq = float(np.sum(c * widths * c)) / (t1 - t0)
    return max(mean_sq - mean * mean, 0.0) * (ts.scale * ts.scale)


def exact_pieces(ts, t0, t1):
    """The pieces of [t0, t1]: their values as numpy gives them, and their
    values and widths exactly, in Fractions."""
    vals, _ = ts.pieces(t0, t1)
    lo, hi = ts._span(t0, t1)
    edges = [Fraction(t0), *map(Fraction, ts.times[lo:hi].tolist()), Fraction(t1)]
    return vals, [Fraction(v) for v in vals.tolist()], [b - a for a, b in zip(edges, edges[1:])]


def moments(values, widths, k0):
    """The exact moments m and M2 of values - k0 over the widths."""
    span = sum(widths)
    m = sum((v - k0) * w for v, w in zip(values, widths)) / span
    return m, sum((v - k0) ** 2 * w for v, w in zip(values, widths)) / span


U = 2.0**-53


def variance_bound(n, scale, m, m2):
    """time_variance's error bound from its docstring over n pieces, from
    the moments m and M2 about k0, with h the depth bound of numpy's
    pairwise sum."""
    h = 24 + max(0, math.ceil(math.log2(n / 128)))
    g = (h + 6) * U / (1 - (h + 6) * U)
    return scale**2 * ((g + 7 * U) * m2 + 2 * g * abs(m) * math.sqrt(m2) * (1 + U))


class TestInPlace:
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_passes_bit_exact(self, chunk, monkeypatch):
        """time_variance's walk of numpy's pairwise tree, whose leaves CHUNK
        sizes, gives the same bits whatever chunks split the events, windows
        ending on event times and past the series included; the merge under
        it, which reads its counts CHUNK events at a time, is the reference
        series: the counts k of loads ON, with scale d."""
        pop = sample_population(PopulationSpec(40, 0.3, seed=5))
        temps, sigmas = sample_initial_states(pop, seed=5)
        horizon = 5e3
        want = reference_aggregate(pop, temps, sigmas, horizon)
        monkeypatch.setattr(stats, "CHUNK", chunk)
        got = aggregate_demand_series(pop, temps, sigmas, horizon)
        assert_same_series(got, want)
        for t0, t1 in [(0.0, horizon), (want.times[10], want.times[-5]), (1.5, 2 * horizon)]:
            assert time_variance(got, (t0, t1)) == full_length_variance(want, t0, t1)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_ties_across_chunks(self, chunk, monkeypatch):
        """Loads 0 and 1 of 40 tripled, so their copies tie at every switch
        after t = 0. With CHUNK events per pass, a tie run straddles a chunk
        edge, and a chunk with no tie, counted where it lies, follows a chunk
        whose ties moved events forward: the series is still the
        definition's."""
        pop = sample_population(PopulationSpec(40, 0.3, seed=5))
        temps, sigmas = sample_initial_states(pop, seed=5)
        copies = np.where(np.arange(40) < 2, 3, 1)
        pop = Population.of([p for p, c in zip(pop, copies) for _ in range(c)])
        temps, sigmas = np.repeat(temps, copies), np.repeat(sigmas, copies)
        horizon = 2e4
        # the events after the t = 0 run, in the merge's chunks; an event
        # ties with the next one, maybe across an edge
        times = np.sort(free_run_events(pop, temps, sigmas, horizon)[0])[len(pop) :]
        tied = times[1:] == times[:-1]
        assert tied[chunk - 1 :: chunk].any()
        has_tie = np.logical_or.reduceat(tied, np.arange(0, tied.size, chunk))
        assert not has_tie[np.argmax(has_tie) :].all()
        monkeypatch.setattr(stats, "CHUNK", chunk)
        got = aggregate_demand_series(pop, temps, sigmas, horizon)
        assert_same_series(got, reference_aggregate(pop, temps, sigmas, horizon))

    @pytest.mark.parametrize("horizon", [2e4, 2e5])
    def test_padded_buffer_bound(self, horizon):
        """Blocks cut by cycle count pad each row by at most 1/16 of its
        width, so the buffer the times are summed in stays within 1.1 cells
        per event on 2,000 loads of mixed cycle counts."""
        pop = sample_population(PopulationSpec(2000, 0.7, seed=1))
        temps, sigmas = sample_initial_states(pop, seed=1)
        sums, _, _, counts, _ = stats._load_major_events(pop, temps, sigmas, horizon)
        assert 1 < sums.size / counts.sum() <= 1.1

    def test_merge_and_variance_peak_memory(self):
        """aggregate_demand_series then time_variance hold at most the padded
        buffer the times are summed in, a quarter array more and chunk-sized
        buffers. The keys are packed into the front of the buffer and sorted
        there, and become the series' times; at 2,000 loads the counts are
        int16, a quarter of an array of 8 bytes per event, and each chunk's
        steps are written and summed in them. A chunk of CHUNK events then
        holds its one-byte tie mask and, only if it holds a tie, its moved
        keys and steps (10 bytes): 11 CHUNK bytes. time_variance adds no
        full-length array, only a leaf's widths and centred values (16
        bytes per piece, at most max(CHUNK, 128) pieces), so 16 CHUNK bytes
        bound either phase; 64 KiB more covers numpy's cast buffer of the
        parity reads and the per-load and per-block arrays. Counted in
        arrays of 8 bytes per event."""
        pop = sample_population(PopulationSpec(2000, 0.7, seed=1))
        temps, sigmas = sample_initial_states(pop, seed=1)
        horizon = 1e5
        sums, _, _, counts, _ = stats._load_major_events(pop, temps, sigmas, horizon)
        unit, padded = 8 * counts.sum(), sums.size / counts.sum()
        del sums, _
        tracemalloc.start()
        try:
            series = aggregate_demand_series(pop, temps, sigmas, horizon)
            time_variance(series, (0.0, horizon))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert unit > 4e6 and 1 < padded < 1.5 and series.values.dtype == np.int16
        assert peak / unit < padded + 0.25 + (16 * stats.CHUNK + 2**16) / unit


@st.composite
def windowed_series(draw):
    """A random series of several leaves at the drawn CHUNK (None keeps the
    default), and a window inside one piece, ending on an event time or
    reaching past the last event, as edge index and fraction of its gap."""
    chunk = draw(st.sampled_from([1, 128, 200, 1000, None]))
    leaf = max(chunk or stats.CHUNK, 128)
    n = max(draw(st.integers(0, 5)) * leaf + draw(st.integers(-64, 64)), 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = draw(st.floats(0.0, 1e4)) + np.cumsum(np.append(0.0, 10.0 ** rng.uniform(-3, 3, n - 1)))
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
    ends = sorted(
        (draw(st.integers(0, n - 1)), draw(st.sampled_from([0.0, 0.25, draw(st.floats(0, 1))])))
        for _ in range(2)
    )
    return chunk, TimeSeries(times=times, values=values), ends


class TestMomentSums:
    @settings(max_examples=150, deadline=None)
    @given(case=windowed_series())
    def test_equal_full_length_sums(self, case):
        """time_variance and integral give the bits of np.sum over the
        full-length terms of pieces, whatever CHUNK splits the leaves: numpy's
        pairwise sum (blocks of 128, halves rounded down to a multiple of 8)
        is the tree _moment_sums walks. Float values are taken about 0, and
        the second moment's terms are (v w) v."""
        chunk, ts, ((i0, f0), (i1, f1)) = case
        gaps = np.append(np.diff(ts.times), 10.0)
        t0, t1 = (float(ts.times[i] + f * gaps[i]) for i, f in ((i0, f0), (i1, f1)))
        if not t0 < t1:
            t1 = float(ts.times[-1]) + 20.0  # past every edge above
        vals, widths = ts.pieces(t0, t1)
        first = float(np.sum(vals * widths))
        mean, mean_sq = first / (t1 - t0), float(np.sum(vals * widths * vals)) / (t1 - t0)
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(stats, "CHUNK", chunk)
            assert ts.integral(t0, t1).hex() == first.hex()
            assert time_variance(ts, (t0, t1)).hex() == max(mean_sq - mean * mean, 0.0).hex()

    def test_variance_allocates_no_full_length_array(self):
        """On 16 CHUNKs of events, time_variance and integral hold a few
        CHUNK-sized buffers at most: a leaf's widths and its terms."""
        n = 16 * stats.CHUNK + 123
        rng = np.random.default_rng(3)
        ts = TimeSeries(times=np.cumsum(rng.uniform(0.1, 1.0, n)), values=rng.normal(size=n))
        window = (float(ts.times[0]), float(ts.times[-1]) + 1.0)
        tracemalloc.start()
        try:
            time_variance(ts, window)
            ts.integral(*window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * stats.CHUNK


@st.composite
def small_series(draw):
    """1-300 pieces, of int32 counts about a mean up to 1e6 with a scale, or
    of floats about a mean up to 1e3, times with gaps over six decades, and a
    window of at least 1e-7 s inside them or reaching past the last."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = draw(st.floats(0.0, 1e4)) + np.cumsum(np.append(0.0, 10.0 ** rng.uniform(-3, 3, n - 1)))
    if draw(st.booleans()):
        spread = draw(st.sampled_from([0, 1, 50]))
        values = draw(st.integers(0, 10**6)) + rng.integers(-spread, spread + 1, n, dtype=np.int32)
        scale = draw(st.floats(1e-6, 1e3))
    else:
        values = draw(st.floats(-1e3, 1e3)) + rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
        scale = 1.0
    start, end = float(times[0]), float(times[-1]) + 10.0
    t0 = start + draw(st.floats(0.0, 0.99)) * (end - start)
    # at least 1e-7 s wide: the bound holds away from underflow
    t1 = t0 + draw(st.floats(1e-6, 1.0)) * (end - t0)
    return TimeSeries(times=times, values=values, scale=scale), t0, t1


class TestVarianceBound:
    @settings(max_examples=150, deadline=None)
    @given(case=small_series())
    def test_within_bound_of_exact(self, case):
        """time_variance is within its docstring's bound of the exact variance
        of the signal (Fractions over the exact times and values). A count
        series about a mean of 1e6 has a variance near 1e-12 of its mean's
        square, where the one-pass moments would cancel far past the bound."""
        ts, t0, t1 = case
        vals, values, widths = exact_pieces(ts, t0, t1)
        first, second = moments(values, widths, 0)
        exact = Fraction(ts.scale) ** 2 * (second - first * first)
        m, m2 = moments(values, widths, Fraction(variance_shift(vals).item()))
        bound = variance_bound(vals.size, ts.scale, float(m), float(m2))
        assert abs(Fraction(time_variance(ts, (t0, t1))) - exact) <= Fraction(bound)

    def test_bound_on_fleet_shape(self):
        """On 2,000 sampled loads over 1e5 s (6.4e5 pieces) the bound is
        below 1e-14 of the variance: the counts are centered within a small
        fraction of their standard deviation, so M2 is about the variance and
        m about 0."""
        pop = sample_population(PopulationSpec(2000, 0.7, seed=1))
        horizon = 1e5
        series = aggregate_demand_series(pop, *sample_initial_states(pop, seed=1), horizon)
        vals, widths = series.pieces(0.0, horizon)
        c = np.subtract(vals, variance_shift(vals), dtype=float)
        m = float(np.sum(c * widths)) / horizon
        m2 = float(np.sum(c * widths * c)) / horizon
        variance = m2 - m * m
        assert abs(m) < 0.1 * math.sqrt(variance)
        assert variance_bound(vals.size, series.scale, m, m2) < 1e-14 * series.scale**2 * variance


class TestVarianceTheory:
    def test_theoretical_variance_formula(self):
        pop = sample_population(PopulationSpec(10, 0.1, seed=2))
        expected = sum(duty_cycle(p) * (1 - duty_cycle(p)) * p.d_bar**2 for p in pop)
        # a sum of 10 terms in another order: a few ulps apart at most
        assert theoretical_variance(pop) == pytest.approx(expected, rel=1e-14)


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


def star_discrepancy(points: np.ndarray) -> float:
    """Exact star discrepancy of a finite point set in [0, 1)."""
    u = np.sort(np.asarray(points, dtype=float))
    n = u.size
    if n == 0:
        raise StatsError("empty point set")
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - u, u - (i - 1) / n)))


def switch_offset_sequence(p_i: Population, p_j: Population, n_terms: int) -> np.ndarray:
    """Normalized offsets ((k * c) mod pi_j) / pi_j of consecutive ON-switches
    of the slower load against the faster one's cycle, k = 1..n_terms."""
    pi_i = period(p_i)
    pi_j = period(p_j)
    if pi_i < pi_j:
        pi_i, pi_j = pi_j, pi_i
    c = (-pi_i) % pi_j
    k = np.arange(1, n_terms + 1)
    return (k * (c / pi_j)) % 1.0


def phase_uniformity(p_i: Population, p_j: Population, n_terms: int) -> float:
    """Star discrepancy of the switch-offset sequence; a diagnostic for how
    fast the two loads' relative phases equidistribute."""
    return star_discrepancy(switch_offset_sequence(p_i, p_j, n_terms))


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
