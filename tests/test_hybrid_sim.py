import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclgrid import hybrid_sim
from tclgrid.grid_model import default_grid
from tclgrid.hybrid_sim import (
    CLOCK_BLOCK,
    ClockStreams,
    Scenario,
    SimulationError,
    StepTriggers,
    compare_schemes,
    dwell_time_report,
    ripple_envelope,
    simulate,
)
from tclgrid.tcl import (
    Population,
    PopulationSpec,
    Scheme,
    TclParams,
    jump_target,
    on_off_durations,
    sample_population,
    temp_flow,
    trigger_levels,
)

REFERENCE = TclParams(
    d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=20.0,
    omega1=0.1, eps=0.005,
)


def single_load_scenario(**overrides) -> Scenario:
    base = dict(
        grid=default_grid(),
        population=Population.of([REFERENCE]),
        scheme=Scheme.conventional(),
        disturbance=[(0.0, 0.0)],
        horizon=1000.0,
        seed=1,
        initial_temperatures=np.array([6.0]),
        initial_sigmas=np.array([1]),
        clamp_omega=True,
        max_step=0.5,
    )
    base.update(overrides)
    return Scenario(**base)


def small_population_scenario(**overrides) -> Scenario:
    base = dict(
        grid=default_grid(),
        population=sample_population(PopulationSpec(40, 0.2, seed=5)),
        scheme=Scheme.conventional(),
        disturbance=[(0.0, 0.0)],
        horizon=120.0,
        seed=2,
        max_step=0.05,
    )
    base.update(overrides)
    return Scenario(**base)


class TestSingleLoad:
    def test_free_run_switch_cadence_exact(self):
        tr = simulate(single_load_scenario())
        pi_on, pi_off = on_off_durations(REFERENCE)
        assert tr.switch_times[0] == pytest.approx(pi_on, rel=1e-9)
        gaps = np.diff(tr.switch_times)
        expected = [pi_off if i % 2 == 0 else pi_on for i in range(len(gaps))]
        np.testing.assert_allclose(gaps, expected, rtol=1e-9)

    def test_switch_causes_alternate_thermostat(self):
        tr = simulate(single_load_scenario())
        assert tr.switch_causes[0] == "thermostat-lo"
        assert tr.switch_causes[1] == "thermostat-hi"

    def test_temperature_confined(self):
        tr = simulate(single_load_scenario())
        assert tr.temp_min[0] >= REFERENCE.t_lo - 1e-9
        assert tr.temp_max[0] <= REFERENCE.t_hi + 1e-9

    def test_trace_monotone_and_consistent(self):
        tr = simulate(single_load_scenario())
        assert np.all(np.diff(tr.times) >= 0)
        assert np.all(np.diff(tr.jumps) >= 0)
        assert tr.times[-1] == pytest.approx(1000.0)
        assert tr.d_s.shape == tr.times.shape
        assert set(np.unique(tr.d_s)).issubset({0.0, REFERENCE.d_bar})


class TestPopulationRuns:
    def test_determinism(self):
        sc = small_population_scenario()
        tr1, tr2 = simulate(sc), simulate(sc)
        np.testing.assert_array_equal(tr1.omega, tr2.omega)
        np.testing.assert_array_equal(tr1.switch_times, tr2.switch_times)
        np.testing.assert_array_equal(tr1.final_temperatures, tr2.final_temperatures)

    def test_randomized_determinism(self):
        sc = small_population_scenario(scheme=Scheme.randomized())
        tr1, tr2 = simulate(sc), simulate(sc)
        np.testing.assert_array_equal(tr1.switch_times, tr2.switch_times)
        np.testing.assert_array_equal(tr1.switch_loads, tr2.switch_loads)

    def test_randomized_seed_changes_run(self):
        tr1 = simulate(small_population_scenario(scheme=Scheme.randomized(), seed=2))
        tr2 = simulate(small_population_scenario(scheme=Scheme.randomized(), seed=3))
        assert tr1.switch_times.shape != tr2.switch_times.shape or not np.array_equal(
            tr1.switch_times, tr2.switch_times
        )

    def test_confinement_all_loads(self):
        sc = small_population_scenario()
        tr = simulate(sc)
        lo = np.array([p.t_lo for p in sc.population])
        hi = np.array([p.t_hi for p in sc.population])
        assert np.all(tr.temp_min >= lo - 1e-9)
        assert np.all(tr.temp_max <= hi + 1e-9)

    def test_disturbance_step_drives_frequency_down(self):
        sc = small_population_scenario(disturbance=[(0.0, 0.0), (10.0, 1.0)])
        tr = simulate(sc)
        before = np.max(np.abs(tr.omega[tr.times < 10.0]))
        after = np.min(tr.omega[tr.times > 10.0])
        assert after < -0.1
        assert before < 0.02

    def test_offset_demand_keeps_equilibrium_near_zero(self):
        tr = simulate(small_population_scenario())
        assert np.max(np.abs(tr.omega)) < 0.02

    def test_aggregate_demand_tracks_switches(self):
        sc = small_population_scenario()
        tr = simulate(sc)
        d_bar = sc.population[0].d_bar
        # demand trajectory stays within the physical range
        assert np.all(tr.d_s >= 0.0)
        assert np.all(tr.d_s <= 0.2 + 1e-12)
        assert np.all((tr.on_fraction >= 0) & (tr.on_fraction <= 1))

    def test_empty_population_rejected(self):
        with pytest.raises(SimulationError):
            simulate(single_load_scenario(population=Population.of([])))

    def test_non_hurwitz_grid_rejected(self):
        from tclgrid.grid_model import StateSpace

        bad = StateSpace(
            a=np.array([[0.1]]), b=np.array([-1.0]), c=np.array([1.0]),
            m=1.0, d=1.0, n=0,
        )
        with pytest.raises(SimulationError):
            simulate(single_load_scenario(grid=bad))

    @pytest.mark.parametrize("name", ["horizon", "max_step", "event_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_times_rejected(self, name, value):
        with pytest.raises(SimulationError):
            single_load_scenario(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 17.0, True, "17"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(SimulationError, match="seed"):
            single_load_scenario(seed=seed)

    def test_bad_disturbance_rejected(self):
        with pytest.raises(SimulationError):
            single_load_scenario(disturbance=[(5.0, 1.0)])
        with pytest.raises(SimulationError):
            single_load_scenario(disturbance=[(0.0, 0.0), (3.0, 1.0), (2.0, 2.0)])

    def test_zeno_guard_configurable(self):
        sc = small_population_scenario(zeno_max=0)
        with pytest.raises(SimulationError):
            simulate(sc)


class TestFrequencyResponsiveScheme:
    def test_reduces_to_conventional_when_clamped(self):
        base = small_population_scenario(
            disturbance=[(0.0, 0.0), (10.0, 1.5)], clamp_omega=True
        )
        tr_conv = simulate(base)
        tr_det = simulate(dataclasses.replace(base, scheme=Scheme.deterministic()))
        np.testing.assert_array_equal(tr_conv.switch_times, tr_det.switch_times)
        np.testing.assert_array_equal(tr_conv.switch_loads, tr_det.switch_loads)
        np.testing.assert_array_equal(tr_conv.switch_new_sigma, tr_det.switch_new_sigma)
        np.testing.assert_array_equal(tr_conv.omega, tr_det.omega)

    def test_frequency_switches_reduce_dip(self):
        base = small_population_scenario(disturbance=[(0.0, 0.0), (10.0, 1.5)])
        tr_conv = simulate(base)
        tr_det = simulate(dataclasses.replace(base, scheme=Scheme.deterministic()))
        assert np.max(np.abs(tr_det.omega)) < np.max(np.abs(tr_conv.omega))
        assert "freq-off" in tr_det.switch_causes

    def test_dwell_time_positive(self):
        base = small_population_scenario(
            disturbance=[(0.0, 0.0), (10.0, 1.5)], scheme=Scheme.deterministic()
        )
        m = dwell_time_report(simulate(base))
        assert m.min_interswitch_gap > 0


@st.composite
def held_steps(draw):
    """A population with settled switch states (no thermostat limit switches
    any load at the start), many of them just short of a guard or a
    thermostat threshold their flow reaches within the step."""
    n = draw(st.integers(1, 30))
    pop = sample_population(PopulationSpec(n, gamma=0.2, seed=draw(st.integers(0, 2**31))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    temps = rng.uniform(pop.t_lo, pop.t_hi)
    # a flowing load moves at most k (t_amb - target_on) < 0.04 C/s
    gap = rng.uniform(0.0, 0.05, n)
    edge = np.where(sigmas == 1, pop.t_hi - pop.eps + gap, pop.t_lo + pop.eps - gap)
    edge = np.where(rng.random(n) < 0.3, np.where(sigmas == 1, pop.t_lo + gap, pop.t_hi - gap), edge)
    near = rng.random(n) < 0.6
    temps[near] = edge[near]
    # the start is settled: OFF loads below t_hi, ON loads above t_lo
    temps = np.where(sigmas == 1, np.maximum(temps, pop.t_lo + 1e-9), np.minimum(temps, pop.t_hi - 1e-9))
    dt = draw(st.floats(1e-6, 2.0))
    tau = dt * draw(st.floats(0.0, 1.0, exclude_min=True))
    omega = draw(st.one_of(
        st.floats(-0.3, 0.3),
        st.sampled_from([float(w) for w in pop.omega1] + [float(-w) for w in pop.omega1]),
    ))
    return pop, temps, sigmas, dt, tau, omega


class TestStepTriggers:
    @settings(max_examples=200, deadline=None)
    @given(case=held_steps())
    def test_summary_matches_kernel(self, case):
        pop, temps, sigmas, dt, tau, omega = case
        scheme = Scheme.deterministic()
        triggers = StepTriggers.of(pop, temps, temp_flow(pop, temps, sigmas, dt), sigmas, scheme)
        temps_tau = temp_flow(pop, temps, sigmas, tau)
        expected = bool(np.any(jump_target(pop, temps_tau, sigmas, omega, scheme) != sigmas))
        assert triggers.any_jump(tau, omega) == expected

    def test_probes_do_no_per_load_work(self, shipped_file, monkeypatch):
        # 2000 loads over the 1 s step: the event loop evaluates the whole
        # population a bounded number of times per step, however many
        # bisection probes locate the frequency events
        sf = dataclasses.replace(
            shipped_file,
            horizon=1.25,
            population=dataclasses.replace(shipped_file.population, n_loads=2000),
        )
        sc, _ = sf.build_scenario()
        full_calls = 0

        def counted(fn):
            def wrapped(p, temperature, *args):
                nonlocal full_calls
                full_calls += np.size(temperature) == len(sc.population)
                return fn(p, temperature, *args)
            return wrapped

        for name in ("jump_target", "temp_flow"):
            monkeypatch.setattr(hybrid_sim, name, counted(getattr(hybrid_sim, name)))
        tr = simulate(sc)
        steps = tr.times.size - 1
        assert full_calls <= 6 * steps
        # fewer whole-population evaluations than bisection probes
        assert full_calls < tr.meta["freq_bisections"]


def scalar_stream(seed: int, j: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))


class TestClockStreams:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 8),
        draws_seed=st.integers(0, 2**32 - 1),
    )
    def test_clocks_match_scalar_streams(self, seed, n, draws_seed):
        # random subsets and rates over enough calls that every load crosses
        # several block refills; each clock must be bitwise the per-draw
        # value of its load's stream, and rate <= 0 must consume no draw
        rng = np.random.default_rng(draws_seed)
        streams = ClockStreams(seed, n)
        reference = [scalar_stream(seed, j) for j in range(n)]
        clocks = np.zeros(n)
        expected = np.zeros(n)
        total = 0
        now = 0.0
        for _ in range(5 * CLOCK_BLOCK):
            now += float(rng.exponential(1.0))
            mask = rng.random(n) < 0.9
            rates = 10.0 ** rng.uniform(-6.0, 0.0, n)
            rates[rng.random(n) < 0.15] = 0.0
            rates[rng.random(n) < 0.05] = -0.5
            for j in np.flatnonzero(mask):
                rate = float(rates[j])
                expected[j] = np.inf if rate <= 0 else now + reference[j].exponential(1.0 / rate)
                total += rate > 0
            assert streams.reset(clocks, mask, rates, now) == np.count_nonzero(mask & (rates > 0))
            np.testing.assert_array_equal(clocks, expected)
        assert total > 3 * CLOCK_BLOCK * n

    def test_seeds_near_two_to_the_64_stay_distinct(self):
        idx = np.arange(3)
        first = ClockStreams(2**64 - 1, 3).draw(idx)
        assert not np.array_equal(first, ClockStreams(0, 3).draw(idx))
        assert not np.array_equal(first, ClockStreams(2**64 - 2, 3).draw(idx))

    def test_clock_draws_come_in_blocks(self, monkeypatch):
        # a randomized run draws its clocks through ClockStreams, counts them
        # in meta, and calls a load's generator once per block, not per draw
        sc = small_population_scenario(
            population=sample_population(PopulationSpec(200, 0.2, seed=5)),
            scheme=Scheme.randomized(),
            horizon=60.0,
        )
        drawn = []
        real_draw = ClockStreams.draw

        def counted_draw(self, idx):
            out = real_draw(self, idx)
            drawn.append(out.size)
            return out

        generator_calls = []
        real_generator = np.random.Generator

        class CountingGenerator:
            def __init__(self, bit_generator):
                self._gen = real_generator(bit_generator)

            def __getattr__(self, name):
                method = getattr(self._gen, name)

                def counted(*args, **kwargs):
                    generator_calls.append(name)
                    return method(*args, **kwargs)

                return counted

        monkeypatch.setattr(ClockStreams, "draw", counted_draw)
        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        tr = simulate(sc)
        draws = tr.meta["clock_draws"]
        assert draws == sum(drawn)
        assert draws > 2 * len(sc.population)
        assert len(generator_calls) <= len(sc.population) + draws / CLOCK_BLOCK

    def test_non_randomized_runs_draw_nothing(self):
        tr = simulate(small_population_scenario(scheme=Scheme.deterministic(), horizon=10.0))
        assert tr.meta["clock_draws"] == 0


class TestClassifyRegion:
    """Which region of (T, omega, sigma) a load is in: it jumps where
    jump_target differs from sigma and flows elsewhere. Frequency enters only
    through trigger_levels."""

    def test_interior_point_flows(self):
        on_at, off_at = trigger_levels(REFERENCE, 4.5, Scheme.deterministic())
        assert off_at < 0.0 < on_at
        assert jump_target(REFERENCE, 4.5, 1, 0.0, Scheme.deterministic()) == 1

    def test_thermostat_boundary_is_overlap(self):
        # the threshold itself is in the jump set: at t_hi an OFF load jumps,
        # while just below it the load still flows
        below = math.nextafter(REFERENCE.t_hi, 0.0)
        assert jump_target(REFERENCE, REFERENCE.t_hi, 0, 0.0, Scheme.conventional()) == 1
        assert jump_target(REFERENCE, below, 0, 0.0, Scheme.conventional()) == 0

    def test_under_frequency_mid_band_must_jump(self):
        # deep under-frequency with an ON load mid-band: the OFF branch
        # triggers, so the load cannot keep flowing ON
        _, off_at = trigger_levels(REFERENCE, 4.5, Scheme.deterministic())
        assert off_at == -REFERENCE.omega1 and -0.5 <= off_at
        assert jump_target(REFERENCE, 4.5, 1, -0.5, Scheme.deterministic()) == 0

    def test_eps_guard_band_is_overlap_boundary(self):
        # at exactly t_hi - eps under-frequency an ON load jumps OFF; just
        # above it the eps guard blocks the OFF branch
        edge = REFERENCE.t_hi - REFERENCE.eps
        above = math.nextafter(edge, REFERENCE.t_hi)
        assert trigger_levels(REFERENCE, edge, Scheme.deterministic())[1] == -REFERENCE.omega1
        assert trigger_levels(REFERENCE, above, Scheme.deterministic())[1] == -np.inf
        assert jump_target(REFERENCE, edge, 1, -0.5, Scheme.deterministic()) == 0
        assert jump_target(REFERENCE, above, 1, -0.5, Scheme.deterministic()) == 1

    def test_conventional_ignores_frequency(self):
        assert trigger_levels(REFERENCE, 4.5, Scheme.conventional()) == (np.inf, -np.inf)
        assert jump_target(REFERENCE, 4.5, 1, -0.5, Scheme.conventional()) == 1


class TestMetrics:
    def test_settle_and_window(self):
        from tclgrid.hybrid_sim import FrequencyMetrics

        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        omega = np.array([0.5, 0.2, 0.05, 0.01, 0.02, 0.01])
        m = FrequencyMetrics(
            peak_abs_omega=0.5, min_interswitch_gap=1.0,
            switch_counts=np.array([1]), times=times, omega=omega,
        )
        assert m.settle_time_into(0.1) == pytest.approx(2.0)
        assert m.longest_window_within(0.1) == pytest.approx(3.0)
        assert m.settle_time_into(1.0) == pytest.approx(0.0)

    def test_ripple_envelope_of_sine(self):
        t = np.arange(0.0, 100.0, 0.01)
        w = 0.3 * np.sin(2 * np.pi * t / 7.0)
        assert ripple_envelope(t, w, window=10.0) == pytest.approx(0.3, rel=1e-3)

    def test_compare_schemes_runs_all_cases(self):
        base = small_population_scenario(disturbance=[(0.0, 0.0), (10.0, 1.0)], horizon=40.0)
        runs = compare_schemes(base)
        assert set(runs) == {
            "conventional", "deterministic", "randomized", "randomized-high-gain",
        }
        for run in runs.values():
            assert run.metrics.peak_abs_omega > 0
