import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from tclgrid import grid_model, hybrid_sim, tcl
from tclgrid.grid_model import (
    GenDynamics,
    StateSpace,
    build_combined_system,
    default_grid,
    locate_crossing,
    transition,
)
from tclgrid.hybrid_sim import (
    LoadAnchors,
    Scenario,
    SimulationError,
    compare_schemes,
    dwell_time_report,
    ripple_envelope,
    simulate,
)
from tclgrid.stats import free_run_events
from tclgrid.tcl import (
    Population,
    PopulationSpec,
    Scheme,
    flow_target,
    frequency_branch,
    next_thermostat_event,
    on_off_durations,
    rate_coefficients,
    rate_law,
    sample_initial_states,
    sample_population,
    thermostat_threshold,
)
from tests.reference import (
    jump_target,
    switching_rate,
    temp_flow,
    time_to_level,
    trigger_levels,
)

REFERENCE = Population(
    d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=20.0,
    omega1=0.1, eps=0.005,
)


# the demand offset d* = alpha d_bar that simulate takes from REFERENCE's
# demand: a scenario of REFERENCE alone holds the grid's input at
# held_input(level) while the load is OFF
D_STAR = float(REFERENCE.alpha * REFERENCE.d_bar)


def held_input(level: float) -> float:
    """The grid's input while REFERENCE is OFF under disturbance level."""
    return (level + 0.0) - D_STAR


def single_load_scenario(**overrides) -> Scenario:
    base = dict(
        grid=default_grid(),
        population=Population.of([REFERENCE]),
        scheme=Scheme.conventional(),
        disturbance=[(0.0, 0.0)],
        horizon=1000.0,
        seed=1,
        initial_state=(np.array([6.0]), np.array([1])),
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

    def test_extremes_are_the_thresholds_reached(self):
        # the load switches at t_lo and at t_hi and ends the run in between
        tr = simulate(single_load_scenario())
        assert (tr.temp_min[0], tr.temp_max[0]) == (REFERENCE.t_lo, REFERENCE.t_hi)
        assert REFERENCE.t_lo < tr.final_temperatures[0] < REFERENCE.t_hi

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
        # check_loads refuses a population without loads, so neither
        # simulate nor the design verifier ever sees one
        with pytest.raises(tcl.TclError, match="^a population needs at least one load$"):
            Population.of([])

    def test_non_hurwitz_grid_rejected(self):
        bad = StateSpace(
            a=np.array([[0.1]]), b=np.array([-1.0]), c=np.array([1.0]),
        )
        with pytest.raises(SimulationError):
            simulate(single_load_scenario(grid=bad))

    @pytest.mark.parametrize("name", ["horizon", "max_step"])
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

    @pytest.mark.parametrize(
        "state",
        [
            (np.full(3, 5.0), None),  # temperatures without switch states
            (np.array([5.0]), np.array([1])),  # one load's state for three
            (np.full(3, 5.0), np.array([0, 1, 2])),
            (np.array([5.0, math.nan, 5.0]), np.array([0, 1, 0])),
            (np.full(3, 5.0),),  # not a pair
        ],
    )
    def test_bad_initial_state_rejected(self, state):
        with pytest.raises(SimulationError, match="initial"):
            single_load_scenario(population=Population.of([REFERENCE] * 3), initial_state=state)

    def test_zeno_guard_configurable(self, monkeypatch):
        monkeypatch.setattr(hybrid_sim, "ZENO_PER_LOAD", 0)
        with pytest.raises(SimulationError, match="Zeno"):
            simulate(small_population_scenario())

    def test_overflow_in_a_quiet_stretch_fails(self):
        # a huge finite load from t = 10 s overflows the grid state a few
        # cadence steps later, hundreds of seconds before the load's next
        # thermostat time, where steps skip the loop body
        sc = single_load_scenario(disturbance=[(0.0, 0.0), (10.0, 1.7e308)])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="non-finite grid state") as info:
                simulate(sc)
        at = float(str(info.value).rsplit("t=", 1)[1])
        assert 11.0 < at < 100.0


@st.composite
def free_run_pins(draw):
    """1-60 sampled loads, each in either switch state on a threshold or
    anywhere from 1 C below its band to 1 C above it (past either threshold
    too), a horizon and a max_step."""
    n = draw(st.integers(1, 60))
    pop = sample_population(
        PopulationSpec(n, draw(st.floats(0.01, 1.0)), seed=draw(st.integers(0, 2**32 - 1)))
    )
    temps = np.array([
        draw(st.one_of(
            st.sampled_from([float(p.t_lo), float(p.t_hi)]),
            st.floats(float(p.t_lo) - 1.0, float(p.t_hi) + 1.0),
        ))
        for p in pop
    ])
    sigmas = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    horizon = draw(st.floats(1.0, 1500.0))
    max_step = draw(st.one_of(st.sampled_from([0.1, 0.5, 2.0]), st.floats(0.1, 5.0)))
    return pop, temps, sigmas, horizon, max_step


class TestFreeRunPin:
    """Free-running loads switch on the one stroke law: the conventional
    simulate and stats.free_run_events give the same switch times, bit for
    bit."""

    @settings(max_examples=30, deadline=None)
    @given(case=free_run_pins())
    def test_simulate_equals_free_run_events(self, case):
        pop, temps, sigmas, horizon, max_step = case
        times, deltas = free_run_events(pop, temps, sigmas, horizon)
        # each load's events open with exactly one at t = 0, its level there
        starts = np.flatnonzero(times == 0.0)
        assert starts.size == len(pop) and starts[0] == 0
        rows = zip(np.split(times, starts[1:]), np.split(deltas, starts[1:]), strict=True)
        tr = simulate(small_population_scenario(
            population=pop, horizon=horizon, max_step=max_step, initial_state=(temps, sigmas),
        ))
        for j, (row, steps) in enumerate(rows):
            mine = tr.switch_times[tr.switch_loads == j]
            # a load at or past its active threshold switches at t = 0
            level = sigmas[j] ^ np.count_nonzero(mine == 0.0)
            assert steps[0] == level * pop.d_bar[j]
            assert mine[mine > 0].tobytes() == row[1:].tobytes()


class TestFrequencyResponsiveScheme:
    def test_reduces_to_conventional_when_out_of_reach(self):
        # thresholds far above any omega the run reaches: the deterministic
        # run opens its branches but switches as the thermostat alone
        base = small_population_scenario(disturbance=[(0.0, 0.0), (10.0, 1.5)])
        pop = dataclasses.replace(base.population, omega1=np.full(len(base.population), 1e3))
        tr_conv = simulate(dataclasses.replace(base, population=pop))
        tr_det = simulate(dataclasses.replace(base, population=pop, scheme=Scheme.deterministic()))
        assert np.max(np.abs(tr_det.omega)) < 1.0 and tr_det.switch_times.size > 0
        np.testing.assert_array_equal(tr_conv.switch_loads, tr_det.switch_loads)
        np.testing.assert_array_equal(tr_conv.switch_new_sigma, tr_det.switch_new_sigma)
        assert tr_conv.switch_causes == tr_det.switch_causes
        np.testing.assert_allclose(tr_conv.switch_times, tr_det.switch_times, rtol=0, atol=1e-9)
        assert tr_det.meta["loop_iterations"] > tr_conv.meta["loop_iterations"]

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
    thermostat threshold their flow reaches within the step, and the step's
    length."""
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
    return pop, temps, sigmas, draw(st.floats(1e-6, 2.0))


@st.composite
def switch_sequences(draw):
    """A population, its temperatures and switch states, a sequence of load
    subsets that switch, a randomized scheme (a large v_des makes the 1/s cap
    bind) and an omega that often drives one stroke's rate to 0 or the cap."""
    n = draw(st.integers(1, 30))
    pop = sample_population(PopulationSpec(n, gamma=0.2, seed=draw(st.integers(0, 2**31))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    temps = rng.uniform(pop.t_lo, pop.t_hi)
    switches = [
        rng.permutation(n)[: rng.integers(0, n + 1)] for _ in range(draw(st.integers(0, 8)))
    ]
    scheme = Scheme.randomized(
        k_pi=draw(st.sampled_from([0.0, 5.0, 50.0])), v_des=draw(st.sampled_from([1.0, 1e4]))
    )
    omega = draw(st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from([float(s * w / max(scheme.k_pi, 1.0)) for w in pop.omega1 for s in (-1, 1)]),
    ))
    return pop, temps, sigmas, switches, scheme, omega


@st.composite
def jump_states(draw):
    """A population under a scheme with a frequency channel or without one,
    its switch states and temperatures, each exactly on one of its load's
    thermostat thresholds or guards or at least 1e-9 C from all four, in
    band or out of it; an omega that is often exactly some load's +-omega1,
    and the load whose clock fired, if any."""
    n = draw(st.integers(1, 30))
    pop = sample_population(PopulationSpec(n, gamma=0.2, seed=draw(st.integers(0, 2**31))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    levels = np.stack([pop.t_lo, pop.t_hi, pop.t_lo + pop.eps, pop.t_hi - pop.eps])
    temps = rng.uniform(pop.t_lo - 2.0, pop.t_hi + 2.0)
    # a temperature within 1e-9 C of a level is put on it
    nearest = levels[np.argmin(np.abs(levels - temps), axis=0), np.arange(n)]
    on_level = (rng.random(n) < 0.5) | (np.abs(nearest - temps) < 1e-9)
    temps = np.where(on_level, levels[rng.integers(0, 4, n), np.arange(n)], temps)
    scheme = draw(st.sampled_from(
        [Scheme.conventional(), Scheme.deterministic(), Scheme.randomized()]
    ))
    omega = draw(st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from([float(s * w) for w in pop.omega1 for s in (-1, 1)]),
    ))
    fired = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return pop, temps, sigmas, scheme, omega, fired


def near_levels(pop: Population, rng: np.random.Generator) -> np.ndarray:
    """Per load: a temperature on one of its thermostat thresholds or
    guards, one ulp to either side of it, or anywhere within 2 C of its
    band, in band or out of it."""
    n = len(pop)
    levels = np.stack([pop.t_lo, pop.t_hi, pop.t_lo + pop.eps, pop.t_hi - pop.eps])
    on = levels[rng.integers(0, 4, n), np.arange(n)]
    ulp = np.nextafter(on, np.where(rng.random(n) < 0.5, -np.inf, np.inf))
    free = rng.uniform(pop.t_lo - 2.0, pop.t_hi + 2.0)
    return np.choose(rng.integers(0, 3, n), [on, ulp, free])


@st.composite
def anchored_states(draw):
    """A population under one of the three schemes, its switch states and
    temperatures (near_levels), an omega that is often exactly some load's
    +-omega1, the load whose clock fired, if any, and a generator for
    further draws."""
    n = draw(st.integers(1, 30))
    pop = sample_population(PopulationSpec(n, gamma=0.2, seed=draw(st.integers(0, 2**31))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    temps = near_levels(pop, rng)
    scheme = draw(st.sampled_from(
        [Scheme.conventional(), Scheme.deterministic(), Scheme.randomized()]
    ))
    omega = draw(st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from([float(s * w) for w in pop.omega1 for s in (-1, 1)]),
    ))
    fired = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return pop, temps, sigmas, scheme, omega, fired, rng


@st.composite
def demand_jumps(draw):
    """A population with equal magnitudes d_bar or unequal ones (over six
    decades, at the same ON flow target), its switch states and
    temperatures, and a sequence of loads that jump at t = 0."""
    n = draw(st.integers(1, 30))
    pop = sample_population(PopulationSpec(n, gamma=0.2, seed=draw(st.integers(0, 2**31))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    if draw(st.booleans()):
        d_bar = 10.0 ** rng.uniform(-6.0, 0.0, n)
        pop = dataclasses.replace(pop, d_bar=d_bar, cop=pop.cop * pop.d_bar / d_bar)
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    temps = rng.uniform(pop.t_lo, pop.t_hi)
    return pop, temps, sigmas, rng.integers(0, n, draw(st.integers(0, 300))).tolist()


@st.composite
def out_of_band_runs(draw):
    """A run of 1-8 loads, each started up to 0.5 C beyond either threshold
    in either switch state, under one of the four SCHEME_CASES (the
    randomized ones at v_des 1 or 50), long enough for every load to enter
    its band and then see a 0.3 or 1 pu step of either sign; and each load's
    band-entry time. A load beyond the threshold its flow leaves is held
    until it enters; one beyond the threshold its flow approaches is
    switched at t = 0 by its thermostat and then flows in."""
    n = draw(st.integers(1, 8))
    pop = sample_population(PopulationSpec(n, gamma=0.2, seed=draw(st.integers(0, 2**31))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    below = rng.random(n) < 0.5
    offset = 0.5 - rng.uniform(0.0, 0.5, n)
    temps = np.where(below, pop.t_lo - offset, pop.t_hi + offset)
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    _, scheme = draw(st.sampled_from(hybrid_sim.SCHEME_CASES))
    if scheme.kind == "randomized":
        scheme = dataclasses.replace(scheme, v_des=draw(st.sampled_from([1.0, 50.0])))
    # once its thermostat has acted at t = 0, a load below t_lo flows OFF
    # and one above t_hi flows ON
    entry = time_to_level(pop, temps, np.where(below, 0, 1), np.where(below, pop.t_lo, pop.t_hi))
    # the step comes once every load is in band, where frequency branches open
    step = float(np.max(entry)) + 1.0
    sc = small_population_scenario(
        population=pop,
        scheme=scheme,
        disturbance=[(0.0, 0.0), (step, draw(st.sampled_from([-1.0, -0.3, 0.3, 1.0])))],
        initial_state=(temps, sigmas),
        horizon=step + 100.0,
        max_step=0.25,
    )
    return sc, entry


def replay_temperatures(sc: Scenario, tr) -> tuple[np.ndarray, np.ndarray]:
    """Each logged switch's load temperature at it, and every load's at the
    end of the run, replayed from the initial state through the held flow."""
    loads = list(sc.population)
    temps, sigmas = (np.array(a) for a in sc.initial_state)
    t0 = np.zeros(len(loads))
    at_switch = []
    for t, j, new in zip(
        tr.switch_times.tolist(), tr.switch_loads.tolist(), tr.switch_new_sigma.tolist()
    ):
        assert sigmas[j] == 1 - new
        temps[j] = temp_flow(loads[j], temps[j], sigmas[j], t - t0[j])
        sigmas[j], t0[j] = new, t
        at_switch.append(temps[j])
    end = tr.times[-1]
    final = [temp_flow(p, temps[j], sigmas[j], end - t0[j]) for j, p in enumerate(loads)]
    return np.array(at_switch), np.array(final)


def reference_jump(loads: LoadAnchors, idx: np.ndarray, now: float):
    """Switch the loads idx (no repeats) at now by whole-array operations and
    anchor them by the vector reanchor: (their new states, which of them
    were thermostat-due)."""
    temps = loads.temps_at(idx, now)
    due = loads.theta[idx] <= now
    new = 1 - loads.sigma[idx]
    loads.sigma[idx] = new
    loads.n_on += 2 * int(np.count_nonzero(new)) - idx.size
    loads.d_s = on_demand(loads)
    loads.temp_min[idx] = np.minimum(loads.temp_min[idx], temps)
    loads.temp_max[idx] = np.maximum(loads.temp_max[idx], temps)
    loads.reanchor(idx, temps, now)
    return new, due


def reference_settle(loads: LoadAnchors, omega: float, now: float, fired):
    """LoadAnchors.settle with a full candidates scan and a refresh every
    round."""
    switches, rounds = [], 0
    while (idx := loads.candidates(omega, now, fired)).size:
        new, due = reference_jump(loads, idx, now)
        for j, sigma, thermostat in zip(idx.tolist(), new.tolist(), due.tolist()):
            if thermostat:
                cause = "thermostat-hi" if sigma == 1 else "thermostat-lo"
            elif j == fired:
                cause = "randomized"
            else:
                cause = "freq-on" if sigma == 1 else "freq-off"
            switches.append((now, j, sigma, cause))
        loads.refresh()
        rounds += 1
        fired = None
    return switches, rounds


def on_demand(loads: LoadAnchors) -> float:
    """The demand of the ON loads, correctly rounded."""
    return math.fsum(loads.pop.d_bar[loads.sigma == 1].tolist())


def assert_same_anchors(loads: LoadAnchors, ref: LoadAnchors) -> None:
    """Every per-load array and count of two LoadAnchors, bit for bit."""
    names = ["times", "open_levels", "temp0", "t0", "sigma", "temp_min", "temp_max"]
    if ref.rate_scheme is not None:
        names += ["base", "level"]
    for name in names:
        got, want = getattr(loads, name), getattr(ref, name)
        np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8), err_msg=name)
    assert loads.n_on == ref.n_on


class TestLoadAnchors:
    @settings(max_examples=200, deadline=None)
    @given(case=jump_states())
    def test_candidates_are_the_jump_set(self, case):
        # the loads the tables enable are those whose jump_target differs
        # from their state; within 1e-9 C of a level the tables decide
        pop, temps, sigmas, scheme, omega, fired = case
        loads = LoadAnchors(pop, scheme, temps, sigmas)
        fired_mask = None if fired is None else np.arange(len(pop)) == fired
        target = jump_target(pop, temps, sigmas, omega, scheme, fired_mask)
        np.testing.assert_array_equal(
            loads.candidates(omega, 0.0, fired), np.flatnonzero(target != sigmas)
        )

    @pytest.mark.parametrize("scheme", [Scheme.deterministic(), Scheme.conventional()])
    @pytest.mark.parametrize("sigma", [0, 1])
    def test_wait_rounded_to_zero_switches_at_once(self, scheme, sigma):
        # OFF loads one ulp below t_hi, or ON loads one ulp above t_lo: the
        # rounded wait of many is 0, so the tables make them thermostat-due
        # at t = 0, and they switch there though jump_target would not
        pop = sample_population(PopulationSpec(200, 0.2, seed=5))
        if sigma == 0:
            temps, cause = np.nextafter(pop.t_hi, -np.inf), "thermostat-hi"
        else:
            temps, cause = np.nextafter(pop.t_lo, np.inf), "thermostat-lo"
        sigmas = np.full(len(pop), sigma, dtype=np.int8)
        due = np.flatnonzero(LoadAnchors(pop, scheme, temps, sigmas).theta == 0)
        assert due.size > 100
        assert np.all(jump_target(pop, temps, sigmas, 0.0, scheme) == sigmas)
        tr = simulate(small_population_scenario(
            population=pop, scheme=scheme, initial_state=(temps, sigmas), horizon=2.0,
        ))
        at_start = tr.switch_times == 0.0
        np.testing.assert_array_equal(tr.switch_loads[at_start], due)
        assert {tr.switch_causes[k] for k in np.flatnonzero(at_start)} == {cause}
        assert tr.times[-1] == pytest.approx(2.0)

    @pytest.mark.parametrize("sigma", [0, 1])
    def test_fired_clock_out_of_band_is_randomized(self, sigma):
        # loads whose rates do not see omega (k_pi = 0) start 0.5 C out of
        # band on the side their flow leaves: OFF below t_lo or ON above t_hi. Their
        # thermostats hold them until they enter the band (within about
        # 250 s), so no clock switches one before; after that only their
        # clocks and thermostats switch them, each logged as such, and no
        # switch is undone at its own instant
        pop = sample_population(PopulationSpec(20, 0.2, seed=5))
        temps = pop.t_lo - 0.5 if sigma == 0 else pop.t_hi + 0.5
        entry = time_to_level(pop, temps, sigma, pop.t_lo if sigma == 0 else pop.t_hi)
        assert np.all(entry < 250.0)
        tr = simulate(small_population_scenario(
            population=pop,
            scheme=Scheme.randomized(k_pi=0.0, v_des=1e4),
            initial_state=(temps, np.full(len(pop), sigma, dtype=np.int8)),
            horizon=300.0,
        ))
        assert "randomized" in tr.switch_causes
        assert set(tr.switch_causes) <= {"randomized", "thermostat-hi", "thermostat-lo"}
        randomized = np.array(tr.switch_causes) == "randomized"
        assert np.all(tr.switch_times[randomized] >= entry[tr.switch_loads[randomized]])
        assert dwell_time_report(tr).min_interswitch_gap > 0

    @settings(max_examples=40, deadline=None)
    @given(case=out_of_band_runs())
    def test_out_of_band_start_keeps_dwell_positive(self, case):
        # under every scheme, from any out-of-band start: no switch is
        # undone at its own instant, no clock fires before its load enters
        # its band, and after that each load's temperature stays in its
        # band (the held flow is monotone, so its temperatures at its
        # switches and at the end bound it)
        sc, entry = case
        pop = sc.population
        tr = simulate(sc)
        assert dwell_time_report(tr).min_interswitch_gap > 0
        loads = tr.switch_loads
        randomized = np.array(tr.switch_causes, dtype=object) == "randomized"
        assert np.all(tr.switch_times[randomized] >= entry[loads[randomized]])
        at_switch, final = replay_temperatures(sc, tr)
        np.testing.assert_allclose(final, tr.final_temperatures, rtol=0, atol=1e-9)
        inside = tr.switch_times >= entry[loads]
        lo, hi = pop.t_lo - 1e-9, pop.t_hi + 1e-9
        temps, owners = at_switch[inside], loads[inside]
        assert np.all((temps >= lo[owners]) & (temps <= hi[owners]))
        assert np.all((final >= lo) & (final <= hi))

    @settings(max_examples=100, deadline=None)
    @given(case=anchored_states(), dt=st.floats(0.0, 100.0))
    def test_held_is_due_at_once_after_a_jump(self, case, dt):
        # a load is held at now iff, switched there, its thermostat time in
        # its new state is now: held reads the temperature jump switches at
        # and the wait anchor tabulates
        pop, temps, sigmas, scheme, *_ = case
        for j in range(len(pop)):
            loads = LoadAnchors(pop, scheme, temps, sigmas)
            now = min(dt, loads.theta[j])
            held = loads.held(j, now)
            loads.jump(j, now)
            assert held == (loads.theta[j] <= now)

    @settings(max_examples=100, deadline=None)
    @given(case=held_steps())
    def test_opened_levels_match_kernel(self, case):
        # a step ends by the first guard or thermostat time; once the loads
        # due at its end are landed there, the cached levels are
        # trigger_levels at the anchored end temperatures
        pop, temps, sigmas, dt = case
        scheme = Scheme.deterministic()
        loads = LoadAnchors(pop, scheme, temps, sigmas)
        # the tables hold the kernels' values in each state, and the waits
        # read from them are the kernels' waits
        n = len(pop)
        for sigma in (0, 1):
            row = slice(sigma * n, (sigma + 1) * n)
            guard, level = frequency_branch(pop, sigma)
            threshold = thermostat_threshold(pop, sigma)
            np.testing.assert_array_equal(loads.target[row], flow_target(pop, sigma))
            np.testing.assert_array_equal(loads.wait_levels[0, row], threshold)
            np.testing.assert_array_equal(loads.wait_levels[1, row], guard)
            np.testing.assert_array_equal(loads.branch_level[row], np.abs(level))
        np.testing.assert_array_equal(loads.theta, next_thermostat_event(pop, temps, sigmas))
        wait = time_to_level(pop, temps, sigmas, frequency_branch(pop, sigmas)[0])
        np.testing.assert_array_equal(loads.guard, np.where(wait == 0, np.inf, wait))
        dt = min(dt, loads.theta_min, loads.guard_min)
        loads.snap(0.0, dt)
        # a guard still closed, yet reached by the rounded flow, is no test
        assume(np.all(np.abs(loads.guard - dt) > 1e-9 * dt))
        end = loads.temps_at(np.arange(n), dt)
        np.testing.assert_array_equal(
            end[loads.t0 == 0], temp_flow(pop, temps, sigmas, dt)[loads.t0 == 0]
        )
        on_at, off_at = trigger_levels(pop, end, scheme)
        np.testing.assert_array_equal(loads.lvl_on, np.where(sigmas == 0, on_at, np.inf))
        np.testing.assert_array_equal(-loads.neg_off, np.where(sigmas == 1, off_at, -np.inf))
        assert (loads.on_min, loads.off_max) == (np.min(loads.lvl_on), np.max(-loads.neg_off))

    def test_branch_opening_switches_at_its_guard_time(self):
        # an OFF load below its guard while omega rises past its level and
        # stays there: it switches ON exactly when its branch opens
        fast = build_combined_system(
            GenDynamics(a_hat=np.zeros((0, 0)), b_hat=np.zeros(0), c_hat=np.zeros(0)), m=0.1, d=1.0
        )
        start = REFERENCE.t_lo + 1e-4  # its guard is t_lo + eps
        sc = single_load_scenario(
            grid=fast,
            scheme=Scheme.deterministic(),
            # the held input is about -1 pu: omega settles at 1 Hz within 0.5 s
            disturbance=[(0.0, -1.0 + D_STAR)],
            horizon=1.0,
            max_step=0.01,
            initial_state=(np.array([start]), np.array([0])),
        )
        guard = LoadAnchors(sc.population, sc.scheme, [start], [0]).guard[0]
        assert 0.5 < guard < 1.0
        tr = simulate(sc)
        assert tr.switch_times.tolist() == [guard]
        assert tr.switch_causes == ["freq-on"]
        assert tr.omega[tr.times == guard] > 5 * REFERENCE.omega1

    def test_event_loop_touches_only_switching_loads(self, shipped_file, monkeypatch):
        # 2000 loads over the 1 s step and 0.25 s of response: the per-load
        # kernels see every load a few times to set it up and read it out,
        # and after that only the loads that switch, however many steps and
        # bisection probes the run takes
        tr, n, elements = run_counting_kernels(shipped_file, monkeypatch, 1.25)
        switches = tr.switch_times.size
        assert switches > 0 and tr.meta["freq_bisections"] > 0
        assert elements <= 4 * n + 20 * switches

    def test_randomized_loop_touches_only_switching_loads(self, shipped_file, monkeypatch):
        # the same bound for thinned clocks over 5 s: a segment bounds the
        # rate law over the coefficients each load holds, and only a load
        # that switches gets new ones
        tr, n, elements = run_counting_kernels(
            shipped_file, monkeypatch, 5.0, scheme=Scheme.randomized()
        )
        switches = tr.switch_times.size
        assert switches > 0 and tr.times.size > 400
        assert elements <= 4 * n + 20 * switches

    @settings(max_examples=100, deadline=None)
    @given(case=switch_sequences())
    def test_held_rate_coefficients_match_kernel(self, case):
        # after any sequence of switches the held coefficients are those of
        # the current states, and the rates evaluated from them are
        # switching_rate's, clips and the 1/s cap included
        pop, temps, sigmas, switches, scheme, omega = case
        loads = LoadAnchors(pop, scheme, temps, sigmas)
        n = len(pop)
        for sigma in (0, 1):
            row = slice(sigma * n, (sigma + 1) * n)
            base, level = rate_coefficients(pop, sigma, scheme)
            np.testing.assert_array_equal(loads.rate_table[0][row], base)
            np.testing.assert_array_equal(loads.rate_table[1][row], level)
        for now, idx in enumerate(switches, start=1):
            for j in idx.tolist():
                loads.jump(j, float(now))
        # the kept ON count and running d_s give the sums over the states
        loads.refresh()
        assert abs(loads.d_s - on_demand(loads)) <= math.ulp(on_demand(loads))
        assert loads.on_fraction == np.count_nonzero(loads.sigma) / n
        # each load's thermostat time is the kernel's from its last anchor
        np.testing.assert_array_equal(
            loads.theta, loads.t0 + next_thermostat_event(pop, loads.temp0, loads.sigma)
        )
        base, level = rate_coefficients(pop, loads.sigma, scheme)
        np.testing.assert_array_equal(loads.base, base)
        np.testing.assert_array_equal(loads.level, level)
        rates = rate_law(loads.base, loads.level, scheme.k_pi, omega)
        expected = switching_rate(pop, loads.sigma, omega, scheme)
        assert np.array_equal(rates, expected)

    @settings(max_examples=100, deadline=None)
    @given(case=demand_jumps())
    def test_running_demand_is_the_sum_over_on_loads(self, case):
        # jump keeps d_s as a compensated running sum of +-d_bar: after every
        # switch it lies within one ulp of the sum over the ON loads
        pop, temps, sigmas, order = case
        loads = LoadAnchors(pop, Scheme.deterministic(), temps, sigmas)
        assert abs(loads.d_s - on_demand(loads)) <= math.ulp(on_demand(loads))
        for j in order:
            loads.jump(j, 0.0)
            assert abs(loads.d_s - on_demand(loads)) <= math.ulp(on_demand(loads))

    @settings(max_examples=150, deadline=None)
    @given(case=anchored_states(), ops=st.integers(1, 6))
    def test_per_load_jump_and_anchor_match_reanchor(self, case, ops):
        # random subsets of loads jump, or are anchored at temperatures near
        # their levels, at random times; the per-load path leaves the same
        # bits as the vector one
        pop, temps, sigmas, scheme, _, _, rng = case
        loads, ref = (LoadAnchors(pop, scheme, temps, sigmas) for _ in range(2))
        n, now = len(pop), 0.0
        for _ in range(ops):
            idx = rng.permutation(n)[: rng.integers(1, n + 1)]
            # a jump may come at its anchor time
            now += rng.choice([0.0, rng.uniform(0.0, 200.0)])
            if rng.random() < 0.5:
                for j in idx.tolist():
                    loads.jump(j, now)
                reference_jump(ref, idx, now)
            else:
                new_temps = near_levels(pop, rng)[idx]
                for j, temp in zip(idx.tolist(), new_temps.tolist()):
                    loads.anchor(j, temp, now)
                ref.reanchor(idx, new_temps, now)
            assert_same_anchors(loads, ref)

    @settings(max_examples=200, deadline=None)
    @given(case=anchored_states(), dt=st.floats(1e-3, 100.0))
    def test_settle_matches_full_scan_every_round(self, case, dt):
        # an instant settled at t = 0 and another at the next event, each
        # against a full candidates scan and a refresh every round; after
        # either no load is enabled
        pop, temps, sigmas, scheme, omega, fired, _ = case
        loads, ref = (LoadAnchors(pop, scheme, temps, sigmas) for _ in range(2))
        now = 0.0
        for _ in range(2):
            assert loads.settle(omega, now, fired, 10 * len(pop)) == reference_settle(
                ref, omega, now, fired
            )
            assert_same_anchors(loads, ref)
            scalars = ("theta_min", "guard_min", "on_min", "off_max", "d_s", "on_fraction")
            assert [getattr(loads, a) for a in scalars] == [getattr(ref, a) for a in scalars]
            assert loads.candidates(omega, now, None).size == 0
            step = min(dt, loads.theta_min - now, loads.guard_min - now)
            loads.snap(now, step)
            ref.snap(now, step)
            now, fired = now + step, None

    @pytest.mark.parametrize("sigma", [0, 1])
    @pytest.mark.parametrize("offset", [0.5, 0.0])
    def test_settle_takes_a_second_round(self, sigma, offset):
        # a fired clock on a load out of band on the side its flow leaves
        # (offset 0.5 C), or one ulp inside the band there (offset 0): in
        # its new state the load is due at once, or its rounded wait is 0,
        # so its thermostat switches it back in a second round
        pop = sample_population(PopulationSpec(50, 0.2, seed=5))
        edge = pop.t_lo - offset if sigma == 0 else pop.t_hi + offset
        temps = edge if offset else np.nextafter(edge, pop.t_hi if sigma == 0 else pop.t_lo)
        sigmas = np.full(len(pop), sigma, dtype=np.int8)
        scheme = Scheme.randomized()
        second = 0
        for fired in range(len(pop)):
            loads, ref = (LoadAnchors(pop, scheme, temps, sigmas) for _ in range(2))
            switches, rounds = loads.settle(0.0, 0.0, fired, 10)
            assert (switches, rounds) == reference_settle(ref, 0.0, 0.0, fired)
            assert_same_anchors(loads, ref)
            assert loads.candidates(0.0, 0.0, None).size == 0
            assert [cause for *_, cause in switches][:1] == ["randomized"]
            second += rounds == 2
        assert second == len(pop) if offset else second > len(pop) // 2


def run_counting_kernels(shipped_file, monkeypatch, horizon, **changes):
    """(trace, load count, elements seen by the per-load kernels) of the
    shipped scenario with 2000 loads over horizon."""
    sf = dataclasses.replace(
        shipped_file,
        horizon=horizon,
        population=dataclasses.replace(shipped_file.population, n_loads=2000),
        **changes,
    )
    sc, _ = sf.build_scenario()
    elements = 0

    def counted(fn):
        def wrapped(p, *args, **kwargs):
            nonlocal elements
            elements += len(p) if isinstance(p, Population) else np.size(p)
            return fn(p, *args, **kwargs)
        return wrapped

    for name in PER_LOAD_KERNELS:
        monkeypatch.setattr(hybrid_sim, name, counted(getattr(hybrid_sim, name)))
    tr = simulate(sc)
    return tr, len(sc.population), elements


def modal5_grid() -> StateSpace:
    """A dim-5 modal grid: two conjugate pairs and one real mode beside the
    swing mode."""
    gen = GenDynamics(
        a_hat=[[-0.2, 1.0, 0.0, 0.0], [-1.0, -0.2, 0.0, 0.0], [0.0, 0.0, -0.5, 0.0],
               [0.0, 0.0, 0.0, -2.0]],
        b_hat=[-1.0, 0.5, -2.0, -1.0], c_hat=[1.0, 0.0, 1.0, 0.5],
    )
    return build_combined_system(gen, m=10.0, d=1.0)


@st.composite
def level_crossings(draw):
    """A held-input step of the default grid or the dim-5 grid over which
    omega ends beyond a frequency level it starts short of: the flow, the
    start state z, the step and its end state, the level and the direction."""
    ss = draw(st.sampled_from([default_grid(), modal5_grid()]))
    x = np.array([draw(st.floats(-0.3, 0.3)), *(draw(st.floats(-3.0, 3.0)) for _ in range(ss.n))])
    u = draw(st.floats(-3.0, 3.0))
    dt = draw(st.floats(1e-6, 2.0))
    flow = grid_model.ModalFlow(ss, 0.01)
    z = flow.enter(x, u)
    z_end = flow.advance(z, dt)
    omega, omega_end = flow.omega(z), flow.omega(z_end)
    level = omega + draw(st.floats(0.0, 1.0, exclude_min=True)) * (omega_end - omega)
    return ss, flow, x, u, z, dt, z_end, level, omega_end > omega


def held_omega(ss: StateSpace, u: float, t: float) -> tuple[float, float, float]:
    """omega and its first two derivatives at t from rest with the input
    held at u, by transition."""
    phi, psi = transition(ss, t)
    x = phi @ np.zeros(ss.dim) + psi * u
    dx = ss.a @ x + ss.b * u
    return x[0], dx[0], (ss.a @ dx)[0]


@st.composite
def interior_peaks(draw):
    """A one-load deterministic run on a governor grid whose omega, from rest
    under a negative demand step, peaks inside a cadence step of max_step
    just above the load's open ON level and stays below it at both ends of
    that step; the peak time, the step's start and its length."""
    from scipy.optimize import brentq

    ss = default_grid(m=draw(st.floats(5.0, 15.0)), d=draw(st.floats(0.5, 2.0)))
    level = -draw(st.floats(0.2, 2.0)) + D_STAR
    u = held_input(level)
    ts = np.linspace(0.0, 60.0, 601)
    slopes = [held_omega(ss, u, t)[1] for t in ts]
    first = next(i for i in range(1, ts.size) if slopes[i] <= 0)
    t_peak = brentq(lambda t: held_omega(ss, u, t)[1], ts[first - 1], ts[first], xtol=1e-14)
    peak, _, curvature = held_omega(ss, u, t_peak)
    # the peak lies at fraction f of step k; omega exceeds the level for
    # about 2 sqrt(2 margin / |omega''|) around it
    k, f = draw(st.integers(1, 30)), draw(st.floats(0.2, 0.8))
    max_step = t_peak / (k + f)
    half = min(f, 1 - f) * max_step
    margin = draw(st.floats(1e-3, 0.5)) * abs(curvature) * half**2 / 2
    start = k * max_step
    assume(max(held_omega(ss, u, t)[0] for t in (start, start + max_step)) < peak - margin)
    load = dataclasses.replace(REFERENCE, omega1=peak - margin)
    sc = single_load_scenario(
        grid=ss,
        population=Population.of([load]),
        scheme=Scheme.deterministic(),
        disturbance=[(0.0, level)],
        horizon=start + 2 * max_step,
        max_step=max_step,
        # OFF, past its guard t_lo + eps, hundreds of seconds from t_hi
        initial_state=(np.array([load.t_lo + 0.5]), np.array([0])),
    )
    return sc, t_peak, start, max_step


@pytest.fixture(scope="module")
def shipped_run_30s(shipped_file):
    """The shipped deterministic scenario over 30 s, and the number of
    transition calls it made."""
    sc, _ = dataclasses.replace(
        shipped_file, horizon=30.0, scheme=Scheme.deterministic()
    ).build_scenario()
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    real = grid_model.transition
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_model, "transition", counted)
        tr = simulate(sc)
    return tr, calls


class TestEventLocation:
    @settings(max_examples=200, deadline=None)
    @given(case=level_crossings())
    def test_committed_state_enables_the_jump(self, case):
        # the state the search returns is the exact flow at its time, and
        # omega there lies beyond the level by at most the rounding level,
        # unless the crossing lies between that time and the double before it
        ss, flow, x, u, z, dt, z_end, level, rising = case

        def excess(omega):
            return omega - level if rising else level - omega

        g_start, g_end = excess(flow.omega(z)), excess(flow.omega(z_end))
        assume(g_start < 0 <= g_end)
        tau, z_tau, probes = locate_crossing(flow, z, excess, 0.0, g_start, dt, g_end, z_end)
        assert 0 < tau <= dt
        np.testing.assert_array_equal(z_tau, flow.advance(z, tau))
        phi, psi = transition(ss, tau)
        np.testing.assert_allclose(
            flow.states([z_tau], [u])[0], phi @ x + psi * u, rtol=1e-9, atol=1e-12
        )
        overshoot = excess(flow.omega(z_tau))
        assert overshoot >= 0
        if overshoot > grid_model._OVERSHOOT:
            assert excess(flow.omega(flow.advance(z, math.nextafter(tau, 0.0)))) < 0
        assert probes <= 60  # a stalled search shows as a long one

    @settings(max_examples=50, deadline=None)
    @given(case=interior_peaks())
    def test_crossing_inside_a_step_is_found(self, case):
        # omega peaks inside one cadence step, just above an OFF load's open
        # level, and is below it at both ends of that step: the load
        # switches ON inside the step, where omega has reached its level
        sc, t_peak, start, width = case
        tr = simulate(sc)
        assert tr.switch_causes == ["freq-on"]
        (t_switch,) = tr.switch_times
        assert start < t_switch < start + width
        assert abs(t_switch - t_peak) < 0.5 * width
        # the trace's omega there is the search's up to rounding
        omega1 = sc.population.omega1[0]
        assert tr.omega[tr.times == t_switch] >= omega1 - grid_model._OVERSHOOT

    def test_first_of_several_crossings_in_a_step(self):
        # a fast, lightly damped mode (eigenvalues -1 +- 1000j) takes omega
        # from rest to 0.1 (1 - e^-t cos 1000 t): up through an OFF load's
        # open level of 0.1 Hz at 1.57 ms, down at 4.71 ms and up again at
        # 7.85 ms, all inside the first 0.01 s step, which ends enabled. The
        # load switches at the first crossing, not at whichever one a search
        # on the whole step lands on
        ss = StateSpace(
            a=np.array([[-1.0, 1000.0], [-1000.0, -1.0]]), b=np.array([0.1, 100.0]),
            c=np.array([1.0, 0.0]),
        )
        sc = single_load_scenario(
            grid=ss,
            scheme=Scheme.deterministic(),
            disturbance=[(0.0, 1.0 + D_STAR)],
            horizon=0.02,
            max_step=0.01,
            # OFF, past its guard t_lo + eps, so its ON level is open
            initial_state=(np.array([REFERENCE.t_lo + 0.5]), np.array([0])),
        )
        tr = simulate(sc)
        assert tr.switch_causes[0] == "freq-on"
        # the first crossing, by dense sampling of the held flow
        flow = grid_model.ModalFlow(ss, sc.max_step)
        z = flow.enter(np.zeros(ss.dim), held_input(1.0 + D_STAR))
        ts = np.linspace(0.0, sc.max_step, 10_001)
        omega = np.array([flow.omega(flow.advance(z, t)) for t in ts])
        assert omega[-1] > REFERENCE.omega1 and np.sum(np.diff(omega > REFERENCE.omega1)) == 3
        first = np.argmax(omega >= REFERENCE.omega1)
        assert ts[first - 1] <= tr.switch_times[0] <= ts[first]

    def test_few_probes_per_jump_instant(self, shipped_run_30s):
        # the bisection to 1e-6 s took 11.5 probes per jump instant here
        tr, _ = shipped_run_30s
        assert tr.meta["freq_bisections"] <= 4 * tr.meta["jump_count"]

    def test_cadence_steps_reuse_one_transition(self, shipped_run_30s):
        # on a grid with a modal form every step and probe is a product in
        # modal coordinates: the run builds no transition matrix at all
        tr, calls = shipped_run_30s
        assert tr.times.size > 3000
        assert calls == 0


@pytest.mark.parametrize("scheme", [Scheme.deterministic(), Scheme.randomized()])
def test_event_path_clamps_floats_without_numpy(shipped_file, monkeypatch, scheme):
    # on the shipped 30 s runs tcl and hybrid_sim call np.maximum and
    # np.minimum on arrays only: a float is clamped by max and min (np.log
    # and np.exp of a float stay, the laws' transcendentals), and a load's
    # temperature on the event path is a Python float
    sc, _ = dataclasses.replace(shipped_file, horizon=30.0, scheme=scheme).build_scenario()
    temp, temp_types = LoadAnchors.temp, set()

    def typed_temp(self, j, now):
        value = temp(self, j, now)
        temp_types.add(type(value))
        return value

    monkeypatch.setattr(LoadAnchors, "temp", typed_temp)

    def arrays_only(ufunc):
        def clamp(x, *args, **kwargs):
            if not isinstance(x, np.ndarray):
                raise TypeError(f"np.{ufunc.__name__} called on {type(x).__name__}")
            return ufunc(x, *args, **kwargs)
        return clamp

    guarded = types.ModuleType("numpy")
    vars(guarded).update(vars(np))
    guarded.maximum, guarded.minimum = arrays_only(np.maximum), arrays_only(np.minimum)
    for module in (tcl, hybrid_sim):
        monkeypatch.setattr(module, "np", guarded)
    with pytest.raises(TypeError):
        tcl.np.maximum(1.0, 0.0)
    tr = simulate(sc)
    assert tr.switch_times.size > 100
    assert temp_types == {float}


@pytest.mark.parametrize("scheme", [Scheme.conventional(), Scheme.randomized()])
def test_quiet_cadence_steps_skip_the_loop_body(shipped_file, scheme):
    # on the shipped 30 s run only the steps next to an event go through
    # the loop body; the rest are cadence samples between events
    sc, _ = dataclasses.replace(shipped_file, horizon=30.0, scheme=scheme).build_scenario()
    tr = simulate(sc)
    assert tr.meta["loop_iterations"] < tr.times.size / 5


@pytest.mark.parametrize("scheme", [s for _, s in hybrid_sim.SCHEME_CASES],
                         ids=[name for name, _ in hybrid_sim.SCHEME_CASES])
def test_every_sample_is_a_cadence_step_or_a_pass(shipped_file, scheme):
    # after the first sample, one per step the quiet loop commits, each
    # max_step long, and one per pass of the event part, on the shipped 30 s
    # runs
    sc, _ = dataclasses.replace(shipped_file, horizon=30.0, scheme=scheme).build_scenario()
    tr = simulate(sc)
    cadence = tr.meta["cadence_steps"]
    assert tr.times.size == 1 + cadence + tr.meta["loop_iterations"]
    assert cadence > tr.times.size / 2
    assert np.count_nonzero(np.isclose(np.diff(tr.times), sc.max_step, rtol=0, atol=1e-9)) >= cadence


def test_quiet_passes_are_tested_per_pass_not_per_step(shipped_file, monkeypatch):
    # over the shipped 600 s conventional run a certified pass is tested once
    # at its start: excess and omega run a few times per pass of the event
    # part, not once per cadence step, as a per-step test would
    calls = {"excess": 0, "omega": 0}
    excess, modal_flow = LoadAnchors.excess, grid_model.ModalFlow

    def counted_excess(self, omega):
        calls["excess"] += 1
        return excess(self, omega)

    def counted_flow(ss, step):
        flow = modal_flow(ss, step)
        omega = flow.omega

        def counted_omega(z):
            calls["omega"] += 1
            return omega(z)

        flow.omega = counted_omega
        return flow

    # built first, so that the flow of one_norm's walk is not counted
    sc, _ = dataclasses.replace(shipped_file, scheme=Scheme.conventional()).build_scenario()
    monkeypatch.setattr(LoadAnchors, "excess", counted_excess)
    monkeypatch.setattr(grid_model, "ModalFlow", counted_flow)
    tr = simulate(sc)
    passes = tr.meta["loop_iterations"]
    assert tr.meta["cadence_steps"] > 30 * passes
    assert tr.meta["certified_passes"] > passes / 2
    assert 0 < calls["excess"] <= 5 * passes
    assert 0 < calls["omega"] <= 5 * passes


QUIET_GRIDS = [default_grid(), modal5_grid()]


def refused(*args) -> bool:
    """crossing_free that certifies no pass: every step is tested."""
    return False


@st.composite
def quiet_stretch_runs(draw):
    """1-200 loads under any scheme on the shipped or the dim-5 grid, with a
    disturbance pulse after a long quiet stretch."""
    n = draw(st.integers(1, 200))
    pop = sample_population(
        PopulationSpec(n, draw(st.floats(0.05, 1.0)), seed=draw(st.integers(0, 2**32 - 1)))
    )
    quiet, width = draw(st.floats(5.0, 40.0)), draw(st.floats(0.1, 10.0))
    level = draw(st.floats(-2.0, 2.0))
    return Scenario(
        grid=draw(st.sampled_from(QUIET_GRIDS)),
        population=pop,
        scheme=draw(st.sampled_from([s for _, s in hybrid_sim.SCHEME_CASES])),
        disturbance=[(0.0, 0.0), (quiet, level), (quiet + width, 0.0)],
        horizon=quiet + width + draw(st.floats(0.5, 15.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
        max_step=draw(st.sampled_from([0.003, 0.01, 0.05, 0.2])),
    )


def trace_bytes(tr) -> list:
    """Every array of a trace, as bytes, and its switch causes."""
    arrays = [getattr(tr, f.name) for f in dataclasses.fields(tr) if f.name != "meta"]
    return [a.tobytes() if isinstance(a, np.ndarray) else a for a in arrays]


@settings(max_examples=30, deadline=None)
@given(sc=quiet_stretch_runs())
def test_certified_passes_change_no_bit(sc):
    # with every pass refused the certificate, each step is tested: the trace,
    # switch log and final state are the same bits, and one event-part pass
    # per certified pass moves into the cadence steps
    tr = simulate(sc)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hybrid_sim, "crossing_free", refused)
        tested = simulate(sc)
    assert trace_bytes(tr) == trace_bytes(tested)
    split = ("cadence_steps", "loop_iterations", "certified_passes", "certified_steps")
    assert {k: v for k, v in tr.meta.items() if k not in split} == {
        k: v for k, v in tested.meta.items() if k not in split
    }
    assert tested.meta["certified_passes"] == tested.meta["certified_steps"] == 0
    moved = tr.meta["cadence_steps"] - tested.meta["cadence_steps"]
    assert moved == tested.meta["loop_iterations"] - tr.meta["loop_iterations"] >= 0


@st.composite
def near_certified_passes(draw):
    """A held pass of a modal flow from a drawn state, its modes' terms of
    omega lined up with the envelope's or not, and open levels (on_min,
    off_max) a few doubles past the certificate's left side without margin,
    or further."""
    ss = draw(st.sampled_from(QUIET_GRIDS))
    step = draw(st.floats(1e-3, 0.2))
    flow = grid_model.ModalFlow(ss, step)
    u = draw(st.floats(-3.0, 3.0))
    z = flow.enter(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=ss.dim,
                                          max_size=ss.dim))), u)
    if draw(st.booleans()):
        # each term Re(w_k z_k) at +-|w_k| |z_k|, with the sign of omega_inf
        sign = math.copysign(1.0, flow.omega_inf)
        w = (ss.c @ flow.v).tolist()
        z = tuple(sign * abs(zk) * (wk.conjugate() / abs(wk)) if wk else zk for zk, wk in zip(z, w))
        z = tuple(zk.real if real else zk for zk, real in zip(z, flow.real))
    slack = draw(st.sampled_from([0.0, flow.curvature(z) * step**2 / 8]))
    edge = flow.envelope(z) + slack
    for _ in range(draw(st.one_of(st.integers(1, 4), st.integers(1, 400)))):
        edge = math.nextafter(edge, math.inf)
    other = edge * draw(st.sampled_from([1.0, 1.5]))
    on_min, off_max = draw(st.sampled_from([(edge, -other), (other, -edge)]))
    return flow, z, on_min, off_max, slack, step, draw(st.integers(1, 60))


@settings(max_examples=300, deadline=None)
@given(case=near_certified_passes())
def test_certificate_implies_every_step_test(case):
    # a certified pass passes the quiet loop's per-step test at every cadence
    # step, with the slack from its start
    flow, z, on_min, off_max, slack, step, steps = case
    assume(hybrid_sim.crossing_free(flow, z, on_min, off_max, slack, steps))
    levels = types.SimpleNamespace(on_min=on_min, off_max=off_max)
    g_a = LoadAnchors.excess(levels, flow.omega(z))
    for _ in range(steps):
        z = flow.advance(z, step)
        g_b = LoadAnchors.excess(levels, flow.omega(z))
        assert max(g_a, g_b) + slack < 0
        g_a = g_b


class TestThinning:
    def test_switch_log_does_not_depend_on_max_step(self, shipped_file):
        # the rate law holds at every instant, not over a step: the shipped
        # 60 s randomized run switches the same loads at the same times with
        # samples every 0.01 s or every 0.5 s
        sf = dataclasses.replace(shipped_file, horizon=60.0, scheme=Scheme.randomized())
        sc, _ = sf.build_scenario()
        fine, coarse = (simulate(dataclasses.replace(sc, max_step=h)) for h in (0.01, 0.5))
        assert coarse.times.size < fine.times.size / 10
        rows = lambda tr: list(zip(tr.switch_loads.tolist(), tr.switch_new_sigma.tolist(),
                                   tr.switch_causes))
        assert rows(fine) == rows(coarse)
        assert "randomized" in fine.switch_causes
        np.testing.assert_allclose(fine.switch_times, coarse.switch_times, rtol=0, atol=1e-9)

    def test_grid_without_modes_bounds_rates_by_the_cap(self):
        # a defective grid has no modal envelope to bound the rates by, so
        # simulate refuses it before it draws a candidate
        jordan = StateSpace(
            a=np.array([[-1.0, 1.0], [0.0, -1.0]]), b=np.array([-1.0, 0.0]),
            c=np.array([1.0, 0.0]),
        )
        assert jordan.modes is None and grid_model.is_hurwitz(jordan)
        sc = small_population_scenario(
            population=sample_population(PopulationSpec(10, 0.05, seed=5)), grid=jordan,
            scheme=Scheme.randomized(v_des=50.0), horizon=20.0, max_step=0.05,
        )
        with pytest.raises(grid_model.GridModelError, match="no well-conditioned modal form"):
            simulate(sc)

    @pytest.mark.parametrize("sigma", [0, 1])
    def test_held_loads_accept_no_candidate(self, sigma):
        # every load held 0.5 C out of band over a 10 s segment, at the 1/s
        # rate cap: the clocks draw at the full bound and every candidate
        # passes its rate test, yet none is accepted
        pop = sample_population(PopulationSpec(20, 0.2, seed=5))
        temps = pop.t_lo - 0.5 if sigma == 0 else pop.t_hi + 0.5
        scheme = Scheme.randomized(v_des=1e4)
        loads = LoadAnchors(pop, scheme, temps, np.full(len(pop), sigma, dtype=np.int8))
        assert all(loads.held(j, 10.0) for j in range(len(pop)))
        flow = grid_model.ModalFlow(default_grid(), 0.05)
        z = flow.enter(np.zeros(default_grid().dim), 0.0)
        clocks = hybrid_sim.ThinnedClocks(scheme, seed=2)
        assert clocks.first_accepted(loads, flow, z, 0.0, 10.0) == (math.inf, -1)
        assert clocks.draws > 100

    def test_time_rescaled_gaps_are_unit_exponential(self):
        # time-rescaling (Brown et al., Neural Comput. 14, 325, 2002): with
        # H_j the integral of load j's rate, its randomized switches are a
        # unit Poisson process in H_j, so the H_j gaps between them are
        # Exp(1). Here k_pi = 50 and a 0.2 pu step load drive the rates from
        # 0 to the 1/s cap, and H_j is built from the trace alone: omega at
        # Gauss-Legendre nodes of each sample interval by transition from the
        # recorded state, with the input held, and switching_rate there
        sc = small_population_scenario(
            scheme=Scheme.randomized(k_pi=50.0, v_des=50.0),
            disturbance=[(0.0, 0.0), (20.0, 0.2)],
            horizon=200.0,
            max_step=0.5,
        )
        tr = simulate(sc)
        hazard = cumulative_hazard(sc, tr)
        sample_of = np.searchsorted(tr.times, tr.switch_times)
        causes = np.array(tr.switch_causes)
        gaps = []
        for j in range(len(sc.population)):
            mine = (tr.switch_loads == j) & (causes == "randomized")
            h = np.concatenate(([0.0], hazard[sample_of[mine], j]))
            # a gap that starts within 8 of the end of the run's hazard might
            # not end inside the run: dropping only those keeps the kept
            # gaps Exp(1) to within exp(-8) of mass
            gaps.extend(np.diff(h)[h[:-1] <= hazard[-1, j] - 8.0])
        assert len(gaps) > 500
        assert stats.kstest(gaps, "expon").pvalue >= 1e-3


def cumulative_hazard(sc: Scenario, tr, nodes: int = 4) -> np.ndarray:
    """H[i, j]: the integral of load j's switching_rate from 0 to sample i,
    with omega rebuilt from the recorded states by transition."""
    pop, times = sc.population, tr.times
    sample_of = np.searchsorted(times, tr.switch_times)
    assert np.array_equal(times[sample_of], tr.switch_times)
    # each load's switch state over every sample interval, set by the jumps
    # at the interval's start
    sigma = np.empty((times.size - 1, len(pop)), dtype=np.int8)
    for j in range(len(pop)):
        mine = tr.switch_loads == j
        at, new = sample_of[mine], tr.switch_new_sigma[mine]
        if not at.size:
            sigma[:, j] = tr.final_sigmas[j]
            continue
        last = np.searchsorted(at, np.arange(times.size - 1), side="right") - 1
        sigma[:, j] = np.where(last >= 0, new[np.maximum(last, 0)], 1 - new[0])
    d_star = float(np.sum(pop.alpha * pop.d_bar))
    dist_times = [t for t, _ in sc.disturbance]
    level = np.array([v for _, v in sc.disturbance])[
        np.searchsorted(dist_times, times[:-1], side="right") - 1
    ]
    held = level + tr.d_s[:-1] - d_star
    states = np.column_stack([tr.omega, tr.x_hat])
    points, weights = np.polynomial.legendre.leggauss(nodes)
    width = np.diff(times)
    rate_integral = np.empty((times.size - 1, len(pop)))
    for i, w in enumerate(width):
        omega = []
        for tau in 0.5 * w * (points + 1.0):
            phi, psi = transition(sc.grid, tau)
            omega.append((phi @ states[i] + psi * held[i])[0])
        rates = switching_rate(pop, sigma[i], np.array(omega)[:, None], sc.scheme)
        rate_integral[i] = 0.5 * w * (weights @ rates)
    return np.vstack((np.zeros(len(pop)), np.cumsum(rate_integral, axis=0)))


PER_LOAD_KERNELS = (
    "frequency_branch",
    "rate_coefficients",
    "stroke_flow",
    "stroke_time",
    "thermostat_threshold",
)


class TestClockStreams:
    def test_seeds_near_two_to_the_64_stay_distinct(self):
        # the candidate stream is keyed by the whole 64-bit seed: from one
        # initial state, runs at seeds 2**64 - 1, 0 and 2**64 - 2 differ
        pop = sample_population(PopulationSpec(50, 0.2, seed=5))
        state = sample_initial_states(pop, 0)
        logs = []
        for seed in (2**64 - 1, 0, 2**64 - 2):
            sc = small_population_scenario(
                population=pop, scheme=Scheme.randomized(v_des=20.0), seed=seed,
                initial_state=state, horizon=20.0,
            )
            tr = simulate(sc)
            logs.append((tr.switch_times.tolist(), tr.switch_loads.tolist()))
        assert logs[0] != logs[1] and logs[0] != logs[2]

    def test_clock_draws_are_one_per_load_and_switch(self, monkeypatch):
        # one draw per candidate: each candidate inside its segment is
        # tested against the rate law at one load, and each segment that ends
        # without an accepted candidate drew one more, past its end; a
        # segment bounds the rates once, over all loads
        sc = small_population_scenario(
            population=sample_population(PopulationSpec(200, 0.2, seed=5)),
            scheme=Scheme.randomized(),
            horizon=60.0,
        )
        tested = segments = 0
        real_rate_law = hybrid_sim.rate_law

        def counted(base, *args):
            nonlocal tested, segments
            if np.ndim(base):
                segments += 1
            else:
                tested += 1
            return real_rate_law(base, *args)

        monkeypatch.setattr(hybrid_sim, "rate_law", counted)
        tr = simulate(sc)
        accepted = tr.switch_causes.count("randomized")
        assert accepted > 0
        assert tr.meta["clock_draws"] == tested + segments - accepted
        # per-load clocks drew one exponential per load and per switch, 281
        # here; candidates come only as fast as the rates' bound
        assert tr.meta["clock_draws"] < len(sc.population)
        assert tr.meta["rate_resamples"] == 0

    def test_randomized_gaps_are_unit_exponential(self):
        # every rate capped at 1/s and held (k_pi = 0): a load's
        # gaps that end in a randomized switch are Exp(1); thermostat
        # censoring is negligible against strokes of hundreds of seconds
        sc = small_population_scenario(
            population=sample_population(PopulationSpec(50, 0.2, seed=5)),
            scheme=Scheme.randomized(k_pi=0.0, v_des=1e4),
            horizon=60.0,
        )
        tr = simulate(sc)
        order = np.lexsort((tr.switch_times, tr.switch_loads))
        loads, times = tr.switch_loads[order], tr.switch_times[order]
        causes = np.array(tr.switch_causes)[order]
        same = (loads[1:] == loads[:-1]) & (causes[1:] == "randomized")
        gaps = np.diff(times)[same]
        assert gaps.size > 2000
        assert stats.kstest(gaps, "expon").pvalue >= 1e-3

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


def window_by_sample_loop(times: np.ndarray, omega: np.ndarray, eps: float) -> float:
    """FrequencyMetrics.longest_window_within, one sample at a time."""
    inside = np.abs(omega) <= eps
    best = 0.0
    start = None
    for i, ok in enumerate(inside):
        if ok and start is None:
            start = times[i]
        elif not ok and start is not None:
            best = max(best, times[i] - start)
            start = None
    if start is not None:
        best = max(best, times[-1] - start)
    return float(best)


class TestMetrics:
    def test_settle_and_window(self):
        from tclgrid.hybrid_sim import FrequencyMetrics

        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        omega = np.array([0.5, 0.2, 0.05, 0.01, 0.02, 0.01])
        m = FrequencyMetrics(
            peak_abs_omega=0.5, min_interswitch_gap=1.0,
            switch_counts=np.array([1]), times=times, omega=omega,
        )
        assert m.longest_window_within(0.1) == pytest.approx(3.0)
        assert m.longest_window_within(1.0) == pytest.approx(5.0)

    @settings(max_examples=300, deadline=None)
    @given(
        times=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40).map(sorted),
        data=st.data(),
        eps=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_window_matches_sample_loop(self, times, data, eps):
        from tclgrid.hybrid_sim import FrequencyMetrics

        omega = data.draw(st.lists(
            st.sampled_from([0.0, 0.1, -0.1, 0.3, -0.5, 1.0, np.nan]),
            min_size=len(times), max_size=len(times),
        ))
        m = FrequencyMetrics(
            peak_abs_omega=1.0, min_interswitch_gap=1.0,
            switch_counts=np.array([1]), times=np.array(times), omega=np.array(omega),
        )
        assert m.longest_window_within(eps) == window_by_sample_loop(m.times, m.omega, eps)

    def test_ripple_envelope_of_sine(self):
        t = np.arange(0.0, 100.0, 0.01)
        w = 0.3 * np.sin(2 * np.pi * t / 7.0)
        assert ripple_envelope(t, w) == pytest.approx(0.3, rel=1e-3)

    def test_compare_schemes_runs_all_cases(self):
        base = small_population_scenario(disturbance=[(0.0, 0.0), (10.0, 1.0)], horizon=40.0)
        runs = compare_schemes(base)
        assert set(runs) == {
            "conventional", "deterministic", "randomized", "randomized-high-gain",
        }
        for run in runs.values():
            assert run.metrics.peak_abs_omega > 0
