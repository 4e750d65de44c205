import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tclgrid.tcl import (
    LOAD_FIELDS,
    Population,
    PopulationSpec,
    Scheme,
    TclError,
    TclParams,
    check_period_distinctness,
    duty_cycle,
    jump_target,
    next_thermostat_event,
    on_off_durations,
    period,
    sample_initial_states,
    sample_population,
    switching_rate,
    temp_flow,
    trigger_levels,
    zeta,
)

REFERENCE = TclParams(
    d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=20.0,
    omega1=0.1, eps=0.005,
)


def brute_force_distinctness(pop, rel_tol, max_den):
    """Every pair i < j, with the smallest-denominator p/q near its ratio."""
    periods = [period(p) for p in pop]
    flagged = []
    for i in range(len(pop)):
        for j in range(i + 1, len(pop)):
            rho = periods[i] / periods[j]
            best = None
            for q in range(1, max_den + 1):
                p = round(rho * q)
                if 1 <= p <= max_den and abs(rho - p / q) <= rel_tol * (p / q):
                    if best is None or Fraction(p, q).denominator < best.denominator:
                        best = Fraction(p, q)
            if best is not None:
                flagged.append((i, j, rho, best))
    return flagged


@st.composite
def planted_periods(draw):
    """A sampled population plus copies of some of its loads whose periods sit
    at a planted rational ratio, on, inside, just inside or just outside the
    rel_tol band."""
    rel_tol = draw(st.sampled_from([1e-6, 1e-3]))
    max_den = draw(st.sampled_from([3, 10]))
    pop = list(sample_population(
        PopulationSpec(draw(st.integers(2, 8)), 0.1, seed=draw(st.integers(0, 2**32 - 1)))
    ))
    offsets = st.one_of(
        st.sampled_from([0.0, 1.0, -1.0, 1 - 1e-9, -1 + 1e-9, 1 + 1e-9, -1 - 1e-9]),
        st.floats(-2.0, 2.0),
    )
    for _ in range(draw(st.integers(0, 6))):
        base = pop[draw(st.integers(0, len(pop) - 1))]
        ratio = draw(st.integers(1, max_den)) / draw(st.integers(1, max_den))
        # k scales the period by 1/k, so this period is base's over ratio
        scale = ratio * (1.0 + draw(offsets) * rel_tol)
        pop.append(dataclasses.replace(base, k=base.k * scale))
    return pop, rel_tol, max_den


def bisect_stroke(p: TclParams, sigma: int, lo: float, hi: float) -> float:
    """Stroke duration by bisection on the exact flow, no logarithms."""
    start = p.t_hi if sigma else p.t_lo
    threshold = p.t_lo if sigma else p.t_hi
    t_a, t_b = 0.0, hi
    # ensure the bracket contains the crossing
    while (temp_flow(p, start, sigma, t_b) - threshold) * (start - threshold) > 0:
        t_b *= 2.0
    for _ in range(200):
        mid = 0.5 * (t_a + t_b)
        reached = (temp_flow(p, start, sigma, mid) - threshold) * (start - threshold)
        if reached > 0:
            t_a = mid
        else:
            t_b = mid
    return 0.5 * (t_a + t_b)


class TestClosedForms:
    def test_reference_strokes(self):
        pi_on, pi_off = on_off_durations(REFERENCE)
        # ON target is 20 - 30 = -10: ln((6+10)/(3+10))/k ; OFF: ln(17/14)/k
        assert pi_on == pytest.approx(math.log(16 / 13) / 5e-4, rel=1e-14)
        assert pi_off == pytest.approx(math.log(17 / 14) / 5e-4, rel=1e-14)
        assert duty_cycle(REFERENCE) == pytest.approx(pi_on / (pi_on + pi_off))

    def test_strokes_match_bisection(self):
        pi_on, pi_off = on_off_durations(REFERENCE)
        assert pi_on == pytest.approx(bisect_stroke(REFERENCE, 1, 0, 1e4), rel=1e-9)
        assert pi_off == pytest.approx(bisect_stroke(REFERENCE, 0, 0, 1e4), rel=1e-9)

    def test_flow_lands_exactly_on_threshold(self):
        pi_on, pi_off = on_off_durations(REFERENCE)
        assert temp_flow(REFERENCE, REFERENCE.t_hi, 1, pi_on) == pytest.approx(
            REFERENCE.t_lo, abs=1e-12
        )
        assert temp_flow(REFERENCE, REFERENCE.t_lo, 0, pi_off) == pytest.approx(
            REFERENCE.t_hi, abs=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(
        temp=st.floats(3.0, 6.0),
        sigma=st.sampled_from([0, 1]),
        dt1=st.floats(0.0, 2000.0),
        dt2=st.floats(0.0, 2000.0),
    )
    def test_flow_semigroup(self, temp, sigma, dt1, dt2):
        direct = temp_flow(REFERENCE, temp, sigma, dt1 + dt2)
        chained = temp_flow(REFERENCE, temp_flow(REFERENCE, temp, sigma, dt1), sigma, dt2)
        assert direct == pytest.approx(chained, rel=1e-12, abs=1e-12)

    def test_next_event_inverts_flow(self):
        for temp, sigma in [(5.2, 1), (4.1, 0), (6.0, 1), (3.0, 0)]:
            dt = next_thermostat_event(REFERENCE, temp, sigma)
            landed = temp_flow(REFERENCE, temp, sigma, dt)
            threshold = REFERENCE.t_lo if sigma else REFERENCE.t_hi
            assert landed == pytest.approx(threshold, abs=1e-12)

    def test_next_event_zero_at_or_past_threshold(self):
        assert next_thermostat_event(REFERENCE, 3.0, 1) == 0.0
        assert next_thermostat_event(REFERENCE, 2.5, 1) == 0.0
        assert next_thermostat_event(REFERENCE, 6.0, 0) == 0.0
        assert next_thermostat_event(REFERENCE, 6.5, 0) == 0.0


class TestValidation:
    def test_heating_configuration_rejected(self):
        with pytest.raises(TclError):
            TclParams(
                d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=5.0,
                omega1=0.1, eps=0.005,
            )

    def test_weak_cooling_rejected(self):
        # ON target above t_lo: ON stroke would never finish
        with pytest.raises(TclError):
            TclParams(
                d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=1500.0, t_amb=20.0,
                omega1=0.1, eps=0.005,
            )

    def test_eps_wider_than_half_band_rejected(self):
        with pytest.raises(TclError):
            TclParams(
                d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=20.0,
                omega1=0.1, eps=1.6,
            )

    def test_scheme_kind_validated(self):
        with pytest.raises(TclError):
            Scheme("thermostatic")

    @pytest.mark.parametrize("name", LOAD_FIELDS)
    def test_nan_field_rejected(self, name):
        # the error reports the offending load's fields
        with pytest.raises(TclError, match=f"{name}=nan"):
            dataclasses.replace(REFERENCE, **{name: math.nan})
        pop = sample_population(PopulationSpec(5, 0.05, seed=1))
        bad = getattr(pop, name).copy()
        bad[3] = math.nan
        with pytest.raises(TclError, match=f"^load 3: .*{name}=nan"):
            dataclasses.replace(pop, **{name: bad})

    @pytest.mark.parametrize("field", ["k_pi", "v_des"])
    def test_nan_scheme_gain_rejected(self, field):
        with pytest.raises(TclError, match=field):
            Scheme("randomized", **{field: math.nan})


DETERMINISTIC = Scheme.deterministic()
CONVENTIONAL = Scheme.conventional()
RANDOMIZED = Scheme.randomized()


class TestSwitchingLogic:
    def test_thermostat_limits_dominate_frequency(self):
        p = REFERENCE
        # at the upper threshold the load turns ON even under high frequency
        assert jump_target(p, p.t_hi, 0, -0.5, DETERMINISTIC) == 1
        # at the lower threshold it turns OFF even under low frequency
        assert jump_target(p, p.t_lo, 1, 0.5, DETERMINISTIC) == 0

    def test_frequency_branches(self):
        p = REFERENCE
        mid = 4.5
        assert jump_target(p, mid, 0, p.omega1, DETERMINISTIC) == 1
        assert jump_target(p, mid, 1, -p.omega1, DETERMINISTIC) == 0
        # below-threshold deviation leaves the state alone
        assert jump_target(p, mid, 0, p.omega1 / 2, DETERMINISTIC) == 0
        assert jump_target(p, mid, 1, -p.omega1 / 2, DETERMINISTIC) == 1

    def test_eps_guard_blocks_frequency_switch_near_thresholds(self):
        p = REFERENCE
        just_above_lo = p.t_lo + p.eps / 2
        just_below_hi = p.t_hi - p.eps / 2
        assert jump_target(p, just_above_lo, 0, 0.5, DETERMINISTIC) == 0
        assert jump_target(p, just_below_hi, 1, -0.5, DETERMINISTIC) == 1

    def test_reduces_to_conventional_at_zero_frequency(self):
        p = REFERENCE
        for temp in np.linspace(2.5, 6.5, 41):
            for sigma in (0, 1):
                assert jump_target(p, temp, sigma, 0.0, DETERMINISTIC) == (
                    jump_target(p, temp, sigma, 0.0, CONVENTIONAL)
                )

    def test_randomized_rates_baseline_and_feedback(self):
        p = REFERENCE
        scheme = Scheme.randomized(k_pi=5.0, v_des=1.0)
        pi_on, pi_off = on_off_durations(p)
        # an OFF load runs at the ON-rate, an ON load at the OFF-rate
        r_on, r_off = switching_rate(p, 0, 0.0, scheme), switching_rate(p, 1, 0.0, scheme)
        assert r_on == pytest.approx(1.0 / pi_off)
        assert r_off == pytest.approx(1.0 / pi_on)
        # under-frequency shuts the ON-rate down and boosts the OFF-rate
        r_on2 = switching_rate(p, 0, -p.omega1, scheme)
        r_off2 = switching_rate(p, 1, -p.omega1, scheme)
        assert r_on2 == 0.0 or r_on2 < r_on
        assert r_off2 > r_off

    def test_randomized_rates_clamped(self):
        scheme = Scheme.randomized(k_pi=50.0, v_des=1.0)
        r_on = switching_rate(REFERENCE, 0, 10.0, scheme)
        r_off = switching_rate(REFERENCE, 1, 10.0, scheme)
        assert 0.0 <= r_on <= 1.0 and 0.0 <= r_off <= 1.0

    def test_switch_decision_randomized_hard_limits(self):
        # a clock fired at t_hi: the thermostat limit decides, the OFF load
        # turns ON rather than being toggled by the clock
        fired = np.array(True)
        out = jump_target(REFERENCE, REFERENCE.t_hi, 0, 0.0, RANDOMIZED, fired)
        assert out == 1

    def test_fired_clock_toggles_mid_band(self):
        fired = np.array(True)
        assert jump_target(REFERENCE, 4.5, 0, 0.0, RANDOMIZED, fired) == 1
        assert jump_target(REFERENCE, 4.5, 1, 0.0, RANDOMIZED, fired) == 0
        assert jump_target(REFERENCE, 4.5, 1, 0.0, RANDOMIZED) == 1


@st.composite
def population_states(draw):
    """A sampled population with states around and beyond each thermostat band."""
    n = draw(st.integers(1, 40))
    soa = sample_population(PopulationSpec(n, gamma=0.2, seed=draw(st.integers(0, 2**31))))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    band = soa.t_hi - soa.t_lo
    temps = rng.uniform(soa.t_lo - 0.1 * band, soa.t_hi + 0.1 * band)
    # put some loads exactly on a threshold or an eps guard
    edges = np.stack([soa.t_lo, soa.t_hi, soa.t_lo + soa.eps, soa.t_hi - soa.eps])
    on_edge = rng.random(n) < 0.3
    temps[on_edge] = edges[rng.integers(0, 4, n), np.arange(n)][on_edge]
    sigmas = rng.integers(0, 2, n).astype(np.int8)
    fired = rng.random(n) < 0.5
    omega = draw(st.one_of(
        st.floats(-0.4, 0.4),
        st.sampled_from([float(w) for w in soa.omega1] + [float(-w) for w in soa.omega1]),
    ))
    return list(soa), soa, temps, sigmas, fired, omega


class TestKernelScalarArrayAgreement:
    """Each kernel called on one TclParams returns exactly element j of the
    same kernel called on the whole Population."""

    @settings(max_examples=60, deadline=None)
    @given(case=population_states(), dt=st.floats(0.0, 5000.0))
    def test_kernels_agree_elementwise(self, case, dt):
        pop, soa, temps, sigmas, fired, omega = case
        schemes = [CONVENTIONAL, DETERMINISTIC, RANDOMIZED, Scheme.randomized_high_gain()]
        targets = {
            (s, f is None): jump_target(soa, temps, sigmas, omega, s, f)
            for s in schemes for f in (None, fired)
        }
        rates = {s: switching_rate(soa, sigmas, omega, s) for s in schemes}
        levels = {s: trigger_levels(soa, temps, s) for s in schemes}
        flows = temp_flow(soa, temps, sigmas, dt)
        events = next_thermostat_event(soa, temps, sigmas)
        for j, p in enumerate(pop):
            temp, sig = float(temps[j]), int(sigmas[j])
            for (s, no_clock), arr in targets.items():
                f = None if no_clock else np.bool_(fired[j])
                assert jump_target(p, temp, sig, omega, s, f) == arr[j]
            for s, arr in rates.items():
                assert switching_rate(p, sig, omega, s) == arr[j]
            for s, arr in levels.items():
                on_at, off_at = np.broadcast_arrays(*arr, temps)[:2]
                assert trigger_levels(p, temp, s) == (on_at[j], off_at[j])
            assert temp_flow(p, temp, sig, dt) == flows[j]
            assert next_thermostat_event(p, temp, sig) == events[j]
            assert (duty_cycle(p), zeta(p)) == (soa.alpha[j], soa.zeta[j])
            assert (p.pi_on, p.pi_off) == (soa.pi_on[j], soa.pi_off[j])


class TestPopulationSampling:
    def test_deterministic_in_seed(self):
        spec = PopulationSpec(n_loads=20, gamma=0.1, seed=42)
        a, b = sample_population(spec), sample_population(spec)
        for f in dataclasses.fields(Population):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_equal_magnitudes_and_valid_params(self):
        spec = PopulationSpec(n_loads=50, gamma=0.25, seed=3)
        pop = sample_population(spec)
        assert len(pop) == 50
        assert all(p.d_bar == pytest.approx(0.005) for p in pop)
        # every sampled load satisfies the invariants by construction
        assert all(p.target_on < p.t_lo < p.t_hi < p.t_amb for p in pop)

    def test_different_seeds_differ(self):
        a = sample_population(PopulationSpec(5, 0.1, seed=1))
        b = sample_population(PopulationSpec(5, 0.1, seed=2))
        # every drawn field differs; d_bar is gamma/n_loads for both
        for name in ("t_lo", "t_hi", "k", "cop", "t_amb", "omega1", "eps"):
            assert not np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_infeasible_range_box_rejected(self):
        spec = PopulationSpec(
            n_loads=5, gamma=0.1, seed=1,
            param_ranges={"cop_scale": (1.0, 2.0)},
        )
        with pytest.raises(TclError):
            sample_population(spec)

    def test_initial_states_within_band(self):
        pop = sample_population(PopulationSpec(100, 0.5, seed=9))
        temps, sigmas = sample_initial_states(pop, seed=9)
        for p, temp, sig in zip(pop, temps, sigmas):
            assert p.t_lo <= temp <= p.t_hi
            assert sig in (0, 1)

    def test_period_distinctness_on_sampled_population(self):
        pop = sample_population(PopulationSpec(40, 0.2, seed=5))
        report = check_period_distinctness(pop)
        assert report.ok

    def test_distinctness_flags_identical_periods(self):
        p = REFERENCE
        report = check_period_distinctness(Population.of([p, p]))
        assert not report.ok
        (i, j, rho, frac) = report.flagged[0]
        assert (i, j) == (0, 1)
        assert rho == pytest.approx(1.0)
        assert frac == 1

    @settings(max_examples=60, deadline=None)
    @given(case=planted_periods())
    def test_distinctness_matches_brute_force_pair_loop(self, case):
        pop, rel_tol, max_den = case
        expected = brute_force_distinctness(pop, rel_tol, max_den)
        assert check_period_distinctness(Population.of(pop), rel_tol, max_den).flagged == expected

    def test_replaced_threshold_keeps_the_load(self):
        q = dataclasses.replace(Population.of([REFERENCE]), omega1=np.array([0.2]))
        assert q[0] == dataclasses.replace(REFERENCE, omega1=0.2)
        assert period(q)[0] == period(REFERENCE)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2000),
        gamma=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**64 - 1),
        omega1=st.sampled_from([None, (0.05, 0.06), (0.2, 0.2)]),
    )
    def test_matches_per_load_reference(self, n, gamma, seed, omega1):
        spec = PopulationSpec(n, gamma, seed, None if omega1 is None else {"omega1": omega1})
        got = sample_population(spec)
        loads, want = reference_population(spec)
        for f in dataclasses.fields(Population):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
        # the strokes are the per-load math.log values, not np.log ones
        assert got.pi_on.tolist() == [math_log_strokes(p)[0] for p in loads]
        assert got.pi_off.tolist() == [math_log_strokes(p)[1] for p in loads]
        assert list(got) == loads


def reference_population(spec: PopulationSpec) -> tuple[list[TclParams], Population]:
    """The per-load construction: one TclParams per load from the same draws
    in the same order, then the population of that list."""
    ranges = spec.ranges()
    rng = np.random.default_rng(spec.seed)
    n = spec.n_loads
    t_amb = rng.uniform(*ranges["t_amb"], size=n)
    t_hi = rng.uniform(*ranges["t_hi"], size=n)
    t_lo = rng.uniform(*ranges["t_lo"], size=n)
    k = rng.uniform(*ranges["k"], size=n)
    cop_scale = rng.uniform(*ranges["cop_scale"], size=n)
    omega1 = rng.uniform(*ranges["omega1"], size=n)
    eps = rng.uniform(*ranges["eps"], size=n)
    d_bar = spec.gamma / n
    loads = [
        TclParams(
            d_bar=d_bar,
            t_lo=float(t_lo[i]),
            t_hi=float(t_hi[i]),
            k=float(k[i]),
            cop=float(cop_scale[i]) / d_bar,
            t_amb=float(t_amb[i]),
            omega1=float(omega1[i]),
            eps=float(eps[i]),
        )
        for i in range(n)
    ]
    return loads, Population.of(loads)


def math_log_strokes(p: TclParams) -> tuple[float, float]:
    target = p.t_amb - p.cop * p.d_bar
    return (
        math.log((p.t_hi - target) / (p.t_lo - target)) / p.k,
        math.log((p.t_amb - p.t_lo) / (p.t_amb - p.t_hi)) / p.k,
    )
