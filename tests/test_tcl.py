import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tclgrid.tcl import (
    LOAD_FIELDS,
    Population,
    PopulationSpec,
    Scheme,
    TclError,
    duty_cycle,
    flow_target,
    next_thermostat_event,
    on_off_durations,
    period,
    rate_law,
    run_index,
    sample_initial_states,
    sample_population,
    stroke_flow,
    stroke_time,
    zeta,
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

# the head of check_loads' message for a corner of the range box
CORNER = r"^range box corner \d+: "


def bisect_stroke(p: Population, sigma: int, lo: float, hi: float) -> float:
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
            Population(
                d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=5.0,
                omega1=0.1, eps=0.005,
            )

    def test_weak_cooling_rejected(self):
        # ON target above t_lo: ON stroke would never finish
        with pytest.raises(TclError):
            Population(
                d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=1500.0, t_amb=20.0,
                omega1=0.1, eps=0.005,
            )

    def test_eps_wider_than_half_band_rejected(self):
        with pytest.raises(TclError):
            Population(
                d_bar=0.01, t_lo=3.0, t_hi=6.0, k=5e-4, cop=3000.0, t_amb=20.0,
                omega1=0.1, eps=1.6,
            )

    @pytest.mark.parametrize(
        "t_lo, eps",
        # both guards stay on their thresholds; only t_hi - eps does
        [(3.0, 1e-17), (1e-3, 1e-17)],
    )
    def test_eps_leaving_guard_on_threshold_rejected(self, t_lo, eps):
        # eps lies in (0, (t_hi - t_lo)/2), but t_hi - eps rounds to t_hi
        load = dataclasses.replace(REFERENCE, t_lo=t_lo, eps=0.005)
        assert load.t_hi - eps == load.t_hi and eps < (load.t_hi - load.t_lo) / 2
        with pytest.raises(TclError, match="^eps must move the guards"):
            dataclasses.replace(load, eps=eps)
        pop = sample_population(PopulationSpec(5, 0.05, seed=1))
        bad = pop.eps.copy()
        bad[2] = pop.t_hi[2] * 2**-60
        with pytest.raises(TclError, match="^load 2: eps must move the guards"):
            dataclasses.replace(pop, eps=bad)

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
    """Each kernel called on one load returns exactly element j of the
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


    @settings(max_examples=60, deadline=None)
    @given(case=population_states(), k_pi=st.sampled_from([0.0, 5.0, 50.0]))
    def test_rate_law_is_the_two_stroke_form(self, case, k_pi):
        # an ON load's 1 + k_pi*omega/-omega1 is exactly 1 - k_pi*omega/omega1,
        # so the one-level law gives the two-stroke rates bit for bit
        _, soa, _, sigmas, _, omega = case
        scheme = Scheme.randomized(k_pi=k_pi)
        bias = k_pi * omega / soa.omega1
        r_on = (1.0 / soa.pi_off) * np.maximum(0.0, 1.0 + bias)
        r_off = (1.0 / soa.pi_on) * np.maximum(0.0, 1.0 - bias)
        expected = np.minimum(np.where(sigmas == 1, r_off, r_on), 1.0)
        assert np.array_equal(switching_rate(soa, sigmas, omega, scheme), expected)


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
        assert all(flow_target(p, 1) < p.t_lo < p.t_hi < p.t_amb for p in pop)

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

    @pytest.mark.parametrize(
        "ranges, message",
        [
            ({"k": (1e-3, 2e-4)}, r"^range for k is inverted"),
            ({"t_lo": (2.0, 5.0)}, CORNER + r"need t_hi > t_lo > 0"),
            ({"t_lo": (0.0, 4.0)}, CORNER + r"need t_hi > t_lo > 0"),
            ({"t_amb": (7.0, 25.0)}, CORNER + r"cooling device needs t_amb > t_hi"),
            ({"cop_scale": (10.0, 35.0)}, CORNER + r"cooling device needs t_amb - cop\*d_bar"),
            ({"k": (0.0, 1e-3)}, CORNER + r"k must be positive"),
            ({"omega1": (0.0, 0.26)}, CORNER + r"omega1 must be positive"),
            ({"eps": (0.0, 0.01)}, CORNER + r"eps must lie in"),
            ({"eps": (0.001, 0.5)}, CORNER + r"eps must lie in"),
            ({"eps": (1e-17, 2e-17)}, CORNER + r"eps must move the guards"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2**63])
    def test_range_box_rejected_before_any_draw(self, monkeypatch, ranges, message, seed):
        # a rule broken anywhere in the box is broken at one of its corners
        def default_rng(seed):
            raise AssertionError("the population was drawn")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        spec = PopulationSpec(n_loads=5, gamma=0.1, seed=seed, param_ranges=ranges)
        with pytest.raises(TclError, match=message):
            sample_population(spec)

    def test_default_box_and_shipped_scenario_accepted(self, shipped_file):
        shipped = shipped_file.population
        for spec in (PopulationSpec(5, 0.1, seed=1), shipped, dataclasses.replace(shipped, n_loads=8000)):
            assert len(sample_population(spec)) == spec.n_loads

    def test_initial_states_within_band(self):
        pop = sample_population(PopulationSpec(100, 0.5, seed=9))
        temps, sigmas = sample_initial_states(pop, seed=9)
        for p, temp, sig in zip(pop, temps, sigmas):
            assert p.t_lo <= temp <= p.t_hi
            assert sig in (0, 1)

    def test_one_load_is_its_only_load(self):
        # pop[j] has scalar fields and length 1: index 0 and -1 are the load
        # itself, iteration yields it once, and any other index is out of range
        p = sample_population(PopulationSpec(5, 0.2, seed=3))[2]
        assert len(p) == 1 and np.ndim(p.d_bar) == 0
        assert p[0] is p and p[-1] is p and p[np.int64(0)] is p
        assert list(p) == [p]
        for j in (1, -2, 5):
            with pytest.raises(IndexError):
                p[j]

    def test_replaced_threshold_keeps_the_load(self):
        q = dataclasses.replace(Population.of([REFERENCE]), omega1=np.array([0.2]))
        assert same_load(q[0], dataclasses.replace(REFERENCE, omega1=0.2))
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
        # the strokes are the simulator's stroke_time between the thresholds,
        # the values of its float path load by load
        assert got.pi_on.tolist() == [threshold_strokes(p)[0] for p in loads]
        assert got.pi_off.tolist() == [threshold_strokes(p)[1] for p in loads]
        assert all(same_load(a, b) for a, b in zip(got, loads, strict=True))


def reference_population(spec: PopulationSpec) -> tuple[list[Population], Population]:
    """The per-load construction: a one-load Population per load from the
    same draws in the same order, then the population of that list."""
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
        Population(
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


def same_load(a: Population, b: Population) -> bool:
    """Field-by-field equality of two one-load populations (Population is
    compared by identity)."""
    return all(getattr(a, f.name) == getattr(b, f.name) for f in dataclasses.fields(Population))


def threshold_strokes(p: Population) -> tuple[float, float]:
    """stroke_time on the Python floats of a per-load record: ON from t_hi
    down to t_lo toward t_amb - cop * d_bar, OFF from t_lo up to t_hi toward
    t_amb."""
    assert all(type(getattr(p, name)) is float for name in LOAD_FIELDS)
    return (
        stroke_time(p.k, p.t_amb - p.cop * p.d_bar, p.t_hi, p.t_lo),
        stroke_time(p.k, p.t_amb, p.t_lo, p.t_hi),
    )


# finite doubles, signed zeros, infinities, NaN and magnitudes whose products
# overflow
LAW_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, 1.0]),
)


def law_columns(n_args: int, divisors: tuple[int, ...] = ()):
    """n_args equal-length lists of LAW_FLOATS; the args named by divisors
    are nonzero, since a Python float divided by zero raises where numpy
    gives inf or NaN (check_loads keeps every divisor of a run nonzero)."""
    columns = [
        st.lists(LAW_FLOATS.filter(bool) if i in divisors else LAW_FLOATS, min_size=1, max_size=6)
        for i in range(n_args)
    ]
    return st.tuples(*columns).map(lambda cols: [c[: min(map(len, cols))] for c in cols])


def same_bits(a, b) -> bool:
    """Equal bits, or both NaN: which NaN an invalid operation gives follows
    the operand order of the machine loop."""
    a, b = np.float64(a), np.float64(b)
    return a.tobytes() == b.tobytes() or (np.isnan(a) and np.isnan(b))


class TestLawsOnFloats:
    """On Python floats each stroke and rate law clamps with max and min and
    takes np.log or np.exp of a float: element by element the bits of its
    array path."""

    @settings(max_examples=300, deadline=None)
    @given(cols=law_columns(4))
    def test_stroke_flow(self, cols):
        with np.errstate(all="ignore"):
            arr = stroke_flow(*map(np.array, cols))
            for i, args in enumerate(zip(*cols)):
                assert same_bits(stroke_flow(*args), arr[i]), args

    @settings(max_examples=300, deadline=None)
    @given(cols=law_columns(4))
    def test_stroke_time(self, cols):
        k, target, temp, level = cols
        assume(all(lv - tg != 0 for lv, tg in zip(level, target)))
        with np.errstate(all="ignore"):
            arr = stroke_time(*map(np.array, cols))
            for i, args in enumerate(zip(*cols)):
                assert same_bits(stroke_time(*args), arr[i]), args

    @settings(max_examples=300, deadline=None)
    @given(cols=law_columns(3, divisors=(1,)), k_pi=LAW_FLOATS)
    def test_rate_law(self, cols, k_pi):
        base, level, omega = cols
        with np.errstate(all="ignore"):
            arr = rate_law(np.array(base), np.array(level), k_pi, np.array(omega))
            for i, (b, lv, w) in enumerate(zip(base, level, omega)):
                assert same_bits(rate_law(b, lv, k_pi, w), arr[i]), (b, lv, k_pi, w)


@st.composite
def loads_and_levels(draw):
    """One sampled load, a switch state, a temperature in its band and a level
    strictly between that temperature and the flow target."""
    p = sample_population(PopulationSpec(1, 0.01, seed=draw(st.integers(0, 2**32 - 1))))[0]
    sigma = draw(st.sampled_from([0, 1]))
    temp = p.t_lo + (p.t_hi - p.t_lo) * draw(st.floats(0.0, 1.0))
    target = p.t_amb - sigma * p.cop * p.d_bar
    level = temp + (target - temp) * draw(st.floats(1e-6, 0.999))
    return p, sigma, temp, level


class TestTimeToLevel:
    @settings(max_examples=200, deadline=None)
    @given(case=loads_and_levels())
    def test_flow_lands_on_level(self, case):
        p, sigma, temp, level = case
        landed = temp_flow(p, temp, sigma, time_to_level(p, temp, sigma, level))
        assert landed == pytest.approx(level, rel=1e-9, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(case=loads_and_levels(), back=st.floats(0.0, 5.0))
    def test_zero_at_or_past_level(self, case, back):
        # a level the flow has already reached lies on the side of the
        # temperature away from the target (or at the temperature itself)
        p, sigma, temp, _ = case
        direction = -1.0 if sigma else 1.0
        assert time_to_level(p, temp, sigma, temp) == 0.0
        assert time_to_level(p, temp, sigma, temp - direction * back) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(case=population_states())
    def test_thermostat_time_is_the_threshold_case(self, case):
        _, soa, temps, sigmas, _, _ = case
        threshold = np.where(sigmas == 1, soa.t_lo, soa.t_hi)
        np.testing.assert_array_equal(
            next_thermostat_event(soa, temps, sigmas), time_to_level(soa, temps, sigmas, threshold)
        )

    @settings(max_examples=200, deadline=None)
    @given(case=loads_and_levels())
    def test_trigger_levels_change_at_guard_time(self, case):
        # a load whose frequency branch is still guarded gets its trigger
        # level just after the time to its guard, not just before
        p, sigma, temp, _ = case
        guard = p.t_lo + p.eps if sigma == 0 else p.t_hi - p.eps
        wait = time_to_level(p, temp, sigma, guard)
        assume(wait > 0.01)  # 1e-9 of it moves the temperature by many ulps
        # on_at for an OFF load, off_at for an ON load
        closed = np.inf if sigma == 0 else -np.inf
        level = p.omega1 if sigma == 0 else -p.omega1
        before = trigger_levels(p, temp_flow(p, temp, sigma, wait * (1 - 1e-9)), DETERMINISTIC)
        after = trigger_levels(p, temp_flow(p, temp, sigma, wait * (1 + 1e-9)), DETERMINISTIC)
        assert before[sigma] == closed
        assert after[sigma] == level


class TestRunIndex:
    @pytest.mark.parametrize("last", [False, True])
    def test_empty_single_and_all_tied(self, last):
        assert run_index(np.array([]), last).tolist() == []
        assert run_index(np.array([2.5]), last).tolist() == [0]
        assert run_index(np.full(5, 7), last).tolist() == [4 if last else 0]

    @given(st.lists(st.integers(-3, 3), max_size=30), st.booleans())
    def test_matches_unique_on_sorted_input(self, values, last):
        a = np.sort(np.array(values, dtype=np.int64))
        idx = run_index(a, last)
        # np.unique gives the first index of each value; the last follows
        # from the counts
        _, first, counts = np.unique(a, return_index=True, return_counts=True)
        assert idx.tolist() == (first + counts - 1 if last else first).tolist()
