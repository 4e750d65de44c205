"""Per-load TCL physics: parameters, closed-form temperature flows, switching
logic, natural periods and duty cycles.

`Population` is the population type: sampling draws straight into it, and
the design, simulator and statistics code take and return it. `TclParams` is
one load, as `Population[j]` returns it. Every per-load law, the validity
checks and the stroke formulas included, is written once over attribute
access and NumPy operations, so it takes either one `TclParams` with scalar
state or a `Population` (same field names) with array state.

Cooling devices only: the ON target temperature t_amb - cop * d_bar lies below
the lower threshold and the ambient lies above the upper threshold, so the
hysteresis loop has no equilibrium and both strokes complete in finite time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np


class TclError(ValueError):
    pass


# Table-style default sampling ranges (degrees C, 1/s, Hz).
DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "t_amb": (15.0, 25.0),
    "t_hi": (5.0, 7.0),
    "t_lo": (2.0, 4.0),
    "k": (2e-4, 1e-3),
    "cop_scale": (25.0, 35.0),  # cop = cop_scale / d_bar
    "omega1": (0.01, 0.26),
    "eps": (0.001, 0.01),
}


@dataclass(frozen=True)
class TclParams:
    """One load: the record that `Population[j]` returns."""

    d_bar: float    # load magnitude, pu
    t_lo: float     # lower temperature threshold, C
    t_hi: float     # upper temperature threshold, C
    k: float        # thermal insulation coefficient, 1/s
    cop: float      # coefficient of performance, C per pu
    t_amb: float    # ambient temperature, C
    omega1: float   # frequency threshold, Hz
    eps: float      # temperature deadband guarding frequency switches, C

    def __post_init__(self):
        check_loads(self)

    @property
    def target_on(self) -> float:
        return _flow_target(self, 1)

    @property
    def pi_on(self) -> float:
        return on_off_durations(self)[0]

    @property
    def pi_off(self) -> float:
        return on_off_durations(self)[1]


LOAD_FIELDS = [f.name for f in fields(TclParams)]


@dataclass(frozen=True, eq=False)
class Population:
    """The population type: one array per TclParams field, plus the strokes,
    duty cycles and worst-case responsive fractions, derived once. `pop[j]`
    is load j as a TclParams."""

    d_bar: np.ndarray
    t_lo: np.ndarray
    t_hi: np.ndarray
    k: np.ndarray
    cop: np.ndarray
    t_amb: np.ndarray
    omega1: np.ndarray
    eps: np.ndarray
    pi_on: np.ndarray = field(init=False)
    pi_off: np.ndarray = field(init=False)
    alpha: np.ndarray = field(init=False)
    zeta: np.ndarray = field(init=False)

    def __post_init__(self):
        check_loads(self)
        for name, value in zip(("pi_on", "pi_off"), on_off_durations(self)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "alpha", duty_cycle(self))
        object.__setattr__(self, "zeta", zeta(self))

    @classmethod
    def of(cls, loads: list[TclParams]) -> Population:
        """The population of a list of single loads."""
        return cls(**{name: np.array([getattr(p, name) for p in loads]) for name in LOAD_FIELDS})

    def take(self, index) -> Population:
        """The sub-population of the loads selected by an index array; its
        loads are already checked and their derived fields are sliced."""
        sub = object.__new__(Population)
        for f in fields(self):
            object.__setattr__(sub, f.name, getattr(self, f.name)[index])
        return sub

    def __getitem__(self, j: int) -> TclParams:
        return TclParams(**{name: float(getattr(self, name)[j]) for name in LOAD_FIELDS})

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __len__(self) -> int:
        return self.d_bar.size


def check_loads(p: TclParams | Population) -> None:
    """Raise TclError unless every load is a cooling device with positive
    parameters. Each rule states what must hold, so a NaN breaks it."""
    with np.errstate(invalid="ignore", over="ignore"):
        half_band = (p.t_hi - p.t_lo) / 2
        rules = [
            (p.d_bar > 0, "d_bar must be positive"),
            ((p.t_hi > p.t_lo) & (p.t_lo > 0), "need t_hi > t_lo > 0"),
            (p.k > 0, "k must be positive"),
            (p.cop > 0, "cop must be positive"),
            (p.t_amb > p.t_hi, "cooling device needs t_amb > t_hi"),
            (_flow_target(p, 1) < p.t_lo, "cooling device needs t_amb - cop*d_bar < t_lo"),
            (p.omega1 > 0, "omega1 must be positive"),
            ((p.eps > 0) & (p.eps < half_band), "eps must lie in (0, (t_hi - t_lo)/2)"),
        ]
    if np.all([holds for holds, _ in rules]):
        return
    for holds, message in rules:
        bad = np.flatnonzero(np.logical_not(holds))
        if bad.size:
            j = bad[0]
            load = ", ".join(f"{n}={float(np.ravel(getattr(p, n))[j])}" for n in LOAD_FIELDS)
            raise TclError(f"{f'load {j}: ' if np.ndim(p.d_bar) else ''}{message} ({load})")


@dataclass(frozen=True)
class PopulationSpec:
    n_loads: int
    gamma: float  # aggregate magnitude, pu; every d_bar = gamma / n_loads
    seed: int
    param_ranges: dict[str, tuple[float, float]] | None = None

    def ranges(self) -> dict[str, tuple[float, float]]:
        out = dict(DEFAULT_RANGES)
        if self.param_ranges:
            out.update(self.param_ranges)
        return out


@dataclass(frozen=True)
class Scheme:
    """Load-side control variant.

    kind is one of 'conventional', 'deterministic', 'randomized'. The two
    randomized comparison cases differ only in the feedback gain k_pi.
    """

    kind: str
    k_pi: float = 0.0
    v_des: float = 1.0

    def __post_init__(self):
        if self.kind not in ("conventional", "deterministic", "randomized"):
            raise TclError(f"unknown scheme kind {self.kind!r}")
        if not (self.k_pi >= 0):
            raise TclError(f"k_pi must be nonnegative, got {self.k_pi}")
        if not (self.v_des > 0):
            raise TclError(f"v_des must be positive, got {self.v_des}")

    @staticmethod
    def conventional() -> "Scheme":
        return Scheme("conventional")

    @staticmethod
    def deterministic() -> "Scheme":
        return Scheme("deterministic")

    @staticmethod
    def randomized(k_pi: float = 5.0, v_des: float = 1.0) -> "Scheme":
        return Scheme("randomized", k_pi=k_pi, v_des=v_des)

    @staticmethod
    def randomized_high_gain(k_pi: float = 50.0, v_des: float = 1.0) -> "Scheme":
        return Scheme("randomized", k_pi=k_pi, v_des=v_des)


def on_off_durations(p: TclParams | Population) -> tuple[float, float]:
    """Closed-form ON and OFF stroke durations of the free-running load. The
    logarithm is math.log, elementwise on arrays: np.log differs from it in
    the last bit on some inputs."""
    target = _flow_target(p, 1)
    ratios = ((p.t_hi - target) / (p.t_lo - target), (p.t_amb - p.t_lo) / (p.t_amb - p.t_hi))
    if np.ndim(p.k) == 0:
        return tuple(math.log(r) / p.k for r in ratios)
    return tuple(np.array([math.log(v) for v in r.tolist()]) / p.k for r in ratios)


def period(p: TclParams | Population) -> float:
    return p.pi_on + p.pi_off


def duty_cycle(p: TclParams | Population) -> float:
    return p.pi_on / (p.pi_on + p.pi_off)


def zeta(p: TclParams | Population) -> float:
    """Worst-case responsive fraction max(alpha, 1 - alpha) of a load."""
    alpha = duty_cycle(p)
    return np.maximum(alpha, 1.0 - alpha)


def _flow_target(p: TclParams | Population, sigma):
    """Temperature the held flow approaches: target_on when ON, t_amb when OFF."""
    return p.t_amb - sigma * p.cop * p.d_bar


def temp_flow(p: TclParams | Population, temperature, sigma, dt: float):
    """Exact temperature after flowing dt seconds with the switch held."""
    if dt < 0:
        raise TclError(f"dt must be nonnegative, got {dt}")
    target = _flow_target(p, sigma)
    return target + (temperature - target) * np.exp(-p.k * dt)


def next_thermostat_event(p: TclParams | Population, temperature, sigma):
    """Time until the held flow reaches the active thermostat threshold
    (t_lo when ON, t_hi when OFF). Zero when already at or past it."""
    target = _flow_target(p, sigma)
    threshold = np.where(sigma == 1, p.t_lo, p.t_hi)
    ratio = (temperature - target) / (threshold - target)
    with np.errstate(invalid="ignore", divide="ignore"):
        tt = np.log(ratio) / p.k
    return np.where(ratio <= 1.0, 0.0, tt)[()]


def switching_rate(p: TclParams | Population, sigma, omega: float, scheme: Scheme):
    """Active rate of the randomized scheme: the ON-rate for OFF loads, the
    OFF-rate for ON loads.

    Baseline rates v_des/pi_off and v_des/pi_on reproduce the natural duty
    cycle in expectation at omega = 0; frequency feedback scales them
    linearly in omega/omega1. Rates are clamped to [0, 1] per second to
    prevent chatter at extreme gains.
    """
    bias = scheme.k_pi * omega / p.omega1
    r_on = (scheme.v_des / p.pi_off) * np.maximum(0.0, 1.0 + bias)
    r_off = (scheme.v_des / p.pi_on) * np.maximum(0.0, 1.0 - bias)
    return np.minimum(np.where(sigma == 1, r_off, r_on), 1.0)[()]


def trigger_levels(p: TclParams | Population, temperature, scheme: Scheme):
    """Frequency levels (on_at, off_at) of the frequency branches at a
    temperature: the branch switches a load ON when omega >= on_at and OFF
    when omega <= off_at.

    The deterministic scheme triggers at +-omega1 behind an eps temperature
    guard, so a frequency-triggered switch never lands at a thermostat
    boundary. A level is +-inf where the guard blocks the branch, and both are
    the scalars +-inf when the scheme has no frequency branch; no finite
    omega reaches them.
    """
    if scheme.kind != "deterministic":
        return np.inf, -np.inf
    on_at = np.where(temperature >= p.t_lo + p.eps, p.omega1, np.inf)
    off_at = np.where(temperature <= p.t_hi - p.eps, -p.omega1, -np.inf)
    return on_at[()], off_at[()]


def jump_target(
    p: TclParams | Population,
    temperature,
    sigma,
    omega: float,
    scheme: Scheme,
    fired=None,
):
    """Post-jump switch state under the given scheme; equal to sigma where no
    jump is enabled.

    Thermostat hard limits dominate the frequency branches (trigger_levels).
    A fired randomized clock toggles a load unless a thermostat limit already
    decides it.
    """
    on_at, off_at = trigger_levels(p, temperature, scheme)
    target = np.where(omega >= on_at, 1, sigma)
    target = np.where(omega <= off_at, 0, target)
    target = np.where(temperature >= p.t_hi, 1, target)
    target = np.where(temperature <= p.t_lo, 0, target)
    if fired is not None:
        target = np.where(fired & (target == sigma), 1 - sigma, target)
    return target.astype(np.int8)[()]


def sample_population(spec: PopulationSpec) -> Population:
    """Draw a population with equal magnitudes gamma/n_loads and the other
    fields i.i.d. uniform over the range box. Deterministic in the seed."""
    if spec.n_loads < 1:
        raise TclError(f"n_loads must be positive, got {spec.n_loads}")
    if not (spec.gamma > 0):
        raise TclError(f"gamma must be positive, got {spec.gamma}")
    ranges = spec.ranges()
    _check_range_box(ranges)
    d_bar = spec.gamma / spec.n_loads
    rng = np.random.default_rng(spec.seed)
    draws = {
        name: rng.uniform(*ranges[name], size=spec.n_loads)
        for name in ("t_amb", "t_hi", "t_lo", "k", "cop_scale", "omega1", "eps")
    }
    cop = draws.pop("cop_scale") / d_bar
    return Population(d_bar=np.full(spec.n_loads, d_bar), cop=cop, **draws)


def _check_range_box(ranges: dict[str, tuple[float, float]]) -> None:
    for name, (lo, hi) in ranges.items():
        if not (lo <= hi):
            raise TclError(f"range for {name} is inverted: ({lo}, {hi})")
    if ranges["t_lo"][1] >= ranges["t_hi"][0]:
        raise TclError("t_lo range must lie strictly below t_hi range")
    if ranges["t_lo"][0] <= 0:
        raise TclError("t_lo must be positive")
    if ranges["t_amb"][0] <= ranges["t_hi"][1]:
        raise TclError("t_amb range must lie strictly above t_hi range")
    # cop * d_bar = cop_scale, so feasibility of the ON target is range-wise:
    if ranges["t_amb"][1] - ranges["cop_scale"][0] >= ranges["t_lo"][0]:
        raise TclError("cop_scale range too weak: ON target may not undercut t_lo")
    if ranges["k"][0] <= 0:
        raise TclError("k must be positive")
    if ranges["omega1"][0] <= 0:
        raise TclError("omega1 must be positive")
    eps_hi = ranges["eps"][1]
    half_band = (ranges["t_hi"][0] - ranges["t_lo"][1]) / 2
    if not (0 < ranges["eps"][0] and eps_hi < half_band):
        raise TclError(f"eps range must lie in (0, {half_band})")


def sample_initial_states(pop: Population, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Temperatures uniform in [t_lo, t_hi], switch states Bernoulli(alpha)."""
    rng = np.random.default_rng(seed)
    temps = rng.uniform(pop.t_lo, pop.t_hi)
    sigmas = (rng.random(len(pop)) < pop.alpha).astype(np.int8)
    return temps, sigmas


@dataclass(frozen=True)
class DistinctnessReport:
    flagged: list[tuple[int, int, float, Fraction]]  # (i, j, ratio, nearby p/q)

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_period_distinctness(
    pop: Population, rel_tol: float = 1e-6, max_den: int = 10
) -> DistinctnessReport:
    """Proxy for the irrational-period-ratio assumption: flag pairs whose
    period ratio sits within rel_tol of a rational p/q with p, q <= max_den.
    Searchsorted on the sorted periods finds the pairs near each p/q; only
    those candidates get the exact test, in (i, j) order."""
    if len(pop) < 2:
        raise TclError("need at least two loads")
    periods = period(pop)
    order = np.argsort(periods, kind="stable")
    ranked = periods[order]
    band = 1.01 * rel_tol + 1e-12  # covers the rounding of the exact test
    ratios = {Fraction(p, q) for p in range(1, max_den + 1) for q in range(1, max_den + 1)}
    pairs = [np.empty((0, 2), dtype=int)]
    for ratio in ratios:
        # loads a with periods[a] / periods[b] near ratio, for every load b
        target = float(ratio) * periods
        lo = np.searchsorted(ranked, target * (1.0 - band), side="left")
        hi = np.searchsorted(ranked, target * (1.0 + band), side="right")
        counts = np.maximum(hi - lo, 0)
        b = np.repeat(np.arange(periods.size), counts)
        a = order[np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        pairs.append(np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)[a != b])
    candidates = np.unique(np.concatenate(pairs), axis=0).tolist()
    periods = periods.tolist()
    flagged = []
    for i, j in candidates:
        rho = periods[i] / periods[j]
        frac = _nearby_low_rational(rho, rel_tol, max_den)
        if frac is not None:
            flagged.append((i, j, rho, frac))
    return DistinctnessReport(flagged=flagged)


def _nearby_low_rational(rho: float, rel_tol: float, max_den: int) -> Fraction | None:
    best = None
    for q in range(1, max_den + 1):
        p = round(rho * q)
        if p < 1 or p > max_den:
            continue
        approx = p / q
        if abs(rho - approx) <= rel_tol * approx:
            frac = Fraction(p, q)
            if best is None or frac.denominator < best.denominator:
                best = frac
    return best
