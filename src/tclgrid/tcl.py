"""Per-load TCL physics: parameters, closed-form temperature flows, the laws
the switching rule is tabulated from, natural periods and duty cycles.

`Population` is the one load type: sampling draws straight into it, the
design, simulator and statistics code take and return it, and `pop[j]` is
load j as a one-load `Population` with scalar fields. Every per-load law, the
validity checks (`check_loads`, the one statement of the load rules) and the
stroke formulas included, is written once over attribute access and NumPy
operations, so it takes scalar and array fields alike; the stroke and rate
laws clamp with max and min on a float, np.maximum and np.minimum on an
array. The held flow and the time to a level are written once over a stroke,
its insulation coefficient and flow target (`stroke_flow`, `stroke_time`;
pi_on and pi_off are stroke_time from threshold to threshold), and the
randomized rate once over a stroke's coefficients (`rate_law` over
`rate_coefficients`); their per-(state, load) tables are the switching rule,
under which a held load's clock never fires (hybrid_sim.LoadAnchors.held).

Cooling devices only: the ON target temperature t_amb - cop * d_bar lies below
the lower threshold and the ambient lies above the upper threshold, so the
hysteresis loop has no equilibrium and both strokes complete in finite time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

import numpy as np


class TclError(ValueError):
    pass


# Table-style default sampling ranges (degrees C, 1/s, Hz), in draw order.
DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "t_amb": (15.0, 25.0),
    "t_hi": (5.0, 7.0),
    "t_lo": (2.0, 4.0),
    "k": (2e-4, 1e-3),
    "cop_scale": (25.0, 35.0),  # cop = cop_scale / d_bar
    "omega1": (0.01, 0.26),
    "eps": (0.001, 0.01),
}


@dataclass(frozen=True, eq=False)
class Population:
    """The population type: one array per load field, plus the strokes, duty
    cycles and worst-case responsive fractions, derived once. `pop[j]` is
    load j as a one-load Population with scalar fields."""

    d_bar: np.ndarray   # load magnitude, pu
    t_lo: np.ndarray    # lower temperature threshold, C
    t_hi: np.ndarray    # upper temperature threshold, C
    k: np.ndarray       # thermal insulation coefficient, 1/s
    cop: np.ndarray     # coefficient of performance, C per pu
    t_amb: np.ndarray   # ambient temperature, C
    omega1: np.ndarray  # frequency threshold, Hz
    eps: np.ndarray     # temperature deadband guarding frequency switches, C
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
    def of(cls, loads: list[Population]) -> Population:
        """The population of a list of single loads."""
        return cls(**{name: np.array([getattr(p, name) for p in loads]) for name in LOAD_FIELDS})

    def __getitem__(self, j: int) -> Population:
        if np.ndim(self.d_bar) == 0:  # a one-load Population is its only load
            return (self,)[j]
        return Population(**{name: getattr(self, name)[j] for name in LOAD_FIELDS})

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __len__(self) -> int:
        return np.size(self.d_bar)


LOAD_FIELDS = [f.name for f in fields(Population) if f.init]


def check_loads(p: Population) -> None:
    """Raise TclError unless there is a load and every load is a cooling
    device with positive parameters. Each rule states what must hold, so a
    NaN breaks it."""
    if not np.size(p.d_bar):
        raise TclError("a population needs at least one load")
    with np.errstate(invalid="ignore", over="ignore"):
        half_band = (p.t_hi - p.t_lo) / 2
        rules = [
            (p.d_bar > 0, "d_bar must be positive"),
            ((p.t_hi > p.t_lo) & (p.t_lo > 0), "need t_hi > t_lo > 0"),
            (p.k > 0, "k must be positive"),
            (p.cop > 0, "cop must be positive"),
            (p.t_amb > p.t_hi, "cooling device needs t_amb > t_hi"),
            (flow_target(p, 1) < p.t_lo, "cooling device needs t_amb - cop*d_bar < t_lo"),
            (p.omega1 > 0, "omega1 must be positive"),
            ((p.eps > 0) & (p.eps < half_band), "eps must lie in (0, (t_hi - t_lo)/2)"),
            # a guard left on its threshold trips the simulator's Zeno guard
            (
                (p.t_lo + p.eps > p.t_lo) & (p.t_hi - p.eps < p.t_hi),
                "eps must move the guards t_lo + eps and t_hi - eps off the thresholds",
            ),
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
    randomized comparison cases differ only in the feedback gain k_pi. The
    rate fields k_pi and v_des act only in the randomized scheme; the other
    kinds keep their defaults.
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
        if self.kind != "randomized":
            # a rate field the kind would ignore fails instead
            for name, unused in (("k_pi", 0.0), ("v_des", 1.0)):
                if getattr(self, name) != unused:
                    raise TclError(
                        f"{name} applies only to the randomized scheme, "
                        f"got {name}={getattr(self, name)} for kind {self.kind!r}"
                    )

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
    def randomized_high_gain() -> "Scheme":
        return Scheme.randomized(k_pi=50.0)


def on_off_durations(p: Population) -> tuple[float, float]:
    """ON and OFF stroke durations of the free-running load: stroke_time from
    each threshold to the other (t_hi to t_lo ON, t_lo to t_hi OFF), the
    simulator's law."""
    return (
        stroke_time(p.k, flow_target(p, 1), p.t_hi, p.t_lo),
        stroke_time(p.k, flow_target(p, 0), p.t_lo, p.t_hi),
    )


def period(p: Population) -> float:
    return p.pi_on + p.pi_off


def duty_cycle(p: Population) -> float:
    return p.pi_on / (p.pi_on + p.pi_off)


def zeta(p: Population) -> float:
    """Worst-case responsive fraction max(alpha, 1 - alpha) of a load."""
    alpha = duty_cycle(p)
    return np.maximum(alpha, 1.0 - alpha)


def flow_target(p: Population, sigma):
    """Temperature the held flow approaches: t_amb - cop * d_bar ON, t_amb OFF."""
    return p.t_amb - sigma * p.cop * p.d_bar


def run_index(a: np.ndarray, last: bool = False) -> np.ndarray:
    """Index of the first entry of each run of equal entries of a (of the
    last with last=True); none for an empty a. On a sorted a it stands in
    for np.unique, whose first call imports numpy.ma."""
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[:-1] if last else keep[1:])
    return np.flatnonzero(keep)


# the laws' clamps: numpy's elementwise on an ndarray, Python's max and min on
# a float (no numpy dispatch); a NaN x stays NaN either way
def _at_least(x, bound):
    return np.maximum(x, bound) if isinstance(x, np.ndarray) else max(x, bound)


def _at_most(x, bound):
    return np.minimum(x, bound) if isinstance(x, np.ndarray) else min(x, bound)


def stroke_flow(k, target, temperature, dt):
    """Exact temperature after flowing dt >= 0 seconds with the switch held,
    on a stroke given by its insulation coefficient k and flow target; dt may
    be one duration per load."""
    return target + (temperature - target) * np.exp(-k * dt)


def stroke_time(k, target, temperature, level):
    """Time until the held flow of a stroke (insulation coefficient k, flow
    target) reaches a level between the temperature and the target; zero at
    or past it in the direction of the flow. level may stack several levels
    per load along a leading axis."""
    ratio = (temperature - target) / (level - target)
    # a ratio at or below 1 (at or past the level) waits log(1) = 0; NaN
    # stays NaN
    return np.log(_at_least(ratio, 1.0)) / k


def next_thermostat_event(p: Population, temperature, sigma):
    """Time until the held flow reaches the active thermostat threshold
    (t_lo when ON, t_hi when OFF). Zero when already at or past it."""
    return stroke_time(p.k, flow_target(p, sigma), temperature, thermostat_threshold(p, sigma))


def thermostat_threshold(p: Population, sigma):
    """The active thermostat threshold: t_lo when ON, t_hi when OFF."""
    return np.where(sigma == 1, p.t_lo, p.t_hi)[()]


def rate_coefficients(p: Population, sigma, scheme: Scheme):
    """(base, level) of the randomized scheme's active rate, the ON-rate for
    OFF loads and the OFF-rate for ON loads: base = v_des/pi_off and level =
    +omega1 for OFF loads, base = v_des/pi_on and level = -omega1 for ON
    loads. The baseline rates reproduce the natural duty cycle in expectation
    at omega = 0. They change only when the load switches."""
    on = sigma == 1
    base = scheme.v_des / np.where(on, p.pi_on, p.pi_off)
    return base[()], np.where(on, -p.omega1, p.omega1)[()]


def rate_law(base, level, k_pi: float, omega):
    """The randomized rate min(1, base * max(0, 1 + k_pi * omega / level))
    over rate_coefficients: frequency feedback scales the baseline rate
    linearly in omega/omega1, and the rate is clamped to [0, 1] per second to
    prevent chatter at extreme gains. For ON loads 1 + k_pi * omega / -omega1
    is exactly 1 - k_pi * omega / omega1."""
    return _at_most(base * _at_least(k_pi * omega / level + 1.0, 0.0), 1.0)


def frequency_branch(p: Population, sigma):
    """(guard, level) of the deterministic scheme's frequency branch that can
    switch a load in state sigma. An OFF load's branch opens once its rising
    temperature reaches t_lo + eps and then switches it ON when omega >=
    omega1; an ON load's opens once its falling temperature reaches
    t_hi - eps and then switches it OFF when omega <= -omega1."""
    off = sigma == 0
    guard = np.where(off, p.t_lo + p.eps, p.t_hi - p.eps)
    return guard[()], np.where(off, p.omega1, -p.omega1)[()]


def sample_population(spec: PopulationSpec) -> Population:
    """Draw a population with equal magnitudes gamma/n_loads and the other
    fields i.i.d. uniform over the range box. Deterministic in the seed.

    Every rule of check_loads is monotone in each drawn field (linear, or
    monotone under rounding), so the box's 2**7 corners, built as the draws
    are, decide it before any draw. The drawn loads are checked again."""
    if spec.n_loads < 1:
        raise TclError(f"n_loads must be positive, got {spec.n_loads}")
    if not (spec.gamma > 0):
        raise TclError(f"gamma must be positive, got {spec.gamma}")
    ranges = spec.ranges()
    for name, (lo, hi) in ranges.items():
        if not (lo <= hi):
            raise TclError(f"range for {name} is inverted: ({lo}, {hi})")
    d_bar = spec.gamma / spec.n_loads
    corners = np.array(list(itertools.product(*(ranges[name] for name in DEFAULT_RANGES))))
    try:
        _drawn_population(d_bar, dict(zip(DEFAULT_RANGES, corners.T)))
    except TclError as err:
        raise TclError(f"range box corner {str(err).removeprefix('load ')}") from err
    rng = np.random.default_rng(spec.seed)
    return _drawn_population(
        d_bar, {name: rng.uniform(*ranges[name], size=spec.n_loads) for name in DEFAULT_RANGES}
    )


def _drawn_population(d_bar: float, draws: dict[str, np.ndarray]) -> Population:
    """The loads of drawn fields, each of magnitude d_bar and cop = cop_scale / d_bar."""
    cop = draws.pop("cop_scale") / d_bar
    return Population(d_bar=np.full(cop.size, d_bar), cop=cop, **draws)


def sample_initial_states(pop: Population, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Temperatures uniform in [t_lo, t_hi], switch states Bernoulli(alpha)."""
    rng = np.random.default_rng(seed)
    temps = rng.uniform(pop.t_lo, pop.t_hi)
    sigmas = (rng.random(len(pop)) < pop.alpha).astype(np.int8)
    return temps, sigmas
