"""Event-driven simulator of the coupled grid/TCL hybrid system.

Between events the linear grid state advances by an exact matrix-exponential
step (grid_model.transition, in modal form) and each load temperature by its
closed-form flow. Thermostat crossings are solved analytically;
frequency-threshold crossings are bracketed on the max_step grid and bisected
to event_tol. The loads' frequency trigger levels are settled once per step
(StepTriggers), so a bisection probe propagates the grid, compares omega with
two scalars and runs the jump kernel only on the few loads whose guard or
thermostat limit changes within the step. At an event every enabled load
switches within a single jump instant, continuous state unchanged.

The solution selected is the jump-priority one (jump whenever the discrete
update would change a switch state) with ascending load-index ordering, which
makes runs deterministic and reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid_model import StateSpace, TransitionCache, is_hurwitz
from .tcl import (
    Population,
    Scheme,
    TclParams,
    jump_target,
    next_thermostat_event,
    switching_rate,
    temp_flow,
    trigger_levels,
)

_SNAP_REL = 1e-12  # loads with threshold time within this of the step land exactly


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Scenario:
    grid: StateSpace
    population: list[TclParams]
    scheme: Scheme
    disturbance: list[tuple[float, float]]  # piecewise-constant (time, level)
    horizon: float
    seed: int
    max_step: float = 0.01
    event_tol: float = 1e-6
    offset_demand: bool = True
    clamp_omega: bool = False  # loads observe omega = 0 (open-loop channel)
    zeno_max: int | None = None
    initial_temperatures: np.ndarray | None = None
    initial_sigmas: np.ndarray | None = None

    def __post_init__(self):
        for name in ("horizon", "max_step", "event_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SimulationError(f"{name} must be positive and finite, got {value}")
        times = [t for t, _ in self.disturbance]
        if not times or times[0] != 0.0 or any(
            b <= a for a, b in zip(times, times[1:])
        ):
            raise SimulationError(
                "disturbance must start at t=0 with strictly increasing times"
            )


@dataclass(frozen=True)
class StepTriggers:
    """Frequency-jump test of one step with the switch states held, at O(1)
    cost in the population size per probe.

    Within the step every temperature moves monotonically, so a load whose
    trigger levels and thermostat-limit status agree at both ends of the step
    keeps them throughout. Those loads reduce to two scalars: on_min (the
    lowest ON level of the OFF loads) and off_max (the highest OFF level of
    the ON loads). The rest, the flippers, are run through the kernel.
    """

    on_min: float
    off_max: float
    flippers: Population
    temps: np.ndarray   # flipper temperatures at the step start
    sigmas: np.ndarray  # flipper switch states
    scheme: Scheme

    @classmethod
    def of(cls, pop: Population, temps, temps_end, sigmas, scheme: Scheme) -> StepTriggers:
        """Summary of the step from temps to temps_end. The start must be
        settled: no thermostat limit switches a load at temps."""
        on_at, off_at = trigger_levels(pop, temps, scheme)
        on_end, off_end = trigger_levels(pop, temps_end, scheme)
        flip = (on_at != on_end) | (off_at != off_end)
        flip |= (temps >= pop.t_hi) != (temps_end >= pop.t_hi)
        flip |= (temps <= pop.t_lo) != (temps_end <= pop.t_lo)
        idx = np.flatnonzero(flip)
        off = sigmas == 0
        return cls(
            on_min=float(np.min(np.where(~flip & off, on_at, np.inf))),
            off_max=float(np.max(np.where(~flip & ~off, off_at, -np.inf))),
            flippers=pop.take(idx),
            temps=temps[idx],
            sigmas=sigmas[idx],
            scheme=scheme,
        )

    def any_jump(self, tau: float, omega: float) -> bool:
        """Whether some load's jump is enabled tau into the step, with the
        loads observing omega."""
        if omega >= self.on_min or omega <= self.off_max:
            return True
        if not len(self.flippers):
            return False
        temps = temp_flow(self.flippers, self.temps, self.sigmas, tau)
        target = jump_target(self.flippers, temps, self.sigmas, omega, self.scheme)
        return bool(np.any(target != self.sigmas))


CAUSE_THERMO_HI = "thermostat-hi"
CAUSE_THERMO_LO = "thermostat-lo"
CAUSE_FREQ_ON = "freq-on"
CAUSE_FREQ_OFF = "freq-off"
CAUSE_RANDOM = "randomized"


@dataclass
class Trace:
    times: np.ndarray          # sample times
    jumps: np.ndarray          # cumulative jump count at each sample
    omega: np.ndarray          # frequency deviation, Hz
    x_hat: np.ndarray          # generation states, (samples, n)
    d_s: np.ndarray            # aggregate TCL demand, pu
    on_fraction: np.ndarray
    switch_times: np.ndarray
    switch_loads: np.ndarray
    switch_new_sigma: np.ndarray
    switch_causes: list[str]
    temp_min: np.ndarray       # per-load running minimum temperature
    temp_max: np.ndarray
    final_temperatures: np.ndarray
    final_sigmas: np.ndarray
    meta: dict = field(default_factory=dict)


def simulate(sc: Scenario) -> Trace:
    n_loads = len(sc.population)
    if n_loads == 0:
        raise SimulationError("population is empty")
    if not is_hurwitz(sc.grid):
        raise SimulationError("grid model is not Hurwitz-certified")

    pop = Population.of(sc.population)
    scheme = sc.scheme
    freq_active = scheme.kind == "deterministic"
    randomized = scheme.kind == "randomized"
    zeno_max = sc.zeno_max if sc.zeno_max is not None else 10 * n_loads

    if sc.initial_temperatures is not None and sc.initial_sigmas is not None:
        temps = np.array(sc.initial_temperatures, dtype=float)
        sigmas = np.array(sc.initial_sigmas, dtype=np.int8)
    else:
        from .tcl import sample_initial_states

        temps, sigmas = sample_initial_states(pop, sc.seed)

    d_star = float(np.sum(pop.alpha * pop.d_bar)) if sc.offset_demand else 0.0
    cache = TransitionCache(sc.grid)

    # counter-based per-load streams keyed by (seed, load index); scheduling
    # cannot reorder draws because each load consumes only its own stream
    rngs = None
    clocks = np.full(n_loads, np.inf)
    rate_ref = np.zeros(n_loads)
    if randomized:
        rngs = [
            np.random.Generator(np.random.Philox(key=[sc.seed, j]))
            for j in range(n_loads)
        ]

    def load_omega(omega_value: float) -> float:
        return 0.0 if sc.clamp_omega else omega_value

    def rates_at(omega_value: float) -> np.ndarray:
        return switching_rate(pop, sigmas, load_omega(omega_value), scheme)

    def targets_at(temps_arr, omega_value: float, fired=None) -> np.ndarray:
        return jump_target(pop, temps_arr, sigmas, load_omega(omega_value), scheme, fired)

    def draw_clock(j: int, rate: float, now: float) -> float:
        if rate <= 0:
            return np.inf
        return now + rngs[j].exponential(1.0 / rate)

    def reset_clocks(mask: np.ndarray, rates: np.ndarray, now: float) -> None:
        for j in np.flatnonzero(mask):
            clocks[j] = draw_clock(j, float(rates[j]), now)
        rate_ref[mask] = rates[mask]

    # trace accumulators
    s_t, s_j, s_w, s_xh, s_ds, s_on = [], [], [], [], [], []
    sw_t, sw_load, sw_sig, sw_cause = [], [], [], []
    temp_min = temps.copy()
    temp_max = temps.copy()
    meta = {"rate_resamples": 0, "freq_bisections": 0, "max_jump_instants": 0}

    dist_times = [t for t, _ in sc.disturbance]
    dist_levels = [v for _, v in sc.disturbance]

    x = np.zeros(sc.grid.dim)
    t = 0.0
    jumps = 0
    dist_idx = 0

    def current_level() -> float:
        return dist_levels[dist_idx]

    def next_dist_time() -> float:
        return dist_times[dist_idx + 1] if dist_idx + 1 < len(dist_times) else np.inf

    def record_sample():
        s_t.append(t)
        s_j.append(jumps)
        s_w.append(x[0])
        s_xh.append(x[1:].copy())
        s_ds.append(float(np.dot(pop.d_bar, sigmas)))
        s_on.append(float(np.mean(sigmas)))

    def apply_jumps(omega_now: float, clock_fired: np.ndarray | None) -> int:
        """Settle all enabled jumps at the current instant. Returns the number
        of jump instants applied (0 when nothing was enabled)."""
        nonlocal jumps
        instants = 0
        for _ in range(zeno_max + 1):
            target = targets_at(temps, omega_now, clock_fired)
            changed = np.flatnonzero(target != sigmas)
            if changed.size == 0:
                meta["max_jump_instants"] = max(meta["max_jump_instants"], instants)
                return instants
            for j in changed:  # ascending load index within the jump instant
                new_sig = int(target[j])
                if clock_fired is not None and clock_fired[j] and (
                    pop.t_lo[j] < temps[j] < pop.t_hi[j]
                ):
                    cause = CAUSE_RANDOM
                elif new_sig == 1:
                    cause = CAUSE_THERMO_HI if temps[j] >= pop.t_hi[j] else CAUSE_FREQ_ON
                else:
                    cause = CAUSE_THERMO_LO if temps[j] <= pop.t_lo[j] else CAUSE_FREQ_OFF
                sw_t.append(t)
                sw_load.append(int(j))
                sw_sig.append(new_sig)
                sw_cause.append(cause)
            sigmas[changed] = target[changed]
            jumps += 1
            instants += 1
            if randomized:
                rates = rates_at(omega_now)
                mask = np.zeros(n_loads, dtype=bool)
                mask[changed] = True
                if clock_fired is not None:
                    mask |= clock_fired
                    clock_fired = None
                reset_clocks(mask, rates, t)
        raise SimulationError(
            f"Zeno guard tripped: more than {zeno_max} jump instants at t={t}"
        )

    # corrective jump pass so z(0,0) starts consistent with the flow set
    if randomized:
        reset_clocks(np.ones(n_loads, dtype=bool), rates_at(x[0]), 0.0)
    apply_jumps(x[0], None)
    record_sample()

    tiny = 1e-12
    while t < sc.horizon - tiny:
        u = current_level() + float(np.dot(pop.d_bar, sigmas)) - d_star
        tt = next_thermostat_event(pop, temps, sigmas)
        tt_min = float(np.min(tt))
        bound = min(sc.horizon, next_dist_time(), t + sc.max_step)
        clock_bound = float(np.min(clocks)) if randomized else np.inf
        bound = min(bound, clock_bound)
        dt = min(tt_min, bound - t)
        if dt <= 0:
            raise SimulationError(f"non-positive step {dt} at t={t}")

        phi, psi = cache.get(dt)

        def state_at(tau: float):
            p, q = cache.get(tau) if tau != dt else (phi, psi)
            x_tau = p @ x + q * u
            return x_tau, temp_flow(pop, temps, sigmas, tau)

        x_end, temps_end = state_at(dt)
        if not np.all(np.isfinite(x_end)):
            raise SimulationError(f"non-finite grid state at t={t + dt}")
        clock_fired = (clocks <= t + dt + tiny) if randomized else None
        event_at_end = bool(np.any(targets_at(temps_end, x_end[0], clock_fired) != sigmas))

        dt_event = dt
        if event_at_end and freq_active and dt > sc.event_tol:
            # locate the earliest interior enabling time of a frequency jump
            triggers = StepTriggers.of(pop, temps, temps_end, sigmas, scheme)
            lo_t, hi_t = 0.0, dt
            while hi_t - lo_t > sc.event_tol:
                mid = 0.5 * (lo_t + hi_t)
                p, q = cache.get(mid)
                omega_mid = (p @ x + q * u)[0]
                if triggers.any_jump(mid, load_omega(omega_mid)):
                    hi_t = mid
                else:
                    lo_t = mid
                meta["freq_bisections"] += 1
            if hi_t < dt:
                dt_event = hi_t

        if dt_event != dt:
            x_end, temps_end = state_at(dt_event)
            clock_fired = None  # clocks at/after dt have not fired yet

        # commit the flow
        x = x_end
        temps = temps_end
        if dt_event == dt:
            # snap loads that hit their thermostat threshold exactly
            at_thr = tt <= dt * (1.0 + _SNAP_REL)
            if np.any(at_thr):
                temps[at_thr & (sigmas == 1)] = pop.t_lo[at_thr & (sigmas == 1)]
                temps[at_thr & (sigmas == 0)] = pop.t_hi[at_thr & (sigmas == 0)]
        t += dt_event
        if dist_idx + 1 < len(dist_times) and t >= dist_times[dist_idx + 1] - tiny:
            dist_idx += 1
        np.minimum(temp_min, temps, out=temp_min)
        np.maximum(temp_max, temps, out=temp_max)

        apply_jumps(x[0], clock_fired)

        if randomized:
            rates = rates_at(x[0])
            drift = np.abs(rates - rate_ref) > 0.01 * np.maximum(rate_ref, 1e-300)
            drift |= (rate_ref == 0) & (rates > 0)
            if np.any(drift):
                meta["rate_resamples"] += int(np.count_nonzero(drift))
                reset_clocks(drift, rates, t)

        record_sample()

    meta["jump_count"] = jumps
    meta["scheme"] = scheme.kind
    meta["k_pi"] = scheme.k_pi
    return Trace(
        times=np.array(s_t),
        jumps=np.array(s_j),
        omega=np.array(s_w),
        x_hat=np.array(s_xh),
        d_s=np.array(s_ds),
        on_fraction=np.array(s_on),
        switch_times=np.array(sw_t),
        switch_loads=np.array(sw_load, dtype=int),
        switch_new_sigma=np.array(sw_sig, dtype=np.int8),
        switch_causes=sw_cause,
        temp_min=temp_min,
        temp_max=temp_max,
        final_temperatures=temps.copy(),
        final_sigmas=sigmas.copy(),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# flow/jump set classification (exposed for testing the set definitions)

@dataclass(frozen=True)
class RegionReport:
    per_load: list[str]  # each 'flow', 'jump' or 'both'
    overall: str


def _flow_set(p: TclParams, temp: float, omega: float, freq_active: bool) -> set[int]:
    """Admissible switch states of the flow set at (temp, omega)."""
    allowed: set[int] = set()
    if temp > p.t_hi or (freq_active and omega > p.omega1 and temp > p.t_lo + p.eps):
        allowed.add(1)
    if temp < p.t_lo or (freq_active and omega < -p.omega1 and temp < p.t_hi - p.eps):
        allowed.add(0)
    in_band = p.t_lo <= temp <= p.t_hi
    if in_band and (not freq_active or abs(omega) <= p.omega1):
        allowed.update((0, 1))
    if freq_active and omega <= -p.omega1 and p.t_hi - p.eps <= temp <= p.t_hi:
        allowed.update((0, 1))
    if freq_active and omega >= p.omega1 and p.t_lo <= temp <= p.t_lo + p.eps:
        allowed.update((0, 1))
    return allowed


def classify_region(
    temps: np.ndarray,
    sigmas: np.ndarray,
    omega: float,
    pop: list[TclParams],
    scheme: Scheme,
) -> RegionReport:
    """Membership of each load's (T, omega, sigma) in the flow/jump sets; a
    load is in the jump set where the discrete update would change it."""
    freq_active = scheme.kind == "deterministic"
    jump_set = jump_target(Population.of(pop), temps, sigmas, omega, scheme) != sigmas
    labels = []
    for p, temp, sig, in_jump in zip(pop, temps, sigmas, jump_set):
        in_flow = int(sig) in _flow_set(p, float(temp), omega, freq_active)
        if in_flow and in_jump:
            labels.append("both")
        elif in_jump or not in_flow:
            labels.append("jump")
        else:
            labels.append("flow")
    if all(lbl == "flow" for lbl in labels):
        overall = "flow"
    elif "both" in labels:
        overall = "both"
    else:
        overall = "jump"
    return RegionReport(per_load=labels, overall=overall)


# ---------------------------------------------------------------------------
# trace metrics

@dataclass
class FrequencyMetrics:
    peak_abs_omega: float
    min_interswitch_gap: float  # +inf sentinel when no load switched twice
    switch_counts: np.ndarray   # per-load switch totals
    times: np.ndarray
    omega: np.ndarray

    def settle_time_into(self, eps: float) -> float:
        """First time after which |omega| stays within eps; inf if never."""
        outside = np.abs(self.omega) > eps
        if not np.any(outside):
            return float(self.times[0])
        last = int(np.flatnonzero(outside)[-1])
        if last + 1 >= len(self.times):
            return math.inf
        return float(self.times[last + 1])

    def longest_window_within(self, eps: float) -> float:
        """Length of the longest contiguous span with |omega| <= eps."""
        inside = np.abs(self.omega) <= eps
        best = 0.0
        start = None
        for i, ok in enumerate(inside):
            if ok and start is None:
                start = self.times[i]
            elif not ok and start is not None:
                best = max(best, self.times[i] - start)
                start = None
        if start is not None:
            best = max(best, self.times[-1] - start)
        return float(best)


def dwell_time_report(tr: Trace) -> FrequencyMetrics:
    n_loads = tr.temp_min.shape[0]
    counts = np.bincount(tr.switch_loads, minlength=n_loads)
    min_gap = math.inf
    if tr.switch_times.size:
        order = np.lexsort((tr.switch_times, tr.switch_loads))
        loads = tr.switch_loads[order]
        times = tr.switch_times[order]
        same = loads[1:] == loads[:-1]
        if np.any(same):
            gaps = (times[1:] - times[:-1])[same]
            min_gap = float(np.min(gaps))
    return FrequencyMetrics(
        peak_abs_omega=float(np.max(np.abs(tr.omega))),
        min_interswitch_gap=min_gap,
        switch_counts=counts,
        times=tr.times,
        omega=tr.omega,
    )


def ripple_envelope(
    times: np.ndarray,
    omega: np.ndarray,
    window: float = 10.0,
    cadence: float = 0.01,
) -> float:
    """Robust amplitude of a quasi-stationary frequency ripple.

    The signal is resampled onto a uniform grid, split into consecutive
    windows, and the envelope is the median of the per-window maxima of
    |omega| — insensitive to a few outlier excursions, unlike the global peak.
    """
    if times.size < 2:
        raise SimulationError("ripple envelope needs at least two samples")
    grid = np.arange(float(times[0]), float(times[-1]), cadence)
    resampled = np.abs(np.interp(grid, times, omega))
    per_window = max(1, int(round(window / cadence)))
    n_blocks = resampled.size // per_window
    if n_blocks == 0:
        return float(np.max(resampled))
    blocks = resampled[: n_blocks * per_window].reshape(n_blocks, per_window)
    return float(np.median(blocks.max(axis=1)))


SCHEME_CASES: list[tuple[str, Scheme]] = [
    ("conventional", Scheme.conventional()),
    ("deterministic", Scheme.deterministic()),
    ("randomized", Scheme.randomized()),
    ("randomized-high-gain", Scheme.randomized_high_gain()),
]


@dataclass
class SchemeRun:
    scheme: Scheme
    trace: Trace
    metrics: FrequencyMetrics


def compare_schemes(base: Scenario) -> dict[str, SchemeRun]:
    """Run the four comparison cases with identical grid, population,
    disturbance and seed."""
    out = {}
    for name, scheme in SCHEME_CASES:
        sc = replace(base, scheme=scheme)
        tr = simulate(sc)
        out[name] = SchemeRun(scheme=scheme, trace=tr, metrics=dwell_time_report(tr))
    return out
