"""Event-driven simulator of the coupled grid/TCL hybrid system.

Between events the linear grid state advances by an exact matrix-exponential
step (grid_model.transition, in modal form). Each load's temperature is the
closed-form held flow from its anchor, the temperature and time of its last
switch or branch opening (LoadAnchors), so its absolute thermostat time and
the time its frequency branch opens stay fixed until then. Steps end at the
earliest thermostat time, branch opening (guard), the sample cadence, a
disturbance change or an accepted randomized candidate, so the open frequency
levels are constant over a step. A step whose end enables a frequency jump is
cut at the crossing, found by modified regula falsi on the exact held-input
flow (locate_crossing). Only the loads that switch or open a branch are
touched. At an event every enabled load switches within a single jump
instant, continuous state unchanged.

Between events the trace is sampled every max_step from the last event. Each
pass of the step loop computes its stop, the next thermostat, guard,
disturbance, candidate or horizon time, once, and one inner loop takes every
step up to it: a cadence step that ends more than one max_step before the
stop cannot snap a load or enable a jump unless omega reaches an open
frequency level, so it is committed there at one propagation by the cached
cadence transition (TransitionCache). The first step that may do either goes
on to the event part; it runs about twice per event
(meta["loop_iterations"]).

A clamped frequency channel (Scenario.clamp_omega: the loads observe omega =
0) is the same run as another scheme: the deterministic scheme without its
frequency branches is the conventional one, and the randomized rates at
omega = 0 are those at k_pi = 0. simulate runs that scheme.

The randomized scheme is simulated by Lewis-Shedler thinning (ThinnedClocks).
At each jump instant and disturbance change a segment of held input starts:
omega's modal envelope bounds every load's rate law (tcl.rate_law over the
per-stroke coefficients tcl.rate_coefficients that each load holds), and
candidates drawn at the summed bound from one Philox stream keyed by the seed
are accepted with probability rate / bound, with omega at the candidate
evaluated exactly. So the simulated rate law holds at every instant and does
not depend on max_step, and a rejected candidate costs no step.

The solution selected is the jump-priority one (jump whenever the discrete
update would change a switch state) with ascending load-index ordering, which
makes runs deterministic and reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid_model
from .grid_model import StateSpace, TransitionCache, is_hurwitz
from .tcl import (
    Population,
    Scheme,
    frequency_branch,
    jump_target,
    next_thermostat_event,
    rate_coefficients,
    rate_law,
    temp_flow,
    thermostat_threshold,
    time_to_level,
)

_SNAP_REL = 1e-12  # loads with threshold time within this of the step land exactly
# Hz: an enabled probe this close to its frequency level, the rounding level of
# omega, ends the event search
_OVERSHOOT = 1e-15
ZENO_PER_LOAD = 10  # jump instants allowed at one time, per load


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class Scenario:
    grid: StateSpace
    population: Population
    scheme: Scheme
    disturbance: list[tuple[float, float]]  # piecewise-constant (time, level)
    horizon: float
    seed: int
    max_step: float = 0.01
    offset_demand: bool = True
    clamp_omega: bool = False  # loads observe omega = 0 (open-loop channel)
    # (temperatures, switch states) at t = 0; None samples them from the seed
    initial_state: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if not valid_seed(self.seed):
            raise SimulationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        for name in ("horizon", "max_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise SimulationError(f"{name} must be positive and finite, got {value}")
        if not valid_disturbance(self.disturbance):
            raise SimulationError(f"{DISTURBANCE_RULE}, got {self.disturbance}")
        if self.initial_state is not None:
            check_initial_state(self.initial_state, len(self.population))


def check_initial_state(state, n_loads: int) -> None:
    """Raise SimulationError unless state is a pair of length-n_loads arrays:
    finite temperatures and switch states 0 or 1."""
    try:
        temps, sigmas = (np.asarray(a, dtype=float) for a in state)
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"initial_state must be (temperatures, sigmas): {exc}") from None
    if temps.shape != (n_loads,) or sigmas.shape != (n_loads,):
        raise SimulationError(
            f"initial_state arrays must have shape ({n_loads},), "
            f"got {temps.shape} and {sigmas.shape}"
        )
    if not np.all(np.isfinite(temps)):
        raise SimulationError("initial temperatures must be finite")
    if not np.all((sigmas == 0) | (sigmas == 1)):
        raise SimulationError("initial switch states must be 0 or 1")


DISTURBANCE_RULE = "disturbance must start at t=0 with strictly increasing times"


def valid_disturbance(schedule) -> bool:
    """Whether a piecewise-constant (time, level) schedule follows
    DISTURBANCE_RULE."""
    times = [t for t, _ in schedule]
    return bool(times) and times[0] == 0.0 and all(b > a for a, b in zip(times, times[1:]))


def valid_seed(value) -> bool:
    """Whether value can key a Philox stream: an integer (not a bool) in
    [0, 2**64)."""
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and 0 <= value < 2**64
    )


class LoadAnchors:
    """Per-load state of the event loop, changed only at that load's own
    switch or branch opening.

    A load's temperature is the held flow from its anchor: temp0 at time t0
    in switch state sigma. theta is its absolute thermostat time and guard the
    time its frequency branch opens (tcl.frequency_branch), +inf once open or
    when the scheme has no frequency branches (any kind but deterministic).
    lvl_on holds the branch's frequency level for OFF loads with an open
    branch and +inf elsewhere, lvl_off for open ON loads and -inf elsewhere.
    Under the randomized scheme, base and level hold the coefficients of each
    load's active stroke rate (tcl.rate_coefficients). The scalars below are
    recomputed by refresh, after a jump instant or a branch opening only.
    """

    def __init__(self, pop: Population, scheme: Scheme, temps, sigmas):
        n = len(pop)
        self.pop = pop
        self.freq_active = scheme.kind == "deterministic"
        self.rate_scheme = scheme if scheme.kind == "randomized" else None
        self.temp0 = np.array(temps, dtype=float)
        self.t0 = np.zeros(n)
        self.sigma = np.array(sigmas, dtype=np.int8)
        self.theta = np.empty(n)
        self.guard = np.full(n, np.inf)
        self.lvl_on = np.full(n, np.inf)
        self.lvl_off = np.full(n, -np.inf)
        self.base = np.empty(n)
        self.level = np.empty(n)
        self.reanchor(np.arange(n), self.temp0, 0.0)
        self.refresh()

    def refresh(self) -> None:
        self.theta_min = float(np.min(self.theta))
        self.guard_min = float(np.min(self.guard))
        self.on_min = float(np.min(self.lvl_on))
        self.off_max = float(np.max(self.lvl_off))
        self.d_s = float(np.dot(self.pop.d_bar, self.sigma))
        # the mean of the 0/1 states, exactly
        self.on_fraction = np.count_nonzero(self.sigma) / self.sigma.size

    def reanchor(self, idx: np.ndarray, temps: np.ndarray, now: float) -> None:
        """Anchor loads idx at temps at time now, in their current states."""
        sub = self.pop.take(idx)
        sigma = self.sigma[idx]
        self.temp0[idx] = temps
        self.t0[idx] = now
        self.theta[idx] = now + next_thermostat_event(sub, temps, sigma)
        if self.rate_scheme is not None:
            self.base[idx], self.level[idx] = rate_coefficients(sub, sigma, self.rate_scheme)
        if not self.freq_active:
            return
        guard, level = frequency_branch(sub, sigma)
        wait = time_to_level(sub, temps, sigma, guard)
        is_open, off = wait == 0, sigma == 0
        self.guard[idx] = np.where(is_open, np.inf, now + wait)
        self.lvl_on[idx] = np.where(is_open & off, level, np.inf)
        self.lvl_off[idx] = np.where(is_open & ~off, level, -np.inf)

    def temps_at(self, sub: Population, idx: np.ndarray, now: float) -> np.ndarray:
        """Temperatures at now of the loads idx (sub = pop.take(idx)); now
        must not lie past their thermostat times."""
        t0, temp0 = self.t0[idx], self.temp0[idx]
        return np.where(t0 == now, temp0, temp_flow(sub, temp0, self.sigma[idx], now - t0))

    def snap(self, start: float, dt: float) -> None:
        """Land the loads whose guard or thermostat time lies within the step
        from start (to the snap tolerance) exactly on that temperature at its
        end. A load landed on its guard is re-anchored there, which opens its
        frequency branch."""
        reach = dt * (1.0 + _SNAP_REL)
        now = start + dt
        if self.guard_min - start <= reach:
            idx = np.flatnonzero(self.guard - start <= reach)
            guard, _ = frequency_branch(self.pop.take(idx), self.sigma[idx])
            self.reanchor(idx, guard, now)
            self.refresh()
        if self.theta_min - start <= reach:
            idx = np.flatnonzero(self.theta - start <= reach)
            self.temp0[idx] = thermostat_threshold(self.pop.take(idx), self.sigma[idx])
            self.t0[idx] = now
            self.theta[idx] = now
            self.theta_min = min(self.theta_min, now)

    def excess(self, omega: float) -> float:
        """How far omega lies beyond the nearest open frequency level: a
        frequency jump is enabled iff this is >= 0; -inf with no open
        branch."""
        return max(omega - self.on_min, self.off_max - omega)

    def candidates(self, omega: float, now: float, fired: int | None) -> np.ndarray:
        """Ascending indices of the loads whose jump may be enabled at now:
        thermostat-due, beyond their frequency level or the load whose clock
        fired."""
        parts = []
        if self.theta_min <= now:
            parts.append(np.flatnonzero(self.theta <= now))
        if self.excess(omega) >= 0:
            parts.append(np.flatnonzero((self.lvl_on <= omega) | (self.lvl_off >= omega)))
        if fired is not None:
            parts.append(np.array([fired]))
        return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=np.intp)


class ThinnedClocks:
    """The randomized scheme's switching clocks, by Lewis-Shedler thinning
    (Naval Res. Logist. Q. 26, 403, 1979).

    Over a segment of held input the loads keep their states, and with a
    Hurwitz grid |omega| stays within env = |omega_inf| + sum_k |w_k|, where
    omega(start + tau) = omega_inf + Re sum_k w_k exp(lam_k tau). Each load's
    rate is monotone in omega, so the rate law at omega = +-env toward
    faster switching bounds it over the whole segment. Candidates arrive as a
    Poisson process at the summed bound, each is given to a load in
    proportion to its bound and accepted with probability rate / bound, with
    omega at the candidate from the segment's modal weights in O(dim). A new
    segment draws afresh, which is valid because exponential waits are
    memoryless. One Philox stream keyed by the seed supplies every draw.
    With k_pi = 0 the rates do not depend on omega, so env is 0.
    """

    def __init__(self, ss: StateSpace, scheme: Scheme, seed: int):
        self.ss = ss
        self.k_pi = scheme.k_pi
        self.coupled = scheme.k_pi != 0
        self.rng = np.random.Generator(np.random.Philox(key=int(seed)))
        self.draws = 0  # candidate times drawn

    def first_accepted(
        self, loads: LoadAnchors, x: np.ndarray, u: float, start: float, end: float
    ) -> tuple[float, int]:
        """(time, load) of the first accepted candidate in [start, end) from
        state x at start with the input held at u, or (inf, -1) if none."""
        omega_at, env = self._omega_flow(x, u)
        # |level| is omega1: the rate law at omega = +-env toward faster switching
        bound = rate_law(loads.base, loads.pop.omega1, self.k_pi, env)
        cum = np.cumsum(bound)
        total = float(cum[-1])
        rng = self.rng
        t = start
        while True:
            t += rng.standard_exponential() / total
            self.draws += 1
            if t >= end:
                return math.inf, -1
            j = min(int(np.searchsorted(cum, rng.random() * total, side="right")), cum.size - 1)
            omega = omega_at(t - start)
            if rng.random() * bound[j] < rate_law(loads.base[j], loads.level[j], self.k_pi, omega):
                return t, j

    def _omega_flow(self, x: np.ndarray, u: float):
        """(the omega the rate law sees at start + tau, as a function of
        tau, and env) for the flow from x with the input held at u. Without
        a modal form env is inf, which caps every bound at the rate law's
        1/s."""
        ss, modes = self.ss, self.ss.modes
        if not self.coupled:
            return (lambda tau: 0.0), 0.0
        if modes is None:
            def omega_at(tau: float) -> float:
                phi, psi = grid_model.transition(ss, tau)
                return float(phi[0] @ x + psi[0] * u)

            return omega_at, math.inf
        # x_inf = -a^-1 b u, the equilibrium the held flow decays to
        x_inf = -(modes.v @ (modes.v_inv_b / modes.lam)).real * u
        w = modes.v[0] * (modes.v_inv @ (x - x_inf))
        omega_inf = float(x_inf[0])

        def omega_at(tau: float) -> float:
            return omega_inf + float((np.exp(modes.lam * tau) @ w).real)

        return omega_at, abs(omega_inf) + float(np.sum(np.abs(w)))


def locate_crossing(ss: StateSpace, x: np.ndarray, u: float, dt: float, x_end: np.ndarray, excess):
    """(tau, state at tau, probes) for a step of dt from x with input held at
    u, given that excess(omega) is < 0 at its start and >= 0 at its end
    state x_end: at tau in (0, dt] the jump is enabled, with omega at most
    _OVERSHOOT past its level, or tau is the first double at which it is.

    Modified regula falsi on the bracket [0, dt], aimed at the middle of the
    accepted window: the Illinois method (Dowell & Jarratt, BIT 11, 168,
    1971) with the Anderson-Bjorck scaling of the kept end (BIT 13, 253,
    1973). Each probe is the exact flow transition(ss, tau) from x.
    """
    g_end = excess(x_end[0])
    if g_end <= _OVERSHOOT:
        return dt, x_end, 0
    aim = 0.5 * _OVERSHOOT
    lo, g_lo = 0.0, excess(x[0]) - aim
    hi, g_hi, x_hi = dt, g_end - aim, x_end
    side = probes = 0
    while True:
        tau = lo - g_lo * (hi - lo) / (g_hi - g_lo)
        if not lo < tau < hi:
            tau = 0.5 * (lo + hi)
            if not lo < tau < hi:
                return hi, x_hi, probes
        # looked up on the module, so that patching grid_model.transition
        # reaches every probe
        phi, psi = grid_model.transition(ss, tau)
        x_tau = phi @ x + psi * u
        g_tau = excess(x_tau[0])
        probes += 1
        if 0 <= g_tau <= _OVERSHOOT:
            return tau, x_tau, probes
        g = g_tau - aim
        # when the same end moves twice running, the kept end's value shrinks
        if g > 0:
            if side > 0:
                scale = 1.0 - g / g_hi
                g_lo *= scale if scale > 0 else 0.5
            hi, g_hi, x_hi, side = tau, g, x_tau, 1
        else:
            if side < 0:
                scale = 1.0 - g / g_lo
                g_hi *= scale if scale > 0 else 0.5
            lo, g_lo, side = tau, g, -1


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
    pop = sc.population
    n_loads = len(pop)
    if n_loads == 0:
        raise SimulationError("population is empty")
    if not is_hurwitz(sc.grid):
        raise SimulationError("grid model is not Hurwitz-certified")

    scheme = sc.scheme
    if sc.clamp_omega:  # the scheme without its frequency channel
        if scheme.kind == "deterministic":
            scheme = Scheme.conventional()
        else:
            scheme = replace(scheme, k_pi=0.0)
    randomized = scheme.kind == "randomized"
    zeno_max = ZENO_PER_LOAD * n_loads

    if sc.initial_state is not None:
        temps, sigmas = sc.initial_state
    else:
        from .tcl import sample_initial_states

        temps, sigmas = sample_initial_states(pop, sc.seed)
    loads = LoadAnchors(pop, scheme, temps, sigmas)

    d_star = float(np.sum(pop.alpha * pop.d_bar)) if sc.offset_demand else 0.0
    max_step = sc.max_step
    cache = TransitionCache(sc.grid, max_step)
    clocks = ThinnedClocks(sc.grid, scheme, sc.seed) if randomized else None

    # trace accumulators; a sample's state is the whole grid state x
    s_t, s_j, s_x, s_ds, s_on = [], [], [], [], []
    sw_t, sw_load, sw_sig, sw_cause = [], [], [], []
    temp_min = loads.temp0.copy()
    temp_max = loads.temp0.copy()
    meta = {
        "rate_resamples": 0,
        "freq_bisections": 0,  # transitions probed by locate_crossing
        "max_jump_instants": 0,
        "loop_iterations": 0,  # passes of the event part of the loop
    }

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
        s_x.append(x)
        s_ds.append(loads.d_s)
        s_on.append(loads.on_fraction)

    def apply_jumps(omega: float, clock_fired: int | None) -> None:
        """Settle all enabled jumps at the current instant. Only the candidate
        loads are evaluated; every other load's jump is disabled."""
        nonlocal jumps
        for instants in range(zeno_max + 1):
            idx = loads.candidates(omega, t, clock_fired)
            hit = idx[:0]
            if idx.size:
                sub = pop.take(idx)
                temps_c = loads.temps_at(sub, idx, t)
                sig_c = loads.sigma[idx]
                fired_c = None if clock_fired is None else idx == clock_fired
                target = jump_target(sub, temps_c, sig_c, omega, scheme, fired_c)
                hit = np.flatnonzero(target != sig_c)
            if not hit.size:
                meta["max_jump_instants"] = max(meta["max_jump_instants"], instants)
                return
            for k in hit:  # ascending load index within the jump instant
                j, temp, new_sig = int(idx[k]), temps_c[k], int(target[k])
                if fired_c is not None and fired_c[k] and pop.t_lo[j] < temp < pop.t_hi[j]:
                    cause = CAUSE_RANDOM
                elif new_sig == 1:
                    cause = CAUSE_THERMO_HI if temp >= pop.t_hi[j] else CAUSE_FREQ_ON
                else:
                    cause = CAUSE_THERMO_LO if temp <= pop.t_lo[j] else CAUSE_FREQ_OFF
                sw_t.append(t)
                sw_load.append(j)
                sw_sig.append(new_sig)
                sw_cause.append(cause)
            # the held flow is monotone, so a load's extremes are its
            # temperatures at its switches and at the end of the run
            changed, temps_c = idx[hit], temps_c[hit]
            temp_min[changed] = np.minimum(temp_min[changed], temps_c)
            temp_max[changed] = np.maximum(temp_max[changed], temps_c)
            loads.sigma[changed] = target[hit]
            loads.reanchor(changed, temps_c, t)
            loads.refresh()
            jumps += 1
            # the fired clock acts in the first round only
            clock_fired = None
        raise SimulationError(
            f"Zeno guard tripped: more than {zeno_max} jump instants at t={t}"
        )

    # corrective jump pass so z(0,0) starts consistent with the flow set
    apply_jumps(x[0], None)
    record_sample()

    tiny = 1e-12
    # the next accepted candidate, drawn for the segment of held input and
    # load states keyed by (jumps, dist_idx)
    t_fire, fire, segment = math.inf, -1, None
    while t < sc.horizon - tiny:
        u = current_level() + loads.d_s - d_star
        # guard_min is +inf under the randomized scheme, so a segment ends
        # at the same stop
        stop = min(loads.theta_min, loads.guard_min, next_dist_time(), sc.horizon)
        if randomized and segment != (jumps, dist_idx):
            segment = (jumps, dist_idx)
            t_fire, fire = clocks.first_accepted(loads, x, u, t, stop)
        stop = min(stop, t_fire)
        if stop <= t:
            raise SimulationError(f"non-positive step {stop - t} at t={t}")

        # cadence steps that end more than one max_step before stop snap no
        # load and enable no jump unless omega reaches an open level, so they
        # are committed here; the first step that may do either goes on to
        # the event part
        quiet_until = stop - 2 * max_step - tiny
        while True:
            dt = min(stop - t, max_step)
            phi, psi = cache.get(dt)
            x_end = phi @ x + psi * u
            if not np.isfinite(x_end).all():
                raise SimulationError(f"non-finite grid state at t={t + dt}")
            if t >= quiet_until or loads.excess(x_end[0]) >= 0:
                break
            x = x_end
            t += dt
            record_sample()

        meta["loop_iterations"] += 1
        clock_fired = fire if t_fire - t <= dt else None
        dt_event = dt
        # [0, dt] brackets a crossing only if the start is disabled, as a
        # jump instant leaves it; excess is -inf with no open branch
        if loads.excess(x_end[0]) >= 0 > loads.excess(x[0]):
            dt_event, x_end, probes = locate_crossing(sc.grid, x, u, dt, x_end, loads.excess)
            meta["freq_bisections"] += probes

        # commit the flow
        x = x_end
        if dt_event == dt:
            loads.snap(t, dt)
        t += dt_event
        if dist_idx + 1 < len(dist_times) and t >= dist_times[dist_idx + 1] - tiny:
            dist_idx += 1

        apply_jumps(x[0], clock_fired)
        record_sample()

    final = loads.temps_at(pop, np.arange(n_loads), t)
    np.minimum(temp_min, final, out=temp_min)
    np.maximum(temp_max, final, out=temp_max)
    states = np.array(s_x)
    meta["clock_draws"] = clocks.draws if randomized else 0
    meta["jump_count"] = jumps
    meta["scheme"] = sc.scheme.kind
    meta["k_pi"] = sc.scheme.k_pi
    return Trace(
        times=np.array(s_t),
        jumps=np.array(s_j),
        omega=states[:, 0].copy(),
        x_hat=states[:, 1:].copy(),
        d_s=np.array(s_ds),
        on_fraction=np.array(s_on),
        switch_times=np.array(sw_t),
        switch_loads=np.array(sw_load, dtype=int),
        switch_new_sigma=np.array(sw_sig, dtype=np.int8),
        switch_causes=sw_cause,
        temp_min=temp_min,
        temp_max=temp_max,
        final_temperatures=final,
        final_sigmas=loads.sigma.copy(),
        meta=meta,
    )


# ---------------------------------------------------------------------------
# trace metrics

@dataclass
class FrequencyMetrics:
    peak_abs_omega: float
    min_interswitch_gap: float  # +inf sentinel when no load switched twice
    switch_counts: np.ndarray   # per-load switch totals
    times: np.ndarray
    omega: np.ndarray

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
