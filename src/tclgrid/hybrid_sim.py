"""Event-driven simulator of the coupled grid/TCL hybrid system.

Between events the linear grid state advances exactly. Over a pass of held
input it is z, the coordinates of x - x_inf (x_inf the held input's
equilibrium) in the real modal form, a tuple of Python numbers
(grid_model.ModalFlow): a step, a probe or omega costs a few float
operations per mode, and the samples' states are built in one product at the
end of the run. Each load's temperature is the closed-form held flow from
its anchor, the temperature and time of its last switch or branch opening
(LoadAnchors), so its absolute thermostat time and the time its frequency
branch opens stay fixed until then. What a load's state decides (flow
target, thermostat threshold, guard, open level, rate coefficients) is
tabulated once per state and load from the tcl laws. Steps end at the
earliest thermostat time, branch opening (guard), the sample cadence, a
disturbance change or an accepted randomized candidate, so the open
frequency levels are constant over a step.

A step holds no crossing of an open level if its ends are disabled and
max(excess at the ends) + M2 h^2 / 8 < 0, with M2 a bound on |omega''| over
the pass (ModalFlow.curvature); a step that fails this test goes to
grid_model.CrossingWalk, which finds the first crossing inside it, a
near-tangent one too. At an event every enabled load switches within a
single jump instant, continuous state unchanged: the candidates of the
tables (LoadAnchors.candidates), thermostat-due, past an open frequency
level, or the load whose clock fired. The tables are the switching rule, and
the part that enables a load names its switch's cause. An instant is settled
load by load in Python scalars through the same tcl laws, to the bits of the
whole-array forms (LoadAnchors.settle): only the loads that switch or open a
branch are touched, and d_s is a compensated running sum kept by jump.

Between events the trace is sampled every max_step from the last event. Each
pass of the step loop computes its stop, the next thermostat, guard,
disturbance, candidate or horizon time, once. If its start certifies it
(crossing_free: under held input |omega| stays within ModalFlow.envelope),
every step but the last is committed untested; otherwise a step that ends
more than one max_step before the stop and passes the curvature test is. The
first step that may snap a load or enable a jump goes on to the event part
(meta["loop_iterations"]); committed ones count in meta["cadence_steps"].

The randomized scheme is simulated by Lewis-Shedler thinning (ThinnedClocks)
over segments of held input, with omega at each candidate evaluated exactly,
so the simulated rate law holds at every instant and does not depend on
max_step, and a rejected candidate costs no step. A load's clock never fires
while its thermostat holds it (LoadAnchors.held): its rate is 0 there.

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
from .grid_model import StateSpace, is_hurwitz
from .tcl import (
    Population,
    Scheme,
    flow_target,
    frequency_branch,
    rate_coefficients,
    rate_law,
    run_index,
    stroke_flow,
    stroke_time,
    thermostat_threshold,
)

_SNAP_REL = 1e-12  # loads with threshold time within this of the step land exactly
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

    def __post_init__(self):
        check_run_settings(self.horizon, self.max_step, self.seed, self.disturbance)


def check_run_settings(horizon: float, max_step: float, seed, disturbance) -> None:
    """Raise SimulationError, naming the field, unless horizon and max_step
    are positive and finite, seed passes check_seed and the piecewise-constant
    (time, level) disturbance starts at t = 0 with strictly increasing times."""
    for name, value in (("horizon", horizon), ("max_step", max_step)):
        if not (math.isfinite(value) and value > 0):
            raise SimulationError(f"{name} must be positive and finite, got {value}")
    check_seed(seed)
    times = [t for t, _ in disturbance]
    if not (times and times[0] == 0.0 and all(b > a for a, b in zip(times, times[1:]))):
        raise SimulationError(
            "disturbance must start at t=0 with strictly increasing times, "
            f"got {[list(p) for p in disturbance]}"
        )


def check_seed(value, name: str = "seed") -> None:
    """Raise SimulationError unless value can key a Philox stream: an integer
    (not a bool) in [0, 2**64)."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and 0 <= value < 2**64):
        raise SimulationError(f"{name} must be an integer in [0, 2**64), got {value!r}")


CAUSE_THERMO_HI = "thermostat-hi"
CAUSE_THERMO_LO = "thermostat-lo"
CAUSE_FREQ_ON = "freq-on"
CAUSE_FREQ_OFF = "freq-off"
CAUSE_RANDOM = "randomized"


# both switch states, as a column: a per-load law called on it tabulates the
# law for every (state, load), flat index sigma * N + load
_STATES = np.array([[0], [1]], dtype=np.int8)


class LoadAnchors:
    """Per-load state of the event loop, changed only at that load's own
    switch or branch opening.

    A load's temperature is the held flow from its anchor: temp0 at time t0
    in switch state sigma. theta is its absolute thermostat time and guard the
    time its frequency branch opens (tcl.frequency_branch), +inf once open or
    when the scheme has no frequency branches (any kind but deterministic).
    lvl_on holds the branch's frequency level for OFF loads with an open
    branch and +inf elsewhere, neg_off the negated level for open ON loads
    and +inf elsewhere. Under the randomized scheme, base and level hold
    the coefficients of each load's active stroke rate (tcl.rate_coefficients).
    refresh recomputes the minima and on_fraction, after a settled instant or
    a branch opening only; jump keeps n_on and d_s.

    What a load's state decides is tabulated once per (state, load) by the
    tcl laws: the flow target, the thermostat threshold and the guard it
    flows toward, the open level and the rate coefficients. An event reads
    the tables at flat index sigma * N + load, one load at a time (jump,
    anchor); reanchor is the whole-array form, for the initial anchors.
    """

    def __init__(self, pop: Population, scheme: Scheme, temps, sigmas):
        n = len(pop)
        self.pop = pop
        self.freq_active = scheme.kind == "deterministic"
        self.rate_scheme = scheme if scheme.kind == "randomized" else None
        self.n = n
        self.temp0 = np.array(temps, dtype=float)
        self.t0 = np.zeros(n)
        # the held flow is monotone, so a load's extremes are its
        # temperatures at its switches (and at the end of the run)
        self.temp_min = self.temp0.copy()
        self.temp_max = self.temp0.copy()
        self.sigma = np.array(sigmas, dtype=np.int8)
        # d_s, the demand of the ON loads, is d_sum + d_comp: a Neumaier sum
        # (ZAMM 54, 39, 1974) from the rounded sum and its remainder
        self.n_on = int(np.count_nonzero(self.sigma))
        on = pop.d_bar[self.sigma == 1].tolist()
        self.d_s = self.d_sum = math.fsum(on)
        self.d_comp = math.fsum(on + [-self.d_sum])
        self.state_offset = np.array([0, n])
        self.target = flow_target(pop, _STATES).ravel()
        # the temperatures whose waits anchor a load: its thermostat
        # threshold, then its guard
        levels = [thermostat_threshold(pop, _STATES)]
        if self.freq_active:
            guard, level = frequency_branch(pop, _STATES)
            levels.append(guard)
            # +omega1 as lvl_on of OFF loads and as neg_off of ON loads
            self.branch_level = (level * np.array([[1.0], [-1.0]])).ravel()
        self.wait_levels = np.reshape(levels, (len(levels), 2 * n))
        # thermostat times, guard times, lvl_on and neg_off, reduced at once
        self.times = np.full((4, n), np.inf)
        self.theta, self.guard, self.lvl_on, self.neg_off = self.times
        # lvl_on then neg_off, at the flat index of the state they open in
        self.open_levels = self.times[2:].reshape(-1)
        if self.rate_scheme is not None:
            base, level = rate_coefficients(pop, _STATES, self.rate_scheme)
            self.rate_table = base.ravel(), level.ravel()
            self.base = np.empty(n)
            self.level = np.empty(n)
        self.guard_min, self.on_min, self.off_max = math.inf, math.inf, -math.inf
        self.reanchor(np.arange(n), self.temp0, 0.0)
        self.refresh()

    def refresh(self) -> None:
        if self.freq_active:
            self.theta_min, self.guard_min, self.on_min, neg_off_min = self.times.min(axis=1).tolist()
            self.off_max = -neg_off_min
        else:  # guard_min and on_min stay +inf, off_max -inf
            self.theta_min = self.theta.min().item()
        # the mean of the 0/1 states, exactly
        self.on_fraction = self.n_on / self.n

    def reanchor(self, idx: np.ndarray, temps: np.ndarray, now: float) -> None:
        """Anchor loads idx at temps at time now, in their current states.
        The event loop anchors one load at a time (anchor), to the same
        bits."""
        flat = idx + self.state_offset[self.sigma[idx]]
        self.temp0[idx] = temps
        self.t0[idx] = now
        if self.rate_scheme is not None:
            base, level = self.rate_table
            self.base[idx] = base[flat]
            self.level[idx] = level[flat]
        # the thermostat wait and (deterministic scheme) the guard wait
        wait = stroke_time(self.pop.k[idx], self.target[flat], temps, self.wait_levels[:, flat])
        times = now + wait
        if self.freq_active:
            is_open = wait[1] == 0
            times[1, is_open] = np.inf
            self.times[2:, idx] = np.inf
            self.open_levels[flat] = np.where(is_open, self.branch_level[flat], np.inf)
        self.times[: len(times), idx] = times

    def anchor(self, j: int, temp: float, now: float) -> None:
        """reanchor of the one load j, in Python scalars: float + - * / are
        the IEEE operations of numpy's loops, and stroke_time clamps with max
        and takes np.log of a float, to the bits of its array path."""
        flat = j + self.n * self.sigma.item(j)
        self.temp0[j] = temp
        self.t0[j] = now
        if self.rate_scheme is not None:
            base, level = self.rate_table
            self.base[j], self.level[j] = base.item(flat), level.item(flat)
        k, target, levels = self.pop.k.item(j), self.target.item(flat), self.wait_levels
        self.theta[j] = now + stroke_time(k, target, temp, levels.item(0, flat))
        if self.freq_active:
            self.lvl_on[j] = self.neg_off[j] = math.inf
            wait = stroke_time(k, target, temp, levels.item(1, flat))
            if wait == 0:
                self.guard[j] = math.inf
                self.open_levels[flat] = self.branch_level.item(flat)
            else:
                self.guard[j] = now + wait

    def temp(self, j: int, now: float) -> float:
        """Temperature of load j at now, no earlier than its anchor time and
        no later than its thermostat time, in Python scalars."""
        t0, temp = self.t0.item(j), self.temp0.item(j)
        if t0 == now:
            return temp
        flat = j + self.n * self.sigma.item(j)
        return float(stroke_flow(self.pop.k.item(j), self.target.item(flat), temp, now - t0))

    def held(self, j: int, now: float) -> bool:
        """Whether load j's thermostat holds it at now: switched there, it
        would be thermostat-due at once in its new state (an OFF load at or
        below t_lo, an ON load at or above t_hi)."""
        other = j + self.n * (1 - self.sigma.item(j))
        level = self.wait_levels.item(0, other)
        wait = stroke_time(self.pop.k.item(j), self.target.item(other), self.temp(j, now), level)
        return now + wait <= now

    def jump(self, j: int, now: float) -> tuple[int, bool]:
        """Switch load j at now, no earlier than its anchor time and no later
        than its thermostat time, and anchor it at its temperature there:
        (its new state, whether its thermostat was due)."""
        sigma = self.sigma.item(j)
        temp = self.temp(j, now)
        if temp < self.temp_min.item(j):
            self.temp_min[j] = temp
        elif temp > self.temp_max.item(j):
            self.temp_max[j] = temp
        due = self.theta.item(j) <= now
        new = 1 - sigma
        self.sigma[j] = new
        self.n_on += 2 * new - 1
        # d_s += +-d_bar[j], compensated
        d, s = (1 if new else -1) * self.pop.d_bar.item(j), self.d_sum
        self.d_sum = total = s + d
        self.d_comp += (s - total) + d if abs(s) >= abs(d) else (d - total) + s
        self.d_s = total + self.d_comp
        self.anchor(j, temp, now)
        return new, due

    def settle(
        self, omega: float, now: float, fired: int | None, max_rounds: int
    ) -> tuple[list[tuple[float, int, int, str]], int]:
        """Switch every enabled load at now, round after round until none
        is, each with the cause of the part that enabled it; return the
        switches in order, as (now, load, new state, cause), and the number
        of rounds (jump instants). Within an instant now and omega are fixed
        and a load keeps its rows until it switches, so after the first
        round's candidates scan only the loads just switched can be enabled
        again, and only they are checked."""
        switches = []
        idx = self.candidates(omega, now, fired).tolist()
        # the open levels omega lies beyond (see candidates)
        row, beyond = (self.lvl_on if omega > 0 else self.neg_off), abs(omega)
        rounds = 0
        while idx:
            if rounds == max_rounds:
                raise SimulationError(
                    f"Zeno guard tripped: more than {max_rounds} jump instants at t={now}"
                )
            rounds += 1
            # ascending load index within the jump instant
            for j in idx:
                sigma, thermostat = self.jump(j, now)
                if thermostat:
                    cause = CAUSE_THERMO_HI if sigma == 1 else CAUSE_THERMO_LO
                elif j == fired:
                    cause = CAUSE_RANDOM
                else:
                    cause = CAUSE_FREQ_ON if sigma == 1 else CAUSE_FREQ_OFF
                switches.append((now, j, sigma, cause))
            # the fired clock acts in the first round only
            fired = None
            idx = [j for j in idx if self.theta.item(j) <= now or row.item(j) <= beyond]
        if rounds:
            self.refresh()
        return switches, rounds

    def temps_at(self, idx: np.ndarray, now: float) -> np.ndarray:
        """Temperatures at now of the loads idx; now must not lie past their
        thermostat times."""
        t0, temp0 = self.t0[idx], self.temp0[idx]
        flat = idx + self.state_offset[self.sigma[idx]]
        flow = stroke_flow(self.pop.k[idx], self.target[flat], temp0, now - t0)
        return np.where(t0 == now, temp0, flow)

    def snap(self, start: float, dt: float) -> None:
        """Land the loads whose guard or thermostat time lies within the step
        from start (to the snap tolerance) exactly on that temperature at its
        end. A load landed on its guard is re-anchored there, which opens its
        frequency branch."""
        reach = dt * (1.0 + _SNAP_REL)
        now = start + dt
        n, sigma, levels = self.n, self.sigma, self.wait_levels
        if self.guard_min - start <= reach:
            for j in (self.guard - start <= reach).nonzero()[0].tolist():
                self.anchor(j, levels.item(1, j + n * sigma.item(j)), now)
            self.refresh()
        if self.theta_min - start <= reach:
            for j in (self.theta - start <= reach).nonzero()[0].tolist():
                self.temp0[j] = levels.item(0, j + n * sigma.item(j))
                self.t0[j] = now
                self.theta[j] = now
            self.theta_min = min(self.theta_min, now)

    def excess(self, omega: float) -> float:
        """How far omega lies beyond the nearest open frequency level: a
        frequency jump is enabled iff this is >= 0; -inf with no open
        branch."""
        return max(omega - self.on_min, self.off_max - omega)

    def candidates(self, omega: float, now: float, fired: int | None) -> np.ndarray:
        """Ascending indices of the loads whose jump is enabled at now:
        thermostat-due, beyond their frequency level or the load whose clock
        fired."""
        parts = []
        if self.theta_min <= now:
            parts.append((self.theta <= now).nonzero()[0])
        if self.excess(omega) >= 0:
            # open levels lie at +omega1 > 0 (lvl_on) and -omega1 < 0 (-neg_off)
            row = self.lvl_on if omega > 0 else self.neg_off
            parts.append((row <= abs(omega)).nonzero()[0])
        if fired is not None:
            parts.append(np.array([fired]))
        if len(parts) <= 1:  # nonzero is ascending and unique already
            return parts[0] if parts else np.empty(0, dtype=np.intp)
        merged = np.sort(np.concatenate(parts))
        return merged[run_index(merged)]


class ThinnedClocks:
    """The randomized scheme's switching clocks, by Lewis-Shedler thinning
    (Naval Res. Logist. Q. 26, 403, 1979).

    Over a segment of held input, which starts at each jump instant and
    disturbance change, the loads keep their states, and with a Hurwitz grid
    |omega| stays within env (grid_model.ModalFlow.envelope). Each load's
    rate (tcl.rate_law over the coefficients it holds) is monotone in omega,
    so the rate law at omega = +-env toward faster switching bounds it over
    the whole segment. Candidates arrive as a Poisson process at the summed
    bound, each is given to a load in proportion to its bound and accepted
    with probability rate / bound, with omega at the candidate from the
    segment's grid state. A new segment draws afresh, which is valid because
    exponential waits are memoryless. One Philox stream keyed by the seed
    supplies every draw. With k_pi = 0 the rates do not depend on omega, so
    env is 0.
    """

    def __init__(self, scheme: Scheme, seed: int):
        self.k_pi = scheme.k_pi
        self.coupled = scheme.k_pi != 0
        self.rng = np.random.Generator(np.random.Philox(key=int(seed)))
        self.draws = 0  # candidate times drawn

    def first_accepted(
        self, loads: LoadAnchors, flow, z: tuple, start: float, end: float
    ) -> tuple[float, int]:
        """(time, load) of the first accepted candidate in [start, end) from
        the grid state z of flow (its input held) at start, or (inf, -1) if
        none; a held load's candidate is rejected after its draws."""
        env = flow.envelope(z) if self.coupled else 0.0
        # |level| is omega1: the rate law at omega = +-env toward faster switching
        with np.errstate(over="ignore"):  # an overflowing env gives the 1/s cap
            bound = rate_law(loads.base, loads.pop.omega1, self.k_pi, env)
        cum = bound.cumsum()
        total, last, pick, t = cum.item(-1), cum.size - 1, cum.searchsorted, start
        rng, advance, omega_of = self.rng, flow.advance, flow.omega
        while True:
            t += rng.standard_exponential() / total
            self.draws += 1
            if t >= end:
                return math.inf, -1
            j = min(int(pick(rng.random() * total, "right")), last)
            omega = omega_of(advance(z, t - start)) if self.coupled else 0.0
            # in Python floats an overflowing omega gives the cap without a warning
            rate = rate_law(loads.base.item(j), loads.level.item(j), self.k_pi, omega)
            if rng.random() * bound.item(j) < rate and not loads.held(j, t):
                return t, j


def crossing_free(flow, z, on_min: float, off_max: float, slack: float, steps: float) -> bool:
    """Whether each step of a held pass of at most steps steps from the grid
    state z passes the quiet loop's test max(g_a, g_b) + slack < 0, g the
    excess over the open levels on_min, off_max: if (envelope(z) + slack) (1 +
    r) < level = min(on_min, -off_max), r = (2K + 6 steps + 16) u, K modes, u
    = 2**-53, and level >= (3 steps + 4K + 1) (1 + W) 2**-1021, W =
    flow.weight.

    Rounding model (Higham 2002, §2.2): fl(x op y) = (x op y)(1 + d) + e,
    |d| <= u, and |e| <= 2**-1074 only where the result underflows. The
    factors: a step scales |z_k| by at most (1 + u)^6 (3 roundings in exp(lam
    h), Re lam < 0, 3 in the product), so omega (2 a term, K in the sum) is
    within envelope(z) (|w_k|, hypot's 2, product, sum K) times (1 +
    u)^(2K + 6 steps + 6); the excess, the test and the certificate round 6
    more times, and 4 cover second-order terms while 2K + 6 steps < 2**26. So
    a certified pass keeps a margin of 3u times the bound to spare, at least
    u level (or most of level, where the bound is below level / 3). The
    terms e: a step adds at most 3e to each z_k and, as |exp(lam h)| <= 1,
    never grows an earlier one; omega and the envelope add 2e a mode and e
    for omega_inf. Weighted by |w_k| <= W they move the test by at most (3
    steps + 4K + 1) (1 + W) 2**-1074, which the floor on level keeps within
    u level. Below it, where subnormal states round by absolute steps, the
    certificate refuses and each step is tested. Inf or NaN (an overflowing
    z) never passes."""
    level, bound = min(on_min, -off_max), flow.envelope(z) + slack
    return (
        bound < level
        and bound * (1.0 + (2 * len(z) + 6 * steps + 16) * 2.0**-53) < level
        and (3 * steps + 4 * len(z) + 1) * (1.0 + flow.weight) * 2.0**-1021 <= level
    )


@dataclass
class Trace:
    times: np.ndarray          # sample times
    jumps: np.ndarray          # cumulative jump count at each sample
    omega: np.ndarray          # frequency deviation c x, Hz
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
    if not is_hurwitz(sc.grid):
        raise SimulationError("grid model is not Hurwitz-certified")

    scheme = sc.scheme
    randomized = scheme.kind == "randomized"
    zeno_max = ZENO_PER_LOAD * n_loads

    # the states at t = 0 are the seed's draw, as in stats; looked up at call
    # time, so a wrapper set on tcl.sample_initial_states sees the call
    from .tcl import sample_initial_states

    temps, sigmas = sample_initial_states(pop, sc.seed)
    loads = LoadAnchors(pop, scheme, temps, sigmas)

    # the grid sees the TCL demand as its deviation from d* = sum alpha d_bar
    d_star = float(np.sum(pop.alpha * pop.d_bar))
    max_step = sc.max_step
    flow = grid_model.ModalFlow(sc.grid, max_step)
    clocks = ThinnedClocks(scheme, sc.seed) if randomized else None
    walk = grid_model.CrossingWalk(flow, loads.excess)

    # each sample's time, jump count, z, held input, d_s and on fraction, flat
    samples = []
    switch_log = []  # (time, load, new state, cause)
    # loop_iterations: passes of the event part of the loop
    meta = {"rate_resamples": 0, "max_jump_instants": 0, "loop_iterations": 0,
            "certified_passes": 0, "certified_steps": 0, "crossing_free_calls": 0}

    dist_levels = [v for _, v in sc.disturbance]
    dist_next = [t for t, _ in sc.disturbance[1:]] + [math.inf]  # the next change's time

    z = flow.enter(np.zeros(sc.grid.dim), 0.0)
    t = 0.0
    jumps = 0
    dist_idx = 0

    def grid_states() -> tuple[list, np.ndarray]:
        """The samples' columns, and their grid states, all of them finite."""
        columns = [samples[i::6] for i in range(6)]
        times, _, zs, us = columns[:4]
        states = flow.states(zs, us)
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            raise SimulationError(f"non-finite grid state at t={times[int(np.argmin(finite))]}")
        return columns, states

    def apply_jumps(clock_fired: int | None) -> None:
        """Settle all enabled jumps at the current instant and record its sample."""
        nonlocal jumps
        switches, rounds = loads.settle(omega(z), t, clock_fired, zeno_max)
        switch_log.extend(switches)
        jumps += rounds
        meta["max_jump_instants"] = max(meta["max_jump_instants"], rounds)
        extend((t, jumps, z, flow.u, loads.d_s, loads.on_fraction))

    advance, omega, excess, extend = flow.advance, flow.omega, loads.excess, samples.extend
    # corrective jump pass so z(0,0) starts consistent with the flow set
    apply_jumps(None)

    tiny, reach = 1e-12, max_step * (1.0 + _SNAP_REL)  # reach: snap's, for a cadence step
    # the next accepted candidate, drawn for the segment of held input and
    # load states keyed by (jumps, dist_idx)
    t_fire, fire, segment = math.inf, -1, None
    cadence_steps = 0
    while t < sc.horizon - tiny:
        d_s, on_fraction = loads.d_s, loads.on_fraction
        z = flow.hold(z, dist_levels[dist_idx] + d_s - d_star)
        u = flow.u
        # guard_min is +inf under the randomized scheme, so a segment ends
        # at the same stop
        stop = min(loads.theta_min, loads.guard_min, dist_next[dist_idx], sc.horizon)
        if randomized and segment != (jumps, dist_idx):
            segment = (jumps, dist_idx)
            t_fire, fire = clocks.first_accepted(loads, flow, z, t, stop)
        stop = min(stop, t_fire)
        if stop <= t:
            raise SimulationError(f"non-positive step {stop - t} at t={t}")

        # a step between disabled ends is crossing-free if it passes the
        # curvature test of CrossingWalk, with M2 from the pass start (it
        # bounds the rest of the pass); excess is -inf with no open branch
        g_a = excess(omega(z))
        slack = flow.curvature(z) * max_step**2 / 8 if g_a > -math.inf else 0.0
        # steps that snap no load are committed here, untested up to the last
        # before stop (<= theta_min, guard_min, t_fire; more than reach away)
        # if the pass start certifies them, else if they pass that test; the
        # first step that may snap a load or enable a jump goes on
        quiet_until = stop - 2 * max_step - tiny
        steps = (stop - t) / max_step + 2
        tried = t < quiet_until  # a pass with a quiet step tries the certificate
        meta["crossing_free_calls"] += tried
        if tried and crossing_free(flow, z, loads.on_min, loads.off_max, slack, steps):
            end, committed = min(stop, dist_next[dist_idx] - tiny, sc.horizon - tiny), len(samples)
            while stop - t > reach and t + max_step < end:
                z = advance(z, max_step)
                t += max_step
                extend((t, jumps, z, u, d_s, on_fraction))
            meta["certified_passes"] += 1
            meta["certified_steps"] += (len(samples) - committed) // 6
            g_a = excess(omega(z))
        while True:
            dt = min(stop - t, max_step)
            z_end = advance(z, dt)
            omega_end = omega(z_end)
            if not math.isfinite(omega_end):
                grid_states()  # the first non-finite state may be a sample's
                raise SimulationError(f"non-finite grid state at t={t + dt}")
            g_b = excess(omega_end)
            certified = max(g_a, g_b) + slack < 0
            if t >= quiet_until or not certified:
                break
            z, g_a = z_end, g_b
            t += dt
            extend((t, jumps, z, u, d_s, on_fraction))
            cadence_steps += 1

        meta["loop_iterations"] += 1
        clock_fired = fire if t_fire - t <= dt else None
        dt_event = dt
        # a jump instant leaves the start disabled; with no open branch
        # (excess -inf) or on a certified step (the walk's own first test,
        # with M2 from the step start, passes too) no level is crossed
        if -math.inf < g_a < 0 and not certified:
            crossing = next(walk.crossings(z, g_a, dt, g_b, z_end), None)
            if crossing is not None:
                dt_event, z_end = crossing

        # commit the flow
        z = z_end
        if dt_event == dt:
            loads.snap(t, dt)
        t += dt_event
        if t >= dist_next[dist_idx] - tiny:
            dist_idx += 1

        apply_jumps(clock_fired)

    final = loads.temps_at(np.arange(n_loads), t)
    temp_min = np.minimum(loads.temp_min, final)
    temp_max = np.maximum(loads.temp_max, final)
    sw_t, sw_load, sw_sig, sw_cause = zip(*switch_log) if switch_log else ((),) * 4
    (s_t, s_j, _, _, s_ds, s_on), states = grid_states()
    meta.update(
        cadence_steps=cadence_steps + meta["certified_steps"],  # steps the quiet loop commits
        freq_bisections=walk.probes,  # omega probes of the crossing search
        clock_draws=clocks.draws if randomized else 0,
        jump_count=jumps,
    )
    return Trace(
        times=np.array(s_t),
        jumps=np.array(s_j),
        omega=states @ sc.grid.c,
        x_hat=states[:, 1:].copy(),
        d_s=np.array(s_ds),
        on_fraction=np.array(s_on),
        switch_times=np.array(sw_t),
        switch_loads=np.array(sw_load, dtype=int),
        switch_new_sigma=np.array(sw_sig, dtype=np.int8),
        switch_causes=list(sw_cause),
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
        """Length of the longest contiguous span with |omega| <= eps: a run
        of such samples lasts from its first sample to the first sample
        outside it, or to the last sample."""
        inside = np.concatenate(([False], np.abs(self.omega) <= eps, [False]))
        # runs cover samples starts[i] to ends[i] - 1
        starts, ends = np.flatnonzero(inside[1:] != inside[:-1]).reshape(-1, 2).T
        ends = np.minimum(ends, self.times.size - 1)
        return float(np.max(self.times[ends] - self.times[starts], initial=0.0))


def dwell_time_report(tr: Trace) -> FrequencyMetrics:
    n_loads = tr.temp_min.shape[0]
    counts = np.bincount(tr.switch_loads, minlength=n_loads)
    order = np.lexsort((tr.switch_times, tr.switch_loads))
    loads, times = tr.switch_loads[order], tr.switch_times[order]
    # the gaps between consecutive switches of one load
    min_gap = float(np.min(np.diff(times)[loads[1:] == loads[:-1]], initial=math.inf))
    return FrequencyMetrics(
        peak_abs_omega=float(np.max(np.abs(tr.omega))),
        min_interswitch_gap=min_gap,
        switch_counts=counts,
        times=tr.times,
        omega=tr.omega,
    )


RIPPLE_WINDOW = 10.0  # s, the span of each window of ripple_envelope
RIPPLE_CADENCE = 0.01  # s, its resampling step


def ripple_envelope(times: np.ndarray, omega: np.ndarray) -> float:
    """Robust amplitude of a quasi-stationary frequency ripple.

    The signal is resampled every RIPPLE_CADENCE onto a uniform grid, split
    into consecutive windows of RIPPLE_WINDOW, and the envelope is the median
    of the per-window maxima of |omega| — insensitive to a few outlier
    excursions, unlike the global peak.
    """
    if times.size < 2:
        raise SimulationError("ripple envelope needs at least two samples")
    grid = np.arange(float(times[0]), float(times[-1]), RIPPLE_CADENCE)
    resampled = np.abs(np.interp(grid, times, omega))
    per_window = round(RIPPLE_WINDOW / RIPPLE_CADENCE)
    n_blocks = resampled.size // per_window
    if n_blocks == 0:
        return float(np.max(resampled))
    blocks = resampled[: n_blocks * per_window].reshape(n_blocks, per_window)
    return float(np.median(blocks.max(axis=1)))


# the named schemes: compare_schemes runs each, and a scenario's kind names one
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
