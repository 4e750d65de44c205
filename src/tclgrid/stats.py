"""Exact time-average statistics of piecewise-constant demand signals and
brute-force oracles for the variance and cross-correlation results.

Free-running loads have analytically known switch times, so every statistic
here is computed by exact piecewise integration, never by grid sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tcl import Population, TclParams, next_thermostat_event, period


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class TimeSeries:
    """Right-continuous piecewise-constant signal: values[i] holds on
    [times[i], times[i+1]); the last value extends indefinitely."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise StatsError("times and values must be 1-D arrays of equal length")
        if times.size == 0:
            raise StatsError("series must be non-empty")
        if np.any(np.diff(times) <= 0):
            raise StatsError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        times.setflags(write=False)
        values.setflags(write=False)

    def pieces(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """The constant pieces covering [t0, t1]: their values and widths."""
        if t1 <= t0:
            raise StatsError(f"empty window [{t0}, {t1}]")
        if t0 < self.times[0]:
            raise StatsError(f"window start {t0} precedes series support {self.times[0]}")
        # times[lo:hi] are the interior times; the piece starting at t0 takes
        # the last value at or before it, values[lo - 1]
        lo = np.searchsorted(self.times, t0, side="right")
        hi = np.searchsorted(self.times, t1, side="left")
        edges = np.concatenate([[t0], self.times[lo:hi], [t1]])
        return self.values[lo - 1 : hi], np.diff(edges)

    def integral(self, t0: float, t1: float, power: int = 1) -> float:
        """Exact integral of values**power over [t0, t1]."""
        vals, widths = self.pieces(t0, t1)
        return float(np.sum(vals**power * widths))


def time_average(ts: TimeSeries, window: tuple[float, float]) -> float:
    t0, t1 = window
    return ts.integral(t0, t1) / (t1 - t0)


def time_variance(ts: TimeSeries, window: tuple[float, float]) -> float:
    t0, t1 = window
    vals, widths = ts.pieces(t0, t1)
    mean = float(np.sum(vals * widths)) / (t1 - t0)
    mean_sq = float(np.sum(vals**2 * widths)) / (t1 - t0)
    return mean_sq - mean * mean


def theoretical_variance(pop: Population, warn=None) -> float:
    """Closed-form long-run variance sum alpha_j (1 - alpha_j) d_bar_j^2.

    Exact for equal-magnitude populations; for unequal magnitudes the same
    per-load Bernoulli form is used and a warning is emitted via `warn`.
    """
    if warn is not None and np.any(pop.d_bar != pop.d_bar[0]):
        warn("population magnitudes are unequal; using per-load Bernoulli terms")
    return float(np.sum(pop.alpha * (1.0 - pop.alpha) * pop.d_bar**2))


# Loads per row-wise cumsum in free_run_events; bounds the padded block.
SWITCH_BLOCK = 256


def free_run_events(
    pop: Population, temperatures, sigmas, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Demand events of isolated loads on [0, horizon]: for load 0, then load
    1 and so on, its level at t = 0, then its switch instants with steps
    +-d_bar. The first switch is solved from the flow (at t = 0 it sets the
    level instead), and each later one adds the stroke of the state switched
    to, one at a time: a row-wise cumsum over blocks of SWITCH_BLOCK loads.
    """
    sigmas = np.asarray(sigmas)
    first = next_thermostat_event(pop, np.asarray(temperatures, dtype=float), sigmas)
    # each switch is followed by the stroke of the state it switched to
    after_odd = np.where(sigmas == 1, pop.pi_off, pop.pi_on)
    after_even = np.where(sigmas == 1, pop.pi_on, pop.pi_off)
    n_cycles = np.maximum((horizon - first) // period(pop), 0).astype(int) + 2
    level0 = np.where(first == 0.0, 1 - sigmas, sigmas) * pop.d_bar
    times, deltas = [np.empty(0)], [np.empty(0)]
    for start in range(0, len(pop), SWITCH_BLOCK):
        rows = slice(start, start + SWITCH_BLOCK)
        # column 0 is t = 0, column c >= 1 the c-th switch
        steps = np.zeros((first[rows].size, 2 * int(n_cycles[rows].max()) + 2))
        steps[:, 1] = first[rows]
        steps[:, 2::2] = after_odd[rows, None]
        steps[:, 3::2] = after_even[rows, None]
        block_times = np.cumsum(steps, axis=1)
        kept = block_times <= horizon
        kept[:, 1] &= first[rows] != 0.0
        # the c-th switch leads to state sigma ^ (c & 1)
        switched_on = (sigmas[rows, None] == 1) == (np.arange(steps.shape[1]) % 2 == 0)
        block_deltas = np.where(switched_on, pop.d_bar[rows, None], -pop.d_bar[rows, None])
        block_deltas[:, 0] = level0[rows]
        times.append(block_times[kept])
        deltas.append(block_deltas[kept])
    return np.concatenate(times), np.concatenate(deltas)


def demand_series(p: TclParams, temperature: float, sigma: int, horizon: float) -> TimeSeries:
    """Free-running demand of a single load as an exact piecewise signal."""
    return aggregate_demand_series(Population.of([p]), [temperature], [sigma], horizon)


def aggregate_demand_series(
    pop: Population, temperatures, sigmas, horizon: float
) -> TimeSeries:
    """Aggregate free-running demand of the whole population, built by merging
    every load's analytic switch instants."""
    times, deltas = free_run_events(pop, temperatures, sigmas, horizon)
    times = np.concatenate([[0.0], times])
    deltas = np.concatenate([[0.0], deltas])
    order = np.argsort(times, kind="stable")
    times = times[order]
    levels = np.cumsum(deltas[order])
    # merge coincident event times (measure-zero ties)
    keep = np.concatenate([times[1:] != times[:-1], [True]])
    return TimeSeries(times=times[keep], values=levels[keep])


def cross_term_oracle(
    p_i: TclParams,
    p_j: TclParams,
    horizon: float,
    init_i: tuple[float, int] | None = None,
    init_j: tuple[float, int] | None = None,
) -> float:
    """Brute-force time average of the product of two free-running demands.

    Exact piecewise integration over [0, horizon]; the limit value for
    incommensurate periods is alpha_i * alpha_j * d_bar_i * d_bar_j.
    """
    if init_i is None:
        init_i = (p_i.t_hi, 1)
    if init_j is None:
        init_j = ((p_j.t_lo + p_j.t_hi) / 2, 0)
    s_i = demand_series(p_i, *init_i, horizon)
    s_j = demand_series(p_j, *init_j, horizon)
    times = np.sort(np.concatenate((s_i.times, s_j.times)))
    times = times[np.append(True, times[1:] != times[:-1])]  # np.union1d imports numpy.ma
    v_i = s_i.values[np.searchsorted(s_i.times, times, side="right") - 1]
    v_j = s_j.values[np.searchsorted(s_j.times, times, side="right") - 1]
    product = TimeSeries(times=times, values=v_i * v_j)
    return time_average(product, (0.0, horizon))


def star_discrepancy(points: np.ndarray) -> float:
    """Exact star discrepancy of a finite point set in [0, 1)."""
    u = np.sort(np.asarray(points, dtype=float))
    n = u.size
    if n == 0:
        raise StatsError("empty point set")
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - u, u - (i - 1) / n)))


def switch_offset_sequence(p_i: TclParams, p_j: TclParams, n_terms: int) -> np.ndarray:
    """Normalized offsets ((k * c) mod pi_j) / pi_j of consecutive ON-switches
    of the slower load against the faster one's cycle, k = 1..n_terms."""
    pi_i = period(p_i)
    pi_j = period(p_j)
    if pi_i < pi_j:
        pi_i, pi_j = pi_j, pi_i
    c = (-pi_i) % pi_j
    k = np.arange(1, n_terms + 1)
    return (k * (c / pi_j)) % 1.0


def phase_uniformity(p_i: TclParams, p_j: TclParams, n_terms: int) -> float:
    """Star discrepancy of the switch-offset sequence; a diagnostic for how
    fast the two loads' relative phases equidistribute."""
    return star_discrepancy(switch_offset_sequence(p_i, p_j, n_terms))
