"""Exact time-average statistics of piecewise-constant demand signals and
brute-force oracles for the variance and cross-correlation results.

Free-running loads have analytically known switch times, so every statistic
here is computed by exact piecewise integration, never by grid sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tcl import TclParams, duty_cycle, next_thermostat_event, on_off_durations, period


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

    def integral(self, t0: float, t1: float, power: int = 1) -> float:
        """Exact integral of values**power over [t0, t1]."""
        if t1 <= t0:
            raise StatsError(f"empty window [{t0}, {t1}]")
        if t0 < self.times[0]:
            raise StatsError(f"window start {t0} precedes series support {self.times[0]}")
        edges = np.concatenate([[t0], self.times[(self.times > t0) & (self.times < t1)], [t1]])
        # value on [edges[i], edges[i+1]) is the last series value at or before edges[i]
        idx = np.searchsorted(self.times, edges[:-1], side="right") - 1
        vals = self.values[idx] ** power
        return float(np.sum(vals * np.diff(edges)))


def time_average(ts: TimeSeries, window: tuple[float, float]) -> float:
    t0, t1 = window
    return ts.integral(t0, t1) / (t1 - t0)


def time_variance(ts: TimeSeries, window: tuple[float, float]) -> float:
    t0, t1 = window
    mean = ts.integral(t0, t1) / (t1 - t0)
    mean_sq = ts.integral(t0, t1, power=2) / (t1 - t0)
    return mean_sq - mean * mean


def theoretical_variance(pop: list[TclParams], warn=None) -> float:
    """Closed-form long-run variance sum alpha_j (1 - alpha_j) d_bar_j^2.

    Exact for equal-magnitude populations; for unequal magnitudes the same
    per-load Bernoulli form is used and a warning is emitted via `warn`.
    """
    d_bars = [p.d_bar for p in pop]
    if warn is not None and len(set(d_bars)) > 1:
        warn("population magnitudes are unequal; using per-load Bernoulli terms")
    return sum(duty_cycle(p) * (1.0 - duty_cycle(p)) * p.d_bar**2 for p in pop)


def free_run_switch_times(
    p: TclParams, temperature: float, sigma: int, horizon: float
) -> np.ndarray:
    """Switch instants of an isolated thermostat load on [0, horizon].

    The load alternates states starting from (temperature, sigma); the first
    crossing is solved from the flow, later ones advance by the closed-form
    stroke durations. The running sum adds one stroke at a time, in order.
    """
    pi_on, pi_off = on_off_durations(p)
    first = float(next_thermostat_event(p, temperature, sigma))
    n_cycles = max(int((horizon - first) // (pi_on + pi_off)), 0) + 2
    steps = np.empty(2 * n_cycles + 1)
    steps[0] = first
    # each switch is followed by the stroke of the state it switched to
    steps[1::2], steps[2::2] = (pi_off, pi_on) if sigma else (pi_on, pi_off)
    times = np.cumsum(steps)
    return times[: np.searchsorted(times, horizon, side="right")]


def demand_series(
    p: TclParams, temperature: float, sigma: int, horizon: float
) -> TimeSeries:
    """Free-running demand of a single load as an exact piecewise signal."""
    switches = free_run_switch_times(p, temperature, sigma, horizon)
    if switches.size and switches[0] == 0.0:
        sigma = 1 - sigma  # already at the active threshold: switch immediately
        switches = switches[1:]
    times = np.concatenate([[0.0], switches])
    states = sigma ^ (np.arange(times.size) & 1)
    return TimeSeries(times=times, values=states * p.d_bar)


def aggregate_demand_series(
    pop: list[TclParams],
    temperatures: np.ndarray,
    sigmas: np.ndarray,
    horizon: float,
) -> TimeSeries:
    """Aggregate free-running demand of the whole population, built by merging
    every load's analytic switch instants."""
    event_times = [np.array([0.0])]
    event_deltas = [np.array([0.0])]
    for p, temp, sig in zip(pop, temperatures, sigmas):
        series = demand_series(p, float(temp), int(sig), horizon)
        event_times.append(series.times)
        event_deltas.append(np.diff(series.values, prepend=0.0))
    times = np.concatenate(event_times)
    deltas = np.concatenate(event_deltas)
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
