"""Exact time-average statistics of piecewise-constant demand signals and
brute-force oracles for the variance and cross-correlation results.

Free-running loads have analytically known switch times, so every statistic
here is computed by exact piecewise integration, never by grid sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tcl import Population, next_thermostat_event, period, run_index


class StatsError(ValueError):
    pass


@dataclass(frozen=True)
class TimeSeries:
    """Right-continuous piecewise-constant signal scale * values: values[i]
    holds on [times[i], times[i+1]); the last value extends indefinitely.
    values are floats, or integers: a one-magnitude population's demand is
    the count k of its N loads ON, of the narrowest signed type holding N,
    with scale d (aggregate_demand_series), so each level d * k is exact."""

    times: np.ndarray
    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values)
        integer = values.dtype.kind in "iu"
        if not integer:
            values = values.astype(float, copy=False)
        if times.ndim != 1 or times.shape != values.shape:
            raise StatsError("times and values must be 1-D arrays of equal length")
        if times.size == 0:
            raise StatsError("series must be non-empty")
        # CHUNK times at a time, so no full-length mask; NaN compares false,
        # so it fails here too
        for start in range(0, times.size - 1, CHUNK):
            edge = times[start : start + CHUNK + 1]
            if not np.all(edge[1:] > edge[:-1]):
                raise StatsError("times must be strictly increasing")
        # an integer is finite
        if not (
            np.isfinite(times[[0, -1]]).all()
            and math.isfinite(self.scale)
            and (integer or np.isfinite(values).all())
        ):
            raise StatsError("times, values and scale must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        times.setflags(write=False)
        values.setflags(write=False)

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        """Check the window [t0, t1]; times[lo:hi] are the times inside it."""
        if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
            raise StatsError(f"window [{t0}, {t1}] is not finite and non-empty")
        if t0 < self.times[0]:
            raise StatsError(f"window start {t0} precedes series support {self.times[0]}")
        return int(np.searchsorted(self.times, t0, "right")), int(np.searchsorted(self.times, t1))

    def pieces(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """The constant pieces covering [t0, t1]: their values (the signal
        over scale) and widths."""
        # the piece starting at t0 takes the last value at or before it
        lo, hi = self._span(t0, t1)
        # the differences of t0, times[lo:hi], t1, taken in place in one array
        inner = self.times[lo:hi]
        widths = np.append(inner, t1)
        widths[1:] -= inner
        widths[0] -= t0
        return self.values[lo - 1 : hi], widths

    def _moment_sums(self, t0: float, t1: float, squares: bool) -> list[float]:
        """np.sum(v * w), and if squares np.sum(c * w) and np.sum(c * w *
        c) with c = np.subtract(v, k0, dtype=float), over the pieces (v, w)
        of [t0, t1], bit for bit, from no full-length array. k0 is 0 for
        float values; for integers it is the mean of about 1,024 evenly
        spaced pieces' values cast to their type, so c is exact and the
        moments do not cancel (time_variance). numpy sums pairwise (blocks
        of 128; a longer run of m adds its halves split at h = m // 2 - (m
        // 2) % 8), and the sum, like its error bound (Higham 1993), is the
        tree's, so the tree is walked: a node of m > max(CHUNK, 128) pieces
        splits at h and adds its halves as floats, a leaf takes np.sum of
        its terms, its widths from pieces between its edge times. A sum that
        is not finite raises StatsError."""
        lo, hi = self._span(t0, t1)
        values, shift = self.values, 0.0
        if squares and values.dtype.kind in "iu":
            shift = values[lo - 1 : hi : max(1, (hi - lo) // 1024)].mean().astype(values.dtype)

        def walk(start: int, stop: int, a: float, b: float) -> list[float]:
            if stop - start > max(CHUNK, 128):
                half = (stop - start) // 2 // 8 * 8
                mid = float(self.times[lo + start + half - 1])  # piece start + half begins here
                left, right = walk(start, start + half, a, mid), walk(start + half, stop, mid, b)
                return [x + y for x, y in zip(left, right)]
            v, w = self.pieces(a, b)
            if not squares:
                w *= v
                return [float(np.sum(w))]
            c = np.subtract(v, shift, dtype=float)
            w *= c
            c *= w
            return [float(np.sum(w)), float(np.sum(c))]

        with np.errstate(over="ignore", invalid="ignore"):
            sums = walk(0, hi - lo + 1, t0, t1)
        if not all(map(math.isfinite, sums)):
            raise StatsError(f"the moment sums over [{t0}, {t1}] overflow")
        return sums

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of the signal over [t0, t1]: scale times np.sum(v *
        w) over the pieces, summed leaf by leaf down numpy's pairwise tree
        (_moment_sums)."""
        return self.scale * self._moment_sums(t0, t1, squares=False)[0]


def time_average(ts: TimeSeries, window: tuple[float, float]) -> float:
    t0, t1 = window
    return ts.integral(t0, t1) / (t1 - t0)


def time_variance(ts: TimeSeries, window: tuple[float, float]) -> float:
    """Exact variance of the signal over the window: scale**2 (M2 - m**2)
    from the moments m and M2 of the pieces' values about k0, both summed in
    one walk of numpy's pairwise tree (_moment_sums), CHUNK pieces at a
    time, from no full-length array.

    Error bound. Over n pieces (v_i, w_i) and T = t1 - t0, let c_i = v_i -
    k0 (exact: k0 is 0, or integers below 2**53), m = sum(c w) / T and M2 =
    sum(c**2 w) / T, exactly, and u = 2**-53. Away from underflow (every
    width, term and moment a normal double or 0) a rounding is a factor
    within 1 + u. A window of subnormal width T raises StatsError; the bound
    still excludes subnormal piece widths (pieces from below 2**-970 s), and
    terms, sums or scale**2 below 2**-1022 (values or scale below 1e-154).
    Each width and T round once, a term c w twice and (c w) c three times,
    and numpy's pairwise sum passes a term through at most h = 24 + max(0,
    ceil(log2(n / 128))) additions (Higham 2002, §4.2). By Cauchy-Schwarz
    sum(|c| w) <= T sqrt(M2), so with g = (h + 6) u / (1 - (h + 6) u) the
    computed M2 is within g M2 of M2 and m within g sqrt(M2) of m; m**2,
    the difference, scale**2 and the product round once each. The result
    is then within
        scale**2 ((g + 7 u) M2 + 2 g |m| sqrt(M2))
    of the variance of the exact signal. A count series is centered near its
    mean, where M2 is about the variance and m about 0: on the analysis-8000
    shape (2.5e6 pieces, h = 39, |m| below 0.01 of the standard deviation)
    the bound is 5.8e-15 of the variance. Float values are taken about 0,
    as the one-pass moments, whose M2 can far exceed the variance."""
    t0, t1 = window
    if 0.0 < t1 - t0 < np.finfo(float).smallest_normal:
        raise StatsError(f"window [{t0}, {t1}] is narrower than the normal range")
    first, second = ts._moment_sums(t0, t1, squares=True)
    mean = first / (t1 - t0)
    return max(second / (t1 - t0) - mean * mean, 0.0) * (ts.scale * ts.scale)


def theoretical_variance(pop: Population) -> float:
    """Closed-form long-run variance sum alpha_j (1 - alpha_j) d_bar_j^2.

    Exact for equal-magnitude populations; for unequal magnitudes the same
    per-load Bernoulli form is used.
    """
    return float(np.sum(pop.alpha * (1.0 - pop.alpha) * pop.d_bar**2))


# Most loads per row-wise cumsum in _load_major_events. The loads are blocked
# by their level at t = 0, then in order of cycle count, and a block also
# ends before a row more than 1/16 wider than its first, so it pads each row
# by at most 1/16. The merge packs and sorts the cells where they were summed.
SWITCH_BLOCK = 256
# Most pieces per leaf of _moment_sums, and most events per pass of
# _count_series' count reads and of TimeSeries' increasing check.
CHUNK = 1 << 16


def free_run_events(
    pop: Population, temperatures, sigmas, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Demand events of isolated loads on [0, horizon]: for load 0, then load
    1 and so on, its level at t = 0, then its switch instants with steps
    +-d_bar, the conventional simulate's switches bit for bit. The rows of
    _load_major_events, each load's kept cells gathered in load order."""
    sums, _, row_at, counts, fill_steps = _load_major_events(pop, temperatures, sigmas, horizon)
    cells = np.repeat(row_at - (np.cumsum(counts) - counts), counts)
    cells += np.arange(cells.size)
    times = sums[cells]
    fill_steps()
    return times, sums[cells]


def _load_major_events(pop: Population, temperatures, sigmas, horizon: float):
    """Every load's demand events on [0, horizon], one row of a padded buffer
    per load: 0.0, then its switch instants. A load at or past its active
    threshold switches at t = 0, which sets its level there. The next switch
    is solved from the flow from the actual temperature, and each later one
    adds the stroke of the state switched to, in a row-wise cumsum over
    blocks of at most SWITCH_BLOCK loads (see there). Times rise along a row,
    so its kept cells (times <= horizon) are a prefix; the cells past them
    lie past the horizon.

    Returns the buffer; the blocks as (loads, 2-D view of the buffer), in
    buffer order; each load's first cell and kept count; and a function that
    refills the buffer with each cell's step: the load's level at t = 0
    (0 or d_bar) in column 0, then -+d_bar from the first switch on.
    """
    if not horizon >= 0:
        raise StatsError(f"horizon must be non-negative, got {horizon}")
    sigmas = np.asarray(sigmas)
    temperatures = np.asarray(temperatures, dtype=float)
    # a load at or past its active threshold switches at t = 0, which sets its
    # level; every load then flows from its actual temperature in its level
    level = np.where(next_thermostat_event(pop, temperatures, sigmas) == 0.0, 1 - sigmas, sigmas)
    lead = next_thermostat_event(pop, temperatures, level)
    # a row is its lead plus positive strokes, so its times share the lead's
    # sign, which the merge's keys do not hold
    if np.any(np.signbit(lead)):
        raise StatsError("times must be non-negative, and not -0.0")
    own = np.where(level == 1, pop.pi_on, pop.pi_off)
    other = np.where(level == 1, pop.pi_off, pop.pi_on)
    n_cycles = np.maximum((horizon - lead) // period(pop), 0)
    if not np.all(n_cycles * len(pop) < 2**58):  # else (or NaN) no array holds the rows
        raise StatsError(f"the switch series of horizon {horizon} s is too long to hold")
    n_cycles = n_cycles.astype(int) + 2
    # a load's row: t = 0, lead, then the strokes of the other state and of
    # its own in turn, out to two cycles past the horizon. The loads OFF at
    # t = 0 come first, and the loads ON at t = 0 start at odd cells behind
    # one spare cell: rows are of even width, so a switch at an odd cell
    # turns its load ON, and a row starts at an odd cell if its load is ON
    loads = np.lexsort((n_cycles, level))
    row_widths = 2 * n_cycles[loads] + 2
    ends = [0]
    for stop in (int(np.count_nonzero(level == 0)), len(pop)):
        while ends[-1] < stop:
            s = ends[-1]
            cap = int(row_widths[s]) * 17 // 16
            ends.append(s + min(SWITCH_BLOCK, int(np.searchsorted(row_widths[s:stop], cap, "right"))))
    widths = [int(row_widths[e - 1]) for e in ends[1:]]
    sums = np.empty(1 + sum((e - s) * w for s, e, w in zip(ends, ends[1:], widths)))
    row_at, counts = np.empty((2, len(pop)), dtype=int)
    blocks, pos = [], 0
    for s, e, width in zip(ends, ends[1:], widths):
        rows = loads[s:e]
        pos |= int(level[rows[0]])
        block = sums[pos : pos + rows.size * width].reshape(rows.size, width)
        block[:, 0] = 0.0
        block[:, 1] = lead[rows]
        block[:, 2::2] = other[rows, None]
        block[:, 3::2] = own[rows, None]
        np.cumsum(block, axis=1, out=block)
        counts[rows] = np.count_nonzero(block <= horizon, axis=1)
        row_at[rows] = pos + width * np.arange(rows.size)
        blocks.append((rows, block))
        pos += block.size
    first = level * pop.d_bar
    step = np.where(level == 1, -pop.d_bar, pop.d_bar)

    def fill_steps():
        for rows, block in blocks:
            block[:, 0] = first[rows]
            block[:, 1::2] = step[rows, None]
            block[:, 2::2] = -step[rows, None]

    return sums, blocks, row_at, counts, fill_steps


def aggregate_demand_series(
    pop: Population, temperatures, sigmas, horizon: float
) -> TimeSeries:
    """Aggregate free-running demand of the whole population: every load's
    events merged in time order, the running sum of their steps, and each
    run of exact ties merged into its last event.

    Where every load has one magnitude d, as in every sampled population,
    the series holds counts k of the loads ON, of the narrowest signed type
    holding N, with scale d, so its levels are d * k exactly and tie order
    cannot move them (_count_series). The merge holds the padded buffer
    and, from the sort on, the counts. Mixed magnitudes, reached
    by no command, take the definition: a stable sort of free_run_events'
    events, the running sum of their float steps, and the tie merge.
    time_variance of the series makes no full-length array."""
    d_bar = np.ravel(pop.d_bar)
    if np.all(d_bar == d_bar[0]):
        return _count_series(pop, temperatures, sigmas, horizon, float(d_bar[0]))
    times, steps = free_run_events(pop, temperatures, sigmas, horizon)
    order = np.argsort(times, kind="stable")
    times, levels = times[order], np.cumsum(steps[order])
    last = run_index(times, last=True)
    return TimeSeries(times=times[last], values=levels[last])


def _count_series(pop: Population, temperatures, sigmas, horizon: float, d: float):
    """aggregate_demand_series where every load has the magnitude d.

    The keys of the kept cells (_time_bit_keys) get one integer sort in
    place; they carry the whole time, so the order is exact. A key's parity
    gives its step, +1 or -1, from the number of loads OFF at t = 0. The
    t = 0 run, every key below 2, leaves its last cell with the ON count
    there, where the series starts. Then, CHUNK events at a time, each
    key's step is written straight into the counts, of the narrowest signed
    type holding N, and summed there, and the key is shifted back into its
    time in place. A chunk with no exact tie, as in practice every chunk
    after the t = 0 run, moves nothing; in one with ties, the last event of
    each run of equal times moves forward in place with its count. The
    series' times are a view of the padded buffer."""
    keys, carry = _time_bit_keys(pop, temperatures, sigmas, horizon)
    keys.sort()
    base = int(keys.searchsorted(np.uint64(2))) - 1  # the t = 0 run ends there
    counts = np.empty(keys.size - base, np.min_scalar_type(-len(pop) - 1))
    counts[0] = carry = carry - base - 1 + 2 * np.count_nonzero(keys[: base + 1])
    keys[base] = 0
    kept = 1  # the series so far: keys[base : base + kept], counts[:kept]
    for start in range(base + 1, keys.size, CHUNK):
        chunk = keys[start : start + CHUNK]
        stop = start + chunk.size
        step = counts[kept : kept + chunk.size]
        np.bitwise_and(chunk, 1, out=step, casting="unsafe")
        step <<= 1
        step -= 1
        step[0] += carry
        np.cumsum(step, out=step)
        carry = step[-1]
        chunk >>= 1
        last = np.empty(chunk.size, dtype=bool)
        np.not_equal(chunk[1:], chunk[:-1], out=last[:-1])
        last[-1] = stop == keys.size or keys[stop] >> 1 != chunk[-1]
        if not last.all():
            chunk = chunk[last]
            step[: chunk.size] = step[last]
        keys[base + kept : base + kept + chunk.size] = chunk
        kept += chunk.size
    return TimeSeries(times=keys[base : base + kept].view(float), values=counts[:kept], scale=d)


def _time_bit_keys(pop: Population, temperatures, sigmas, horizon: float):
    """The kept cells' keys, packed in place at the front of the padded
    buffer of _load_major_events, and the number of loads OFF at t = 0. A
    key is its cell's time bits shifted left by one (the sign bit of a
    non-negative time is clear) with the cell's parity in the freed low bit:
    odd cells are the switches ON and the cells at t = 0 of the loads ON
    there. Blocks are packed front to back: a block keeps no more cells than
    it holds, so its keys never reach a later block, and the cells only some
    of its rows keep are read before its rectangle is written."""
    sums, blocks, row_at, counts, _ = _load_major_events(pop, temperatures, sigmas, horizon)
    bits = sums.view(np.uint64)
    start = 0
    for rows, block in blocks:
        lo, hi = int(counts[rows].min()), int(counts[rows].max())
        # the cells only some rows keep, taken by a mask
        r, c = np.nonzero(block[:, lo:hi] <= horizon)
        cells = row_at[rows[r]] + c + lo
        tail = bits[cells] << 1
        tail |= cells.view(np.uint64) & 1
        # the columns every row keeps, as one rectangle, CHUNK cells at a
        # time: a row's keys start no later than its cells, so each part
        # overwrites only cells already read (numpy copies its overlap); the
        # rows of a block start at cells of one parity, so its odd cells fill
        # every other column
        rect = bits[start : start + rows.size * lo].reshape(rows.size, lo)
        per = max(1, CHUNK // lo)
        for top in range(0, rows.size, per):
            part = slice(top, top + per)
            np.left_shift(block[part, :lo].view(np.uint64), 1, out=rect[part])
        rect[:, 1 - row_at[rows[0]] % 2 :: 2] |= 1
        start += rect.size
        bits[start : start + tail.size] = tail
        start += tail.size
    return bits[:start], int(np.count_nonzero(row_at % 2 == 0))


def cross_term_oracle(
    p_i: Population,
    p_j: Population,
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
    s_i = aggregate_demand_series(p_i, [init_i[0]], [init_i[1]], horizon)
    s_j = aggregate_demand_series(p_j, [init_j[0]], [init_j[1]], horizon)
    times = np.sort(np.concatenate((s_i.times, s_j.times)))
    times = times[run_index(times)]
    v_i = s_i.scale * s_i.values[np.searchsorted(s_i.times, times, side="right") - 1]
    v_j = s_j.scale * s_j.values[np.searchsorted(s_j.times, times, side="right") - 1]
    product = TimeSeries(times=times, values=v_i * v_j)
    return time_average(product, (0.0, horizon))
