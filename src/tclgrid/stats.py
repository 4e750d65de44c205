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
        # NaN compares false, so it fails here too
        if not np.all(times[1:] > times[:-1]):
            raise StatsError("times must be strictly increasing")
        if not (np.isfinite(times[[0, -1]]).all() and np.isfinite(values).all()):
            raise StatsError("times and values must be finite")
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
        """The constant pieces covering [t0, t1]: their values and widths."""
        # the piece starting at t0 takes the last value at or before it
        lo, hi = self._span(t0, t1)
        # the differences of t0, times[lo:hi], t1, taken in place in one array
        inner = self.times[lo:hi]
        widths = np.append(inner, t1)
        widths[1:] -= inner
        widths[0] -= t0
        return self.values[lo - 1 : hi], widths

    def _moment_sums(self, t0: float, t1: float, squares: bool) -> list[float]:
        """np.sum(v * w), and if squares np.sum(np.square(v) * w), over the
        pieces (v, w) of [t0, t1], bit for bit, from no full-length array.
        numpy sums pairwise (blocks of 128; a longer run of m adds its halves
        split at h = m // 2 - (m // 2) % 8), and the sum, like its error bound
        (Higham 1993), is the tree's, so the tree is walked: a node of m >
        max(CHUNK, 128) pieces splits at h and adds its halves as floats, a
        leaf takes np.sum of its terms, its widths from pieces between its
        edge times. A sum that is not finite raises StatsError."""
        lo, hi = self._span(t0, t1)

        def walk(start: int, stop: int, a: float, b: float) -> list[float]:
            if stop - start > max(CHUNK, 128):
                half = (stop - start) // 2 // 8 * 8
                mid = float(self.times[lo + start + half - 1])  # piece start + half begins here
                left, right = walk(start, start + half, a, mid), walk(start + half, stop, mid, b)
                return [x + y for x, y in zip(left, right)]
            v, w = self.pieces(a, b)
            second = [float(np.sum(np.square(v) * w))] if squares else []
            w *= v
            return [float(np.sum(w)), *second]

        with np.errstate(over="ignore", invalid="ignore"):
            sums = walk(0, hi - lo + 1, t0, t1)
        if not all(map(math.isfinite, sums)):
            raise StatsError(f"the moment sums over [{t0}, {t1}] overflow")
        return sums

    def integral(self, t0: float, t1: float) -> float:
        """Exact integral of the values over [t0, t1]: np.sum(v * w) over the
        pieces, summed leaf by leaf down numpy's pairwise tree (_moment_sums)."""
        return self._moment_sums(t0, t1, squares=False)[0]


def time_average(ts: TimeSeries, window: tuple[float, float]) -> float:
    t0, t1 = window
    return ts.integral(t0, t1) / (t1 - t0)


def time_variance(ts: TimeSeries, window: tuple[float, float]) -> float:
    """Exact variance from the one-pass moments, both summed in one walk of
    numpy's pairwise tree (_moment_sums): the bits of np.sum over the
    full-length terms, from no full-length array, CHUNK pieces at a time."""
    t0, t1 = window
    first, second = ts._moment_sums(t0, t1, squares=True)
    mean = first / (t1 - t0)
    return max(second / (t1 - t0) - mean * mean, 0.0)  # one pass can cancel below 0


def theoretical_variance(pop: Population) -> float:
    """Closed-form long-run variance sum alpha_j (1 - alpha_j) d_bar_j^2.

    Exact for equal-magnitude populations; for unequal magnitudes the same
    per-load Bernoulli form is used.
    """
    return float(np.sum(pop.alpha * (1.0 - pop.alpha) * pop.d_bar**2))


# Most loads per row-wise cumsum in _load_major_events. The loads are blocked
# by their level at t = 0, then in order of cycle count, and a block also
# ends before a row more than 1/16 wider than its first, so it pads each row
# by at most 1/16. The merge sorts the cells where they were summed and puts
# exact ties back in load order.
SWITCH_BLOCK = 256
# Most pieces per leaf of _moment_sums, and most events per pass of
# _bit_sorted_events' step reads.
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


def time_order(times: np.ndarray, keys=None) -> tuple[np.ndarray, np.ndarray]:
    """np.argsort(times, kind="stable") of finite non-negative times, and the
    times in that order; given keys packed for some cells of times (below),
    the same of those cells alone: their indices in time order, exact ties
    by index, and their times.

    A non-negative double orders as its int64 bit pattern. Each time's high
    bits are packed with its index into one int64 key, (bits >> b) << b |
    index with b = (times.size - 1).bit_length(), and the keys get one
    unstable (SIMD) integer sort, in place. That orders the times by their
    high bits, and each group of equal high bits in index order, so an
    inversion can only lie inside a group. Only the groups that hold one are
    re-sorted, by one stable sort of their members taken together: every
    time of a group lies below every time of a later group, so the groups
    stay in place. The keys become the order; the times are gathered anew.
    The merge sorts by it only the inputs whose time bits alone cannot order
    them (_index_sorted_events): mixed magnitudes, and exact ties after t = 0.
    """
    idx_bits = (times.size - 1).bit_length()
    if keys is None:
        keys = np.bitwise_and(times.view(np.int64), -1 << idx_bits)
        keys |= np.arange(keys.size)
    keys.sort()
    # a set sign bit (a negative time or -0.0) gives a negative key
    if keys[0] < 0:
        raise StatsError("times must be non-negative, and not -0.0")
    keys &= (1 << idx_bits) - 1
    # mode="raise" would gather into a temporary copy first
    near = np.take(times, keys, out=np.empty(keys.size), mode="clip")
    inverted = np.flatnonzero(near[1:] < near[:-1])
    if inverted.size:
        # the high bits rise along near, so a bisection finds each group's
        # ends, and they ascend at the inversions
        bits = near.view(np.int64)
        high = bits[inverted] >> idx_bits
        high = high[run_index(high)]
        lo = np.searchsorted(bits, high << idx_bits)
        sizes = np.searchsorted(bits, (high + 1) << idx_bits) - lo
        # the indices of each group in turn: lo, lo + 1, ..., lo + size - 1
        members = np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        members += np.arange(members.size)
        fixed = members[np.argsort(near[members], kind="stable")]
        keys[members] = keys[fixed]
        near[members] = near[fixed]
    return keys, near


def aggregate_demand_series(
    pop: Population, temperatures, sigmas, horizon: float
) -> TimeSeries:
    """Aggregate free-running demand of the whole population: every load's
    events merged in time order (_time_sorted_events), the running sum of
    their steps, and coincident times merged into the last of each run.
    Where every load has one magnitude and no two switches after t = 0 tie,
    as on every sampled population, the merge holds the padded buffer and
    one full-length array at most, then two: the sorted times and the
    steps, which the series keeps; otherwise three, the padded buffer, the
    keys and the sorted times. time_variance of the series makes none."""
    times, levels, ties = _time_sorted_events(pop, temperatures, sigmas, horizon)
    np.cumsum(levels, out=levels)
    # merge coincident event times (measure-zero ties) into the last of each
    # run; when the only run is the leading one (every load's t = 0 level),
    # the merge is a slice
    if ties.size == 0 or ties[-1] == ties.size - 1:
        return TimeSeries(times=times[ties.size :], values=levels[ties.size :])
    keep = np.ones(times.size, dtype=bool)
    keep[ties] = False
    return TimeSeries(times=times[keep], values=levels[keep])


def _time_sorted_events(pop: Population, temperatures, sigmas, horizon: float):
    """The events of free_run_events in the order of a stable sort of their
    times (exact ties in load order): their times, their steps, and the
    indices i of the exact ties, times[i] == times[i + 1].

    Where every load has one magnitude d, as in every sampled population,
    the events are sorted by their exact time bits (_bit_sorted_events); an
    input with an exact tie after t = 0 is handed back from there. Those
    inputs and those of mixed magnitudes are sorted by cell index
    (_index_sorted_events)."""
    d_bar = np.ravel(pop.d_bar)
    if np.all(d_bar == d_bar[0]):
        events = _bit_sorted_events(pop, temperatures, sigmas, horizon, d_bar[0])
        if events is not None:
            return events
    return _index_sorted_events(pop, temperatures, sigmas, horizon)


def _bit_sorted_events(pop: Population, temperatures, sigmas, horizon: float, d: float):
    """_time_sorted_events where every load has the magnitude d, or None
    where two switches after t = 0 tie exactly.

    Each kept cell's key is its time bits shifted left by one (the sign bit
    of a non-negative time is clear) with the cell's parity, which gives its
    step (_load_major_events), in the freed low bit. The keys carry the
    whole time, so one integer sort in place orders them exactly, and no
    time is gathered. The padded buffer is freed before the steps array is
    made; then, CHUNK events at a time, each step is read from a key's low
    bit and the key shifted back into its time. A later exact tie would
    sum its steps in key order (OFF before ON), not in load order, so it
    hands the input back."""
    keys = _time_bit_keys(pop, temperatures, sigmas, horizon)
    keys.sort()
    # the N cells at t = 0 come first, OFF loads (key 0) before ON loads
    # (key 1): their levels 0 and d add to the sum of load order, since
    # adding 0 changes no sum
    n = len(pop)
    steps = np.empty(keys.size)
    np.multiply(keys[:n], d, out=steps[:n])
    keys[:n] = 0
    # then a switch ON (odd cell) steps +d, one OFF -d
    switch = np.array([-d, d])
    for start in range(n, keys.size, CHUNK):
        chunk = keys[start : start + CHUNK]
        np.take(switch, (chunk & 1).view(np.int64), out=steps[start : start + CHUNK], mode="clip")
        chunk >>= 1
        if np.any(chunk == keys[start - 1 : start - 1 + chunk.size]):
            return None
    return keys.view(float), steps, np.arange(n - 1)


def _time_bit_keys(pop: Population, temperatures, sigmas, horizon: float) -> np.ndarray:
    """Each kept cell's time bits shifted left by one, its parity in the low
    bit, packed block by block as _index_sorted_events packs its keys. Only
    the keys are returned, so the padded buffer is freed on return."""
    sums, blocks, row_at, counts, _ = _load_major_events(pop, temperatures, sigmas, horizon)
    bits = sums.view(np.uint64)
    keys = np.empty(int(counts.sum()), dtype=np.uint64)
    start = 0
    for rows, block in blocks:
        # the columns every row keeps, as one rectangle; the rows of a block
        # start at cells of one parity, so its odd cells fill every other
        # column
        lo, hi = int(counts[rows].min()), int(counts[rows].max())
        rect = keys[start : start + rows.size * lo].reshape(rows.size, lo)
        np.left_shift(block[:, :lo].view(np.uint64), 1, out=rect)
        rect[:, 1 - row_at[rows[0]] % 2 :: 2] |= 1
        start += rect.size
        if hi > lo:
            # then the cells only some rows keep, taken by a mask
            r, c = np.nonzero(block[:, lo:hi] <= horizon)
            cells = row_at[rows[r]] + c + lo
            packed = keys[start : start + cells.size]
            np.left_shift(bits[cells], 1, out=packed)
            packed |= cells.view(np.uint64) & 1
            start += cells.size
    return keys


def _index_sorted_events(pop: Population, temperatures, sigmas, horizon: float):
    """_time_sorted_events by cell index, for every input.

    Keys are packed, block by block, for the kept cells only and sorted by
    time_order (one packed-key integer sort, then a stable re-sort of only
    the groups of equal high bits that hold an inversion), which leaves
    exact ties in buffer order. The N entries at t = 0 then take their row
    starts in load order, and each later run of exact ties is re-sorted by
    the loads whose rows hold its cells. The buffer is then refilled with
    the steps, and they are gathered into the keys. Python loops run over
    the blocks, none over the loads."""
    sums, blocks, row_at, counts, fill_steps = _load_major_events(
        pop, temperatures, sigmas, horizon
    )
    idx_bits = (sums.size - 1).bit_length()
    high = -1 << idx_bits
    keys = np.empty(int(counts.sum()), dtype=np.int64)
    start = 0
    for rows, block in blocks:
        # the columns every row keeps, as one rectangle: each cell's high
        # bits plus its position (row start plus column, below 2**idx_bits)
        lo, hi = int(counts[rows].min()), int(counts[rows].max())
        rect = keys[start : start + rows.size * lo].reshape(rows.size, lo)
        np.bitwise_and(block[:, :lo].view(np.int64), high, out=rect)
        rect += row_at[rows, None]
        rect += np.arange(lo)
        start += rect.size
        # then the cells only some rows keep, taken by a mask
        r, c = np.nonzero(block[:, lo:hi] <= horizon)
        cells = row_at[rows[r]] + c + lo
        keys[start : start + cells.size] = sums.view(np.int64)[cells] & high | cells
        start += cells.size
    order, times = time_order(sums, keys)
    # every load has one cell at t = 0, its row start, and no other cell
    # lies there
    n = row_at.size
    order[:n] = row_at
    ties = np.flatnonzero(times[1:] == times[:-1])
    later = ties[n - 1 :]
    if later.size:
        # the cells of each later run of ties, ordered by time, then by the
        # load whose row holds the cell
        members = np.sort(np.append(later, later + 1))
        members = members[run_index(members)]
        by_start = np.argsort(row_at)
        owners = by_start[np.searchsorted(row_at[by_start], order[members], "right") - 1]
        order[members] = order[members[np.lexsort((owners, times[members]))]]
    fill_steps()
    # each step overwrites the cell index it is taken by
    steps = order.view(float)
    np.take(sums, order, out=steps, mode="clip")
    return times, steps, ties


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


def switch_offset_sequence(p_i: Population, p_j: Population, n_terms: int) -> np.ndarray:
    """Normalized offsets ((k * c) mod pi_j) / pi_j of consecutive ON-switches
    of the slower load against the faster one's cycle, k = 1..n_terms."""
    pi_i = period(p_i)
    pi_j = period(p_j)
    if pi_i < pi_j:
        pi_i, pi_j = pi_j, pi_i
    c = (-pi_i) % pi_j
    k = np.arange(1, n_terms + 1)
    return (k * (c / pi_j)) % 1.0


def phase_uniformity(p_i: Population, p_j: Population, n_terms: int) -> float:
    """Star discrepancy of the switch-offset sequence; a diagnostic for how
    fast the two loads' relative phases equidistribute."""
    return star_discrepancy(switch_offset_sequence(p_i, p_j, n_terms))
