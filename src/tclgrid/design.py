"""Certification and synthesis of frequency thresholds.

The design inequality bounds, at every deviation level, the aggregate
magnitude of loads whose thresholds have been reached by (level - delta) over
the worst-case frequency gain of the grid (its 1-norm). The left side is a
step function jumping only at the distinct threshold values, so checking each
breakpoint is necessary and sufficient for all nonnegative levels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tcl import Population, zeta  # zeta is part of this API


class DesignError(ValueError):
    pass


@dataclass(frozen=True)
class DesignReport:
    satisfied: bool
    delta: float
    margin_used: float
    worst_point: tuple[float, float, float] | None  # (omega_bar, lhs, rhs)
    violations: list[tuple[float, float, float]]
    note: str = ""

    def to_text(self) -> str:
        lines = [
            f"satisfied: {self.satisfied}",
            f"delta_hz: {self.delta:.17g}",
            f"margin_used: {self.margin_used:.17g}",
        ]
        if self.worst_point is not None:
            w, lhs, rhs = self.worst_point
            lines.append(f"worst_point: omega_bar={w:.17g} lhs={lhs:.17g} rhs={rhs:.17g}")
        for w, lhs, rhs in self.violations[:8]:
            lines.append(f"violation: omega_bar={w:.17g} lhs={lhs:.17g} rhs={rhs:.17g}")
        if len(self.violations) > 8:
            lines.append(f"... and {len(self.violations) - 8} more violations")
        if self.note:
            lines.append(f"note: {self.note}")
        return "\n".join(lines)


def _breakpoints(pop: Population) -> tuple[np.ndarray, np.ndarray]:
    """Distinct sorted thresholds and the cumulative zeta*d_bar at each
    (loads sharing a threshold all count at that breakpoint)."""
    thresholds = pop.omega1
    weights = pop.zeta * pop.d_bar
    order = np.argsort(thresholds, kind="stable")
    thr_sorted = thresholds[order]
    cum = np.cumsum(weights[order])
    # the last load of each run of tied thresholds closes its breakpoint, so
    # the cumulative there includes every tied load (np.unique would import
    # numpy.ma, about 15 ms of start-up)
    last = np.flatnonzero(np.append(thr_sorted[1:] != thr_sorted[:-1], True))
    return thr_sorted[last], cum[last]


def verify_design_condition(pop: Population, l_hat: float, delta: float) -> DesignReport:
    """Check the threshold-design inequality at every breakpoint."""
    if not (l_hat > 0):
        raise DesignError(f"l_hat must be positive, got {l_hat}")
    if not (delta > 0):
        raise DesignError(f"delta must be positive, got {delta}")
    if not len(pop):
        return DesignReport(
            satisfied=True, delta=delta, margin_used=0.0, worst_point=None,
            violations=[], note="empty population: trivially satisfied",
        )
    bps, lhs = _breakpoints(pop)
    rhs = np.maximum((bps - delta) / l_hat, 0.0)
    gap = lhs - rhs
    worst = int(np.argmax(gap))
    violations = [
        (float(bps[i]), float(lhs[i]), float(rhs[i]))
        for i in np.flatnonzero(gap > 0)
    ]
    note = ""
    if delta >= float(bps[0]):
        note = (
            f"delta={delta} is not below the minimum threshold {float(bps[0])}; "
            "the design condition cannot hold"
        )
    return DesignReport(
        satisfied=not violations,
        delta=delta,
        margin_used=0.0,
        worst_point=(float(bps[worst]), float(lhs[worst]), float(rhs[worst])),
        violations=violations,
        note=note,
    )


@dataclass(frozen=True)
class AllocationResult:
    population: Population
    inactive: list[int]  # loads pinned at the range top, feedback-inactive below it
    report: DesignReport


def allocate_thresholds(
    pop: Population,
    l_hat: float,
    delta: float,
    margin: float = 0.2,
    threshold_range: tuple[float, float] = (0.01, 0.26),
) -> AllocationResult:
    """Greedy ascending threshold fill with a safety margin.

    Loads are processed in index order; load with cumulative responsive
    magnitude c gets the smallest in-range threshold satisfying
    c <= (1 - margin) * (threshold - delta) / l_hat. Loads that cannot fit
    are pinned to the range top and reported as feedback-inactive.
    """
    if not (0 <= margin < 1):
        raise DesignError(f"margin must lie in [0, 1), got {margin}")
    lo, hi = threshold_range
    if not (0 < lo < hi):
        raise DesignError(f"invalid threshold range ({lo}, {hi})")
    if not (delta < hi):
        raise DesignError(
            f"delta={delta} leaves no feasible thresholds below the range top {hi}"
        )
    if not (l_hat > 0):
        raise DesignError(f"l_hat must be positive, got {l_hat}")
    needed = delta + np.cumsum(pop.zeta * pop.d_bar) * (l_hat / (1.0 - margin))
    inactive = np.flatnonzero(needed > hi).tolist()
    out = replace(pop, omega1=np.where(needed > hi, hi, np.maximum(lo, needed)))
    report = replace(verify_design_condition(out, l_hat, delta), margin_used=margin)
    return AllocationResult(population=out, inactive=inactive, report=report)
