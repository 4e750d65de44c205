"""Load forms of the stroke laws, each a composition of the laws tclgrid.tcl
ships, for tests that state a law per load rather than per stroke; the
switching rule stated pointwise (jump_target, trigger_levels), the oracle for
the simulator's per-(state, load) tables; and the CSV writers row by row
through % (write_rows, write_trace_csv, write_switch_log_csv), the oracle
for tclgrid.cli's chunked writers."""

from pathlib import Path

import numpy as np

from tclgrid.hybrid_sim import Trace
from tclgrid.tcl import (
    Population,
    Scheme,
    flow_target,
    frequency_branch,
    rate_coefficients,
    rate_law,
    stroke_flow,
    stroke_time,
)


def temp_flow(p, temperature, sigma, dt):
    """Temperature after flowing dt >= 0 seconds with the switch held."""
    return stroke_flow(p.k, flow_target(p, sigma), temperature, dt)


def time_to_level(p, temperature, sigma, level):
    """Time until the held flow reaches a level between the temperature and
    the flow target; zero at or past it."""
    return stroke_time(p.k, flow_target(p, sigma), temperature, level)


def switching_rate(p, sigma, omega, scheme):
    """The randomized scheme's active rate: the ON-rate for OFF loads, the
    OFF-rate for ON loads."""
    return rate_law(*rate_coefficients(p, sigma, scheme), scheme.k_pi, omega)


def trigger_levels(p: Population, temperature, scheme: Scheme):
    """Frequency levels (on_at, off_at) of the frequency branches at a
    temperature: the branch switches a load ON when omega >= on_at and OFF
    when omega <= off_at.

    The deterministic scheme triggers at +-omega1 behind an eps temperature
    guard, so a frequency-triggered switch never lands at a thermostat
    boundary. A level is +-inf where the guard blocks the branch, and both are
    the scalars +-inf when the scheme has no frequency branch; no finite
    omega reaches them. A randomized load switches by its clock (jump_target's
    fired), and a held load's clock never fires.
    """
    if scheme.kind != "deterministic":
        return np.inf, -np.inf
    guard_on, level_on = frequency_branch(p, 0)
    guard_off, level_off = frequency_branch(p, 1)
    on_at = np.where(temperature >= guard_on, level_on, np.inf)
    off_at = np.where(temperature <= guard_off, level_off, -np.inf)
    return on_at[()], off_at[()]


def jump_target(
    p: Population,
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
    decides it. A held load's clock never fires (hybrid_sim.ThinnedClocks
    rejects the candidates of a load that its thermostat holds: OFF at or
    below t_lo, ON at or above t_hi), so fired names no such load in a run.
    """
    on_at, off_at = trigger_levels(p, temperature, scheme)
    target = np.where(omega >= on_at, 1, sigma)
    target = np.where(omega <= off_at, 0, target)
    target = np.where(temperature >= p.t_hi, 1, target)
    target = np.where(temperature <= p.t_lo, 0, target)
    if fired is not None:
        target = np.where(fired & (target == sigma), 1 - sigma, target)
    return target.astype(np.int8)[()]


def write_rows(path: Path, header: str, row: str, *columns) -> None:
    """Write the header line, then one line per entry of the columns through
    the % template row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join(map(row.__mod__, zip(*columns))))


def write_trace_csv(tr: Trace, path: Path) -> None:
    n = tr.x_hat.shape[1]
    x_hat = [f"x_hat_{i}" for i in range(n)]
    header = ",".join(["t", "jumps", "omega", *x_hat, "d_s", "on_fraction"])
    row = "%.17g,%d" + ",%.17g" * (n + 3) + "\n"
    columns = [tr.times, tr.jumps, tr.omega, *tr.x_hat.T, tr.d_s, tr.on_fraction]
    write_rows(path, header, row, *(c.tolist() for c in columns))


def write_switch_log_csv(tr: Trace, path: Path) -> None:
    write_rows(
        path, "t,load,new_sigma,cause", "%.17g,%d,%d,%s\n", tr.switch_times.tolist(),
        tr.switch_loads.tolist(), tr.switch_new_sigma.tolist(), tr.switch_causes,
    )
