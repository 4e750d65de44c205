"""Load forms of the stroke laws, each a composition of the laws tclgrid.tcl
ships, for tests that state a law per load rather than per stroke."""

from tclgrid.tcl import flow_target, rate_coefficients, rate_law, stroke_flow, stroke_time


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
