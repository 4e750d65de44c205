"""Benchmark workloads: how each scenario is generated from the shipped one,
which CLI commands a repeat runs, and the reference values its outputs are
checked against.

This module imports neither numpy nor tclgrid, so run.py stays a light
process that only spawns and collects repeats.
"""

from __future__ import annotations

import copy

SHIPPED_SCENARIO = "scenarios/paper-vi-desk.yaml"

# Frequency-response 1-norm of the shipped grid, as `certify` prints it at
# commit 92de512. The grid does not depend on the workload seed.
L_HAT_REF = 0.526069

# Per workload and scale:
#   command      "run" (the `tclgrid run` path) or "analysis" (`certify`
#                then `stats`)
#   overrides    changes applied to the shipped scenario document
#   peak_omega   reference peak |omega| in Hz (run path only)
#   switches     reference switch count (run path only)
# The references are medians over input variants 0-9 of seed 1, measured at
# commit 92de512. Outputs must land within PEAK_TOL and SWITCH_RANGE of them;
# the tolerances are loose enough that an exact-event or exact-rate rewrite
# of the simulator, which moves individual switch times, still passes.
WORKLOADS: dict[str, dict[str, dict]] = {
    # Headline experiment: stepping, exact propagation and frequency-crossing
    # bisection dominate; no RNG work. The horizon is cut from 600 s to 30 s,
    # which still holds the 1 s step and the frequency nadir, so that one
    # measured run holds enough repeats for a stable median.
    "desk-deterministic": {
        "full": {
            "command": "run",
            "overrides": {"horizon": 30.0},
            "peak_omega": 0.2530,
            "switches": 537,
        },
        "tiny": {
            "command": "run",
            "overrides": {"horizon": 3.0, "n_loads": 100},
            "peak_omega": 0.2468,
            "switches": 46,
        },
    },
    # Same grid, population and output volume; Philox clock redraws dominate
    # and there is no bisection.
    "desk-randomized": {
        "full": {
            "command": "run",
            "overrides": {"horizon": 30.0, "scheme": {"kind": "randomized", "k_pi": 5.0}},
            "peak_omega": 0.2914,
            "switches": 153,
        },
        "tiny": {
            "command": "run",
            "overrides": {
                "horizon": 10.0,
                "n_loads": 100,
                "scheme": {"kind": "randomized", "k_pi": 5.0},
            },
            "peak_omega": 0.2894,
            "switches": 16,
        },
    },
    # Per-load O(N) work per step and per bisection; the horizon takes in the
    # 1 s step disturbance and the first quarter second of the response.
    "fleet-8000": {
        "full": {
            "command": "run",
            "overrides": {"horizon": 1.25, "n_loads": 8000},
            "peak_omega": 0.0487,
            "switches": 771,
        },
        "tiny": {
            "command": "run",
            "overrides": {"horizon": 1.25, "n_loads": 1000},
            "peak_omega": 0.0487,
            "switches": 94,
        },
    },
    # No simulation: series merge, variance integration, 1-norm and the design
    # verifier over a long free-running statistics horizon.
    "analysis-8000": {
        "full": {"command": "analysis", "overrides": {"horizon": 1.0e5, "n_loads": 8000}},
        "tiny": {"command": "analysis", "overrides": {"horizon": 2.0e5, "n_loads": 500}},
    },
}

PEAK_TOL = 0.25           # relative distance of peak |omega| from its reference
SWITCH_RANGE = (0.5, 2.0)  # allowed switch count as a multiple of its reference
VARIANCE_TOL = 0.25       # measured vs closed-form variance, as in the acceptance gate
CROSS_TERM_TOL = 0.25     # measured vs closed-form cross term, relative
RESONANCE_ORDER = 8       # harmonics considered when looking for a slow beat
MIN_BEATS = 10            # beats the horizon must hold for a cross term to be checked
CROSS_TERM_PAIRS = 5      # pairs `tclgrid stats` prints by default


def scenario_doc(base: dict, workload: str, scale: str, seed: int, variant: int) -> dict:
    """The scenario document of one input variant of a workload and seed.

    Each variant draws a fresh population (load parameters) and simulation
    seed (initial states, clock streams, cross-term pair choice), so a
    measured run that cycles through variants averages over input draws
    instead of timing a single one. Distinct (seed, variant) pairs never share
    a seed, and population and simulation seeds never coincide.
    """
    doc = copy.deepcopy(base)
    for key, value in WORKLOADS[workload][scale]["overrides"].items():
        if key == "n_loads":
            doc["population"]["n_loads"] = value
        else:
            doc[key] = value
    draw = 1000 * seed + variant % 1000
    doc["seed"] = 2 * draw
    doc["population"]["seed"] = 2 * draw + 1
    return doc
