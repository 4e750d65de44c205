"""Command-line entry point.

Exit codes: 0 success, 2 configuration error, 3 numeric/simulation error,
4 certification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .design import AllocationResult, DesignError, DesignReport, verify_design_condition
from .grid_model import GridModelError, one_norm
from .hybrid_sim import (
    SimulationError,
    Trace,
    compare_schemes,
    dwell_time_report,
    simulate,
)
from .scenario import ScenarioError, ScenarioFile, load_scenario_file, parse_scheme, scenario_hash
from .stats import (
    StatsError,
    aggregate_demand_series,
    cross_term_oracle,
    theoretical_variance,
    time_variance,
)
from .tcl import Population, TclError, sample_initial_states

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATION = 4


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


def write_metrics_txt(tr: Trace, path: Path) -> None:
    m = dwell_time_report(tr)
    lines = [
        "peak_abs_omega_hz: %.17g" % m.peak_abs_omega,
        "min_interswitch_gap_s: %.17g" % m.min_interswitch_gap,
        f"total_switches: {int(np.sum(m.switch_counts))}",
        f"jump_instants: {tr.meta['jump_count']}",
    ]
    path.write_text("\n".join(lines) + "\n")


def write_manifest(sf: ScenarioFile, out_dir: Path, extra: dict) -> None:
    manifest = {
        "tool": "tclgrid",
        "version": __version__,
        "seed": sf.seed,
        "population_seed": sf.population.seed,
        "scenario_sha256": scenario_hash(sf),
        **extra,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# each override option, and whether it sets a design setting rather than a
# field of the scenario file
OVERRIDES = {
    "seed": False, "horizon": False, "scheme": False,
    "delta": True, "margin": True, "allocate": True,
}


def _load(path: str, args: argparse.Namespace) -> ScenarioFile:
    sf = load_scenario_file(path)
    given = {name: getattr(args, name, None) for name in OVERRIDES}
    changes = {name: v for name, v in given.items() if v is not None and not OVERRIDES[name]}
    design = {name: v for name, v in given.items() if v is not None and OVERRIDES[name]}
    if "scheme" in changes:
        changes["scheme"] = parse_scheme(changes["scheme"])
    if design:
        changes["design"] = dataclasses.replace(sf.design, **design)
    return dataclasses.replace(sf, **changes) if changes else sf


def design_report(
    sf: ScenarioFile, pop: Population, allocation: AllocationResult | None
) -> DesignReport:
    """The allocator's report if thresholds were allocated, else a fresh check."""
    if allocation is not None:
        return allocation.report
    return verify_design_condition(pop, one_norm(sf.build_grid()).value, sf.design.delta)


def cmd_run(args) -> int:
    sf = _load(args.scenario, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sc, allocation = sf.build_scenario()
    if sc.scheme.kind == "deterministic":
        report = design_report(sf, sc.population, allocation)
        if not report.satisfied:
            print(
                "warning: thresholds violate the design condition; "
                "simulation proceeds to demonstrate the consequences",
                file=sys.stderr,
            )
    tr = simulate(sc)
    write_trace_csv(tr, out_dir / "trace.csv")
    write_switch_log_csv(tr, out_dir / "switch_events.csv")
    write_metrics_txt(tr, out_dir / "metrics.txt")
    write_manifest(sf, out_dir, {"command": "run"})
    print(f"run complete: {tr.times.size} samples, {tr.meta['jump_count']} jump instants")
    return EXIT_OK


def cmd_compare(args) -> int:
    sf = _load(args.scenario, args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sc, _ = sf.build_scenario()
    runs = compare_schemes(sc)
    for name, run in runs.items():
        write_trace_csv(run.trace, out_dir / f"trace_{name}.csv")
        # plot-ready (t, on_fraction) pairs
        write_rows(
            out_dir / f"on_fraction_{name}.csv", "t,on_fraction", "%.17g,%.17g\n",
            run.trace.times.tolist(), run.trace.on_fraction.tolist(),
        )
    peaks = [run.metrics.peak_abs_omega for run in runs.values()]
    write_rows(out_dir / "comparison.csv", "scheme,peak_abs_omega_hz", "%s,%.17g\n", runs, peaks)
    write_manifest(sf, out_dir, {"command": "compare"})
    for name, peak in zip(runs, peaks):
        print(f"{name:24s} peak |omega| = {peak:.6f} Hz")
    return EXIT_OK


def cmd_certify(args) -> int:
    sf = _load(args.scenario, args)
    pop, allocation = sf.build_population()
    report = design_report(sf, pop, allocation)
    print(f"l_hat: {report.l_hat:.6g} Hz/pu")
    print(report.to_text())
    return EXIT_OK if report.satisfied else EXIT_CERTIFICATION


def cmd_stats(args) -> int:
    sf = _load(args.scenario, args)
    n_pairs = args.pairs
    if n_pairs < 0 or (n_pairs > 0 and sf.population.n_loads < 2):
        raise ScenarioError(
            f"--pairs {n_pairs}: need 0, or a positive count and at least two loads "
            f"(the population has {sf.population.n_loads})"
        )
    pop, _ = sf.build_population()
    temps, sigmas = sample_initial_states(pop, sf.seed)
    series = aggregate_demand_series(pop, temps, sigmas, sf.horizon)
    measured = time_variance(series, (0.0, sf.horizon))
    theory = theoretical_variance(pop)
    gamma = sum(pop.d_bar.tolist())
    bound = gamma**2 / len(pop)
    print(f"measured_variance: {measured:.8g}")
    print(f"theoretical_variance: {theory:.8g}")
    print(f"bound_gamma2_over_n: {bound:.8g}")
    print(f"bound_satisfied: {measured < bound}")
    rng = np.random.default_rng(sf.seed)
    print("pair_i,pair_j,measured_cross,closed_form")
    for _ in range(n_pairs):
        i, j = rng.choice(len(pop), size=2, replace=False)
        p_i, p_j = pop[i], pop[j]
        measured_ct = cross_term_oracle(p_i, p_j, min(sf.horizon, 2e5))
        closed = p_i.alpha * p_j.alpha * p_i.d_bar * p_j.d_bar
        print(f"{i},{j},{measured_ct:.8g},{closed:.8g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tclgrid",
        description="Co-simulation of TCL populations and grid frequency dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--scenario", required=True, help="scenario YAML file")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the simulation seed")
        p.add_argument("--horizon", type=float, help="override the horizon (s)")
        p.add_argument("--delta", type=float, help="override the design margin delta (Hz)")
        p.add_argument("--margin", type=float, help="override the allocation margin")
        p.add_argument("--allocate", action="store_true", default=None, help="allocate thresholds")

    p_run = sub.add_parser("run", help="simulate and export trace/metrics")
    common(p_run)
    p_run.add_argument("--scheme", help="override the scheme kind")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run the four scheme cases")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_cert = sub.add_parser("certify", help="check the threshold design condition")
    common(p_cert, out=False)
    p_cert.set_defaults(func=cmd_certify)

    p_stats = sub.add_parser("stats", help="free-running variance and cross terms")
    common(p_stats, out=False)
    p_stats.add_argument("--pairs", type=int, default=5, help="cross-term pair count")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TclError, DesignError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, GridModelError, StatsError, MemoryError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
