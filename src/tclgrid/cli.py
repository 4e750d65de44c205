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
from .grid_model import GridModelError, is_hurwitz, one_norm
from .hybrid_sim import (
    Scenario,
    SimulationError,
    Trace,
    compare_schemes,
    dwell_time_report,
    simulate,
)
from .scenario import ScenarioError, ScenarioFile, load_scenario_file, scenario_hash
from .stats import (
    aggregate_demand_series,
    cross_term_oracle,
    theoretical_variance,
    time_variance,
)
from .tcl import Population, TclError, duty_cycle, sample_initial_states

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATION = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trace_csv(tr: Trace, path: Path) -> None:
    n = tr.x_hat.shape[1]
    header = ["t", "jumps", "omega", *[f"x_hat_{i}" for i in range(n)], "d_s", "on_fraction"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(tr.times.size):
            row = [
                _fmt(tr.times[i]),
                str(int(tr.jumps[i])),
                _fmt(tr.omega[i]),
                *[_fmt(v) for v in tr.x_hat[i]],
                _fmt(tr.d_s[i]),
                _fmt(tr.on_fraction[i]),
            ]
            fh.write(",".join(row) + "\n")


def write_switch_log_csv(tr: Trace, path: Path) -> None:
    with open(path, "w") as fh:
        fh.write("t,load,new_sigma,cause\n")
        for i in range(tr.switch_times.size):
            fh.write(
                f"{_fmt(tr.switch_times[i])},{int(tr.switch_loads[i])},"
                f"{int(tr.switch_new_sigma[i])},{tr.switch_causes[i]}\n"
            )


def write_metrics_txt(tr: Trace, path: Path) -> None:
    m = dwell_time_report(tr)
    gap = "inf" if m.min_interswitch_gap == float("inf") else _fmt(m.min_interswitch_gap)
    lines = [
        f"peak_abs_omega_hz: {_fmt(m.peak_abs_omega)}",
        f"min_interswitch_gap_s: {gap}",
        f"total_switches: {int(np.sum(m.switch_counts))}",
        f"jump_instants: {tr.meta.get('jump_count', 0)}",
    ]
    path.write_text("\n".join(lines) + "\n")


def write_manifest(sf: ScenarioFile, out_dir: Path, extra: dict | None = None) -> None:
    manifest = {
        "tool": "tclgrid",
        "version": __version__,
        "seed": sf.seed,
        "population_seed": sf.population.seed,
        "scenario_sha256": scenario_hash(sf),
    }
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load(path: str, overrides: argparse.Namespace) -> ScenarioFile:
    sf = load_scenario_file(path)
    changes = {}
    if getattr(overrides, "seed", None) is not None:
        changes["seed"] = overrides.seed
    if getattr(overrides, "horizon", None) is not None:
        changes["horizon"] = overrides.horizon
    if getattr(overrides, "scheme", None) is not None:
        from .scenario import parse_scheme

        changes["scheme"] = parse_scheme(overrides.scheme)
    if getattr(overrides, "delta", None) is not None:
        changes["design"] = dataclasses.replace(sf.design, delta=overrides.delta)
    if getattr(overrides, "margin", None) is not None:
        design = changes.get("design", sf.design)
        changes["design"] = dataclasses.replace(design, margin=overrides.margin)
    if getattr(overrides, "allocate", False):
        design = changes.get("design", sf.design)
        changes["design"] = dataclasses.replace(design, allocate=True)
    return dataclasses.replace(sf, **changes) if changes else sf


def design_report(
    sf: ScenarioFile,
    pop: Population,
    allocation: AllocationResult | None,
    l_hat: float | None = None,
) -> DesignReport:
    """The allocator's report if thresholds were allocated, else a fresh check."""
    if allocation is not None:
        return allocation.report
    if l_hat is None:
        l_hat = one_norm(sf.build_grid()).value
    return verify_design_condition(pop, l_hat, sf.design.delta)


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
    rows = []
    for name, run in runs.items():
        write_trace_csv(run.trace, out_dir / f"trace_{name}.csv")
        # plot-ready (t, on_fraction) pairs
        with open(out_dir / f"on_fraction_{name}.csv", "w") as fh:
            fh.write("t,on_fraction\n")
            for t, v in zip(run.trace.times, run.trace.on_fraction):
                fh.write(f"{_fmt(t)},{_fmt(v)}\n")
        rows.append((name, run.metrics.peak_abs_omega))
    with open(out_dir / "comparison.csv", "w") as fh:
        fh.write("scheme,peak_abs_omega_hz\n")
        for name, peak in rows:
            fh.write(f"{name},{_fmt(peak)}\n")
    write_manifest(sf, out_dir, {"command": "compare"})
    for name, peak in rows:
        print(f"{name:24s} peak |omega| = {peak:.6f} Hz")
    return EXIT_OK


def cmd_certify(args) -> int:
    sf = _load(args.scenario, args)
    grid = sf.build_grid()
    if not is_hurwitz(grid):
        print("error: grid model is not Hurwitz; 1-norm undefined", file=sys.stderr)
        return EXIT_NUMERIC
    l_hat = one_norm(grid).value
    pop, allocation = sf.build_population()
    report = design_report(sf, pop, allocation, l_hat)
    print(f"l_hat: {l_hat:.6g} Hz/pu")
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
        closed = duty_cycle(p_i) * duty_cycle(p_j) * p_i.d_bar * p_j.d_bar
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
        p.add_argument("--allocate", action="store_true", help="allocate thresholds")

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
    except (SimulationError, GridModelError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
