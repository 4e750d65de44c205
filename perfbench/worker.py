"""One repeat of a benchmark workload, in a fresh process.

The repeat runs the workload's CLI commands in-process through
`tclgrid.cli.main`, exactly as `tclgrid run` or `tclgrid certify` followed by
`tclgrid stats` would, times the calibration kernel (calibrate.py), checks the
outputs and writes `record.json` (times, counts, check failures) and
`spans.csv` (every recorded span) into its output directory.

Spans come from rebinding module attributes of the package to timing
wrappers. An untraced repeat wraps only the few phase boundaries the
end-to-end metrics need (one call each); a traced repeat also wraps every
layer function listed in LAYER_POINTS, including the per-step ones.

Spawned by run.py:

    python3 perfbench/worker.py --workload W --scale full --scenario S.yaml \
        --out DIR --spawned-at T --run-id ID --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

# (module, attribute, span name). Wrapped in every repeat.
PHASE_POINTS = [
    ("tclgrid.cli", "simulate", "hybrid_sim.simulate"),
    ("tclgrid.cli", "write_trace_csv", "cli.write_trace_csv"),
    ("tclgrid.cli", "write_switch_log_csv", "cli.write_switch_log_csv"),
    ("tclgrid.cli", "write_metrics_txt", "cli.write_metrics_txt"),
    ("tclgrid.cli", "write_manifest", "cli.write_manifest"),
    ("tclgrid.cli", "aggregate_demand_series", "stats.aggregate_demand_series"),
]
# Wrapped in traced repeats only. A function imported by name into several
# modules is wrapped at each place it is looked up from.
LAYER_POINTS = [
    ("tclgrid.cli", "load_scenario_file", "scenario.load_scenario_file"),
    ("tclgrid.scenario", "sample_population", "tcl.sample_population"),
    ("tclgrid.tcl", "sample_initial_states", "tcl.sample_initial_states"),
    ("tclgrid.scenario", "allocate_thresholds", "design.allocate_thresholds"),
    ("tclgrid.cli", "verify_design_condition", "design.verify_design_condition"),
    ("tclgrid.design", "verify_design_condition", "design.verify_design_condition"),
    ("tclgrid.cli", "one_norm", "grid_model.one_norm"),
    ("tclgrid.grid_model", "one_norm", "grid_model.one_norm"),
    ("tclgrid.grid_model", "TransitionCache.get", "grid_model.TransitionCache.get"),
    ("tclgrid.grid_model", "transition", "grid_model.transition"),
    ("tclgrid.cli", "dwell_time_report", "hybrid_sim.dwell_time_report"),
    ("tclgrid.cli", "time_variance", "stats.time_variance"),
    ("tclgrid.cli", "cross_term_oracle", "stats.cross_term_oracle"),
]
WRITERS = [
    "cli.write_trace_csv",
    "cli.write_switch_log_csv",
    "cli.write_metrics_txt",
    "cli.write_manifest",
]
# Per-layer times reported as the summed duration of every span of that name.
LAYER_TIMES = [
    "scenario.load_scenario_file",
    "tcl.sample_population",
    "tcl.sample_initial_states",
    "design.allocate_thresholds",
    "design.verify_design_condition",
    "grid_model.one_norm",
    "grid_model.transition",
    "hybrid_sim.simulate",
    "hybrid_sim.dwell_time_report",
    "stats.aggregate_demand_series",
    "stats.time_variance",
    "stats.cross_term_oracle",
    "cli.write_trace_csv",
    "cli.write_switch_log_csv",
]


class Recorder:
    """Rebinds module attributes to wrappers that record spans.

    A span is (name, start, end, parent index); the parent is the span open
    when the call began, -1 at top level. The last call of each name keeps
    its arguments and result for the output checks.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.last: dict[str, tuple[tuple, object]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, name: str) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
        spans, stack, last = self.spans, self._stack, self.last

        def wrapped(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans[index] = (name, start, end, parent)
            last[name] = (args, result)
            return result

        self._restore.append((owner, leaf, fn))
        setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore.clear()

    def of(self, name: str) -> list[tuple[str, float, float, int]]:
        return [s for s in self.spans if s is not None and s[0] == name]

    def total(self, name: str) -> float:
        return sum(end - start for _, start, end, _ in self.of(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the spans of `name` minus their direct
        children, which never overlap one another."""
        own = {i for i, s in enumerate(self.spans) if s is not None and s[0] == name}
        child = sum(s[2] - s[1] for s in self.spans if s is not None and s[3] in own)
        return self.total(name) - child

    def write_csv(self, path: Path, run_id: str) -> None:
        with open(path, "w") as fh:
            fh.write("run_id,index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{run_id},{i},{name},{start!r},{end!r},{parent}\n")


def run_commands(command: str, scenario: str, out: Path) -> tuple[dict[str, str], float]:
    """Run the workload's CLI commands; returns their printed output and the
    time the last one returned."""
    from tclgrid import cli

    argvs = {
        "run": {"run": ["run", "--scenario", scenario, "--out", str(out)]},
        "analysis": {
            "certify": ["certify", "--scenario", scenario],
            "stats": ["stats", "--scenario", scenario],
        },
    }[command]
    printed = {}
    for name, argv in argvs.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        printed[name] = buf.getvalue()
        if rc != cli.EXIT_OK:
            raise CheckFailed(f"`tclgrid {name}` exited with code {rc}")
    return printed, time.monotonic()


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str, errors: list[str]) -> None:
    if not cond:
        errors.append(message)


def near(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def check_run(rec: Recorder, spec: dict, scenario: str, out: Path, errors: list[str]) -> None:
    """Invariants of the acceptance gate on the `run` path's outputs."""
    import numpy as np
    from tclgrid.design import verify_design_condition
    from tclgrid.grid_model import one_norm
    from tclgrid.scenario import load_scenario_file

    (sc,), tr = rec.last["hybrid_sim.simulate"]
    pop = sc.population
    t_lo = np.array([p.t_lo for p in pop])
    t_hi = np.array([p.t_hi for p in pop])
    check(bool(np.all(tr.temp_min >= t_lo - 1e-9)), "temperature fell below t_lo", errors)
    check(bool(np.all(tr.temp_max <= t_hi + 1e-9)), "temperature rose above t_hi", errors)

    metrics = dict(
        line.split(": ", 1) for line in (out / "metrics.txt").read_text().splitlines()
    )
    switches = int(tr.switch_times.size)
    check(float(metrics["min_interswitch_gap_s"]) > 0, "non-positive inter-switch gap", errors)
    check(int(metrics["total_switches"]) == switches, "metrics.txt switch total differs", errors)
    check(int(metrics["jump_instants"]) == tr.meta["jump_count"], "jump count differs", errors)
    with open(out / "trace.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    check(rows == tr.times.size, "trace.csv row count differs from the trace", errors)
    with open(out / "switch_events.csv") as fh:
        logged = sum(1 for _ in fh) - 1
    check(logged == switches, "switch_events.csv row count differs from the trace", errors)
    manifest = json.loads((out / "manifest.json").read_text())
    check(manifest["seed"] == sc.seed, "manifest seed differs from the scenario", errors)

    l_hat = one_norm(sc.grid).value
    check(near(l_hat, workloads.L_HAT_REF, 1e-5), f"l_hat {l_hat} off its reference", errors)
    if sc.scheme.kind == "deterministic":
        delta = load_scenario_file(scenario).design.delta
        report = verify_design_condition(pop, l_hat, delta)
        check(report.satisfied, "allocated thresholds violate the design condition", errors)

    peak = float(np.max(np.abs(tr.omega)))
    check(
        near(peak, spec["peak_omega"], workloads.PEAK_TOL),
        f"peak |omega| {peak:.5g} Hz off its reference {spec['peak_omega']}",
        errors,
    )
    lo, hi = workloads.SWITCH_RANGE
    check(
        lo * spec["switches"] <= switches <= hi * spec["switches"],
        f"{switches} switches, reference {spec['switches']}",
        errors,
    )


def check_analysis(rec: Recorder, printed: dict[str, str], errors: list[str]) -> None:
    """Invariants of the acceptance gate on `certify` and `stats` output."""
    from tclgrid.tcl import on_off_durations

    cert = dict(
        line.split(": ", 1) for line in printed["certify"].splitlines() if ": " in line
    )
    l_hat = float(cert["l_hat"].split()[0])
    check(near(l_hat, workloads.L_HAT_REF, 1e-5), f"l_hat {l_hat} off its reference", errors)
    check(cert["satisfied"] == "True", "certified design does not hold", errors)

    lines = printed["stats"].splitlines()
    stats = dict(line.split(": ", 1) for line in lines if ": " in line)
    measured = float(stats["measured_variance"])
    theory = float(stats["theoretical_variance"])
    bound = float(stats["bound_gamma2_over_n"])
    check(measured < bound, "measured variance not below gamma^2/N", errors)
    check(stats["bound_satisfied"] == "True", "stats reports the bound unsatisfied", errors)
    check(
        near(measured, theory, workloads.VARIANCE_TOL),
        f"measured variance {measured:.6g} far from closed form {theory:.6g}",
        errors,
    )
    header = lines.index("pair_i,pair_j,measured_cross,closed_form")
    pairs = [line.split(",") for line in lines[header + 1:]]
    check(len(pairs) == workloads.CROSS_TERM_PAIRS, "wrong number of cross terms", errors)
    pop, _, _, horizon = rec.last["stats.aggregate_demand_series"][0]
    horizon = min(horizon, 2e5)  # the cross-term horizon `tclgrid stats` uses
    for i, j, cross, closed in pairs:
        # A finite-horizon average converges to the closed form only after
        # many beats between the two loads' harmonics; skip a pair whose
        # slowest low-order beat does not fit MIN_BEATS times in the horizon.
        p_i, p_j = (sum(on_off_durations(pop[int(k)])) for k in (i, j))
        order = range(1, workloads.RESONANCE_ORDER + 1)
        beat = min(abs(m / p_i - n / p_j) for m in order for n in order)
        if beat * horizon < workloads.MIN_BEATS:
            continue
        check(
            near(float(cross), float(closed), workloads.CROSS_TERM_TOL),
            f"cross term ({i},{j}) {cross} far from closed form {closed}",
            errors,
        )


def summarize(
    rec: Recorder, command: str, spawned_at: float, ended_at: float, traced: bool, out: Path
) -> tuple[dict, dict]:
    """End-to-end metrics and (when traced) per-layer values of this repeat."""
    if command == "run":
        (sc,), tr = rec.last["hybrid_sim.simulate"]
        (core,) = rec.of("hybrid_sim.simulate")
        horizon, events = sc.horizon, int(tr.switch_times.size)
        output_s = sum(rec.total(name) for name in WRITERS)
    else:
        args, series = rec.last["stats.aggregate_demand_series"]
        (core,) = rec.of("stats.aggregate_demand_series")
        horizon, events = float(args[3]), int(series.times.size)
        output_s = ended_at - core[2]
    core_s = core[2] - core[1]
    e2e = {
        "setup_s": core[1] - spawned_at,
        "run_s": ended_at - spawned_at,
        "sim_rate": horizon / core_s,
        "switch_cost_us": 1e6 * core_s / events,
        "output_s": output_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not traced:
        return e2e, {}

    layers = {f"{name}_s": rec.total(name) for name in LAYER_TIMES}
    layers["hybrid_sim.simulate_self_s"] = rec.self_time("hybrid_sim.simulate")
    gets = len(rec.of("grid_model.TransitionCache.get"))
    transitions = len(rec.of("grid_model.transition"))
    layers["grid_model.transition_calls"] = transitions
    layers["grid_model.cache_hit_ratio"] = (gets - transitions) / gets if gets else 0.0
    layers["grid_model.one_norm_calls"] = len(rec.of("grid_model.one_norm"))

    steps = switches = jumps = bisections = resamples = rows = trace_bytes = 0
    if command == "run":
        tr = rec.last["hybrid_sim.simulate"][1]
        steps = int(tr.times.size) - 1
        switches = int(tr.switch_times.size)
        jumps = int(tr.meta["jump_count"])
        bisections = int(tr.meta["freq_bisections"])
        resamples = int(tr.meta["rate_resamples"])
        rows = int(tr.times.size)
        trace_bytes = (out / "trace.csv").stat().st_size
    layers.update(
        {
            "hybrid_sim.steps": steps,
            "hybrid_sim.switches": switches,
            "hybrid_sim.jump_instants": jumps,
            "hybrid_sim.steps_per_switch": steps / switches if switches else 0.0,
            "hybrid_sim.freq_bisections": bisections,
            "hybrid_sim.bisections_per_step": bisections / steps if steps else 0.0,
            "hybrid_sim.rate_resamples": resamples,
            "hybrid_sim.resamples_per_switch": resamples / switches if switches else 0.0,
            "cli.trace_rows": rows,
            "cli.trace_bytes": trace_bytes,
        }
    )
    series = rec.last.get("stats.aggregate_demand_series")
    layers["stats.series_events"] = int(series[1].times.size) if series else 0
    return e2e, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scale", required=True, choices=["full", "tiny"])
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    spec = workloads.WORKLOADS[args.workload][args.scale]
    out = Path(args.out)
    errors: list[str] = []
    record: dict = {"run_id": args.run_id, "trace": args.trace}

    import tclgrid

    src = (ROOT / "src").resolve()
    if src not in Path(tclgrid.__file__).resolve().parents:
        raise SystemExit(f"tclgrid imported from {tclgrid.__file__}, not from {src}")
    record["import_s"] = time.monotonic() - args.spawned_at

    rec = Recorder()
    for point in PHASE_POINTS + (LAYER_POINTS if args.trace else []):
        rec.wrap(*point)
    try:
        printed, ended_at = run_commands(spec["command"], args.scenario, out)
    finally:
        rec.uninstall()

    e2e, layers = summarize(rec, spec["command"], args.spawned_at, ended_at, bool(args.trace), out)
    if args.trace:
        layers["tclgrid.import_s"] = record["import_s"]
    import calibrate  # only now, so that the timed start-up imports nothing extra

    record["calibration_s"] = calibrate.kernel_seconds()
    if spec["command"] == "run":
        check_run(rec, spec, args.scenario, out, errors)
        # the large outputs are checked; drop them so repeats do not pile up
        (out / "trace.csv").unlink()
        (out / "switch_events.csv").unlink()
    else:
        check_analysis(rec, printed, errors)
    for name, text in printed.items():
        (out / f"{name}.stdout").write_text(text)
    rec.write_csv(out / "spans.csv", args.run_id)

    record.update({"e2e": e2e, "layers": layers, "errors": errors})
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        sys.exit(1)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
